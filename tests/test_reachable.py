"""Reachability guard: every top-level function in ``physrec`` and every
non-dunder method of its top-level classes (the definitions
``test_dead_names`` walks) is called when each CLI subcommand runs once at
tiny size.

A public name that only tests reach is a candidate for deletion; this test
finds such names by running ``cli.main`` under ``sys.setprofile`` and
collecting the code objects it enters.  Functions are keyed on their file
and first line, so the check needs no ``co_qualname`` (Python 3.11+).
"""

import ast
import json
import sys
from pathlib import Path

from test_dead_names import _definitions, _parse

import physrec
from physrec import cli

PACKAGE = Path(physrec.__file__).resolve().parent

# called from outside the command-line tool, with the reason
ALLOWED = {
    ("harness.py", "get_system"): "the benchmark's sweep check looks a system up by name",
}

TINY_TRAIN = {"epochs": 1, "hidden_width": 4, "head_layers": [6], "solve_substeps": 1}


def _functions():
    """``(file name, qualified name) -> (path, first line)`` of the
    functions and methods among the package's definitions."""
    def first_line(node):  # a decorated function's code starts at its first decorator
        return min([node.lineno, *(d.lineno for d in node.decorator_list)])

    return {
        (path.name, qual): (str(path), first_line(node))
        for path in sorted(PACKAGE.glob("*.py"))
        for qual, node in _definitions(_parse(path))
        if not isinstance(node, ast.ClassDef)
    }


def _run_every_subcommand(tmp):
    """Each subcommand at tiny size, with the exit code it should give."""
    runs = []

    def run(argv, code=0):
        runs.append((argv[0], cli.main(argv), code))

    data = tmp / "lv"
    for system, overrides in (
        ("scalar", {"n_traces": 1, "k": 40, "perturbation": False}),
        ("lorenz", {"n_traces": 1, "k": 40}),
        ("bergman_aid", {"n_traces": 1, "k": 81, "injected_shift": 2}),
        ("eeg_dvdp", {"n_traces": 1, "k": 40}),
        ("lotka_volterra", {"n_traces": 2, "k": 60}),
    ):
        out = data if system == "lotka_volterra" else tmp / system
        run(["generate", "--system", system, "--seed", "1",
             "--out", str(out), "--overrides", json.dumps(overrides)])

    for arch, extra in (("ltc", {"mask": [1, 0]}), ("ctrnn", {}), ("node", {}), ("sindyc", {})):
        config = tmp / f"{arch}.json"
        train = {**TINY_TRAIN, "shift_channels": [0]} if arch == "ltc" else TINY_TRAIN
        config.write_text(json.dumps({"k_window": 30, "train": train, **extra}))
        run(["recover", "--arch", arch, "--data", str(data), "--config", str(config),
             "--out", str(tmp / f"{arch}-result.json")])

    for experiment, arch, generation in (
        ("c1", "sindyc", {"n_traces": 1, "k": 200}),
        ("c2", "ltc", {"n_traces": 1, "k": 40}),
        ("c5", "ltc", {"n_traces": 1, "k": 40}),
        ("aid", "ltc", {"n_traces": 1, "k": 81}),
        ("eeg", "sindyc", {"n_traces": 1, "k": 40}),
        ("single", "sindyc", {"n_traces": 1, "k": 200}),
    ):
        config = tmp / f"sweep-{experiment}.json"
        config.write_text(json.dumps({"arch": arch, "injected_shifts": [2], "rate_points": 2,
                                      "generation": generation, "train": TINY_TRAIN}))
        fmt = "json" if experiment == "c1" else "csv"
        run(["sweep", "--experiment", experiment, "--config", str(config),
             "--out", str(tmp / f"{experiment}.{fmt}")])

    run(["nyquist", "--data", str(data / "trace_000.csv")])
    ragged = tmp / "ragged.csv"
    ragged.write_text("t,y1\n0.0,1\n0.5,x\n1.0,1\n")
    run(["nyquist", "--data", str(ragged)], code=1)
    return runs


def _clear_caches():
    """Empty the package's ``lru_cache``s, so that a cached function counts
    as reached only when the command line calls it, not when an earlier
    test left its result in the cache."""
    for name, module in list(sys.modules.items()):
        if name.startswith("physrec."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear") and obj.__module__ == name:
                    obj.cache_clear()


def test_every_function_is_reached_from_the_command_line(tmp_path, capsys):
    _clear_caches()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        runs = _run_every_subcommand(tmp_path)
    finally:
        sys.setprofile(previous)
    assert [(cmd, got) for cmd, got, want in runs if got != want] == []
    err = capsys.readouterr().err
    assert err.count(" 0 failed;") == 6 and err.count("physrec: error:") == 1, err

    reached = {(str(Path(name).resolve()), line) for name, line in entered}
    functions = _functions()
    assert set(ALLOWED) <= set(functions)
    unreached = sorted(
        f"{file}:{qual}" for (file, qual), key in functions.items()
        if key not in reached and (file, qual) not in ALLOWED
    )
    assert not unreached, f"defined but not reached from the command line: {unreached}"
