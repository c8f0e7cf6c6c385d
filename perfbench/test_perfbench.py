"""Tiny-size checks of the benchmark itself.

Two traced repetitions of each workload, shrunk, must give identical
estimates and identical work counts, equal to an untraced repetition's
estimates; later changes can then cite these counts as exact.  Also:
``BENCHMARK.json`` agrees with ``catalog.json``, and ``run.py`` fails
without printing a result where ``src/`` is missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from physrec import neural  # noqa: E402
from tracing import NullTracer, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402

TINY = {
    "aid_search": replace(
        WORKLOADS["aid_search"], generation=(("injected_shift", 10), ("n_traces", 1)), epochs=1
    ),
    "lv_c5": replace(
        WORKLOADS["lv_c5"],
        generation=(("injected_shift", 10), ("n_traces", 1), ("k", 200)),
        epochs=1,
    ),
    "lv_c1_sindyc": replace(
        WORKLOADS["lv_c1_sindyc"],
        config=replace(WORKLOADS["lv_c1_sindyc"].config, generation=(("n_traces", 1), ("k", 400))),
    ),
}

COUNTS = (
    "dynamics.rhs_calls",
    "dynamics.rhs_rows",
    "odesolve.loss.rows",
    "odesolve.eval.calls",
    "signals.shift_calls",
    "tape.nodes_per_batch",
    "sindy.build_library_calls",
    "sindy.stridge_calls",
    "neural.fd_rows_per_window",
)


def _traced_rep(wl, seed, workdir):
    tracer = Tracer()
    tracer.install()
    try:
        rep = wl.run_rep(seed, workdir, tracer, Tally())
    finally:
        tracer.uninstall()
    return rep, layer_metrics(tracer, 0, wl.epochs, rep.io_bytes)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_reps_repeat_exactly(name, tmp_path):
    wl = TINY[name]
    plain = wl.run_rep(3, str(tmp_path), NullTracer(), Tally())
    a, layers_a = _traced_rep(wl, 3, str(tmp_path))
    b, layers_b = _traced_rep(wl, 3, str(tmp_path))

    assert plain.problems == a.problems == b.problems == []
    assert a.estimates == b.estimates == plain.estimates
    assert a.zero_estimates == b.zero_estimates == plain.zero_estimates
    counts_a = {k: layers_a[k] for k in COUNTS}
    assert counts_a == {k: layers_b[k] for k in COUNTS}
    assert counts_a["dynamics.rhs_calls"] > 0
    if name == "lv_c1_sindyc":
        assert counts_a["sindy.build_library_calls"] > 0
        assert counts_a["tape.nodes_per_batch"] == 0
    else:
        p, q = (9, 1) if name == "aid_search" else (4, 1)
        assert counts_a["neural.fd_rows_per_window"] == 1 + 2 * p + 2 * q
        assert counts_a["tape.nodes_per_batch"] > 0
        assert counts_a["sindy.build_library_calls"] == 0
    assert neural.train.__name__ == "train" and not hasattr(neural.train, "__wrapped__")


def test_benchmark_json_matches_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "catalog.json")) as fh:
        catalog = json.load(fh)
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w["name"], w["why"]) for w in catalog["workloads"]
    ]
    assert set(WORKLOADS) == {w["name"] for w in catalog["workloads"]}
    for key, fields in (("end_to_end", ("name", "unit", "better", "bound")),
                        ("per_layer", ("name", "unit", "better"))):
        assert bench[key] == [{f: m[f] for f in fields} for m in catalog[key]]


def test_fails_without_the_program(tmp_path):
    os.mkdir(tmp_path / "perfbench")
    for entry in os.scandir(HERE):
        if entry.is_file() and entry.name.endswith((".py", ".json")):
            shutil.copy(entry.path, tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "aid_search",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
