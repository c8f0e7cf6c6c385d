"""Recovery benchmark for physrec.

Run one workload (the form ``BENCHMARK.json``'s command takes):

    python3 perfbench/run.py --workload aid_search --seed 1 --seconds 40 --trace 0

or every workload, one fresh process each, with a summary table:

    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]

A run repeats the workload's sequence (see ``workloads.py``) until
``--seconds`` have passed, at least ``MIN_REPS`` times, checks every
output, and prints the metrics by name and unit.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of ``catalog.json`` (medians over the
repetitions) with ``--trace 0``, its per-layer metrics with ``--trace 1``.
A traced run alternates untraced repetitions with ones that wrap
physrec's public functions; the traced estimates must equal the untraced
ones bit for bit and the traced counts must repeat exactly.  Result
records and spans go to ``perfbench/out/``.  The exit code is nonzero
when a check fails.

The load is this one process: BLAS runs on one thread and nothing is
started in parallel.  physrec is imported from ``src/`` next to this
directory, so the benchmark fails at once where that is missing.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
MIN_REPS = 3  # least untraced repetitions per run
MIN_TRACED_REPS = 2  # least traced repetitions per run, so counts can be compared
TIME_UNITS = ("s", "us", "ns")


def load_catalog() -> dict:
    with open(os.path.join(HERE, "catalog.json")) as fh:
        return json.load(fh)


def import_physrec():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import physrec
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import physrec from {ROOT}/src: {e}")
    where = os.path.dirname(os.path.abspath(physrec.__file__))
    if where != os.path.join(ROOT, "src", "physrec"):
        raise SystemExit(f"perfbench: physrec was imported from {where}, not {ROOT}/src")


# ---------------------------------------------------------------------------
# environment record


def _git_commit():
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _blas():
    """BLAS library name and the thread count it reports."""
    import ctypes
    import glob

    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        name = "unknown"
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, int(os.environ["OPENBLAS_NUM_THREADS"])


def environment(seed: int) -> dict:
    import numpy as np

    blas, threads = _blas()
    return {
        "seed": seed,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# one workload in this process


def _attempt(wl, seed, tracer, tally, problems, fit_zero=True):
    try:
        return wl.run_rep(seed, OUT_DIR, tracer, tally, fit_zero)
    except Exception:  # a failing point is counted and reported, not timed
        tally.failed += 1
        problems.append(traceback.format_exc().strip().splitlines()[-1])
        traceback.print_exc()
        return None


def _longest(reps) -> float:
    # the first untraced repetition also ran the 0-epoch fit; it paces only itself
    return max(r.elapsed_s for r in reps[1:] or reps)


def _median(reps, attr):
    return statistics.median(getattr(r, attr) for r in reps)


def _epoch_s(reps, epochs):
    """(median fit at ``epochs`` - median fit at 0 epochs) / ``epochs``."""
    if not epochs:
        return None
    zero = [r for r in reps if r.fixed_s is not None]
    return (_median(reps, "fit_s") - _median(zero, "fixed_s")) / epochs


def measure(wl, seed: int, seconds: float, trace: bool):
    """Repetitions of one workload; returns (untraced, traced, problems, tally, tracer).

    The 0-epoch fit runs in the first repetition only: it feeds only the
    unbounded fixed_s and epoch_s, and leaving it out of later repetitions
    makes room for more.  A traced run alternates untraced and traced
    repetitions, so that the tracing overhead compares repetitions made
    under the same machine load.
    """
    from tracing import NullTracer, Tracer, layer_metrics
    from workloads import Tally

    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.perf_counter() + seconds
    tally, problems = Tally(), []
    untraced, traced = [], []
    tracer = Tracer() if trace else None
    while True:
        rep = _attempt(wl, seed, NullTracer(), tally, problems, fit_zero=not untraced)
        if rep is None:
            break
        untraced.append(rep)
        if trace:
            first = len(tracer)
            tracer.install()
            try:
                rep = _attempt(wl, seed, tracer, tally, problems)
            finally:
                tracer.uninstall()
            if rep is None:
                break
            rep.layers = layer_metrics(tracer, first, wl.epochs, rep.io_bytes)
            traced.append(rep)
        need = _longest(untraced) + (_longest(traced) if trace else 0.0)
        if (len(untraced) >= (MIN_TRACED_REPS if trace else MIN_REPS)
                and time.perf_counter() + need > deadline):
            break
    reps = untraced + traced
    for rep in reps:
        problems.extend(rep.problems)
    for attr in ("estimates", "zero_estimates"):
        if len({getattr(r, attr) for r in reps} - {None}) > 1:
            problems.append(f"{attr} differ between repetitions of one seed")
    return untraced, traced, problems, tally, tracer


def end_to_end(untraced) -> dict:
    return {
        "setup_s": _median(untraced, "setup_s"),
        "wall_s": _median(untraced, "wall_s"),
        "fit_s": _median(untraced, "fit_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def reported(reps, epochs, tally) -> dict:
    """The other user-facing figures, recorded but not bounded."""
    zero = [r for r in reps if r.fixed_s is not None]
    return {
        "epoch_s": _epoch_s(reps, epochs),
        "fixed_s": _median(zero, "fixed_s") if zero else None,
        "rmse_coeffs": reps[0].rmse_coeffs,
        "rmse_y": reps[0].rmse_y,
        "failed_frac": tally.failed / tally.attempted if tally.attempted else 0.0,
    }


def per_layer(untraced, traced, epochs, catalog, problems) -> dict:
    metrics = {}
    for m in catalog["per_layer"]:
        name = m["name"]
        if name.startswith("trace."):
            continue
        values = [r.layers[name] for r in traced]
        if m["unit"] in TIME_UNITS:
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced repetitions: {values}")
            metrics[name] = values[0]
    metrics["trace.overhead_epoch_s"] = (
        metrics["neural.epoch_s"] - _epoch_s(untraced, epochs) if epochs else 0.0
    )
    metrics["trace.overhead_wall_s"] = _median(traced, "wall_s") - _median(untraced, "wall_s")
    return metrics


def run_one(args) -> int:
    import_physrec()
    from workloads import WORKLOADS

    catalog = load_catalog()
    wl = WORKLOADS[args.workload]
    env = environment(args.seed)
    untraced, traced, problems, tally, tracer = measure(
        wl, args.seed, args.seconds, bool(args.trace)
    )
    if tally.failed:
        problems.append(f"{tally.failed} of {tally.attempted} points failed")
    units = {m["name"]: m["unit"] for key in ("end_to_end", "reported", "per_layer")
             for m in catalog[key]}

    record = {"workload": wl.name, "seconds": args.seconds, "trace": args.trace, **env,
              "reps": len(untraced), "traced_reps": len(traced)}
    if untraced:
        record["end_to_end"] = end_to_end(untraced)
        record["reported"] = reported(untraced, wl.epochs, tally)
    if args.trace and traced:
        record["per_layer"] = per_layer(untraced, traced, wl.epochs, catalog, problems)
    record["problems"] = problems
    record["rep_times"] = [
        {k: getattr(r, k) for k in ("setup_s", "fit_s", "fixed_s", "elapsed_s")}
        for r in untraced + traced
    ]
    stem = os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        with open(stem + "-spans.json", "w") as fh:
            json.dump(tracer.dump(), fh)

    print(f"perfbench {wl.name}: seed={args.seed} reps={len(untraced)} "
          f"traced_reps={len(traced)} commit={env['git_commit']} python={env['python']} "
          f"numpy={env['numpy']} blas={env['blas']} blas_threads={env['blas_threads']} "
          f"nproc={env['nproc']}")
    for section in ("end_to_end", "reported", "per_layer"):
        for name, value in record.get(section, {}).items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {section:10s} {name:28s} {shown:>14s} {units[name]}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")

    correct = not problems and bool(untraced) and (bool(traced) or not args.trace)
    chosen = "per_layer" if args.trace else "end_to_end"
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in record.get(chosen, {}).items()
    }
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# every workload, one process each


def run_all(args) -> int:
    catalog = load_catalog()
    status = 0
    for w in catalog["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"perfbench {w['name']}: exit code {proc.returncode}")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        choices=[w["name"] for w in load_catalog()["workloads"]],
        help="one workload; all of them, one process each, when omitted",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
