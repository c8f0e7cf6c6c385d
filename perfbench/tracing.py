"""Spans around calls into physrec, recorded from the benchmark's side.

``Tracer.install`` replaces each traced public function with a wrapper
under the name its caller looks it up by: ``harness`` and ``neural`` each
hold their own ``integrate_batch`` binding (``from .odesolve import
integrate_batch``), so both are wrapped, and methods are wrapped on their
class.  A span has a name, start and end times from ``time.perf_counter``,
the index of its parent span (-1 at the top) and an optional attribute
recorded from the call (rows, nodes, windows).  Spans stay in memory
until the run writes them out.

``layer_metrics`` turns the spans of one traced repetition into the
per-layer metrics listed in ``catalog.json``.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager, nullcontext

import numpy as np

from physrec import dynamics, harness, neural, signals, sindy, tape

def _rows(args, out):
    return int(np.shape(args[1])[0])


def _solve_rows(args, out):
    # integrate_batch(spec, coeff_rows, ...) -> (states, diverged, t_fail)
    return (int(np.shape(args[1])[0]), int(np.count_nonzero(out[1])))


def _loss_windows(args, out):
    # reconstruction_losses(spec, coeff_rows, d_rows, windows, ...) -> (losses, ...)
    return (len(args[3]), int(np.count_nonzero(out[0] >= neural.DIVERGED_LOSS)))


def _tape_nodes(args, out):
    return len(args[0].nodes)


# (owner, attribute, span name, attribute recorder)
TRACED = (
    (harness, "generate_benchmark_data", "harness.generate_benchmark_data", None),
    (harness, "save_dataset", "harness.save_dataset", None),
    (harness, "load_dataset", "harness.load_dataset", None),
    (harness, "run_experiment", "harness.run_experiment", None),
    (harness, "integrate_batch", "harness.integrate_batch", _solve_rows),
    (harness, "build_library", "harness.build_library", None),
    (harness, "decimate", "harness.decimate", None),
    (harness, "nyquist_rate", "harness.nyquist_rate", None),
    (sindy, "stridge", "sindy.stridge", None),
    (signals, "make_batches", "signals.make_batches", None),
    (neural, "train", "neural.train", None),
    (neural, "reconstruction_losses", "neural.reconstruction_losses", _loss_windows),
    (neural, "integrate_batch", "neural.integrate_batch", _solve_rows),
    (neural, "shift_signed", "neural.shift_signed", None),
    (dynamics.CompiledRhs, "full", "CompiledRhs.full", _rows),
    (tape.Tape, "backward", "Tape.backward", _tape_nodes),
    (neural.AdamState, "update", "AdamState.update", None),
)


class NullTracer:
    """Stands in for a tracer when tracing is off."""

    def span(self, name):
        return nullcontext()


class Tracer:
    """Spans in columns: span ``i`` is ``name[i]``, ``start[i]``, ``end[i]``,
    ``parent[i]`` and ``attr[i]``.  Columns of plain numbers keep the
    garbage collector from scanning one container per span."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.attr: list = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def __len__(self):
        return len(self.name)

    def _open(self, name) -> int:
        idx = len(self.name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name)
        self.end.append(0.0)
        self.attr.append(None)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, owner, attr, name, record):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = original(*args, **kwargs)
            finally:
                self._close(idx)
            if record is not None:
                self.attr[idx] = record(args, out)
            return out

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def install(self):
        for owner, attr, name, record in TRACED:
            self._wrap(owner, attr, name, record)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        """Every span, for writing out as JSON."""
        names = sorted(set(self.name))
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "name": [index[n] for n in self.name],
            "parent": self.parent,
            "start_s": self.start,
            "end_s": self.end,
            "attr": self.attr,
        }


# ---------------------------------------------------------------------------
# per-layer metrics

PHASES = ("bench.setup", "bench.fit0", "bench.fitE", "bench.sweep")


class _Totals:
    """Calls, seconds, self seconds and summed attributes per (phase, name)."""

    def __init__(self, tracer, first, last):
        span = range(first, last)
        dur = {i: tracer.end[i] - tracer.start[i] for i in span}
        child = dict.fromkeys(span, 0.0)
        phase, ctx = {}, {}  # ctx: gen / loss / eval, for integrate_batch
        # a parent is opened, and so appended, before its children
        for i in span:
            p = tracer.parent[i]
            if p >= first:
                child[p] += dur[i]
            name = tracer.name[i]
            phase[i] = name if name in PHASES else phase.get(p)
            if name == "neural.reconstruction_losses":
                ctx[i] = "loss"
            elif name == "harness.generate_benchmark_data":
                ctx[i] = "gen"
            else:
                ctx[i] = ctx.get(p)
        self.table: dict[tuple, list] = {}
        for i in span:
            name = tracer.name[i]
            if name.endswith("integrate_batch"):
                name = f"integrate_batch.{ctx[i] or 'eval'}"
            entry = self.table.setdefault((phase[i], name), [0, 0.0, 0.0, 0, 0])
            entry[0] += 1
            entry[1] += dur[i]
            entry[2] += dur[i] - child[i]
            attr = tracer.attr[i]
            if isinstance(attr, tuple):
                entry[3] += attr[0]
                entry[4] += attr[1]
            elif attr is not None:
                entry[3] += attr

    def get(self, phases, names, field):
        col = {"calls": 0, "s": 1, "self_s": 2, "attr": 3, "attr2": 4}[field]
        return sum(
            v[col] for (ph, nm), v in self.table.items() if ph in phases and nm in names
        )


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, first: int, epochs: int, io_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition: the spans from index
    ``first`` to the end of ``tracer``.  Totals cover the user-visible
    sequence (set-up plus the fit at ``epochs`` epochs, or the sweep);
    ``neural.*`` seconds and ``tape.backward_s`` are per training epoch,
    taken as (fit at ``epochs`` - fit at 0 epochs) / ``epochs``.
    """
    t = _Totals(tracer, first, len(tracer))
    seq = ("bench.setup", "bench.fitE", "bench.sweep")
    fit_e, fit_0 = ("bench.fitE",), ("bench.fit0",)

    def per_epoch(names, field="s"):
        if not epochs:
            return 0.0
        return (t.get(fit_e, names, field) - t.get(fit_0, names, field)) / epochs

    solve = ("integrate_batch.gen", "integrate_batch.loss", "integrate_batch.eval")
    rhs = ("CompiledRhs.full",)
    loss = ("neural.reconstruction_losses",)
    backward = ("Tape.backward",)
    rhs_calls = t.get(seq, rhs, "calls")
    solve_rows = t.get(seq, solve, "attr")
    loss_windows = t.get(fit_e, loss, "attr")
    nodes = t.get(fit_e, backward, "attr")
    return {
        "harness.generate_s": t.get(seq, ("harness.generate_benchmark_data",), "s"),
        "harness.io_s": t.get(seq, ("harness.save_dataset", "harness.load_dataset"), "s"),
        "harness.io_bytes": io_bytes,
        "signals.window_s": t.get(seq, ("signals.make_batches", "harness.decimate"), "s"),
        "signals.shift_calls": t.get(seq, ("neural.shift_signed",), "calls"),
        "signals.shift_s": t.get(seq, ("neural.shift_signed",), "s"),
        "signals.nyquist_s": t.get(seq, ("harness.nyquist_rate",), "s"),
        "dynamics.rhs_calls": rhs_calls,
        "dynamics.rhs_rows": t.get(seq, rhs, "attr"),
        "dynamics.rhs_s": t.get(seq, rhs, "s"),
        "dynamics.rhs_us_per_call": 1e6 * _ratio(t.get(seq, rhs, "s"), rhs_calls),
        "odesolve.gen.solve_s": t.get(seq, ("integrate_batch.gen",), "s"),
        "odesolve.loss.solve_s": t.get(seq, ("integrate_batch.loss",), "s"),
        "odesolve.loss.rows": t.get(seq, ("integrate_batch.loss",), "attr"),
        "odesolve.eval.solve_s": t.get(seq, ("integrate_batch.eval",), "s"),
        "odesolve.eval.calls": t.get(seq, ("integrate_batch.eval",), "calls"),
        "odesolve.self_s": t.get(seq, solve, "self_s"),
        "odesolve.diverged_frac": _ratio(t.get(seq, solve, "attr2"), solve_rows),
        "neural.epoch_s": per_epoch(("neural.train",)),
        "neural.loss_s": per_epoch(loss),
        "neural.loss_self_s": per_epoch(loss, "self_s"),
        "neural.fd_rows_per_window": _ratio(
            t.get(fit_e, ("integrate_batch.loss",), "attr"), loss_windows
        ),
        "neural.diverged_frac": _ratio(t.get(fit_e, loss, "attr2"), loss_windows),
        "neural.step_self_s": per_epoch(("neural.train",), "self_s"),
        "neural.adam_s": per_epoch(("AdamState.update",)),
        "tape.nodes_per_batch": _ratio(nodes, t.get(fit_e, backward, "calls")),
        "tape.backward_s": per_epoch(backward),
        "tape.backward_ns_per_node": 1e9 * _ratio(t.get(fit_e, backward, "s"), nodes),
        "sindy.build_library_calls": t.get(seq, ("harness.build_library",), "calls"),
        "sindy.build_library_s": t.get(seq, ("harness.build_library",), "s"),
        "sindy.stridge_calls": t.get(seq, ("sindy.stridge",), "calls"),
        "sindy.stridge_s": t.get(seq, ("sindy.stridge",), "s"),
    }
