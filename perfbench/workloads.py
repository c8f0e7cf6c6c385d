"""Workloads of the recovery benchmark and the checks on their outputs.

One repetition of a workload runs its whole user-visible sequence once:
set-up (data generation, the dataset's CSV write and read-back,
windowing) and then the fit, or the sweep.  A neural repetition can also
fit at 0 epochs on the same batches, which gives the fixed cost of a fit
and, by difference, the marginal cost of an epoch.  Each timed phase starts
after a full garbage collection, as it would in a fresh process: the
recording tape holds reference cycles, so otherwise the previous phase's
tapes are freed, at a varying cost, inside the next one.

Calls into physrec go through module attributes (``harness.save_dataset``,
``neural.train``) so that ``tracing.Tracer`` can wrap them, and every
phase sits in a ``bench.*`` span.
"""

from __future__ import annotations

import gc
import math
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field, replace

import numpy as np

from physrec import harness, neural, signals

ARCH = "ltc"
K_WINDOW = 200  # recover()'s default window
SPLIT_RATIO = 0.75  # recover()'s default split


@dataclass
class Tally:
    """Points (fits or sweep rows) attempted and failed in one run."""

    attempted: int = 0
    failed: int = 0


@dataclass
class Rep:
    """Timings and outputs of one repetition."""

    setup_s: float
    fit_s: float  # fit at the workload's epochs, or the sweep rows' runtime
    fixed_s: float | None  # fit at 0 epochs, when this repetition ran it
    rmse_coeffs: float
    rmse_y: float
    estimates: str  # exact fingerprint of every estimate the fit returned
    zero_estimates: str | None  # the same for the fit at 0 epochs
    problems: list[str]
    io_bytes: int = 0
    elapsed_s: float = 0.0  # whole repetition, for pacing the run
    layers: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.fit_s


def fingerprint(*values) -> str:
    """Bit-exact text form of floats and float arrays (NaN-safe)."""
    parts = []
    for v in values:
        arr = np.atleast_1d(np.asarray(v, dtype=float))
        parts.append(",".join(float(x).hex() for x in arr.ravel()))
    return "|".join(parts)


def _dir_bytes(path) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


@dataclass(frozen=True)
class NeuralWorkload:
    """A generated dataset, saved and reloaded, then recovered with LTC."""

    name: str
    system: str
    generation: tuple  # (key, value) overrides of the generation preset
    shift_channels: tuple[int, ...]
    epochs: int

    def train_config(self, epochs: int) -> neural.TrainConfig:
        return neural.TrainConfig(epochs=epochs, shift_channels=self.shift_channels)

    def run_rep(self, seed, workdir, tracer, tally: Tally, fit_zero: bool = True) -> Rep:
        t_rep = time.perf_counter()
        tally.attempted += 1  # the first fit, which needs the set-up
        data_dir = tempfile.mkdtemp(prefix="dataset-", dir=workdir)
        try:
            gc.collect()
            t0 = time.perf_counter()
            with tracer.span("bench.setup"):
                spec, truth, traces, meta = harness.generate_benchmark_data(
                    self.system, dict(self.generation), seed=seed
                )
                harness.save_dataset(data_dir, spec, truth, traces, meta)
                spec, truth_loaded, traces, _ = harness.load_dataset(data_dir)
                cfg = self.train_config(self.epochs)
                batches = signals.make_batches(
                    traces, cfg.batch_size, K_WINDOW, SPLIT_RATIO, seed=cfg.seed
                )
            setup_s = time.perf_counter() - t0
            io_bytes = _dir_bytes(data_dir)
        finally:
            shutil.rmtree(data_dir)

        problems, fixed_s, zero_estimates = [], None, None
        if fit_zero:
            gc.collect()
            t0 = time.perf_counter()
            with tracer.span("bench.fit0"):
                fit0 = neural.train(
                    ARCH, spec, batches, self.train_config(0), coeffs_true=truth_loaded
                )
            fixed_s = time.perf_counter() - t0
            problems += check_fit(spec, truth, truth_loaded, self.train_config(0), fit0)
            zero_estimates = fingerprint(fit0.coeffs.values, fit0.shifts, fit0.rmse_y)
            tally.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        with tracer.span("bench.fitE"):
            fit = neural.train(ARCH, spec, batches, cfg, coeffs_true=truth_loaded)
        fit_s = time.perf_counter() - t0

        problems += check_fit(spec, truth, truth_loaded, cfg, fit)
        return Rep(
            setup_s=setup_s,
            fit_s=fit_s,
            fixed_s=fixed_s,
            rmse_coeffs=fit.rmse_coeffs,
            rmse_y=fit.rmse_y,
            estimates=fingerprint(
                fit.coeffs.values, fit.shifts, fit.rmse_y, fit.loss_history
            ),
            zero_estimates=zero_estimates,
            problems=problems,
            io_bytes=io_bytes,
            elapsed_s=time.perf_counter() - t_rep,
        )


@dataclass(frozen=True)
class SweepWorkload:
    """One ``run_experiment`` sweep through the public harness path."""

    name: str
    config: harness.ExperimentConfig
    epochs: int = 0  # no training epochs

    def run_rep(self, seed, workdir, tracer, tally: Tally, fit_zero: bool = True) -> Rep:
        # a sweep has no 0-epoch fit; fit_zero keeps the workloads' signature
        cfg = replace(self.config, seed=seed)
        tally.attempted += 1  # the sweep is one point until it returns rows
        gc.collect()
        t0 = time.perf_counter()
        with tracer.span("bench.sweep"):
            rows = harness.run_experiment(cfg)
        wall = time.perf_counter() - t0
        tally.attempted += len(rows) - 1
        tally.failed += sum(r.status != "ok" for r in rows)
        fit_s = sum(r.runtime_s for r in rows)
        return Rep(
            setup_s=wall - fit_s,
            fit_s=fit_s,
            fixed_s=None,
            rmse_coeffs=statistics.median(r.rmse_coeffs for r in rows),
            rmse_y=statistics.median(r.rmse_y for r in rows),
            estimates=";".join(
                f"{r.sampling_factor}:{r.status}:"
                + fingerprint(r.rmse_coeffs, r.rmse_y, r.coeff_errors, r.shifts)
                for r in rows
            ),
            zero_estimates=None,
            problems=check_sweep(cfg, rows),
            elapsed_s=wall,
        )


# ---------------------------------------------------------------------------
# output checks


def check_fit(spec, truth, truth_loaded, cfg, result) -> list[str]:
    """Problems with one neural recovery result; empty when it is sound."""
    problems = []
    tag = f"fit at {cfg.epochs} epochs"
    if not np.array_equal(truth_loaded.values, truth.values):
        problems.append("dataset round trip changed the true coefficients")
    est = np.asarray(result.coeffs.values, dtype=float)
    if est.shape != (spec.p,):
        problems.append(f"{tag}: {est.shape[0]} coefficients, expected {spec.p}")
        return problems
    signs = spec.sign_vector()
    if not np.all(np.isfinite(est)) or np.any(signs * est < 0):
        problems.append(f"{tag}: coefficients {est.tolist()} break the sign constraints")
    losses = result.loss_history
    if len(losses) != cfg.epochs or not all(math.isfinite(v) for v in losses):
        problems.append(f"{tag}: loss history {losses} is not {cfg.epochs} finite values")
    shifts = np.asarray(result.shifts, dtype=float)
    if shifts.shape != (cfg.n_shift,) or np.any(~(shifts >= 0) | (shifts > cfg.s_max)):
        problems.append(f"{tag}: shifts {shifts.tolist()} outside [0, {cfg.s_max}]")
    recomputed = float(np.sqrt(np.mean((est - truth.values) ** 2)))
    if result.rmse_coeffs is None or not math.isclose(
        recomputed, result.rmse_coeffs, rel_tol=1e-12, abs_tol=0.0
    ):
        problems.append(
            f"{tag}: rmse_coeffs {result.rmse_coeffs} != {recomputed} recomputed from estimates"
        )
    return problems


def check_sweep(cfg, rows) -> list[str]:
    """Problems with the rows of a sampling-rate (c1) sweep."""
    problems = [f"row {r.point}: {r.status}" for r in rows if r.status != "ok"]
    factors = [r.sampling_factor for r in rows]
    top = factors[-1] if factors else 0
    grid = np.geomspace(1, max(top, 1), cfg.rate_points)
    expected = [int(f) for f in np.unique(np.round(grid))]
    if top < 2 or factors != expected:
        problems.append(f"sweep factors {factors}, expected {expected} from full rate to Nyquist")
    p = harness.get_system(cfg.system)[0].p
    for r in rows:
        if len(r.coeff_errors) != p or not math.isfinite(r.rmse_coeffs):
            problems.append(f"row {r.point}: {len(r.coeff_errors)} coefficient errors, "
                            f"rmse_coeffs {r.rmse_coeffs}")
    return problems


# ---------------------------------------------------------------------------
# the workloads

WORKLOADS = {
    wl.name: wl
    for wl in (
        NeuralWorkload(
            name="aid_search",
            system="bergman_aid",
            generation=(("injected_shift", 10),),
            shift_channels=(1,),
            epochs=4,
        ),
        NeuralWorkload(
            name="lv_c5",
            system="lotka_volterra",
            generation=(("injected_shift", 10), ("n_traces", 4)),
            shift_channels=(0,),
            epochs=2,
        ),
        SweepWorkload(
            name="lv_c1_sindyc",
            config=harness.ExperimentConfig(
                experiment="c1", arch="sindyc", generation=(("n_traces", 4),)
            ),
        ),
    )
}
