"""Experiment harness: benchmark data generation, sweeps, reports.

Benchmark presets simulate the built-in systems under scripted forcing
(smooth random pulses for the oscillator benchmarks, scheduled meals and
boluses for the insulin system) and keep generation-time ground truth in
trace metadata so timing-error experiments can score recovered shifts
exactly.  A preset's truth is simulated once and can be reported with its
input timestamps shifted by any number of samples.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields, replace
from functools import partial

import numpy as np

from . import neural, signals, sindy
from .dynamics import (
    Coefficients,
    ConfigError,
    Factor,
    SensingMask,
    SpecError,
    SystemSpec,
    Term,
    builtin_system,
    dump_system_config,
    json_value,
    load_json,
    load_system_config,
    write_json,
)
from .neural import ARCHS, RecoveryResult, TrainConfig, replay, rmse_coeffs
from .odesolve import integrate_batch
from .signals import Trace, decimate, nyquist_rate
from .sindy import (
    build_library,
    estimate_derivatives,
    library_columns,
    map_to_coefficients,
    model_spec,
)

# ---------------------------------------------------------------------------
# systems available to the harness


def scalar_decay_system() -> tuple[SystemSpec, Coefficients]:
    """Single-state linear decay driven by one input: xdot = -a x + u."""
    spec = SystemSpec(
        name="scalar_decay",
        n=1,
        m=1,
        f_terms=(Term(0, "a", (Factor(0),), -1.0),),
        g_terms=(Term(0, None, (), 1.0, input=0),),
        coeff_names=("a",),
        coeff_signs=("nonneg",),
        resting=(0.0,),
    )
    return spec, spec.coefficients([1.0])


def get_system(name_or_path: str) -> tuple[SystemSpec, Coefficients]:
    if name_or_path == "scalar":
        return scalar_decay_system()
    try:
        return builtin_system(name_or_path)
    except KeyError:
        pass
    return load_system_config(name_or_path)


# ---------------------------------------------------------------------------
# benchmark data generation


def lv_unit_system() -> tuple[SystemSpec, Coefficients]:
    """The predator-prey benchmark in unit-normalized state coordinates.

    States are the canonical system's stocks divided by their resting
    levels (100, 20), which maps the coefficient vector (0.5, 0.025, 0.5,
    0.005) onto (0.5, 0.5, 0.5, 0.5) and the equilibrium onto (1, 1); the
    input channel is likewise per-unit.  Same dynamics, O(1) everywhere.
    """
    raw, _ = builtin_system("lotka_volterra")
    spec = SystemSpec(
        name="lotka_volterra_unit",
        n=raw.n,
        m=raw.m,
        f_terms=raw.f_terms,
        g_terms=raw.g_terms,
        coeff_names=raw.coeff_names,
        coeff_signs=raw.coeff_signs,
        resting=(1.0, 1.0),
    )
    return spec, spec.coefficients([0.5, 0.5, 0.5, 0.5])


# A forcing rule ``forcing(cfg, x0_rows, rng) -> report`` draws the initial
# states, displacing the resting ``x0_rows`` in place, and the true input
# of every trace from ``rng``.  ``report(shift) -> (u, trace_meta,
# dataset_meta)`` is the input as it is reported ``shift`` samples early,
# with the metadata that depends on it; ``report(0)`` is the true input.
# ``generate_benchmark_data`` lists the rule of each preset.


def _gauss_pulse_row(times: np.ndarray, centers, widths, amps) -> np.ndarray:
    row = np.zeros_like(times)
    for c, w, a in zip(centers, widths, amps):
        row += a * np.exp(-0.5 * ((times - c) / w) ** 2)
    return row


def _draw_pulses(cfg, times, rng, last) -> list:
    """Per trace, the sorted centers (in 5% to ``last`` of the horizon),
    widths and signed amplitudes of ``cfg["pulses"]`` Gaussian pulses."""
    n_p, horizon = cfg["pulses"], times[-1]
    pulses = []
    for _ in range(cfg["n_traces"]):
        centers = np.sort(rng.uniform(0.05 * horizon, last * horizon, n_p))
        widths = rng.uniform(*cfg["width"], n_p)
        amps = rng.uniform(*cfg["amp"], n_p) * rng.choice([-1.0, 1.0], n_p)
        pulses.append((centers, widths, amps))
    return pulses


def _pulse_report(pulses, times, dt, key, applied=True, dataset_meta=None):
    def report(shift):
        u = np.zeros((len(pulses), 1, times.size))
        if applied:
            for row, (centers, widths, amps) in zip(u, pulses):
                row[0] = _gauss_pulse_row(times, centers - shift * dt, widths, amps)
        trace_meta = [
            {key: {"centers": c.tolist(), "widths": w.tolist(), "amps": a.tolist()}}
            for c, w, a in pulses
        ]
        return u, trace_meta, dataset_meta or {}

    return report


def _pulsed_forcing(cfg, x0_rows, rng, x0_offset=None):
    T, times = cfg["n_traces"], cfg["dt"] * np.arange(cfg["k"])
    if x0_offset is not None:
        x0_rows += rng.normal(0.0, 1.0, x0_rows.shape) + np.array(x0_offset)
    pulses = _draw_pulses(cfg, times, rng, 0.9)
    if not cfg["perturbation"]:
        # unperturbed runs need initial-condition excitation instead
        pulses = [(c[:0], w[:0], a[:0]) for c, w, a in pulses]
        x0_rows[:, 0] = rng.uniform(0.5, 2.0, T)
    return _pulse_report(pulses, times, cfg["dt"], "pulses")


def _lv_forcing(cfg, x0_rows, rng):
    T, times = cfg["n_traces"], cfg["dt"] * np.arange(cfg["k"])
    kicks = _draw_pulses(cfg, times, rng, 0.92)
    # free-oscillation content comes from displacing the observed prey
    # stock; the hidden channel keeps its declared resting value so
    # hidden-state seeding stays exact
    jitter = cfg["x0_jitter_perturbed"] if cfg["perturbation"] else cfg["x0_jitter"]
    if jitter:
        x0_rows[:, 1] += rng.uniform(-jitter, jitter, T)
    units = {"units": "states per resting level"}
    return _pulse_report(kicks, times, cfg["dt"], "kicks", cfg["perturbation"], units)


def _meal_forcing(cfg, x0_rows, rng):
    T, k, dt = cfg["n_traces"], cfg["k"], cfg["dt"]
    if round(400.0 / dt) > k - 1:
        raise ConfigError(
            f"preset 'bergman_aid': meals fall up to 400 min, past the last sample "
            f"at {(k - 1) * dt:g} min of a k={k}, dt={dt} grid"
        )
    insulin = np.zeros((T, 2, k))
    insulin[:, 0, :] = cfg["basal"]
    meals = []
    for row in insulin:
        meal_t = rng.uniform(15.0, 400.0)
        carbs = rng.uniform(0.0, 28.0)
        bolus = rng.uniform(0.0, 40.0)
        meal_idx = int(round(meal_t / dt))
        row[0, min(meal_idx + rng.integers(0, 3), k - 1)] += bolus / 4.0
        meals.append((meal_idx, carbs))

    def report(shift):
        u = insulin.copy()
        events_true, events_reported = [], []
        for row, (meal_idx, carbs) in zip(u, meals):
            reported_idx = max(meal_idx - shift, 0)
            row[1, reported_idx] += carbs
            events_true.append((1, meal_idx * dt, carbs))
            events_reported.append((1, reported_idx * dt, carbs))
        trace_meta = [
            {"event_true": e, "event_reported": r} for e, r in zip(events_true, events_reported)
        ]
        return u, trace_meta, {"events_true": events_true, "events_reported": events_reported}

    return report


def _eeg_forcing(cfg, x0_rows, rng):
    T, k, dt, kind = cfg["n_traces"], cfg["k"], cfg["dt"], cfg["input_kind"]
    if kind not in ("sine", "wiener"):
        raise ConfigError(f"preset 'eeg_dvdp': unknown input_kind {kind!r}; use sine or wiener")
    times = dt * np.arange(k)
    u_true = np.zeros((T, 1, k))
    for row in u_true:
        if kind == "sine":
            phase = rng.uniform(0.0, 2 * np.pi)
            row[0] = cfg["amp"] * np.sin(2 * np.pi * cfg["freq"] * times + phase)
        else:
            # pre-sampled Wiener increments per grid cell, held between samples
            row[0] = cfg["wiener_scale"] * rng.normal(0.0, 1.0, k) * np.sqrt(dt) / dt
    x0_rows[:, 0] += rng.uniform(-0.2, 0.2, T)
    x0_rows[:, 2] += rng.uniform(-0.2, 0.2, T)

    def report(shift):
        u = np.roll(u_true, -shift, axis=2) if shift else u_true.copy()
        if shift:
            u[:, :, -shift:] = 0.0
        return u, [{"input_kind": kind}] * T, {"input_kind": kind}

    return report


@dataclass(frozen=True)
class _Preset:
    system: Callable[[], tuple[SystemSpec, Coefficients]]
    labels: tuple[str, ...]
    ext_channels: tuple[int, ...]  # inputs whose reported timing can be wrong
    forcing: Callable
    defaults: dict  # every override key the preset reads but injected_shift
    # RK4 substeps of the truth: the fewest within 1e-6 relative RMS of a
    # 40-substep truth on seeds 0-10 at the default size (CHANGES.md)
    gen_substeps: int


_PRESETS = {
    "scalar": _Preset(
        scalar_decay_system, ("x1", "u1"), (0,), _pulsed_forcing,
        dict(n_traces=64, k=200, dt=0.1, pulses=4, width=(0.25, 0.5), amp=(0.8, 2.0),
             perturbation=True),
        gen_substeps=1,
    ),
    "lorenz": _Preset(
        partial(builtin_system, "lorenz"), ("x1", "x2", "x3", "u1"), (0,),
        partial(_pulsed_forcing, x0_offset=(1.0, 1.0, 25.0)),
        dict(n_traces=8, k=4000, dt=0.002, pulses=6, width=(0.01, 0.03), amp=(20.0, 60.0),
             perturbation=True),
        gen_substeps=2,
    ),
    # The benchmark works in unit-normalized state coordinates (levels
    # divided by the canonical resting stocks), which puts every
    # coefficient at the same 0.5 magnitude.  Forcing is a sparse train of
    # slow, gentle pulses: slow enough that a zero-order hold at the
    # spectral sampling rate still represents them and that the
    # conservative oscillation mode stays quiet, strong enough that the
    # forced excursion pins the coefficient ratios.
    "lotka_volterra": _Preset(
        lv_unit_system, ("x1", "x2", "u1"), (0,), _lv_forcing,
        dict(n_traces=64, k=2420, dt=0.1, pulses=5, width=(5.0, 8.0), amp=(0.015, 0.045),
             x0_jitter=0.05, x0_jitter_perturbed=0.0, perturbation=True),
        gen_substeps=1,
    ),
    "bergman_aid": _Preset(
        partial(builtin_system, "bergman_aid"), ("i", "i_s", "g", "insulin", "meal"), (1,),
        _meal_forcing, dict(n_traces=14, k=200, dt=5.0, basal=0.25), gen_substeps=2,
    ),
    "eeg_dvdp": _Preset(
        partial(builtin_system, "eeg_dvdp"), ("x1", "v1", "x2", "v2", "u1"), (0,), _eeg_forcing,
        dict(n_traces=16, k=1200, dt=0.02, amp=0.6, freq=0.35, wiener_scale=0.8,
             input_kind="sine"),
        gen_substeps=2,
    ),
}


@dataclass(frozen=True)
class _Truth:
    """A preset simulated once: its merged config, the true states of every
    trace and the forcing's report rule."""

    preset: str
    seed: int
    cfg: dict
    spec: SystemSpec
    coeffs: Coefficients
    states: np.ndarray  # traces x n x k
    report: Callable


def _shift_samples(value) -> int:
    shift = int(value)
    if shift < 0:
        raise ConfigError(f"injected_shift must be >= 0 samples, got {shift}")
    return shift


def _simulate(preset: str, overrides: dict, seed: int) -> _Truth:
    """Merge ``overrides`` into the preset's defaults, each read by
    ``json_value`` as its default's type (a pair of numbers for a pair),
    draw the forcing and integrate the true input, once for every
    ``injected_shift``."""
    if preset not in _PRESETS:
        raise SpecError(f"no generation preset for system {preset!r}")
    row = _PRESETS[preset]
    # a preset without a perturbation default has no unperturbed variant
    cfg = {"injected_shift": 0, "perturbation": True, **row.defaults}
    for key, value in overrides.items():
        if key not in cfg:
            raise ConfigError(
                f"preset {preset!r} reads no override {key!r}; it reads {', '.join(cfg)}"
            )
        default = cfg[key]
        tp = tuple[tuple(map(type, default))] if isinstance(default, tuple) else type(default)
        cfg[key] = json_value(tp, value, f"preset {preset!r} override {key!r}")
    cfg["injected_shift"] = _shift_samples(cfg["injected_shift"])
    if not cfg["perturbation"] and "perturbation" not in row.defaults:
        raise ConfigError(f"preset {preset!r} has no unperturbed variant (perturbation: false)")
    spec, coeffs = row.system()
    x0_rows = np.repeat(spec.resting_state()[None, :], cfg["n_traces"], axis=0)
    report = row.forcing(cfg, x0_rows, np.random.default_rng(seed))
    u_true = report(0)[0]
    coeff_rows = np.repeat(coeffs.values[None, :], cfg["n_traces"], axis=0)
    states, diverged, t_fail = integrate_batch(
        spec, coeff_rows, x0_rows, u_true, u_true.shape[2], cfg["dt"], row.gen_substeps
    )
    if np.any(diverged):
        bad = int(np.nonzero(diverged)[0][0])
        raise SpecError(f"generation diverged on trace {bad} at t={t_fail[bad]:.3g}")
    return _Truth(preset, seed, cfg, spec, coeffs, states, report)


def _package(truth: _Truth, injected_shift: int):
    """(spec, coeffs, traces, meta) of the truth with its external input
    reported ``injected_shift`` samples early."""
    row, spec, coeffs, dt = _PRESETS[truth.preset], truth.spec, truth.coeffs, truth.cfg["dt"]
    u_reported, trace_meta, dataset_meta = truth.report(injected_shift)
    traces = [
        Trace(0.0, dt, y, u, row.labels, {
            "system": spec.name,
            "coeffs_true": coeffs.values.tolist(),
            "mask": (1,) * spec.n,
            "injected_shift": injected_shift,
            **items,
            "ext_channels": row.ext_channels,
        })
        for y, u, items in zip(truth.states, u_reported, trace_meta)
    ]
    meta = {
        "system": spec.name,
        "preset": truth.preset,
        "seed": truth.seed,
        "coeffs_true": coeffs.values.tolist(),
        "injected_shift": injected_shift,
    }
    if "perturbation" in row.defaults:
        meta["perturbation"] = truth.cfg["perturbation"]
    meta.update(ext_channels=row.ext_channels, dt=dt, **dataset_meta)
    return spec, coeffs, traces, meta


def generate_benchmark_data(system: str, cfg: dict | None = None, seed: int = 0):
    """Simulate a benchmark preset; returns (spec, coeffs, traces, meta).

    ``cfg`` overrides the preset keys listed below; a key the preset does
    not read is a ConfigError naming it.  Every preset also reads
    ``injected_shift`` (samples, >= 0, default 0): the traces then report
    the external input that many samples early, and their states are the
    same as at shift 0.  Deterministic per seed.  The truth is one RK4
    solve with a zero-order hold on the input, at a fixed number of
    substeps per sample: 1 for ``scalar`` and ``lotka_volterra``, 2 for
    ``lorenz``, ``bergman_aid`` and ``eeg_dvdp``.

    - ``scalar`` (xdot = -a x + u) and ``lorenz``: ``n_traces``, ``k``,
      ``dt``, ``pulses``, ``width``, ``amp``, ``perturbation``.  Gaussian
      pulse trains on u1, each pulse reported ``injected_shift * dt``
      early.  ``perturbation: false`` applies no pulses and starts x1 at
      U(0.5, 2).
    - ``lotka_volterra`` (unit-normalized): the ``scalar`` keys plus
      ``x0_jitter`` and ``x0_jitter_perturbed``, the x2 displacement of
      unperturbed and perturbed runs.  Kicks on u1, reported as for
      ``scalar``; ``perturbation: false`` draws them and applies none.
    - ``bergman_aid``: ``n_traces``, ``k``, ``dt``, ``basal``.  One meal
      per trace on the ``meal`` input at U(15, 400) min, reported at sample
      ``max(idx - injected_shift, 0)``; the insulin bolus is reported on
      time.  The grid must reach 400 min.
    - ``eeg_dvdp``: ``n_traces``, ``k``, ``dt``, ``amp``, ``freq``,
      ``wiener_scale``, ``input_kind`` (``sine`` or ``wiener``).  The input
      is reported rolled ``injected_shift`` samples early, its last
      ``injected_shift`` samples zero.

    ``bergman_aid`` and ``eeg_dvdp`` have no unperturbed variant:
    ``perturbation: false`` is a ConfigError there.
    """
    truth = _simulate(system, cfg or {}, seed)
    return _package(truth, truth.cfg["injected_shift"])


# ---------------------------------------------------------------------------
# sampling-rate helpers


def data_nyquist_rate(traces: list[Trace]) -> float:
    """Max across observed channels of the spectral-90% rate estimate; a
    trace shorter than the periodogram's 4 samples is a ConfigError."""
    for tr in traces:
        if tr.k < 4:
            raise ConfigError(
                f"the trace segment starting at t={tr.t0:.9g} has {tr.k} samples; "
                "the Nyquist rate estimate needs at least 4"
            )
    fs = 1.0 / traces[0].dt
    return max(nyquist_rate(ch, fs) for tr in traces for ch in tr.y)


def nyquist_factor(traces: list[Trace]) -> int:
    """Largest decimation factor that keeps sampling at or above the
    estimated Nyquist rate."""
    rate = data_nyquist_rate(traces)
    fs = 1.0 / traces[0].dt
    if rate <= 0:
        return 1
    return max(1, int(np.floor(fs / rate)))


def rate_sweep_factors(traces: list[Trace], points: int = 4) -> list[int]:
    """Geometrically spaced decimation factors from full rate to Nyquist."""
    top = nyquist_factor(traces)
    facs = np.unique(np.round(np.geomspace(1, top, points)).astype(int))
    return [int(f) for f in facs]


def apply_mask_to_traces(traces: list[Trace], mask: SensingMask) -> list[Trace]:
    """Restrict full-state traces to the observed channels (recording the
    mask; labels stay empty on a trace without them); a mask whose length
    is not the state count is a ConfigError."""
    out = []
    for tr in traces:
        if len(mask.diag) != tr.y.shape[0]:
            raise ConfigError(
                f"sensing mask {mask.diag} has {len(mask.diag)} entries "
                f"but the traces have {tr.y.shape[0]} states"
            )
        meta = dict(tr.meta)
        meta["mask"] = tuple(mask.diag)
        labels = tuple(tr.y_labels[i] for i in mask.observed) + tr.u_labels if tr.labels else ()
        out.append(Trace(tr.t0, tr.dt, tr.y[list(mask.observed)], tr.u, labels, meta))
    return out


# ---------------------------------------------------------------------------
# experiment configuration and rows

EXPERIMENTS = ("c1", "c2", "c5", "aid", "eeg", "single")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "c1"  # one of EXPERIMENTS
    system: str = "lotka_volterra"
    arch: str = "ltc"  # ltc | ctrnn | node | sindyc
    seed: int = 0
    mask: tuple[int, ...] | None = None
    injected_shifts: tuple[int, ...] = (3, 10, 20)
    rate_points: int = 4
    k_window: int = 200
    split_ratio: float = 0.75
    train: TrainConfig = TrainConfig()
    generation: tuple = ()  # sorted (key, value) overrides for the preset
    sindy_degree: int = 2
    sindy_threshold: float = 0.05
    sindy_lambda: float = 1e-6

    def __post_init__(self):
        arches = (*ARCHS, "sindyc")
        rules = (
            ("experiment", self.experiment in EXPERIMENTS, f"one of {', '.join(EXPERIMENTS)}"),
            ("arch", self.arch in arches, f"one of {', '.join(arches)}"),
            ("rate_points", self.rate_points >= 1, ">= 1"),
            ("k_window", self.k_window >= 2, ">= 2"),
            ("split_ratio", 0 < self.split_ratio <= 1, "in (0, 1]"),
            ("injected_shifts", all(float(s).is_integer() and s >= 0 for s in self.injected_shifts),
             "whole numbers >= 0"),
            ("sindy_degree", self.sindy_degree >= 1, ">= 1"),
            ("sindy_threshold", 0 <= self.sindy_threshold < np.inf, "finite and >= 0"),
            ("sindy_lambda", 0 <= self.sindy_lambda < np.inf, "finite and >= 0"),
            ("mask", self.mask is None or {*self.mask} <= {0, 1} and 1 in self.mask,
             "null or 0/1 entries with at least one 1"),
        )
        for name, ok, want in rules:
            if not ok:
                value = getattr(self, name)
                raise SpecError(f"ExperimentConfig.{name} must be {want}, got {value!r}")

    def digest(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


@dataclass
class ReportRow:
    digest: str
    experiment: str
    system: str
    arch: str
    point: str
    sampling_factor: int
    rmse_coeffs: float
    rmse_y: float
    coeff_errors: tuple[float, ...]
    shifts: tuple[float, ...]
    runtime_s: float  # wall time of the fit alone, without generating its data
    seed: int
    status: str = "ok"
    diverged_windows: int = 0  # replay windows that diverged; rmse_y is inf if any


REPORT_COLUMNS = tuple(f.name for f in fields(ReportRow))


# ---------------------------------------------------------------------------
# fitting helpers shared by the sweeps


def fit_traces(
    cfg: ExperimentConfig, spec, coeffs_true, traces, factor: int = 1, train_cfg=None
) -> RecoveryResult:
    """Fit ``cfg.arch`` to ``traces`` decimated by ``factor`` and restricted
    to ``cfg.mask``: SINDYc, or a neural recovery under ``train_cfg``
    (``cfg.train`` by default) on windows of ``cfg.k_window`` samples, or
    of the shortest trace's length if that is shorter."""
    windows = [decimate(tr, factor) for tr in traces]
    if cfg.mask is not None:
        windows = apply_mask_to_traces(windows, SensingMask(cfg.mask))
    if cfg.arch == "sindyc":
        return fit_sindyc(spec, coeffs_true, windows, cfg)
    k_window = min(cfg.k_window, min(tr.k for tr in windows))
    tc = train_cfg or cfg.train
    # looked up on the modules, so that wrappers installed there see sweep fits
    batches = signals.make_batches(windows, tc.batch_size, k_window, cfg.split_ratio, seed=tc.seed)
    return neural.train(cfg.arch, spec, batches, tc, coeffs_true=coeffs_true)


def _sindy_rmse_y(xi, columns, traces) -> tuple[float, int]:
    """Mean per-trace RMSE of the recovered sparse model and the number of
    traces whose replay diverged.  Every trace is replayed from its first
    sample by RK4 with one step per sample, all four stages of step ``j``
    reading the held input ``u[j]``; a trace that diverges scores inf.
    Traces that share a grid (``k`` and ``dt``) are replayed in one call,
    and the mean is taken in trace order."""
    spec = model_spec(xi, columns, traces[0].m)
    groups: dict[tuple[int, float], list[int]] = {}
    for i, tr in enumerate(traces):
        groups.setdefault((tr.k, tr.dt), []).append(i)
    rmses, n_diverged = np.empty(len(traces)), 0
    for (_, dt), idx in groups.items():
        group = [traces[i] for i in idx]
        y, u = np.stack([tr.y for tr in group]), np.stack([tr.u for tr in group])
        _, diverged, rmses[idx] = replay(
            spec, np.zeros((len(group), 0)), u, y, list(range(spec.n)), dt, substeps=1
        )
        n_diverged += int(np.count_nonzero(diverged))
    return float(np.mean(rmses)), n_diverged


def fit_sindyc(spec, coeffs_true, traces, cfg: ExperimentConfig) -> RecoveryResult:
    """Pooled SINDYc fit of full-state traces, scored against the true
    coefficients (spurious library terms count as errors) and by
    reconstruction.  Keeps no shifts or loss history."""
    if any(tr.y.shape[0] != spec.n for tr in traces):
        raise SpecError("the sparse-regression baseline needs full-state data")
    columns = library_columns(spec.n, traces[0].m, cfg.sindy_degree)
    pooled_y = np.hstack([tr.y for tr in traces])
    pooled_u = np.hstack([tr.u for tr in traces])
    pooled_dots = np.hstack([estimate_derivatives(tr) for tr in traces])
    A = build_library(columns, pooled_y, pooled_u)
    # looked up on the module, so that a wrapper installed there sees each call
    xi = np.column_stack(
        [
            sindy.stridge(A, pooled_dots[i], cfg.sindy_lambda, cfg.sindy_threshold)
            for i in range(pooled_y.shape[0])
        ]
    )
    theta_est, spurious = map_to_coefficients(xi, columns, spec)
    rmse_y, diverged_windows = _sindy_rmse_y(xi, columns, traces)
    return RecoveryResult(
        coeffs=Coefficients(theta_est),
        shifts=np.zeros(0),
        loss_history=[],
        rmse_y=rmse_y,
        solve_substeps=1,  # _sindy_rmse_y's replay
        rmse_coeffs=rmse_coeffs(np.append(theta_est, spurious),
                                np.append(coeffs_true.values, np.zeros(len(spurious)))),
        diverged_windows=diverged_windows,
    )


# experiments that fit a fixed preset rather than ``cfg.system``
_PRESET_SYSTEMS = {"aid": "bergman_aid", "eeg": "eeg_dvdp"}


def _fitted_system(cfg: ExperimentConfig) -> str:
    return _PRESET_SYSTEMS.get(cfg.experiment, cfg.system)


def _bound(spec, coeffs, traces, _meta):
    """A sweep point's ``data``: returns the spec, coefficients and traces bound here."""
    return lambda: (spec, coeffs, traces)


# ---------------------------------------------------------------------------
# experiment sweeps


def _sweep_points(cfg: ExperimentConfig):
    """Yield ``(point, factor, data, train_cfg)`` for every sweep point in
    row order; ``data()`` returns the point's ``(spec, coeffs, traces)``."""
    system, gen, tc = _fitted_system(cfg), dict(cfg.generation), cfg.train
    if cfg.experiment in ("c5", "aid"):
        truth = _simulate(system, gen, cfg.seed)
        off = replace(tc, shift_channels=())
        on = replace(tc, shift_channels=_PRESETS[system].ext_channels)
        yield "baseline", 1, _bound(*_package(truth, truth.cfg["injected_shift"])), off
        for s in cfg.injected_shifts:
            data = _bound(*_package(truth, int(s)))
            yield f"shift={s}/search_off", 1, data, off
            yield f"shift={s}/search_on", 1, data, on
    elif cfg.experiment == "eeg":
        for kind in ("sine", "wiener"):
            data = generate_benchmark_data(system, {**gen, "input_kind": kind}, cfg.seed)
            yield f"input={kind}", 1, _bound(*data), tc
    elif cfg.experiment == "c2":
        data = generate_benchmark_data(system, {**gen, "perturbation": True}, cfg.seed)
        factor = nyquist_factor(data[2])
        yield "perturbed", factor, _bound(*data), tc
        # generated inside the row's try, so a preset without it fails in its row
        make = partial(generate_benchmark_data, system, {**gen, "perturbation": False}, cfg.seed)
        yield "unperturbed", factor, lambda: make()[:3], tc
    elif cfg.experiment == "single":
        data = generate_benchmark_data(system, gen, cfg.seed)
        yield "single", nyquist_factor(data[2]), _bound(*data), tc
    else:  # c1
        data = generate_benchmark_data(system, gen, cfg.seed)
        for factor in rate_sweep_factors(data[2], cfg.rate_points):
            yield f"factor={factor}", factor, _bound(*data), tc


def run_experiment(cfg: ExperimentConfig) -> list[ReportRow]:
    """Execute one experiment sweep; one row per sweep point, in order:

    - ``single``: ``cfg.system`` at its Nyquist decimation factor.
    - ``c1``: ``factor=F`` for ``cfg.rate_points`` factors from 1 to Nyquist.
    - ``c2``: ``perturbed`` then ``unperturbed``, both at the perturbed
      data's Nyquist factor.
    - ``c5`` (``cfg.system``) and ``aid`` (``bergman_aid``): one truth at
      full rate, fitted as ``baseline``, then per injected shift ``S`` as
      ``shift=S/search_off`` and ``shift=S/search_on``.
    - ``eeg`` (``eeg_dvdp``) at full rate: ``input=sine``, ``input=wiener``.

    A failed fit, or a failed generation of ``c2``'s unperturbed data,
    gets an ``error: ...`` row and the sweep goes on; any other
    generation error fails the sweep.
    """
    rows = []
    for point, factor, data, train_cfg in _sweep_points(cfg):
        fit = dict(rmse_coeffs=np.nan, rmse_y=np.nan, coeff_errors=(), shifts=())
        t0 = time.perf_counter()
        try:
            spec, coeffs_true, traces = data()
            t0 = time.perf_counter()  # runtime_s times the fit alone
            r = fit_traces(cfg, spec, coeffs_true, traces, factor, train_cfg)
            errors = tuple(float(abs(a - b)) for a, b in zip(r.coeffs.values, coeffs_true.values))
            fit = dict(rmse_coeffs=r.rmse_coeffs, rmse_y=r.rmse_y, coeff_errors=errors,
                       shifts=tuple(map(float, r.shifts)), diverged_windows=r.diverged_windows)
        except Exception as e:  # per-point failures land in the row
            fit["status"] = f"error: {e}"
        rows.append(ReportRow(cfg.digest(), cfg.experiment, _fitted_system(cfg), cfg.arch, point,
                              factor, runtime_s=time.perf_counter() - t0, seed=cfg.seed, **fit))
    return rows


# ---------------------------------------------------------------------------
# report emission


def _format_value(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, tuple):
        return ";".join(repr(float(x)) for x in v)
    return str(v)


def emit_report(rows: list[ReportRow], fmt: str, path, include_runtime: bool = False):
    """Write rows as plot-ready CSV or JSON with a deterministic column order.

    ``runtime_s``, the wall time of a point's fit without its data
    generation, is recorded on every row but excluded from emitted files
    by default so identical configurations produce byte-identical reports.
    """
    cols = [c for c in REPORT_COLUMNS if include_runtime or c != "runtime_s"]
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for r in rows:
                writer.writerow([_format_value(getattr(r, c)) for c in cols])
    elif fmt == "json":
        write_json([{c: getattr(r, c) for c in cols} for r in rows], path)
    else:
        raise SpecError(f"unknown report format {fmt!r}")


# ---------------------------------------------------------------------------
# trace CSV format


def write_trace_csv(tr: Trace, path) -> None:
    labels = tr.labels or tuple(f"y{i+1}" for i in range(tr.y.shape[0])) + tuple(
        f"u{j+1}" for j in range(tr.m)
    )
    t = tr.t0 + np.arange(tr.k) * tr.dt  # t0 + j dt, as one float product and sum
    row = ",".join(["{!r}"] * (1 + len(tr.y) + tr.m)) + "\r\n"  # csv.writer's line end
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["t", *labels])
        fh.write((row * tr.k).format(*np.vstack([t, tr.y, tr.u]).T.ravel().tolist()))


def _csv_records(trace_path, body: str, n_cols: int):
    """Record numbers and values of the non-blank records of a trace CSV's
    body, parsed one record at a time; names the first ragged or
    non-numeric record."""
    lines, rows = [], []
    for ln, row in enumerate(csv.reader(io.StringIO(body, newline="")), start=2):
        if not row:
            continue
        if len(row) != n_cols:
            raise ConfigError(f"{trace_path}:{ln}: {len(row)} values for {n_cols} columns")
        try:
            rows.append([float(v) for v in row])
        except ValueError:
            raise ConfigError(f"{trace_path}:{ln}: non-numeric value") from None
        lines.append(ln)
    return lines, np.array(rows, dtype=float).reshape(len(rows), n_cols)


def _csv_values(trace_path, body: str, n_cols: int) -> np.ndarray:
    """Samples x columns of a trace CSV's body, parsed in one numpy call;
    a body numpy cannot read goes through ``_csv_records``, which parses
    what ``float`` accepts or names the bad record."""
    if not body.strip("\r\n"):  # only blank records, on which loadtxt warns
        return np.zeros((0, n_cols))
    try:
        data = np.loadtxt(
            io.StringIO(body, newline=""), delimiter=",", quotechar='"', comments=None, ndmin=2
        )
        if data.shape[1] == n_cols:
            return data
    except ValueError:
        pass
    return _csv_records(trace_path, body, n_cols)[1]


def _off_grid(spacing, dt):
    """Where a sample spacing differs from ``dt`` by more than the grid
    tolerance."""
    return np.abs(spacing - dt) > 1e-9 * max(dt, 1.0)


def load_real_csv(trace_path) -> list[Trace]:
    """Read a measurement CSV into uniform-grid traces.

    The first column is the time ``t``; every column after it is an
    observed channel, so the traces carry no inputs.  The nominal interval
    ``dt`` is the median sample spacing.  Sample gaps longer than twice
    ``dt`` split the record into separate trace segments of at least two
    samples each; a lone sample, any other grid irregularity, and any
    ``nan`` or ``inf`` field, is an error naming the row.
    """
    data, labels, dt, starts, line = _read_trace_rows(trace_path)
    bounds = [0, *starts.tolist(), len(data)]
    traces = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b - a < 2:
            raise ConfigError(
                f"{trace_path}:{line(a)}: lone sample at t={data[a, 0]:.9g}; "
                "a segment between gaps needs at least 2 samples"
            )
        seg = data[a:b]
        traces.append(
            Trace(float(seg[0, 0]), dt, _channels(seg), np.zeros((0, b - a)), labels,
                  {"source": str(trace_path)})
        )
    return traces


def _read_trace_rows(trace_path):
    """A trace CSV's checked rows: ``(data, labels, dt, starts, line)``,
    where ``data`` holds the time and channel columns, ``starts`` the rows
    that follow a gap longer than ``2 dt`` and ``line(i)`` the CSV line
    number of row ``i``."""
    with open(trace_path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if not header or header[0].strip() != "t":
            raise ConfigError(f"{trace_path}: first column must be 't'")
        body = fh.read()
    labels = tuple(h.strip() for h in header[1:])
    data = _csv_values(trace_path, body, len(header))

    def line(i):  # parses the body again, so only an error path calls it
        return _csv_records(trace_path, body, len(header))[0][i]

    non_finite = ~np.isfinite(data).all(axis=1)
    if np.any(non_finite):
        raise ConfigError(f"{trace_path}:{line(int(np.argmax(non_finite)))}: non-finite value")
    if len(data) < 2:
        raise ConfigError(f"{trace_path}: need at least two samples")

    diffs = np.diff(data[:, 0])
    dt = float(np.median(diffs))
    if dt <= 0:
        raise ConfigError(f"{trace_path}: times must be strictly increasing")
    gaps = diffs > 2 * dt * (1 + 1e-9)
    uneven = ~gaps & _off_grid(diffs, dt)
    if np.any(uneven):
        i = int(np.argmax(uneven))
        raise ConfigError(
            f"{trace_path}:{line(i + 1)}: non-uniform sample spacing ({diffs[i]:.9g} vs {dt:.9g})"
        )
    return data, labels, dt, np.flatnonzero(gaps) + 1, line


def _channels(rows) -> np.ndarray:
    # row-contiguous channels: stacks of windows take this memory order,
    # and the order in which numpy sums over them follows it
    return np.ascontiguousarray(rows[:, 1:].T)


# ---------------------------------------------------------------------------
# dataset directories (used by the command-line tools)


def save_dataset(dirpath, spec, coeffs, traces, meta) -> None:
    import os

    os.makedirs(dirpath, exist_ok=True)
    dump_system_config(spec, coeffs, os.path.join(dirpath, "system.json"))
    index = []
    for i, tr in enumerate(traces):
        name = f"trace_{i:03d}.csv"
        write_trace_csv(tr, os.path.join(dirpath, name))
        index.append({"file": name, "meta": tr.meta})
    write_json({"dataset": meta, "traces": index}, os.path.join(dirpath, "meta.json"))


def _dataset_index(doc, n: int):
    """``meta.json``'s dataset object, its ``dt`` and its trace entries as
    ``(file, meta)`` pairs, each field checked for its JSON type and a
    sensing mask for ``n`` entries of 0 or 1 with at least one 1; a field
    that fails is a ConfigError naming it (``traces[0].file``)."""
    if not isinstance(doc, dict):
        raise ConfigError(f"must be a JSON object, got {type(doc).__name__}")
    dataset, entries = doc.get("dataset"), doc.get("traces")
    if not isinstance(dataset, dict):
        raise ConfigError(f"dataset must be a JSON object, got {dataset!r}")
    dt = dataset.get("dt")
    if not isinstance(dt, (int, float)) or isinstance(dt, bool) or not dt > 0:
        raise ConfigError(f"dataset.dt must be a positive number, not {dt!r}")
    if not isinstance(entries, list):
        raise ConfigError(f"traces must be a list, got {entries!r}")
    index = []
    for i, entry in enumerate(entries):
        where = f"traces[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where} must be a JSON object, got {entry!r}")
        if "file" not in entry:
            raise ConfigError(f"{where}: missing required field 'file'")
        name = json_value(str, entry["file"], f"{where}.file")
        meta = entry.get("meta", {})
        if not isinstance(meta, dict):
            raise ConfigError(f"{where}.meta must be a JSON object, got {meta!r}")
        if "mask" in meta:
            mask = json_value(tuple[int, ...], meta["mask"], f"{where}.meta.mask")
            if len(mask) != n or not {*mask} <= {0, 1} or 1 not in mask:
                raise ConfigError(
                    f"{where}.meta.mask must be {n} entries of 0 or 1 with at least one 1, "
                    f"got {list(mask)}"
                )
        index.append((name, meta))
    return dataset, float(dt), index


def load_dataset(dirpath):
    """Read a directory written by :func:`save_dataset`.  Every trace takes
    ``meta.json``'s ``dataset.dt`` exactly, after its CSV's sample spacing
    is checked against it; its CSV must hold one column per state that its
    mask observes (every state without a mask) and one per input.  A
    ``meta.json`` that is not valid JSON, or whose fields have the wrong
    JSON type, is a ConfigError naming the file and the field."""
    import os

    spec, coeffs = load_system_config(os.path.join(dirpath, "system.json"))
    meta_path = os.path.join(dirpath, "meta.json")
    doc = load_json(meta_path)
    try:
        dataset, dt, index = _dataset_index(doc, spec.n)
    except ConfigError as e:
        raise ConfigError(f"{meta_path}: {e}") from None
    traces = []
    for name, meta in index:
        trace_path = os.path.join(dirpath, name)
        data, labels, csv_dt, starts, _ = _read_trace_rows(trace_path)
        if len(starts):
            i = starts[0]
            raise ConfigError(
                f"{trace_path}: samples missing between t={data[i - 1, 0]:.9g}"
                f" and t={data[i, 0]:.9g}"
            )
        if _off_grid(csv_dt, dt):
            raise ConfigError(
                f"{trace_path}: sample spacing {csv_dt:.9g} differs from meta.json's dt {dt:.9g}"
            )
        y = _channels(data)
        n_y = spec.n if "mask" not in meta else sum(meta["mask"])
        if len(y) != n_y + spec.m:
            raise ConfigError(
                f"{trace_path}: expected {n_y + spec.m} columns after t ({n_y} observed "
                f"states and {spec.m} inputs), found {len(y)}"
            )
        traces.append(
            Trace(
                float(data[0, 0]),
                dt,
                y[:n_y],
                y[n_y:],
                labels,
                {k: (tuple(v) if isinstance(v, list) else v) for k, v in meta.items()},
            )
        )
    return spec, coeffs, traces, dataset
