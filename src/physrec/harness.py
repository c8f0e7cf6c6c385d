"""Experiment harness: metrics, benchmark data generation, sweeps, reports.

Benchmark presets simulate the built-in systems under scripted forcing
(smooth random pulses for the oscillator benchmarks, scheduled meals and
boluses for the insulin system) and keep generation-time ground truth in
trace metadata so timing-error experiments can score recovered shifts
exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

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
    load_system_config,
)
from .neural import RecoveryResult, TrainConfig, common_grid, recover
from .odesolve import integrate_batch
from .signals import Event, EventList, Trace, decimate, nyquist_rate
from .sindy import (
    FunctionLibrary,
    SparseModel,
    build_library,
    library_labels,
    map_to_coefficients,
    model_spec,
    rmse_with_spurious,
    stridge,
)

# ---------------------------------------------------------------------------
# metrics


def rmse_coeffs(est: Coefficients | np.ndarray, truth: Coefficients | np.ndarray) -> float:
    """Root-mean-square error over the coefficient vector."""
    e = est.values if isinstance(est, Coefficients) else np.asarray(est, dtype=float)
    t = truth.values if isinstance(truth, Coefficients) else np.asarray(truth, dtype=float)
    if e.shape != t.shape:
        raise SpecError(f"coefficient vectors differ in length: {e.shape} vs {t.shape}")
    return float(np.sqrt(np.mean((e - t) ** 2)))


def rmse_signal(est: np.ndarray, true: np.ndarray) -> float:
    """Mean over channels of the per-channel RMSE between two (n, k) arrays."""
    e = np.atleast_2d(np.asarray(est, dtype=float))
    t = np.atleast_2d(np.asarray(true, dtype=float))
    if e.shape != t.shape:
        raise SpecError(f"signal shapes differ: {e.shape} vs {t.shape}")
    return float(np.mean(np.sqrt(np.mean((e - t) ** 2, axis=1))))


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


def _gauss_pulse_row(times: np.ndarray, centers, widths, amps) -> np.ndarray:
    row = np.zeros_like(times)
    for c, w, a in zip(centers, widths, amps):
        row += a * np.exp(-0.5 * ((times - c) / w) ** 2)
    return row


def _simulate_traces(spec, coeffs, x0_rows, u_rows, dt, substeps=10) -> np.ndarray:
    T = x0_rows.shape[0]
    coeff_rows = np.repeat(coeffs.values[None, :], T, axis=0)
    states, diverged, t_fail = integrate_batch(
        spec, coeff_rows, x0_rows, u_rows, u_rows.shape[2], dt, substeps
    )
    if np.any(diverged):
        bad = int(np.nonzero(diverged)[0][0])
        raise SpecError(f"generation diverged on trace {bad} at t={t_fail[bad]:.3g}")
    return states


_PULSE_DEFAULTS = {
    # pulse-train forcing presets
    "scalar": dict(n_traces=64, k=200, dt=0.1, pulses=4, width=(0.25, 0.5), amp=(0.8, 2.0)),
    "lorenz": dict(n_traces=8, k=4000, dt=0.002, pulses=6, width=(0.01, 0.03), amp=(20.0, 60.0)),
}

_LV_DEFAULTS = dict(
    # The benchmark works in unit-normalized state coordinates (levels
    # divided by the canonical resting stocks), which puts every
    # coefficient at the same 0.5 magnitude.  Forcing is a sparse train of
    # slow, gentle pulses: slow enough that a zero-order hold at the
    # spectral sampling rate still represents them and that the
    # conservative oscillation mode stays quiet, strong enough that the
    # forced excursion pins the coefficient ratios.
    n_traces=64,
    k=2420,
    dt=0.1,
    pulses=5,
    width=(5.0, 8.0),
    amp=(0.015, 0.045),
    x0_jitter=0.05,
    x0_jitter_perturbed=0.0,
)


def _generate_pulsed(name, seed, perturbation=True, injected_shift=0, overrides=None):
    cfg = dict(_PULSE_DEFAULTS[name])
    if overrides:
        cfg.update(overrides)
    spec, coeffs = get_system(name)
    rng = np.random.default_rng(seed)
    T, k, dt = cfg["n_traces"], cfg["k"], cfg["dt"]
    times = dt * np.arange(k)
    horizon = times[-1]

    x0_rows = np.repeat(spec.resting_state()[None, :], T, axis=0)
    if name == "lorenz":
        x0_rows += rng.normal(0.0, 1.0, x0_rows.shape) + np.array([1.0, 1.0, 25.0])

    u_true = np.zeros((T, spec.m, k))
    u_reported = np.zeros_like(u_true)
    pulse_meta = []
    for t_i in range(T):
        n_p = cfg["pulses"]
        centers = np.sort(rng.uniform(0.05 * horizon, 0.9 * horizon, n_p))
        widths = rng.uniform(*cfg["width"], n_p)
        amps = rng.uniform(*cfg["amp"], n_p) * rng.choice([-1.0, 1.0], n_p)
        if not perturbation:
            centers, widths, amps = centers[:0], widths[:0], amps[:0]
        u_true[t_i, 0] = _gauss_pulse_row(times, centers, widths, amps)
        u_reported[t_i, 0] = _gauss_pulse_row(
            times, centers - injected_shift * dt, widths, amps
        )
        pulse_meta.append(
            {"centers": centers.tolist(), "widths": widths.tolist(), "amps": amps.tolist()}
        )
    if not perturbation:
        # unperturbed runs need initial-condition excitation instead
        x0_rows[:, 0] = rng.uniform(0.5, 2.0, T)

    states = _simulate_traces(spec, coeffs, x0_rows, u_true, dt)
    labels = tuple(f"x{i+1}" for i in range(spec.n)) + tuple(f"u{j+1}" for j in range(spec.m))
    traces = []
    for t_i in range(T):
        meta = {
            "system": spec.name,
            "coeffs_true": coeffs.values.tolist(),
            "mask": (1,) * spec.n,
            "injected_shift": injected_shift,
            "pulses": pulse_meta[t_i],
            "ext_channels": (0,),
        }
        traces.append(Trace(0.0, dt, states[t_i], u_reported[t_i], labels, meta))
    meta = {
        "system": spec.name,
        "preset": name,
        "seed": seed,
        "coeffs_true": coeffs.values.tolist(),
        "injected_shift": injected_shift,
        "perturbation": perturbation,
        "ext_channels": (0,),
        "dt": dt,
    }
    return spec, coeffs, traces, meta


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


def _generate_lv(seed, perturbation=True, injected_shift=0, overrides=None):
    cfg = dict(_LV_DEFAULTS)
    if overrides:
        cfg.update(overrides)
    spec, coeffs = lv_unit_system()
    rng = np.random.default_rng(seed)
    T, k, dt = cfg["n_traces"], cfg["k"], cfg["dt"]

    times = dt * np.arange(k)
    x0_rows = np.repeat(spec.resting_state()[None, :], T, axis=0)
    u_true = np.zeros((T, 1, k))
    u_reported = np.zeros_like(u_true)
    kick_meta = []
    for t_i in range(T):
        n_p = cfg["pulses"]
        centers = np.sort(rng.uniform(0.05 * times[-1], 0.92 * times[-1], n_p))
        widths = rng.uniform(*cfg["width"], n_p)
        amps = rng.uniform(*cfg["amp"], n_p) * rng.choice([-1.0, 1.0], n_p)
        if perturbation:
            u_true[t_i, 0] = _gauss_pulse_row(times, centers, widths, amps)
            u_reported[t_i, 0] = _gauss_pulse_row(
                times, centers - injected_shift * dt, widths, amps
            )
        kick_meta.append(
            {"centers": centers.tolist(), "widths": widths.tolist(), "amps": amps.tolist()}
        )
    # free-oscillation content comes from displacing the observed prey
    # stock; the hidden channel keeps its declared resting value so
    # hidden-state seeding stays exact
    jitter = cfg["x0_jitter_perturbed"] if perturbation else cfg["x0_jitter"]
    if jitter:
        x0_rows[:, 1] += rng.uniform(-jitter, jitter, T)

    states = _simulate_traces(spec, coeffs, x0_rows, u_true, dt)
    labels = ("x1", "x2", "u1")
    traces = []
    for t_i in range(T):
        meta = {
            "system": spec.name,
            "coeffs_true": coeffs.values.tolist(),
            "mask": (1, 1),
            "injected_shift": injected_shift,
            "kicks": kick_meta[t_i],
            "ext_channels": (0,),
        }
        traces.append(Trace(0.0, dt, states[t_i], u_reported[t_i], labels, meta))
    meta = {
        "system": spec.name,
        "preset": "lotka_volterra",
        "seed": seed,
        "coeffs_true": coeffs.values.tolist(),
        "injected_shift": injected_shift,
        "perturbation": perturbation,
        "ext_channels": (0,),
        "dt": dt,
        "units": "states per resting level",
    }
    return spec, coeffs, traces, meta


def _generate_bergman(seed, injected_shift=0, overrides=None):
    cfg = dict(n_traces=14, k=200, dt=5.0, basal=0.25)
    if overrides:
        cfg.update(overrides)
    spec, coeffs = get_system("bergman_aid")
    rng = np.random.default_rng(seed)
    T, k, dt = cfg["n_traces"], cfg["k"], cfg["dt"]

    u_true = np.zeros((T, 2, k))
    u_reported = np.zeros_like(u_true)
    u_true[:, 0, :] = cfg["basal"]
    u_reported[:, 0, :] = cfg["basal"]
    events_true, events_reported = [], []
    for t_i in range(T):
        meal_t = rng.uniform(15.0, 400.0)
        carbs = rng.uniform(0.0, 28.0)
        bolus = rng.uniform(0.0, 40.0)
        meal_idx = int(round(meal_t / dt))
        bolus_idx = min(meal_idx + rng.integers(0, 3), k - 1)
        u_true[t_i, 1, meal_idx] += carbs
        u_true[t_i, 0, bolus_idx] += bolus / 4.0
        u_reported[t_i, 0, bolus_idx] += bolus / 4.0
        reported_idx = max(meal_idx - injected_shift, 0)
        u_reported[t_i, 1, reported_idx] += carbs
        events_true.append((1, meal_idx * dt, carbs))
        events_reported.append((1, reported_idx * dt, carbs))

    x0_rows = np.repeat(spec.resting_state()[None, :], T, axis=0)
    states = _simulate_traces(spec, coeffs, x0_rows, u_true, dt)
    labels = ("i", "i_s", "g", "insulin", "meal")
    traces = []
    for t_i in range(T):
        meta = {
            "system": spec.name,
            "coeffs_true": coeffs.values.tolist(),
            "mask": (1, 1, 1),
            "injected_shift": injected_shift,
            "event_true": events_true[t_i],
            "event_reported": events_reported[t_i],
            "ext_channels": (1,),
        }
        traces.append(Trace(0.0, dt, states[t_i], u_reported[t_i], labels, meta))
    meta = {
        "system": spec.name,
        "preset": "bergman_aid",
        "seed": seed,
        "coeffs_true": coeffs.values.tolist(),
        "injected_shift": injected_shift,
        "ext_channels": (1,),
        "dt": dt,
        "events_true": events_true,
        "events_reported": events_reported,
    }
    return spec, coeffs, traces, meta


def _generate_eeg(seed, input_kind="sine", injected_shift=0, overrides=None):
    cfg = dict(n_traces=16, k=1200, dt=0.02, amp=0.6, freq=0.35, wiener_scale=0.8)
    if overrides:
        cfg.update(overrides)
    spec, coeffs = get_system("eeg_dvdp")
    rng = np.random.default_rng(seed)
    T, k, dt = cfg["n_traces"], cfg["k"], cfg["dt"]
    times = dt * np.arange(k)

    u_true = np.zeros((T, 1, k))
    for t_i in range(T):
        if input_kind == "sine":
            phase = rng.uniform(0.0, 2 * np.pi)
            u_true[t_i, 0] = cfg["amp"] * np.sin(2 * np.pi * cfg["freq"] * times + phase)
        elif input_kind == "wiener":
            # pre-sampled Wiener increments per grid cell, held between samples
            u_true[t_i, 0] = cfg["wiener_scale"] * rng.normal(0.0, 1.0, k) * np.sqrt(dt) / dt
        else:
            raise SpecError(f"unknown eeg input kind {input_kind!r}")
    u_reported = np.roll(u_true, -injected_shift, axis=2) if injected_shift else u_true.copy()
    if injected_shift:
        u_reported[:, :, -injected_shift:] = 0.0

    x0_rows = np.repeat(spec.resting_state()[None, :], T, axis=0)
    x0_rows[:, 0] += rng.uniform(-0.2, 0.2, T)
    x0_rows[:, 2] += rng.uniform(-0.2, 0.2, T)
    states = _simulate_traces(spec, coeffs, x0_rows, u_true, dt)
    labels = ("x1", "v1", "x2", "v2", "u1")
    traces = []
    for t_i in range(T):
        meta = {
            "system": spec.name,
            "coeffs_true": coeffs.values.tolist(),
            "mask": (1, 1, 1, 1),
            "injected_shift": injected_shift,
            "input_kind": input_kind,
            "ext_channels": (0,),
        }
        traces.append(Trace(0.0, dt, states[t_i], u_reported[t_i], labels, meta))
    meta = {
        "system": spec.name,
        "preset": "eeg_dvdp",
        "seed": seed,
        "input_kind": input_kind,
        "coeffs_true": coeffs.values.tolist(),
        "injected_shift": injected_shift,
        "ext_channels": (0,),
        "dt": dt,
    }
    return spec, coeffs, traces, meta


def generate_benchmark_data(system: str, cfg: dict | None = None, seed: int = 0):
    """Simulate a benchmark preset; returns (spec, coeffs, traces, meta).

    ``cfg`` overrides preset fields (counts, rates, forcing scales) and the
    common keys ``perturbation``, ``injected_shift`` and, for the EEG
    preset, ``input_kind``.  Deterministic per seed.
    """
    cfg = dict(cfg or {})
    injected = int(cfg.pop("injected_shift", 0))
    perturbation = bool(cfg.pop("perturbation", True))
    input_kind = cfg.pop("input_kind", "sine")
    if system == "lotka_volterra":
        return _generate_lv(
            seed, perturbation=perturbation, injected_shift=injected, overrides=cfg
        )
    if system in ("scalar", "lorenz"):
        return _generate_pulsed(
            system, seed, perturbation=perturbation, injected_shift=injected, overrides=cfg
        )
    if system == "bergman_aid":
        return _generate_bergman(seed, injected_shift=injected, overrides=cfg)
    if system == "eeg_dvdp":
        return _generate_eeg(seed, input_kind=input_kind, injected_shift=injected, overrides=cfg)
    raise SpecError(f"no generation preset for system {system!r}")


# ---------------------------------------------------------------------------
# sampling-rate helpers


def data_nyquist_rate(traces: list[Trace]) -> float:
    """Max across observed channels of the spectral-90% rate estimate."""
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
    """Restrict traces to the observed channels (recording the mask)."""
    out = []
    for tr in traces:
        meta = dict(tr.meta)
        meta["mask"] = tuple(mask.diag)
        labels = tuple(tr.y_labels[i] for i in mask.observed) + tr.u_labels
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
    perturbation: bool = True
    injected_shifts: tuple[int, ...] = (3, 10, 20)
    shift_search: bool = True
    rate_points: int = 4
    k_window: int = 200
    split_ratio: float = 0.75
    train: TrainConfig = TrainConfig()
    generation: tuple = ()  # sorted (key, value) overrides for the preset
    sindy_degree: int = 2
    sindy_threshold: float = 0.05
    sindy_lambda: float = 1e-6

    @classmethod
    def from_json(cls, doc: dict) -> ExperimentConfig:
        """Config from a decoded JSON object: ``mask`` and ``injected_shifts``
        arrays become tuples, ``generation`` (an object or a list of pairs)
        sorted ``(key, value)`` pairs, and ``train`` a TrainConfig through
        ``TrainConfig.from_json``.  Inverts ``asdict`` after a JSON round
        trip, so the digest survives it."""
        fields = dict(doc)
        if "train" in fields:
            fields["train"] = TrainConfig.from_json(fields["train"])
        for key in ("mask", "injected_shifts"):
            if fields.get(key) is not None:
                fields[key] = tuple(fields[key])
        if "generation" in fields:
            fields["generation"] = tuple(sorted(dict(fields["generation"]).items()))
        return cls(**fields)

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
    runtime_s: float
    seed: int
    status: str = "ok"


REPORT_COLUMNS = (
    "digest",
    "experiment",
    "system",
    "arch",
    "point",
    "sampling_factor",
    "rmse_coeffs",
    "rmse_y",
    "coeff_errors",
    "shifts",
    "runtime_s",
    "seed",
    "status",
)


# ---------------------------------------------------------------------------
# fitting helpers shared by the sweeps


def _windows_for(traces, mask: SensingMask | None, factor: int):
    dec = [decimate(tr, factor) for tr in traces]
    if mask is not None:
        dec = apply_mask_to_traces(dec, mask)
    return dec


def _fit_neural(
    spec, coeffs_true, traces, cfg: ExperimentConfig, train_cfg: TrainConfig
) -> RecoveryResult:
    k_window = min(cfg.k_window, min(tr.k for tr in traces))
    return recover(
        traces,
        spec,
        cfg.arch,
        train_cfg,
        k_window=k_window,
        split_ratio=cfg.split_ratio,
        coeffs_true=coeffs_true,
    )


def _sindy_rmse_y(xi, lib, traces) -> float:
    """Mean per-trace RMSE of the recovered sparse model, every trace
    integrated in one batch from its first sample by RK4 with one step per
    sample, the input held at ``u[j]`` and at ``u[j+1]`` for the step's
    last stage; a trace that diverges scores inf."""
    spec = model_spec(xi, lib, traces[0].m)
    _, k, dt = common_grid(spec, traces)
    states, diverged, _ = integrate_batch(
        spec,
        np.zeros((len(traces), 0)),
        np.stack([tr.y[:, 0] for tr in traces]),
        np.stack([tr.u for tr in traces]),
        k,
        dt,
        substeps=1,
    )
    rmses = [
        float("inf") if bad else rmse_signal(est, tr.y)
        for est, bad, tr in zip(states, diverged, traces)
    ]
    return float(np.mean(rmses))


def fit_sindyc(spec, coeffs_true, traces, cfg: ExperimentConfig) -> RecoveryResult:
    """Pooled SINDYc fit of full-state traces, scored against the true
    coefficients (spurious library terms count as errors) and by
    reconstruction.  Keeps no reconstructed traces, shifts or loss history."""
    if any(tr.y.shape[0] != spec.n for tr in traces):
        raise SpecError("the sparse-regression baseline needs full-state data")
    lib = FunctionLibrary(poly_degree=cfg.sindy_degree, include_control=True)
    pooled_y = np.hstack([tr.y for tr in traces])
    pooled_u = np.hstack([tr.u for tr in traces])
    pooled_dots = np.hstack(
        [np.gradient(tr.y, tr.dt, axis=1, edge_order=2) for tr in traces]
    )
    A = build_library(lib, pooled_y, pooled_u if traces[0].m else None)
    xi = np.column_stack(
        [
            stridge(A, pooled_dots[i], cfg.sindy_lambda, cfg.sindy_threshold)
            for i in range(pooled_y.shape[0])
        ]
    )
    model = SparseModel(
        xi=xi,
        labels=tuple(library_labels(lib, pooled_y.shape[0], traces[0].m)),
        threshold=cfg.sindy_threshold,
    )
    theta_est, spurious = map_to_coefficients(model, spec)
    return RecoveryResult(
        coeffs=Coefficients(theta_est),
        shifts=np.zeros(0),
        loss_history=[],
        rmse_y=_sindy_rmse_y(xi, lib, traces),
        reconstructions=[],
        rmse_coeffs=rmse_with_spurious(theta_est, coeffs_true, spurious),
    )


# experiments that fit a fixed preset rather than ``cfg.system``
_PRESET_SYSTEMS = {"aid": "bergman_aid", "eeg": "eeg_dvdp"}


def _fitted_system(cfg: ExperimentConfig) -> str:
    return _PRESET_SYSTEMS.get(cfg.experiment, cfg.system)


def _row(cfg, point, factor, r_theta, r_y, errors, shifts, t0, status="ok"):
    return ReportRow(
        digest=cfg.digest(),
        experiment=cfg.experiment,
        system=_fitted_system(cfg),
        arch=cfg.arch,
        point=point,
        sampling_factor=factor,
        rmse_coeffs=r_theta,
        rmse_y=r_y,
        coeff_errors=errors,
        shifts=shifts,
        runtime_s=time.perf_counter() - t0,
        seed=cfg.seed,
        status=status,
    )


def _fit_point(cfg, spec, coeffs_true, traces, factor, point, train_cfg) -> ReportRow:
    t0 = time.perf_counter()
    mask = SensingMask(cfg.mask) if cfg.mask is not None else None
    try:
        windows = _windows_for(traces, mask, factor)
        if cfg.arch == "sindyc":
            result = fit_sindyc(spec, coeffs_true, windows, cfg)
        else:
            result = _fit_neural(spec, coeffs_true, windows, cfg, train_cfg)
        errors = tuple(
            float(abs(a - b)) for a, b in zip(result.coeffs.values, coeffs_true.values)
        )
        return _row(
            cfg,
            point,
            factor,
            result.rmse_coeffs,
            result.rmse_y,
            errors,
            tuple(float(s) for s in result.shifts),
            t0,
        )
    except Exception as e:  # per-point failures land in the row
        return _row(
            cfg, point, factor, float("nan"), float("nan"), (), (), t0, status=f"error: {e}"
        )


# ---------------------------------------------------------------------------
# experiment sweeps


def run_experiment(cfg: ExperimentConfig) -> list[ReportRow]:
    """Execute one experiment sweep; one row per sweep point.

    Per-point failures are recorded in their row and the sweep continues.
    """
    gen_overrides = dict(cfg.generation)
    if cfg.experiment in ("single", "c1", "c2"):
        spec, coeffs_true, traces, _meta = generate_benchmark_data(
            cfg.system, {**gen_overrides, "perturbation": cfg.perturbation}, seed=cfg.seed
        )
    rows: list[ReportRow] = []

    if cfg.experiment == "single":
        factor = nyquist_factor(traces)
        rows.append(_fit_point(cfg, spec, coeffs_true, traces, factor, "single", cfg.train))

    elif cfg.experiment == "c1":
        for factor in rate_sweep_factors(traces, cfg.rate_points):
            rows.append(
                _fit_point(
                    cfg, spec, coeffs_true, traces, factor, f"factor={factor}", cfg.train
                )
            )

    elif cfg.experiment == "c2":
        factor = nyquist_factor(traces)
        rows.append(
            _fit_point(cfg, spec, coeffs_true, traces, factor, "perturbed", cfg.train)
        )
        spec2, coeffs2, traces_np, _ = generate_benchmark_data(
            cfg.system, {**gen_overrides, "perturbation": False}, seed=cfg.seed
        )
        rows.append(
            _fit_point(cfg, spec2, coeffs2, traces_np, factor, "unperturbed", cfg.train)
        )

    elif cfg.experiment in ("c5", "aid"):
        system = _fitted_system(cfg)
        # the bergman_aid preset has no perturbation switch and ignores it
        gen_overrides["perturbation"] = cfg.perturbation
        spec, coeffs_true, base_traces, meta = generate_benchmark_data(
            system, gen_overrides, seed=cfg.seed
        )
        ext = tuple(meta["ext_channels"])
        factor = 1
        off = replace(cfg.train, shift_channels=())
        rows.append(_fit_point(cfg, spec, coeffs_true, base_traces, factor, "baseline", off))
        for s in cfg.injected_shifts:
            _, _, shifted, _ = generate_benchmark_data(
                system, {**gen_overrides, "injected_shift": int(s)}, seed=cfg.seed
            )
            rows.append(
                _fit_point(
                    cfg, spec, coeffs_true, shifted, factor, f"shift={s}/search_off", off
                )
            )
            on = replace(cfg.train, shift_channels=ext)
            rows.append(
                _fit_point(
                    cfg, spec, coeffs_true, shifted, factor, f"shift={s}/search_on", on
                )
            )

    elif cfg.experiment == "eeg":
        for kind in ("sine", "wiener"):
            spec, coeffs_true, traces, _ = generate_benchmark_data(
                _fitted_system(cfg), {**gen_overrides, "input_kind": kind}, seed=cfg.seed
            )
            rows.append(
                _fit_point(cfg, spec, coeffs_true, traces, 1, f"input={kind}", cfg.train)
            )

    else:
        raise SpecError(f"unknown experiment {cfg.experiment!r}")

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

    Wall-clock time is recorded on every row but excluded from emitted
    files by default so identical configurations produce byte-identical
    reports.
    """
    cols = [c for c in REPORT_COLUMNS if include_runtime or c != "runtime_s"]
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for r in rows:
                writer.writerow([_format_value(getattr(r, c)) for c in cols])
    elif fmt == "json":
        doc = [{c: getattr(r, c) for c in cols} for r in rows]
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    else:
        raise SpecError(f"unknown report format {fmt!r}")


def read_report_json(path) -> list[dict]:
    with open(path) as fh:
        doc = json.load(fh)
    return [{k: tuple(v) if isinstance(v, list) else v for k, v in row.items()} for row in doc]


# ---------------------------------------------------------------------------
# trace / event CSV formats


def write_trace_csv(tr: Trace, path) -> None:
    labels = tr.labels or tuple(f"y{i+1}" for i in range(tr.y.shape[0])) + tuple(
        f"u{j+1}" for j in range(tr.m)
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", *labels])
        for j in range(tr.k):
            row = [repr(tr.t0 + j * tr.dt)]
            row += [repr(float(v)) for v in tr.y[:, j]]
            row += [repr(float(v)) for v in tr.u[:, j]]
            writer.writerow(row)


def write_events_csv(ev: EventList, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "channel", "magnitude"])
        for e in ev.events:
            writer.writerow([repr(e.t), e.channel, repr(e.magnitude)])


def read_events_csv(path) -> EventList:
    events = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["t", "channel", "magnitude"]:
            raise ConfigError(f"{path}: expected header t,channel,magnitude")
        for ln, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ConfigError(f"{path}:{ln}: {len(row)} values for {len(header)} columns")
            try:
                t, ch, mag = float(row[0]), int(row[1]), float(row[2])
            except ValueError:
                raise ConfigError(f"{path}:{ln}: non-numeric value") from None
            if t < 0:
                raise ConfigError(f"{path}:{ln}: negative event time {t}")
            events.append(Event(ch, t, mag))
    return EventList(tuple(events))


def load_real_csv(trace_path, events_path=None, schema: dict | None = None):
    """Read a measurement CSV into uniform-grid traces plus events.

    ``schema`` maps column labels to roles: {"y": [...], "u": [...]}.
    Sample gaps longer than twice the nominal interval split the record
    into separate trace segments; any other grid irregularity is an error
    naming the row.
    """
    with open(trace_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0].strip() != "t":
            raise ConfigError(f"{trace_path}: first column must be 't'")
        labels = [h.strip() for h in header[1:]]
        rows = []
        for ln, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ConfigError(
                    f"{trace_path}:{ln}: {len(row)} values for {len(header)} columns"
                )
            try:
                rows.append((ln, [float(v) for v in row]))
            except ValueError:
                raise ConfigError(f"{trace_path}:{ln}: non-numeric value") from None
    if len(rows) < 2:
        raise ConfigError(f"{trace_path}: need at least two samples")

    if schema is None:
        y_labels, u_labels = labels, []
    else:
        y_labels, u_labels = list(schema.get("y", [])), list(schema.get("u", []))
        for lbl in (*y_labels, *u_labels):
            if lbl not in labels:
                raise ConfigError(f"{trace_path}: unknown channel label {lbl!r}")
    y_idx = [labels.index(l) + 1 for l in y_labels]
    u_idx = [labels.index(l) + 1 for l in u_labels]

    t = np.array([r[1][0] for r in rows])
    diffs = np.diff(t)
    dt = float(np.median(diffs))
    if dt <= 0:
        raise ConfigError(f"{trace_path}: times must be strictly increasing")
    segments, start = [], 0
    for i, d in enumerate(diffs):
        if d > 2 * dt * (1 + 1e-9):
            segments.append((start, i + 1))
            start = i + 1
        elif abs(d - dt) > 1e-9 * max(dt, 1.0):
            raise ConfigError(
                f"{trace_path}:{rows[i + 1][0]}: non-uniform sample spacing "
                f"({d:.9g} vs {dt:.9g})"
            )
    segments.append((start, len(rows)))

    traces = []
    data = np.array([r[1] for r in rows])
    for a, b in segments:
        if b - a < 2:
            continue
        seg = data[a:b]
        traces.append(
            Trace(
                float(seg[0, 0]),
                dt,
                seg[:, y_idx].T,
                seg[:, u_idx].T if u_idx else np.zeros((0, b - a)),
                tuple(y_labels) + tuple(u_labels),
                {"source": str(trace_path)},
            )
        )
    events = read_events_csv(events_path) if events_path else EventList()
    return traces, events


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
        index.append({"file": name, "meta": _jsonable(tr.meta)})
    with open(os.path.join(dirpath, "meta.json"), "w") as fh:
        json.dump({"dataset": _jsonable(meta), "traces": index}, fh, indent=2)
        fh.write("\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    return obj


def load_dataset(dirpath):
    import os

    spec, coeffs = load_system_config(os.path.join(dirpath, "system.json"))
    with open(os.path.join(dirpath, "meta.json")) as fh:
        doc = json.load(fh)
    traces = []
    for entry in doc["traces"]:
        seg, _ = load_real_csv(os.path.join(dirpath, entry["file"]))
        tr = seg[0]
        meta = entry.get("meta", {})
        n_y = spec.n if "mask" not in meta else sum(meta["mask"])
        traces.append(
            Trace(
                tr.t0,
                tr.dt,
                tr.y[:n_y],
                tr.y[n_y:],
                tr.labels,
                {k: (tuple(v) if isinstance(v, list) else v) for k, v in meta.items()},
            )
        )
    return spec, coeffs, traces, doc["dataset"]
