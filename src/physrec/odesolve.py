"""Fixed-step integration of control-affine systems.

This is the reconstruction box used both for benchmark data generation
and inside the training loss: given an initial observation, a coefficient
candidate and the input signal, produce the estimated trace on the sample
grid.  Inputs are reconstructed between samples by zero-order hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Coefficients, SensingMask, SpecError, SystemSpec, compile_rhs
from .signals import Trace

DIVERGENCE_LIMIT = 1e9


class DivergenceError(RuntimeError):
    """Integration blew up; carries the time of failure."""

    def __init__(self, t: float):
        super().__init__(f"state diverged at t={t:.6g}")
        self.t = t


def zoh_index(times, t0: float, dt: float, k: int) -> np.ndarray:
    """Index of the latest sample at or before each of ``times`` on the grid
    ``t0 + j * dt`` (``j < k``), clipped to the grid's ends."""
    # Small forward nudge so grid-aligned times land on their own sample.
    idx = np.floor((times - t0) / dt + 1e-9).astype(int)
    return np.clip(idx, 0, k - 1)


@dataclass(frozen=True)
class InputSignal:
    """Uniformly sampled input channels, held constant between samples."""

    t0: float
    dt: float
    channels: np.ndarray  # m x k

    def __post_init__(self):
        ch = np.atleast_2d(np.asarray(self.channels, dtype=float))
        object.__setattr__(self, "channels", ch)
        if not self.dt > 0:
            raise SpecError("dt must be positive")
        if not np.all(np.isfinite(ch)):
            raise SpecError("input signal contains non-finite values")

    @property
    def m(self) -> int:
        return self.channels.shape[0]

    @property
    def k(self) -> int:
        return self.channels.shape[1]

    def index_at(self, t):
        """Held sample index at time ``t`` (a scalar or an array of times);
        past the end the last sample is held.  Times before ``t0`` raise."""
        t = np.asarray(t, dtype=float)
        if np.any(t < self.t0 - 1e-9 * max(1.0, abs(self.t0))):
            raise SpecError(f"t={np.min(t)} precedes signal start t0={self.t0}")
        return zoh_index(t, self.t0, self.dt, self.k)


def _rk4_stage(rhs, x, cols, u0, u_half, u1, h):
    k1 = rhs.full(x, cols, u0)
    k2 = rhs.full(x + 0.5 * h * k1, cols, u_half)
    k3 = rhs.full(x + 0.5 * h * k2, cols, u_half)
    k4 = rhs.full(x + h * k3, cols, u1)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_batch(
    spec: SystemSpec,
    coeff_rows: np.ndarray,
    x0_rows: np.ndarray,
    u_rows: np.ndarray,
    k_out: int,
    dt: float,
    substeps: int,
    u_dt: float | None = None,
    u_t0_offset: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate S trajectories in lockstep on a shared uniform grid.

    ``coeff_rows`` is (S, p), ``x0_rows`` is (S, n) and ``u_rows`` is
    (S, m, k_sig): each trajectory carries its own coefficients and its
    own input samples (zero-order held, grid spacing ``u_dt`` which
    defaults to the output spacing).  Each output interval ``dt`` takes
    ``substeps`` classical RK4 steps, the stage inputs held at the
    step's start, midpoint and end.  Returns ``(states, diverged,
    t_fail)`` where states is (S, n, k_out) and times of failure are
    relative to the grid start; diverged rows are frozen at their last
    finite value so the remaining rows keep integrating.

    Rows are independent: every operation acts row by row, so a row's
    states, divergence flag and failure time are bit-identical whether it
    is solved alone or inside any batch.  The coefficient columns are
    computed once per call (``CompiledRhs.columns``); each stage is one
    ``CompiledRhs.full`` call.
    """
    if substeps < 1:
        raise SpecError("substeps must be >= 1")
    rhs = compile_rhs(spec)
    cols = rhs.columns(coeff_rows)
    S, n = x0_rows.shape
    k_sig = u_rows.shape[2]
    if u_dt is None:
        u_dt = dt
    h = dt / substeps

    # Precompute zero-order-hold sample indices for every stage time.
    stage_base = np.arange((k_out - 1) * substeps) * h  # start time of each substep
    idx0, idx_half, idx1 = (
        zoh_index(stage_base + offset * h, u_t0_offset, u_dt, k_sig) for offset in (0.0, 0.5, 1.0)
    )

    states = np.empty((S, n, k_out))
    states[:, :, 0] = x0_rows
    x = x0_rows.copy()
    alive = np.ones(S, dtype=bool)
    t_fail = np.full(S, np.nan)
    with np.errstate(all="ignore"):
        for j in range(k_out - 1):
            for s in range(substeps):
                q = j * substeps + s
                x = _rk4_stage(
                    rhs, x, cols, u_rows[:, :, idx0[q]], u_rows[:, :, idx_half[q]],
                    u_rows[:, :, idx1[q]], h,
                )
            bad = alive & (
                ~np.all(np.isfinite(x), axis=1) | (np.max(np.abs(x), axis=1) > DIVERGENCE_LIMIT)
            )
            if np.any(bad):
                t_fail[bad] = (j + 1) * dt
                alive &= ~bad
            if not np.all(alive):
                x = np.where(alive[:, None], x, states[:, :, j])  # freeze dead rows
            states[:, :, j + 1] = x
    return states, ~alive, t_fail


def _seed_initial_state(spec: SystemSpec, x0: np.ndarray, mask: SensingMask | None) -> np.ndarray:
    if x0.shape == (spec.n,):
        return x0
    if mask is not None and x0.shape == (mask.n_observed,):
        full = spec.resting_state()
        full[list(mask.observed)] = x0
        return full
    raise SpecError(
        f"x0 has shape {x0.shape}; expected ({spec.n},) or the observed length of the mask"
    )


def solve(
    spec: SystemSpec,
    coeffs: Coefficients,
    x0,
    sig: InputSignal,
    t_grid,
    substeps: int = 10,
    mask: SensingMask | None = None,
    return_full_state: bool = False,
) -> Trace:
    """Integrate and return the (masked) observation sequence on ``t_grid``.

    ``t_grid`` must be strictly increasing and uniform; each of its
    intervals takes ``substeps`` RK4 steps of ``integrate_batch``.  When
    only the observed part of the initial state is supplied, unobserved
    components are seeded from the system's declared resting values.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2:
        raise SpecError("t_grid must contain at least two times")
    steps = np.diff(t_grid)
    if np.any(steps <= 0):
        raise SpecError("t_grid must be strictly increasing")
    dt = steps[0]
    if np.max(np.abs(steps - dt)) > 1e-9 * max(abs(dt), 1.0):
        raise SpecError("t_grid must be uniform")
    x0 = np.asarray(x0, dtype=float)
    x_init = _seed_initial_state(spec, x0, mask)

    k = t_grid.size
    u_grid = sig.channels[:, sig.index_at(t_grid)] if spec.m else np.empty((0, k))

    states, diverged, t_fail = integrate_batch(
        spec,
        coeffs.values[None, :],
        x_init[None, :],
        sig.channels[None, :, :],
        k,
        float(dt),
        substeps,
        u_dt=sig.dt,
        u_t0_offset=sig.t0 - float(t_grid[0]),
    )
    if diverged[0]:
        raise DivergenceError(float(t_grid[0] + t_fail[0]))

    full = states[0]
    y = full[list(mask.observed)] if mask is not None else full
    labels = tuple(f"x{i+1}" for i in (mask.observed if mask is not None else range(spec.n))) + tuple(
        f"u{j+1}" for j in range(spec.m)
    )
    meta = {"system": spec.name}
    if return_full_state:
        meta["full_state"] = full
    return Trace(t0=float(t_grid[0]), dt=float(dt), y=y, u=u_grid[: spec.m], labels=labels, meta=meta)
