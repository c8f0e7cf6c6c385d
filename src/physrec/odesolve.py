"""Fixed-step integration of control-affine systems.

``integrate_batch`` is the one solver.  It is the reconstruction box used
for benchmark data generation, inside the training loss, for the final
reconstructions and for the SINDYc model's replay: given initial states,
coefficient candidates and input samples, it produces the estimated
states on the sample grid.

Inputs are sampled and held: over output interval ``j`` (from ``t_j`` to
``t_{j+1}``) every RK4 stage of every substep reads sample ``u[j]``, and
the last sample is held past the grid's end.  The input therefore never
changes inside a step, and RK4 keeps its fourth order on piecewise-constant
inputs (an input jump inside a step would cut it to first order).
"""

from __future__ import annotations

import numpy as np

from .dynamics import SpecError, SystemSpec, compile_rhs

DIVERGENCE_LIMIT = 1e9


def _rk4_stage(rhs, x, cols, u, h):
    k1 = rhs.full(x, cols, u)
    k2 = rhs.full(x + 0.5 * h * k1, cols, u)
    k3 = rhs.full(x + 0.5 * h * k2, cols, u)
    k4 = rhs.full(x + h * k3, cols, u)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_batch(
    spec: SystemSpec,
    coeff_rows: np.ndarray,
    x0_rows: np.ndarray,
    u_rows: np.ndarray,
    k_out: int,
    dt: float,
    substeps: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate S trajectories in lockstep on a shared uniform grid.

    ``coeff_rows`` is (S, p), ``x0_rows`` is (S, n) and ``u_rows`` is
    (S, m, k_sig): each trajectory carries its own coefficients and its
    own input samples on the output grid.  Each output interval ``j``
    takes ``substeps`` classical RK4 steps of ``dt / substeps``, and all
    four stages of each step read ``u_rows[:, :, min(j, k_sig - 1)]``
    (strict zero-order hold; the last sample is held past the end).
    Returns ``(states, diverged, t_fail)`` where states is (S, n, k_out)
    and times of failure are relative to the grid start; diverged rows
    are frozen at their last finite value so the remaining rows keep
    integrating.

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
    h = dt / substeps

    states = np.empty((S, n, k_out))
    states[:, :, 0] = x0_rows
    x = x0_rows.copy()
    alive = np.ones(S, dtype=bool)
    t_fail = np.full(S, np.nan)
    with np.errstate(all="ignore"):
        for j in range(k_out - 1):
            u = u_rows[:, :, min(j, k_sig - 1)]
            for _ in range(substeps):
                x = _rk4_stage(rhs, x, cols, u, h)
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
