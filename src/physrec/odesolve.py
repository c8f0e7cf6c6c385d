"""Fixed-step integration of control-affine systems.

``integrate_batch`` is the one solver.  It is the reconstruction box used
for benchmark data generation, inside the training loss, for the replay
that scores the final estimates and for the SINDYc model's replay: given initial states,
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
    (S, m, k_sig) with k_sig >= 1: each trajectory carries its own
    coefficients and its own input samples on the output grid.  Each
    output interval ``j`` takes ``substeps`` classical RK4 steps of
    ``dt / substeps``, and all four stages of each step read
    ``u_rows[:, :, min(j, k_sig - 1)]`` (strict zero-order hold; the last
    sample is held past the end).  Returns ``(states, diverged, t_fail)``
    where states is (S, n, k_out) and times of failure are relative to the
    grid start; diverged rows are frozen at their last finite value so the
    remaining rows keep integrating.  Shapes, ``k_out >= 1``, ``dt`` and
    ``substeps`` are checked first, with a SpecError naming the argument.

    Rows are independent: every operation acts row by row, so a row's
    states, divergence flag and failure time are bit-identical whether it
    is solved alone or inside any batch.  The coefficient columns are
    computed once per call (``CompiledRhs.columns``).  One column-major
    work buffer per call (``CompiledRhs.work``) holds the stage state in
    its first n columns, the held input in ``input_cols``, written once
    per interval, and a column of ones.  Each stage writes its state there
    in place and is one ``CompiledRhs.full`` call on the buffer; each
    interval's state goes straight into ``states``.  Divergence is checked
    once per interval on the whole batch, ``max |x| <= DIVERGENCE_LIMIT``
    (NaN fails it); the per-row check and the freezing run only when that
    fails or once a row has died.

    The RK4 loop allocates no array data: every buffer is made once per
    call.  ``CompiledRhs.scratch`` gives the kernel's gather and product
    buffers, each of the four stages writes its derivative into its own
    (n, S) buffer through ``full``'s ``out``, and one (S, n) step buffer
    takes each ``h · k`` and one more takes ``|x|`` for the check.
    """
    _check_inputs(spec, coeff_rows, x0_rows, u_rows, k_out, dt, substeps)
    rhs = compile_rhs(spec)
    full = rhs.full
    cols = rhs.columns(coeff_rows)
    S, n = x0_rows.shape
    k_sig = u_rows.shape[2]
    h = dt / substeps
    # 0-d arrays: numpy multiplies an array by them faster than by floats
    h, half_h, sixth_h, two = (np.array(c) for c in (h, 0.5 * h, h / 6.0, 2.0))
    # ufuncs bound once; each call below passes its output buffer as the
    # positional argument after the inputs, which numpy parses faster than out=
    add, multiply, absolute = np.add, np.multiply, np.abs
    max_abs = np.maximum.reduce

    states = np.empty((S, n, k_out))
    states[:, :, 0] = x0_rows
    work = rhs.work(x0_rows, u_rows[:, :, 0])
    scratch = rhs.scratch(work)
    # one (n, S) buffer per stage; full returns its (S, n) transpose
    out1, out2, out3, out4 = (np.empty((n, S)) for _ in range(4))
    step, abs_x = np.empty((S, n), order="F"), np.empty((S, n), order="F")
    xw, uw = work[:, :n], work[:, rhs.input_cols]
    x = np.array(x0_rows, dtype=float, order="F")
    alive = np.ones(S, dtype=bool)
    all_alive = True
    t_fail = np.full(S, np.nan)
    with np.errstate(all="ignore"):
        for j in range(k_out - 1):
            if 0 < j < k_sig:
                uw[...] = u_rows[:, :, j]
            for _ in range(substeps):
                xw[...] = x
                k1 = full(work, cols, out1, scratch)
                add(x, multiply(half_h, k1, step), xw)
                k2 = full(work, cols, out2, scratch)
                add(x, multiply(half_h, k2, step), xw)
                k3 = full(work, cols, out3, scratch)
                add(x, multiply(h, k3, step), xw)
                k4 = full(work, cols, out4, scratch)
                # x + h/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right
                multiply(k2, two, k2)
                add(k1, k2, k1)
                multiply(k3, two, k3)
                add(k1, k3, k1)
                add(k1, k4, k1)
                multiply(k1, sixth_h, k1)
                add(x, k1, x)
            # initial=0.0 keeps an empty batch valid; NaN still propagates
            if not (all_alive and max_abs(absolute(x, abs_x), axis=None, initial=0.0)
                    <= DIVERGENCE_LIMIT):
                bad = alive & (
                    ~np.all(np.isfinite(x), axis=1)
                    | (np.max(np.abs(x), axis=1) > DIVERGENCE_LIMIT)
                )
                t_fail[bad] = (j + 1) * dt
                alive &= ~bad
                all_alive = bool(alive.all())
                dead = ~alive
                x[dead] = states[dead, :, j]  # freeze dead rows
            states[:, :, j + 1] = x
    return states, ~alive, t_fail


def _check_inputs(spec, coeff_rows, x0_rows, u_rows, k_out, dt, substeps):
    if substeps < 1:
        raise SpecError(f"substeps must be >= 1, got {substeps}")
    if k_out < 1:
        raise SpecError(f"k_out must be >= 1, got {k_out}")
    if not (np.isfinite(dt) and dt > 0):
        raise SpecError(f"dt must be positive and finite, got {dt}")
    if x0_rows.ndim != 2 or x0_rows.shape[1] != spec.n:
        raise SpecError(f"x0_rows must be (S, {spec.n}), got {x0_rows.shape}")
    S = x0_rows.shape[0]
    if coeff_rows.shape != (S, spec.p):
        raise SpecError(f"coeff_rows must be ({S}, {spec.p}), got {coeff_rows.shape}")
    if u_rows.ndim != 3 or u_rows.shape[:2] != (S, spec.m) or u_rows.shape[2] < 1:
        raise SpecError(f"u_rows must be ({S}, {spec.m}, k >= 1), got {u_rows.shape}")
