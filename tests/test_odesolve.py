"""Tests for the fixed-step integration module."""

import numpy as np
import pytest

from physrec.dynamics import (
    BUILTIN_NAMES,
    Factor,
    SensingMask,
    SpecError,
    SystemSpec,
    Term,
    builtin_system,
)
from physrec.odesolve import (
    DivergenceError,
    InputSignal,
    integrate_batch,
    solve,
)


def decay_system(a=1.0):
    spec = SystemSpec(
        name="decay",
        n=1,
        m=1,
        f_terms=(Term(0, "a", (Factor(0),), -1.0),),
        g_terms=(Term(0, None, (), 1.0, input=0),),
        coeff_names=("a",),
        coeff_signs=("nonneg",),
        resting=(0.0,),
    )
    return spec, spec.coefficients([a])


def oscillator_system():
    # xdot = v, vdot = -x: unit circle in phase space, period 2 pi
    spec = SystemSpec(
        name="osc",
        n=2,
        m=1,
        f_terms=(Term(0, None, (Factor(1),)), Term(1, "w", (Factor(0),), -1.0)),
        g_terms=(Term(1, None, (), 1.0, input=0),),
        coeff_names=("w",),
        coeff_signs=("nonneg",),
    )
    return spec, spec.coefficients([1.0])


def zero_signal(m=1, k=2, dt=1.0):
    return InputSignal(0.0, dt, np.zeros((m, k)))


def held(sig, t):
    return sig.channels[:, sig.index_at(t)]


def rk4_steps(spec, coeffs, x, h, steps):
    """``steps`` RK4 steps of size ``h`` from ``x`` with a zero input."""
    x = np.asarray(x, dtype=float)
    states, diverged, _ = integrate_batch(
        spec, coeffs.values[None, :], x[None, :], np.zeros((1, spec.m, 1)), steps + 1, h, 1
    )
    assert not diverged[0]
    return states[0, :, -1]


class TestZoh:
    def test_hold_within_interval(self):
        sig = InputSignal(0.0, 1.0, np.array([[0.0, 5.0, 0.0]]))
        assert held(sig, 1.5)[0] == 5.0

    def test_start_and_past_end(self):
        sig = InputSignal(0.0, 1.0, np.array([[3.0, 5.0, 7.0]]))
        assert held(sig, 0.0)[0] == 3.0
        assert held(sig, 99.0)[0] == 7.0

    def test_before_start_rejected(self):
        sig = zero_signal()
        with pytest.raises(SpecError):
            held(sig, -0.5)

    def test_solve_input_is_the_per_sample_hold(self):
        # output grid offset from and finer than the signal's, running past its end
        spec, coeffs = decay_system()
        sig = InputSignal(0.3, 0.1, (np.arange(12.0) ** 2)[None, :])
        t_grid = 0.37 + 0.03 * np.arange(60)
        tr = solve(spec, coeffs, [0.0], sig, t_grid, substeps=2)
        want = np.stack([held(sig, t) for t in t_grid], axis=1)
        assert np.array_equal(tr.u, want)
        with pytest.raises(SpecError, match="precedes signal start"):
            solve(spec, coeffs, [0.0], sig, t_grid - 0.1)


class TestStepRk4:
    def test_decay_step_matches_stability_polynomial(self):
        # one step of the classical method on xdot = -x has the closed form
        # R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 with z = -h
        spec, coeffs = decay_system()
        z = -0.1
        expect = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        out = rk4_steps(spec, coeffs, [1.0], 0.1, 1)
        assert abs(out[0] - expect) < 1e-12
        # the 4th-order truncation gap to the true exponential is ~8.2e-8
        assert abs(out[0] - np.exp(-0.1)) < 1.2e-7

    def test_zero_rhs_leaves_state(self):
        spec, coeffs = decay_system(a=0.0)
        out = rk4_steps(spec, coeffs, [3.5], 0.25, 1)
        assert out[0] == 3.5

    def test_harmonic_oscillator_period(self):
        spec, coeffs = oscillator_system()
        x = rk4_steps(spec, coeffs, [1.0, 0.0], 2 * np.pi / 1000, 1000)
        assert np.max(np.abs(x - [1.0, 0.0])) < 1e-9

    def test_nonpositive_step_rejected(self):
        spec, coeffs = decay_system()
        x0, u = np.ones((1, 1)), np.zeros((1, 1, 2))
        with pytest.raises(SpecError, match="substeps"):
            integrate_batch(spec, coeffs.values[None, :], x0, u, 2, 0.1, 0)


class TestSolve:
    def test_exponential_endpoint(self):
        spec, coeffs = decay_system()
        grid = np.arange(11) * 0.1
        tr = solve(spec, coeffs, [1.0], zero_signal(), grid)
        assert abs(tr.y[0, -1] - np.exp(-1.0)) < 1e-7

    def test_equilibrium_stays_constant(self):
        spec, coeffs = builtin_system("lotka_volterra")
        grid = np.arange(50) * 0.2
        tr = solve(spec, coeffs, [100.0, 20.0], zero_signal(), grid)
        assert np.max(np.abs(tr.y - np.array([[100.0], [20.0]]))) < 1e-9

    def test_self_consistency_with_recorded_inputs(self):
        spec, coeffs = builtin_system("bergman_aid")
        k = 40
        u = np.zeros((2, k))
        u[0] = 1.0
        u[0, 10] += 5.0
        u[1, 8] = 12.0
        sig = InputSignal(0.0, 5.0, u)
        grid = 5.0 * np.arange(k)
        first = solve(spec, coeffs, spec.resting_state(), sig, grid)
        again = solve(spec, coeffs, spec.resting_state(), sig, grid)
        assert np.array_equal(first.y, again.y)  # bit-identical determinism

    def test_masked_output_and_hidden_seeding(self):
        spec, coeffs = builtin_system("bergman_aid")
        mask = SensingMask((0, 0, 1))
        k = 20
        sig = InputSignal(0.0, 5.0, np.zeros((2, k)))
        grid = 5.0 * np.arange(k)
        tr = solve(spec, coeffs, [1.0], sig, grid, mask=mask, return_full_state=True)
        assert tr.y.shape == (1, k)
        full = tr.meta["full_state"]
        assert full[0, 0] == spec.resting_state()[0]
        assert full[2, 0] == 1.0

    def test_divergence_reports_time(self):
        spec = SystemSpec(
            name="blow",
            n=1,
            m=1,
            f_terms=(Term(0, "a", (Factor(0, 3),)),),
            g_terms=(Term(0, None, (), 1.0, input=0),),
            coeff_names=("a",),
            coeff_signs=("nonneg",),
        )
        coeffs = spec.coefficients([5.0])
        grid = np.arange(200) * 0.5
        with pytest.raises(DivergenceError) as err:
            solve(spec, coeffs, [2.0], zero_signal(), grid)
        assert np.isfinite(err.value.t)

    def test_grid_validation(self):
        spec, coeffs = decay_system()
        with pytest.raises(SpecError):
            solve(spec, coeffs, [1.0], zero_signal(), [0.0, 0.2, 0.1])
        with pytest.raises(SpecError):
            solve(spec, coeffs, [1.0], zero_signal(), [0.0, 0.1, 0.3])


class TestConvergenceOrder:
    def test_rk4_fourth_order(self):
        spec, coeffs = decay_system()
        grid = np.arange(11) * 0.1
        errs = [
            abs(solve(spec, coeffs, [1.0], zero_signal(), grid, sub).y[0, -1] - np.exp(-1.0))
            for sub in (1, 2, 4, 8)
        ]
        for a, b in zip(errs, errs[1:]):
            assert 12.0 <= a / b <= 20.0

    def test_substep_refinement_consistency(self):
        # doubling substeps moves the solution by less than the Richardson
        # truncation estimate of the coarser run, on every built-in system
        for name in ("lotka_volterra", "bergman_aid", "eeg_dvdp"):
            spec, coeffs = builtin_system(name)
            k, dt = 60, (5.0 if name == "bergman_aid" else 0.05)
            sig = InputSignal(0.0, dt, np.zeros((spec.m, k)))
            grid = dt * np.arange(k)
            x0 = spec.resting_state() + 0.05
            sols = {}
            for sub in (2, 4, 8):
                sols[sub] = solve(spec, coeffs, x0, sig, grid, sub).y
            d_coarse = np.max(np.abs(sols[4] - sols[2]))
            d_fine = np.max(np.abs(sols[8] - sols[4]))
            richardson = d_coarse / 15.0
            assert d_fine <= max(richardson * 2.0, 1e-14)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_integrate_batch_rows_are_independent(name):
    # a row solved alone equals the same row inside a batch bit for bit,
    # also next to a row that diverges
    spec, coeffs = builtin_system(name)
    rng = np.random.default_rng(7)
    S, k, dt = 5, 30, (5.0 if name == "bergman_aid" else 0.01)
    coeff_rows = coeffs.values[None, :] * rng.uniform(0.8, 1.2, size=(S, spec.p))
    x0_rows = spec.resting_state()[None, :] + rng.uniform(-0.1, 0.1, size=(S, spec.n))
    x0_rows[2] = 2e9  # past the divergence limit after the first step
    u_rows = rng.uniform(0.0, 0.5, size=(S, spec.m, k))
    states, diverged, t_fail = integrate_batch(spec, coeff_rows, x0_rows, u_rows, k, dt, 2)
    assert diverged.tolist() == [False, False, True, False, False]
    for r in range(S):
        alone = integrate_batch(
            spec, coeff_rows[r : r + 1], x0_rows[r : r + 1], u_rows[r : r + 1], k, dt, 2
        )
        assert np.array_equal(alone[0][0], states[r])
        assert alone[1][0] == diverged[r]
        assert np.array_equal(alone[2], t_fail[r : r + 1], equal_nan=True)
