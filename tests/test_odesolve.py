"""Tests for the fixed-step integration module."""

import numpy as np
import pytest

from physrec.dynamics import (
    BUILTIN_NAMES,
    CompiledRhs,
    Factor,
    SensingMask,
    SpecError,
    SystemSpec,
    Term,
    builtin_system,
)
from physrec.neural import replay
from physrec.odesolve import integrate_batch
from physrec.sindy import library_columns, model_spec


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


def solve_one(spec, coeffs, x0, k, dt, substeps=10, u=None):
    """One trajectory of ``integrate_batch``: (states n x k, diverged, t_fail);
    the input is zero unless ``u`` (m x k) is given."""
    u = np.zeros((spec.m, k)) if u is None else u
    x0 = np.asarray(x0, dtype=float)
    states, diverged, t_fail = integrate_batch(
        spec, coeffs.values[None, :], x0[None, :], u[None, :, :], k, dt, substeps
    )
    return states[0], diverged[0], t_fail[0]


def rk4_steps(spec, coeffs, x, h, steps):
    """``steps`` RK4 steps of size ``h`` from ``x`` with a zero input."""
    states, diverged, _ = solve_one(spec, coeffs, x, steps + 1, h, 1, np.zeros((spec.m, 1)))
    assert not diverged
    return states[:, -1]


class TestZoh:
    def test_solve_input_is_the_per_sample_hold(self):
        # with xdot = u, every RK4 stage of interval j reads u[j], so one
        # step per sample integrates the held input exactly:
        # x[j+1] - x[j] = dt u[j]
        spec, coeffs = decay_system(a=0.0)
        u = (np.arange(12.0) ** 2)[None, :]
        dt = 0.1
        states, _, _ = solve_one(spec, coeffs, [0.0], 12, dt, 1, u)
        assert np.allclose(np.diff(states[0]), dt * u[0, :-1], rtol=1e-12, atol=0.0)
        # at two substeps a jump at sample 1 enters only in interval 1,
        # not at the last stage of interval 0
        step = np.array([[0.0, 6.0, 6.0]])
        states, _, _ = solve_one(spec, coeffs, [0.0], 3, dt, 2, step)
        assert states[0, 1] == 0.0
        assert abs(states[0, 2] - dt * 6.0) < 1e-15


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
        states, _, _ = solve_one(spec, coeffs, [1.0], 11, 0.1)
        assert abs(states[0, -1] - np.exp(-1.0)) < 1e-7

    def test_equilibrium_stays_constant(self):
        spec, coeffs = builtin_system("lotka_volterra")
        states, _, _ = solve_one(spec, coeffs, [100.0, 20.0], 50, 0.2)
        assert np.max(np.abs(states - np.array([[100.0], [20.0]]))) < 1e-9

    def test_self_consistency_with_recorded_inputs(self):
        spec, coeffs = builtin_system("bergman_aid")
        k = 40
        u = np.zeros((2, k))
        u[0] = 1.0
        u[0, 10] += 5.0
        u[1, 8] = 12.0
        first = solve_one(spec, coeffs, spec.resting_state(), k, 5.0, u=u)[0]
        again = solve_one(spec, coeffs, spec.resting_state(), k, 5.0, u=u)[0]
        assert np.array_equal(first, again)  # bit-identical determinism

    def test_masked_output_and_hidden_seeding(self):
        # the loss seeds the hidden states from their resting values and
        # scores the observed rows of the solve
        spec, coeffs = builtin_system("bergman_aid")
        mask = SensingMask((0, 0, 1))
        k = 20
        y, u = np.ones((1, 1, k)), np.zeros((1, 2, k))
        y_est, _, _ = replay(spec, coeffs.values[None, :], u, y, list(mask.observed), 5.0, 2)
        x0 = spec.resting_state()
        x0[2] = 1.0
        states, _, _ = solve_one(spec, coeffs, x0, k, 5.0, substeps=2)
        assert y_est.shape == (1, 1, k) and y_est[0, 0, 0] == 1.0
        assert np.array_equal(y_est[0], states[list(mask.observed)])

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
        states, diverged, t_fail = solve_one(spec, coeffs, [2.0], 200, 0.5)
        assert diverged
        assert np.isfinite(t_fail) and t_fail > 0.0
        # the row is frozen at its last finite value from the failure on
        j = int(round(t_fail / 0.5))
        assert np.all(np.isfinite(states)) and np.all(states[:, j:] == states[:, j - 1 : j])


class TestConvergenceOrder:
    def test_rk4_fourth_order(self):
        spec, coeffs = decay_system()
        errs = [
            abs(solve_one(spec, coeffs, [1.0], 11, 0.1, sub)[0][0, -1] - np.exp(-1.0))
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
            x0 = spec.resting_state() + 0.05
            sols = {sub: solve_one(spec, coeffs, x0, k, dt, sub)[0] for sub in (2, 4, 8)}
            d_coarse = np.max(np.abs(sols[4] - sols[2]))
            d_fine = np.max(np.abs(sols[8] - sols[4]))
            richardson = d_coarse / 15.0
            assert d_fine <= max(richardson * 2.0, 1e-14)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_rk4_stays_fourth_order_under_a_held_input(name):
    # a new input sample every interval never jumps inside a step, so
    # halving the step divides the error against a fine solve by ~16 (an
    # input jump inside the last stage would give ~2)
    spec, coeffs = builtin_system(name)
    dt = {"lotka_volterra": 0.05, "lorenz": 0.005, "bergman_aid": 5.0, "eeg_dvdp": 0.02}[name]
    k = 40
    x0 = spec.resting_state() + (np.array([1.0, 1.0, 25.0]) if name == "lorenz" else 0.05)
    u = np.random.default_rng(3).uniform(0.0, 1.0, size=(spec.m, k))
    ref = solve_one(spec, coeffs, x0, k, dt, 64, u)[0]
    errs = [
        np.max(np.abs(solve_one(spec, coeffs, x0, k, dt, sub, u)[0] - ref)) for sub in (1, 2, 4)
    ]
    for a, b in zip(errs, errs[1:]):
        assert a / b >= 12.0


def sindy_21_model():
    """A degree-2 SINDYc model of 2 states and 1 input: 21 of its 24 terms."""
    rng = np.random.default_rng(21)
    xi = rng.uniform(-0.5, 0.5, size=(12, 2))
    xi.flat[[3, 10, 17]] = 0.0
    return model_spec(xi, library_columns(2, 1, 2), 1)


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, "sindy_21"])
def test_integrate_batch_rows_are_independent(name):
    # a row solved alone equals the same row inside a batch bit for bit,
    # also next to rows that diverge
    if name == "sindy_21":
        spec, values = sindy_21_model(), np.zeros(0)
        assert len(spec.f_terms) + len(spec.g_terms) == 21
    else:
        spec, coeffs = builtin_system(name)
        values = coeffs.values
    rng = np.random.default_rng(7)
    S, k, dt = 6, 30, (5.0 if name == "bergman_aid" else 0.01)
    coeff_rows = values[None, :] * rng.uniform(0.8, 1.2, size=(S, spec.p))
    x0_rows = spec.resting_state()[None, :] + rng.uniform(-0.1, 0.1, size=(S, spec.n))
    if spec.p:
        coeff_rows[4] = np.nan  # NaN from the first stage on
    else:
        x0_rows[4] = np.nan  # a weights-only model has no coefficient to spoil
    x0_rows[2] = 2e9  # past the divergence limit after the first step
    u_rows = rng.uniform(0.0, 0.5, size=(S, spec.m, k))
    states, diverged, t_fail = integrate_batch(spec, coeff_rows, x0_rows, u_rows, k, dt, 2)
    assert diverged.tolist() == [False, False, True, False, True, False]
    for r in (2, 4):
        assert t_fail[r] == dt
        frozen = np.repeat(x0_rows[r][:, None], k, axis=1)
        assert np.array_equal(states[r], frozen, equal_nan=True)
    # the inputs' memory layout does not change a bit
    fortran = integrate_batch(
        spec, *(np.asfortranarray(a) for a in (coeff_rows, x0_rows, u_rows)), k, dt, 2
    )
    for got, want in zip(fortran, (states, diverged, t_fail)):
        assert np.array_equal(got, want, equal_nan=True)
    for r in range(S):
        alone = integrate_batch(
            spec, coeff_rows[r : r + 1], x0_rows[r : r + 1], u_rows[r : r + 1], k, dt, 2
        )
        assert np.array_equal(alone[0][0], states[r], equal_nan=True)
        assert alone[1][0] == diverged[r]
        assert np.array_equal(alone[2], t_fail[r : r + 1], equal_nan=True)


@pytest.mark.parametrize("substeps", [1, 3])
def test_integrate_batch_calls_full_once_per_stage(substeps, monkeypatch):
    # the benchmark's rhs call and row counts read one call per RK4 stage,
    # each on the whole batch
    spec, coeffs = builtin_system("bergman_aid")
    S, k = 5, 7
    rows = []
    original = CompiledRhs.full

    def counted(self, work, cols, *args, **kwargs):
        rows.append(work.shape[0])
        return original(self, work, cols, *args, **kwargs)

    monkeypatch.setattr(CompiledRhs, "full", counted)
    integrate_batch(
        spec, np.tile(coeffs.values, (S, 1)), np.tile(spec.resting_state(), (S, 1)),
        np.zeros((S, spec.m, k)), k, 5.0, substeps,
    )
    assert rows == [S] * (4 * substeps * (k - 1))


def test_integrate_batch_stage_outputs_never_alias(monkeypatch):
    # k1..k4 of one RK4 step are all live when the step combines them
    spec, coeffs = builtin_system("lotka_volterra")
    S, k, substeps = 3, 4, 2
    calls = []
    original = CompiledRhs.full

    def kept(self, work, cols, *args, **kwargs):
        out = original(self, work, cols, *args, **kwargs)
        calls.append((out, work))
        return out

    monkeypatch.setattr(CompiledRhs, "full", kept)
    integrate_batch(
        spec, np.tile(coeffs.values, (S, 1)), np.tile(spec.resting_state(), (S, 1)),
        np.zeros((S, spec.m, k)), k, 0.1, substeps,
    )
    assert len(calls) == 4 * substeps * (k - 1)
    for i in range(0, len(calls), 4):
        stages = [out for out, _ in calls[i : i + 4]]
        work = calls[i][1]
        for a in range(4):
            assert not np.shares_memory(stages[a], work)
            for b in range(a):
                assert not np.shares_memory(stages[a], stages[b])


def _lv_args(**changes):
    spec, coeffs = builtin_system("lotka_volterra")
    S, k = 2, 5
    args = {
        "spec": spec,
        "coeff_rows": np.tile(coeffs.values, (S, 1)),
        "x0_rows": np.tile(spec.resting_state(), (S, 1)),
        "u_rows": np.zeros((S, 1, k)),
        "k_out": k,
        "dt": 0.1,
        "substeps": 2,
    }
    return {**args, **changes}


BAD_SOLVE_ARGS = [
    ("two input channels", {"u_rows": np.zeros((2, 2, 5))}, "u_rows"),
    ("missing input channel", {"u_rows": np.zeros((2, 0, 5))}, "u_rows"),
    ("one input row for two states", {"u_rows": np.zeros((1, 1, 5))}, "u_rows"),
    ("empty input axis", {"u_rows": np.zeros((2, 1, 0))}, "u_rows"),
    ("2-d inputs", {"u_rows": np.zeros((2, 1))}, "u_rows"),
    ("five coefficients for p=4", {"coeff_rows": np.ones((2, 5))}, "coeff_rows"),
    ("too few coefficients", {"coeff_rows": np.ones((2, 3))}, "coeff_rows"),
    ("one coefficient row", {"coeff_rows": np.ones((1, 4))}, "coeff_rows"),
    ("wrong-width states", {"x0_rows": np.ones((2, 3))}, "x0_rows"),
    ("1-d states", {"x0_rows": np.ones(2)}, "x0_rows"),
    ("zero k_out", {"k_out": 0}, "k_out"),
    ("zero dt", {"dt": 0.0}, "dt"),
    ("negative dt", {"dt": -0.1}, "dt"),
    ("nan dt", {"dt": float("nan")}, "dt"),
    ("inf dt", {"dt": float("inf")}, "dt"),
    ("zero substeps", {"substeps": 0}, "substeps"),
]


@pytest.mark.parametrize(
    "changes,argument", [c[1:] for c in BAD_SOLVE_ARGS], ids=[c[0] for c in BAD_SOLVE_ARGS]
)
def test_integrate_batch_names_a_bad_argument(changes, argument):
    with pytest.raises(SpecError, match=rf"^{argument} "):
        integrate_batch(**_lv_args(**changes))


def test_integrate_batch_accepts_one_sample_k_out_and_no_inputs():
    states, diverged, _ = integrate_batch(**_lv_args(k_out=1))
    assert states.shape == (2, 2, 1) and not diverged.any()
    spec = SystemSpec("free", 1, 0, (Term(0, "a", (Factor(0),), -1.0),), (), ("a",), ("free",))
    states, _, _ = integrate_batch(spec, np.ones((1, 1)), np.ones((1, 1)), np.zeros((1, 0, 1)),
                                   3, 0.1, 1)
    assert states.shape == (1, 1, 3) and states[0, 0, 2] < states[0, 0, 1] < 1.0
