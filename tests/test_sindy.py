"""Tests for the sparse-regression baseline."""

import numpy as np
import pytest

from physrec import sindy
from physrec.dynamics import Factor, SpecError, SystemSpec, Term, compile_rhs
from physrec.harness import ExperimentConfig, fit_sindyc
from physrec.signals import Trace
from physrec.sindy import (
    build_library,
    estimate_derivatives,
    library_columns,
    map_to_coefficients,
    model_spec,
    stridge,
)


class TestBuildLibrary:
    def test_scalar_degree_two(self):
        row = build_library(library_columns(1, 0, 2), np.array([[2.0]]))
        assert np.array_equal(row[0], [1.0, 2.0, 4.0])

    def test_two_states_degree_two_order(self):
        columns = library_columns(2, 0, 2)
        row = build_library(columns, np.array([[1.0], [3.0]]))
        assert np.array_equal(row[0], [1.0, 1.0, 3.0, 1.0, 3.0, 9.0])
        expos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        assert columns == tuple((e, None) for e in expos)

    def test_control_cross_terms(self):
        columns = library_columns(1, 1, 1)
        assert columns == (((0,), None), ((1,), None), ((0,), 0), ((1,), 0))
        row = build_library(columns, np.array([[3.0]]), np.array([[2.0]]))
        assert row[0, columns.index(((1,), 0))] == 6.0
        assert row[0, columns.index(((0,), 0))] == 2.0

    def test_degree_below_one_rejected(self):
        with pytest.raises(SpecError, match="degree must be >= 1"):
            library_columns(2, 1, 0)

    def test_columns_the_samples_lack_are_rejected(self):
        columns = library_columns(2, 1, 1)
        with pytest.raises(SpecError, match="lack"):
            build_library(columns, np.ones((3, 4)), np.ones((1, 4)))
        with pytest.raises(SpecError, match="lack"):
            build_library(columns, np.ones((2, 4)))


class TestEstimateDerivatives:
    def test_linear_exact(self):
        t = np.arange(20) * 0.3
        tr = Trace(0.0, 0.3, t[None, :], np.zeros((0, 20)))
        assert np.allclose(estimate_derivatives(tr), 1.0)

    def test_quadratic_exact_everywhere(self):
        t = np.arange(30) * 0.1
        tr = Trace(0.0, 0.1, (t**2)[None, :], np.zeros((0, 30)))
        dots = estimate_derivatives(tr)
        assert abs(dots[0, 10] - 2.0 * t[10]) < 1e-12
        assert np.allclose(dots[0], 2.0 * t, atol=1e-10)

    def test_constant_is_zero(self):
        tr = Trace(0.0, 0.5, np.full((1, 10), 4.2), np.zeros((0, 10)))
        assert np.allclose(estimate_derivatives(tr), 0.0)

    def test_halving_dt_quarters_error(self):
        errs = []
        for dt in (0.02, 0.01):
            t = np.arange(0.0, 4.0, dt)
            tr = Trace(0.0, dt, np.sin(t)[None, :], np.zeros((0, t.size)))
            dots = estimate_derivatives(tr)
            interior = slice(5, -5)
            errs.append(np.max(np.abs(dots[0, interior] - np.cos(t)[interior])))
        assert 3.5 <= errs[0] / errs[1] <= 4.5


class TestStridge:
    def test_single_threshold_pass(self):
        w = stridge(np.eye(2), np.array([3.0, 0.001]), lam=0.0, threshold=0.01)
        assert np.array_equal(w, [3.0, 0.0])

    def test_zero_threshold_is_least_squares(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(40, 4))
        b = rng.normal(size=40)
        w = stridge(A, b, lam=0.0, threshold=0.0)
        expect, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert np.max(np.abs(w - expect)) < 1e-10

    def test_zero_threshold_equals_ridge(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(30, 3))
        b = rng.normal(size=30)
        lam = 0.1
        norms = np.linalg.norm(A, axis=0) / np.sqrt(A.shape[0])  # unit-RMS columns
        An = A / norms
        direct = np.linalg.solve(An.T @ An + lam * np.eye(3), An.T @ b) / norms
        assert np.max(np.abs(stridge(A, b, lam, 0.0) - direct)) < 1e-10

    def test_recovers_sparse_decay(self):
        t = np.arange(0.0, 3.0, 0.01)
        x = np.exp(-2.0 * t)
        A = np.column_stack([np.ones_like(x), x, x**2])
        dx = -2.0 * x
        w = stridge(A, dx, lam=0.0, threshold=0.05)
        assert abs(w[1] + 2.0) < 1e-3
        assert w[0] == 0.0 and w[2] == 0.0

    def test_idempotent_on_surviving_columns(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(50, 5))
        b = A[:, 1] * 2.0 + A[:, 3] * -1.5
        w = stridge(A, b, lam=1e-8, threshold=0.2)
        again = stridge(A, b, lam=1e-8, threshold=0.2, iters=30)
        assert np.max(np.abs(w - again)) < 1e-10

    def test_monotone_sparsity(self):
        # support can only shrink: rerunning with more iterations never
        # reintroduces a pruned column
        rng = np.random.default_rng(3)
        A = rng.normal(size=(60, 6))
        b = rng.normal(size=60)
        sup_prev = None
        for iters in (1, 2, 5, 10):
            w = stridge(A, b, lam=1e-6, threshold=0.15, iters=iters)
            sup = set(np.nonzero(w)[0])
            if sup_prev is not None:
                assert sup.issubset(sup_prev)
            sup_prev = sup

    def test_singular_restricted_system(self):
        A = np.zeros((4, 2))
        A[:, 0] = 1.0
        A[:, 1] = 1.0
        with pytest.raises(SpecError):
            stridge(A, np.ones(4), lam=0.0, threshold=0.0)


class TestSindycRecover:
    def _lv_unit_trace(self, k=3000, dt=0.05):
        from physrec.harness import lv_unit_system
        from physrec.odesolve import integrate_batch

        spec, coeffs = lv_unit_system()
        rng = np.random.default_rng(4)
        times = dt * np.arange(k)
        u = (
            0.05 * np.sin(2 * np.pi * 0.023 * times + rng.uniform(0, 6))
            + 0.04 * np.sin(2 * np.pi * 0.011 * times + rng.uniform(0, 6))
        )[None, :]
        x0 = np.array([[1.0, 1.1]])
        states, div, _ = integrate_batch(
            spec, coeffs.values[None, :], x0, u[None, :, :], k, dt, 10
        )
        assert not div[0]
        return spec, coeffs, Trace(0.0, dt, states[0], u, ("x1", "x2", "u1"))

    def test_exact_support_on_clean_data(self, sindyc_fit):
        spec, coeffs, tr = self._lv_unit_trace()
        cfg = ExperimentConfig(sindy_degree=2, sindy_lambda=1e-10, sindy_threshold=0.02)
        xi, columns, result = sindyc_fit(spec, coeffs, [tr], cfg)
        support = [[columns[c] for c in np.nonzero(xi[:, i])[0]] for i in range(2)]
        x1, x2, x1x2 = ((1, 0), None), ((0, 1), None), ((1, 1), None)
        assert support == [[x1, x1x2], [x2, x1x2, ((0, 0), 0)]]
        theta, spurious = map_to_coefficients(xi, columns, spec)
        assert spurious == []
        assert np.max(np.abs(theta - coeffs.values)) < 1e-2
        assert np.array_equal(result.coeffs.values, theta)

    def test_fit_calls_stridge_through_the_sindy_module(self, monkeypatch):
        # one regression per state, looked up on ``physrec.sindy`` at call
        # time, so that a wrapper installed there sees every call
        spec, coeffs, tr = self._lv_unit_trace(k=500)
        calls = []
        real = sindy.stridge

        def counted(*args, **kwargs):
            calls.append(args[1].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(sindy, "stridge", counted)
        fit_sindyc(spec, coeffs, [tr, tr], ExperimentConfig())
        assert calls == [(2 * tr.k,)] * spec.n

    def test_requires_full_state(self):
        # the baseline has no hidden-state machinery: y rows must span the
        # state, and partial observations are rejected by name
        spec, coeffs, tr = self._lv_unit_trace(k=500)
        partial = Trace(tr.t0, tr.dt, tr.y[:1], tr.u, ("x1", "u1"))
        with pytest.raises(SpecError, match="full-state"):
            fit_sindyc(spec, coeffs, [partial], ExperimentConfig())

    def test_too_short_traces_rejected(self):
        # derivative estimation needs three samples per trace
        spec, coeffs, tr = self._lv_unit_trace(k=500)
        short = Trace(tr.t0, tr.dt, tr.y[:, :2], tr.u[:, :2], tr.labels)
        with pytest.raises(SpecError, match="k >= 3"):
            fit_sindyc(spec, coeffs, [tr, short], ExperimentConfig())


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("m", [0, 2], ids=["no-inputs", "inputs"])
def test_model_spec_matches_library_product(degree, m):
    n, S = 3, 40
    columns = library_columns(n, m, degree)
    rng = np.random.default_rng(degree)
    n_cols = len(columns)
    xi = rng.normal(size=(n_cols, n)) * (rng.uniform(size=(n_cols, n)) < 0.6)
    x = rng.normal(size=(S, n))
    u = rng.normal(size=(S, m))
    spec = model_spec(xi, columns, m)
    assert (spec.n, spec.m, spec.p) == (n, m, 0)
    assert len(spec.f_terms) + len(spec.g_terms) == np.count_nonzero(xi)
    rhs = compile_rhs(spec)
    got = rhs.full(rhs.work(x, u), rhs.columns(np.zeros((S, 0))))
    want = build_library(columns, x.T, u.T) @ xi
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


def test_model_spec_rejects_mismatched_xi():
    with pytest.raises(SpecError):
        model_spec(np.ones((5, 2)), library_columns(2, 1, 2), 1)


class TestMapToCoefficients:
    """``map_to_coefficients`` on a hand spec over the degree-2 library of
    two states and one input."""

    COLUMNS = library_columns(2, 1, 2)

    def col(self, expo, inp=None):
        return self.COLUMNS.index((expo, inp))

    def spec(self, f_terms, g_terms=()):
        names = sorted({t.coeff for t in (*f_terms, *g_terms) if t.coeff is not None})
        return SystemSpec("hand", 2, 1, tuple(f_terms), tuple(g_terms),
                          tuple(names), ("free",) * len(names))

    def test_a_shared_coefficient_averages_over_weights(self):
        # a appears as x1' = -a x1 and x2' = 2 a x1 x2
        spec = self.spec([Term(0, "a", (Factor(0),), -1.0),
                          Term(1, "a", (Factor(0), Factor(1)), 2.0)])
        xi = np.zeros((len(self.COLUMNS), 2))
        xi[self.col((1, 0)), 0] = -0.5
        xi[self.col((1, 1)), 1] = 1.4
        theta, spurious = map_to_coefficients(xi, self.COLUMNS, spec)
        assert theta.tolist() == [np.mean([0.5, 0.7])]
        assert spurious == []

    def test_a_fixed_weight_term_claims_its_column(self):
        # x1' = a x1^2 + 1 * u1, the input term with no named coefficient
        spec = self.spec([Term(0, "a", (Factor(0, 2),))], [Term(0, None, (), 1.0, 0)])
        xi = np.zeros((len(self.COLUMNS), 2))
        xi[self.col((2, 0)), 0] = 0.3
        xi[self.col((0, 0), 0), 0] = 0.9
        theta, spurious = map_to_coefficients(xi, self.COLUMNS, spec)
        assert theta.tolist() == [0.3]
        assert spurious == []

    def test_a_sin_term_matches_nothing(self):
        # x1' = -a sin(x1): the library's x1 column is not sin(x1)
        spec = self.spec([Term(0, "a", (Factor(0, 1, "sin"),), -1.0)])
        xi = np.zeros((len(self.COLUMNS), 2))
        xi[self.col((1, 0)), 0] = -0.4
        theta, spurious = map_to_coefficients(xi, self.COLUMNS, spec)
        assert theta.tolist() == [0.0]
        assert spurious == [-0.4]

    def test_unclaimed_entries_come_back_as_spurious_values(self):
        spec = self.spec([Term(0, "a", (Factor(0),))])
        xi = np.zeros((len(self.COLUMNS), 2))
        xi[self.col((1, 0)), 0] = 0.8
        xi[self.col((0, 2)), 0] = -0.25  # x1' also gets x2^2
        xi[self.col((1, 0)), 1] = 0.125  # and x2' gets x1
        xi[self.col((0, 1), 0), 1] = 3.0  # and x2 u1
        theta, spurious = map_to_coefficients(xi, self.COLUMNS, spec)
        assert theta.tolist() == [0.8]
        assert spurious == [0.125, -0.25, 3.0]  # in (column, state) order
