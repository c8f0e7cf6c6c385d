"""Tests for the control-affine term-library module."""

import json

import numpy as np
import pytest

from physrec.dynamics import (
    BUILTIN_NAMES,
    Coefficients,
    ConfigError,
    Factor,
    SensingMask,
    SpecError,
    SystemSpec,
    Term,
    builtin_system,
    compile_rhs,
    dump_system_config,
    load_system_config,
)


def lv():
    return builtin_system("lotka_volterra")


def rhs_at(spec, coeffs, x, u):
    """``f(x, c) + g(x, c) u`` at one point, through ``compile_rhs(spec).full``."""
    rhs = compile_rhs(spec)
    x_row = np.asarray(x, dtype=float).reshape(1, spec.n)
    u_row = np.asarray(u, dtype=float).reshape(1, spec.m)
    return rhs.full(rhs.work(x_row, u_row), rhs.columns(coeffs.values[None, :]))[0]


def test_lotka_volterra_equilibrium():
    spec, coeffs = lv()
    out = rhs_at(spec, coeffs, [100.0, 20.0], [0.0])
    assert np.max(np.abs(out)) < 1e-12


def test_lorenz_point_value():
    spec, coeffs = builtin_system("lorenz")
    out = rhs_at(spec, coeffs, [1.0, 1.0, 1.0], [0.0])
    assert np.allclose(out, [0.0, 26.0, -5.0 / 3.0], atol=1e-12)


def test_bergman_insulin_equation_vanishes():
    spec, coeffs = builtin_system("bergman_aid")
    out = rhs_at(spec, coeffs, [0.0, 0.3, 1.0], [0.0, 0.0])
    assert out[0] == 0.0


def test_builtin_names_and_counts():
    spec, coeffs = builtin_system("bergman_aid")
    assert spec.n == 3 and spec.m == 2
    assert spec.p == 9 and coeffs.values.shape == (9,)
    spec, coeffs = builtin_system("eeg_dvdp")
    assert spec.n == 4 and spec.m == 1 and spec.p == 6


def test_unknown_builtin_mentions_config_loader():
    with pytest.raises(KeyError) as err:
        builtin_system("f8_crusader")
    msg = str(err.value)
    assert "load_system_config" in msg
    for name in BUILTIN_NAMES:
        assert name in msg


def test_linearity_in_coefficients():
    # all built-ins are degree-1 in their coefficients
    rng = np.random.default_rng(7)
    for name in BUILTIN_NAMES:
        spec, coeffs = builtin_system(name)
        for _ in range(10):
            x = rng.normal(0.5, 0.3, spec.n)
            u = rng.normal(0.0, 1.0, spec.m)
            t1 = Coefficients(np.abs(rng.normal(0.5, 0.2, spec.p)))
            t2 = Coefficients(np.abs(rng.normal(0.5, 0.2, spec.p)))
            alpha = rng.uniform()
            mix = Coefficients(alpha * t1.values + (1 - alpha) * t2.values)
            lhs = rhs_at(spec, mix, x, u)
            rhs = alpha * rhs_at(spec, t1, x, u) + (1 - alpha) * rhs_at(spec, t2, x, u)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_sensing_mask():
    from physrec.harness import apply_mask_to_traces
    from physrec.signals import Trace

    assert SensingMask((1, 1, 1)).observed == (0, 1, 2)
    assert SensingMask((0, 0, 1)).observed == (2,)
    tr = Trace(0.0, 1.0, [[7.0, 1.0], [9.0, 2.0]], np.zeros((1, 2)), ("x1", "x2", "u1"))
    (masked,) = apply_mask_to_traces([tr], SensingMask((1, 0)))
    assert np.array_equal(masked.y, [[7.0, 1.0]])
    assert (masked.labels, masked.meta["mask"]) == (("x1", "u1"), (1, 0))
    # a trace without labels is masked and keeps no labels
    bare = Trace(0.0, 0.1, np.ones((2, 10)), np.zeros((1, 10)))
    (masked,) = apply_mask_to_traces([bare], SensingMask((1, 0)))
    assert (masked.y.shape, masked.labels, masked.meta["mask"]) == ((1, 10), (), (1, 0))
    with pytest.raises(SpecError):
        SensingMask((0, 0, 0))
    with pytest.raises(ConfigError, match="3 entries but the traces have 2 states"):
        apply_mask_to_traces([tr], SensingMask((1, 0, 1)))


def test_sign_constraint_validation():
    spec, _ = lv()
    with pytest.raises(SpecError):
        spec.coefficients([-0.1, 0.5, 0.5, 0.5])
    spec.coefficients([0.0, 0.5, 0.5, 0.5])  # boundary allowed


class TestConfigFiles:
    def test_minimal_decay_config(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(
            """{"name": "decay", "n": 1, "m": 0,
                "coeffs": [{"name": "a", "sign": "nonneg", "value": 1.0}],
                "f_terms": [{"state": 0, "coeff": "a", "weight": -1.0,
                             "factors": [{"var": 0, "power": 1}]}],
                "g_terms": []}"""
        )
        spec, coeffs = load_system_config(path)
        assert spec.n == 1 and spec.m == 0 and coeffs.values[0] == 1.0
        assert np.allclose(rhs_at(spec, coeffs, [2.0], []), [-2.0])

    def test_round_trip_lorenz(self, tmp_path):
        spec, coeffs = builtin_system("lorenz")
        path = tmp_path / "lorenz.json"
        dump_system_config(spec, coeffs, path)
        spec2, coeffs2 = load_system_config(path)
        assert spec2 == spec
        assert np.array_equal(coeffs2.values, coeffs.values)

    def test_rho_field_is_ignored(self, tmp_path):
        # dataset files may carry a "rho" time-constant field; it loads and
        # is not written back
        spec, coeffs = builtin_system("bergman_aid")
        path = tmp_path / "system.json"
        dump_system_config(spec, coeffs, path)
        doc = json.loads(path.read_text())
        assert "rho" not in doc
        path.write_text(json.dumps({**doc, "rho": 20.0}))
        spec2, coeffs2 = load_system_config(path)
        assert spec2 == spec
        assert np.array_equal(coeffs2.values, coeffs.values)

    def test_out_of_range_state_index(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            """{"name": "bad", "n": 3, "m": 0,
                "coeffs": [{"name": "a", "sign": "free", "value": 1.0}],
                "f_terms": [{"state": 0, "coeff": "a",
                             "factors": [{"var": 5, "power": 1}]}],
                "g_terms": []}"""
        )
        with pytest.raises(ConfigError) as err:
            load_system_config(path)
        assert "f_terms[0]" in str(err.value)

    def test_missing_field_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "n": 1, "m": 0}')
        with pytest.raises(ConfigError):
            load_system_config(path)


# ---------------------------------------------------------------------------
# compiled evaluator against a term-by-term reference


def reference_full(spec, x, coeffs, u):
    """Term-by-term evaluation: for each term, weight, times its
    coefficient, times each factor in order, times its input; f-terms
    before g-terms."""
    out = np.zeros_like(x)
    for terms in (spec.f_terms, spec.g_terms):
        for t in terms:
            v = np.full(x.shape[0], t.weight)
            if t.coeff is not None:
                v = v * coeffs[:, spec.coeff_index(t.coeff)]
            for fac in t.factors:
                col = x[:, fac.var]
                if fac.func == "sin":
                    col = np.sin(col)
                elif fac.func == "cos":
                    col = np.cos(col)
                if fac.power == 1:
                    v = v * col
                else:
                    v = v * col**fac.power
            if t.input is not None:
                v = v * u[:, t.input]
            out[:, t.state] += v
    return out


def trig_cubic_system():
    F = Factor
    spec = SystemSpec(
        name="trig_cubic",
        n=2,
        m=2,
        f_terms=(
            Term(0, "a", (F(0, 3), F(1, 1, "sin")), -1.0),
            Term(0, None, (F(1, 2, "cos"),), 0.5),
            Term(1, "b", (F(0, 1, "sin"), F(1, 3))),
            Term(1, "a", (F(1),), 2.0),
        ),
        g_terms=(
            Term(0, "b", (F(1, 1, "cos"),), 1.0, input=1),
            Term(1, None, (F(0, 3),), -0.25, input=0),
        ),
        coeff_names=("a", "b"),
        coeff_signs=("free", "nonneg"),
    )
    return spec, spec.coefficients([0.7, 1.3])


def ten_term_scalar_system():
    # n = 1 with ten terms: at S = 1 the whole table is one column, where a
    # one-call reduce over the terms would sum pairwise
    F = Factor
    spec = SystemSpec(
        name="ten_terms",
        n=1,
        m=1,
        f_terms=(
            Term(0, "a", (F(0),)),
            Term(0, "b", (F(0, 2),), -0.3),
            Term(0, None, (F(0, 3),), 0.01),
            Term(0, "a", (F(0, 1, "sin"),), 1.7),
            Term(0, "b", (F(0, 1, "cos"),)),
            Term(0, None, (), 0.125),
            Term(0, "a", (F(0, 2, "sin"), F(0)), -2.0),
            Term(0, "b", (F(0, 4),), 1e-3),
        ),
        g_terms=(
            Term(0, "a", (), 1.0, input=0),
            Term(0, None, (F(0),), 0.7, input=0),
        ),
        coeff_names=("a", "b"),
        coeff_signs=("free", "free"),
    )
    return spec, spec.coefficients([0.9, -1.1])


def idle_equation_system():
    # equation 1 has no terms: its rows are all padding
    F = Factor
    spec = SystemSpec(
        name="idle_equation",
        n=3,
        m=1,
        f_terms=(Term(0, "a", (F(1), F(2))), Term(0, None, (F(0),), -1.0), Term(2, "a", (F(2),))),
        g_terms=(Term(2, None, (), 1.0, input=0),),
        coeff_names=("a",),
        coeff_signs=("free",),
    )
    return spec, spec.coefficients([0.4])


def constants_only_system():
    # no factors and no inputs: every level is padding
    spec = SystemSpec(
        name="constants",
        n=2,
        m=0,
        f_terms=(Term(0, "a", ()), Term(1, None, (), -2.5), Term(1, "a", (), 3.0)),
        g_terms=(),
        coeff_names=("a",),
        coeff_signs=("free",),
    )
    return spec, spec.coefficients([1.5])


def negative_zero_system():
    # the lone term is 0 * x0, which is -0.0 wherever x0 < 0; the sum from
    # +0.0 turns it into +0.0
    spec = SystemSpec(
        name="negative_zero",
        n=1,
        m=0,
        f_terms=(Term(0, "a", (Factor(0),)),),
        g_terms=(),
        coeff_names=("a",),
        coeff_signs=("free",),
    )
    return spec, spec.coefficients([0.0])


def _kernel_systems():
    from physrec.harness import lv_unit_system

    systems = {name: builtin_system(name) for name in BUILTIN_NAMES}
    systems["lotka_volterra_unit"] = lv_unit_system()
    systems["trig_cubic"] = trig_cubic_system()
    systems["ten_terms"] = ten_term_scalar_system()
    systems["idle_equation"] = idle_equation_system()
    systems["constants"] = constants_only_system()
    systems["negative_zero"] = negative_zero_system()
    return systems


KERNEL_SYSTEMS = [
    *BUILTIN_NAMES,
    "lotka_volterra_unit",
    "trig_cubic",
    "ten_terms",
    "idle_equation",
    "constants",
    "negative_zero",
]


@pytest.mark.parametrize("S", [1, 4, 210])
@pytest.mark.parametrize("name", KERNEL_SYSTEMS)
def test_compiled_rhs_matches_term_by_term_reference(name, S):
    spec, coeffs = _kernel_systems()[name]
    rng = np.random.default_rng(S)
    x = rng.normal(size=(S, spec.n)) * 2.0
    if name == "negative_zero":
        x[0, 0] = -abs(x[0, 0])  # row 0 meets the -0.0 term at every S
    c = coeffs.values[None, :] * rng.uniform(0.5, 1.5, size=(S, spec.p))
    u = rng.normal(size=(S, spec.m))
    rhs = compile_rhs(spec)
    out = rhs.full(rhs.work(x, u), rhs.columns(c))
    want = reference_full(spec, x, c, u)
    assert out.shape == (S, spec.n)
    assert np.array_equal(out, want)
    assert np.array_equal(np.signbit(out), np.signbit(want))


@pytest.mark.parametrize("S", [1, 4, 210])
@pytest.mark.parametrize("name", KERNEL_SYSTEMS)
def test_one_scratch_serves_every_state_of_its_work_buffer(name, S):
    # as in a solve: one work buffer, scratch and out, rewritten between calls
    spec, coeffs = _kernel_systems()[name]
    rng = np.random.default_rng(S + 1)
    c = coeffs.values[None, :] * rng.uniform(0.5, 1.5, size=(S, spec.p))
    points = [(rng.normal(size=(S, spec.n)) * scale, rng.normal(size=(S, spec.m)))
              for scale in (2.0, 0.5)]
    if name == "negative_zero":
        points[1][0][0, 0] = -abs(points[1][0][0, 0])
    rhs = compile_rhs(spec)
    cols = rhs.columns(c)
    work = rhs.work(*points[0])
    scratch, out = rhs.scratch(work), np.empty((spec.n, S))
    for x, u in points:
        work[:, : spec.n], work[:, rhs.input_cols] = x, u
        got = rhs.full(work, cols, out, scratch)
        want = rhs.full(rhs.work(x, u), cols)
        assert got.base is out
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
