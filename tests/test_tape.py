"""Tests for the reverse-mode tape and its primitive reference oracle."""

import weakref

import numpy as np
import pytest

from physrec.tape import Tape, TapeError
from reftape import RefTape, grad_check


def test_sigmoid_derivative_at_zero():
    t = RefTape()
    x = t.leaf(np.array(0.0))
    g = t.backward(t.sigmoid(x))
    assert g[x.idx] == pytest.approx(0.25)


def test_softplus_matches_logaddexp_on_the_tanh_range():
    # the cell feeds softplus tanh outputs; log1p(exp(x)) is its form there
    x = np.linspace(-1.0, 1.0, 2_000_001)
    t = RefTape()
    got = t.softplus(t.leaf(x)).value
    np.testing.assert_allclose(got, np.logaddexp(0.0, x), rtol=1e-15, atol=0.0)


def test_product_gradients():
    t = RefTape()
    x, y = t.leaf(np.array(2.0)), t.leaf(np.array(3.0))
    g = t.backward(t.mul(x, y))
    assert g[x.idx] == 3.0 and g[y.idx] == 2.0


def test_relu_values_and_zero_convention():
    t = RefTape()
    x = t.leaf(np.array([-3.0, 0.0, 2.0]))
    out = t.relu(x)
    assert np.array_equal(out.value, [0.0, 0.0, 2.0])
    g = t.backward(t.sum(out))
    assert np.array_equal(g[x.idx], [0.0, 0.0, 1.0])  # derivative at 0 is 0


def test_fanout_accumulation():
    t = RefTape()
    x = t.leaf(np.array(3.0))
    g = t.backward(t.mul(x, x))
    assert g[x.idx] == pytest.approx(6.0)


def test_unreachable_leaf_gets_zero():
    t = RefTape()
    x = t.leaf(np.array([1.0, 2.0]))
    y = t.leaf(np.array(5.0))
    g = t.backward(t.mul(y, y))
    assert np.array_equal(g[x.idx], [0.0, 0.0])


def test_backward_table_holds_leaves_only():
    t = RefTape()
    x = t.leaf(np.array([1.0, 2.0]))
    w = t.leaf(np.array([[1.0, 0.5], [-1.0, 2.0]]))
    unused = t.leaf(np.array(4.0))
    h = t.tanh(t.matmul(w, t.leaf(np.ones((2, 1)))))
    y = t.custom_node([x], x.value * 3.0, lambda g: [3.0 * g])
    loss = t.add(t.sum(h), t.sum(y))
    g = t.backward(loss)
    leaves = [i for i, (fn, _, _) in enumerate(t.nodes) if fn is None]
    assert sorted(g) == leaves == [x.idx, w.idx, unused.idx, 3]
    assert np.array_equal(g[x.idx], [3.0, 3.0])
    assert g[unused.idx] == 0.0 and g[3].shape == (2, 1)


def _record_every_primitive():
    """Record and differentiate a graph using every primitive and a custom
    node; return a weak reference to its tape and the gradient table."""
    t = RefTape()
    x = t.leaf(np.array([0.5, -1.0, 2.0]))
    x_col = t.leaf(x.value[:, None])
    m = t.leaf(np.arange(6.0).reshape(3, 2) / 6.0)
    s = t.leaf(np.array(1.5))
    mat = t.matmul(t.matmul(m, t.leaf(np.ones((2, 3)))), np.eye(3))
    vecs = [
        t.add(x, x), t.add(x, 1.0), t.add(x, s), t.sub(x, x), t.sub(x, 1.0), t.sub(s, x),
        t.mul(x, x), t.mul(x, 2.0), t.mul(s, x), t.div(x, t.sigmoid(x)), t.div(x, 2.0),
        t.div(1.0, t.softplus(x)), t.scale(x, -1.0), t.sigmoid(x), t.tanh(x),
        t.relu(x), t.matmul(mat, x_col), t.matmul(mat, np.ones((3, 1))),
    ]
    xv, sv = x.value, s.value
    custom = t.custom_node(
        [x, s], np.sum(xv) * sv, lambda g: [g * sv * np.ones_like(xv), g * np.sum(xv)]
    )
    cols = t.mulcol(t.mulcol(t.addcol(mat, x), x), np.ones(3))
    loss = t.add(t.sum(t.vslice(cols, 0, 2)), custom)
    for v in vecs:
        loss = t.add(loss, t.sum(v))
    return weakref.ref(t), t.backward(loss)


def test_recording_is_freed_by_reference_counting(gc_disabled):
    tape_ref, grads = _record_every_primitive()
    assert len(grads) == 5
    assert tape_ref() is None


def test_backward_requires_scalar():
    t = RefTape()
    x = t.leaf(np.array([1.0, 2.0]))
    with pytest.raises(TapeError):
        t.backward(t.mul(x, x))


def test_shape_mismatch_rejected():
    t = RefTape()
    a = t.leaf(np.zeros(3))
    b = t.leaf(np.zeros(4))
    with pytest.raises(TapeError):
        t.add(a, b)
    with pytest.raises(TapeError):
        t.matmul(t.leaf(np.zeros((2, 3))), t.leaf(np.zeros((2, 3))))


def test_determinism():
    def build():
        t = RefTape()
        x = t.leaf(np.linspace(-1, 1, 8)[:, None])
        w = t.leaf(np.arange(64.0).reshape(8, 8) / 64.0)
        h = t.tanh(t.matmul(w, x))
        loss = t.sum(t.mul(h, h))
        return t.backward(loss)[x.idx]

    assert np.array_equal(build(), build())


class TestGradCheckAllPrimitives:
    """Every primitive against central differences, 100 random draws each."""

    N = 100
    TOL = 1e-6

    def _check(self, f, shape, rng, positive=False, avoid_kink=False):
        worst = 0.0
        for _ in range(self.N):
            x = rng.normal(0.0, 1.0, shape)
            if positive:
                x = np.abs(x) + 0.5
            if avoid_kink:
                x = np.where(np.abs(x) < 1e-3, x + 2e-3, x)
            worst = max(worst, grad_check(f, x, eps=1e-5))
        assert worst < self.TOL, worst

    def test_add_sub_scalar_const(self):
        rng = np.random.default_rng(10)
        self._check(lambda v: v.tape.sum(v.tape.add(v, 1.7)), (5,), rng)
        self._check(lambda v: v.tape.sum(v.tape.sub(v, 0.3)), (5,), rng)

    def test_add_sub_mul_div_pairs(self):
        rng = np.random.default_rng(11)
        other = rng.normal(size=(4,)) + 3.0

        def f(v):
            t = v.tape
            o = t.leaf(other)
            return t.sum(t.div(t.mul(t.add(v, o), t.sub(v, o)), o))

        self._check(f, (4,), rng)

    def test_scale(self):
        rng = np.random.default_rng(12)
        self._check(lambda v: v.tape.sum(v.tape.scale(v, -2.5)), (6,), rng)

    def test_matmul(self):
        rng = np.random.default_rng(13)
        M = rng.normal(size=(4, 4))

        def f(v):
            t = v.tape
            return t.sum(t.matmul(t.leaf(M), v))

        self._check(f, (4, 1), rng)

        def g(v):
            t = v.tape
            sq = t.matmul(t.leaf(M), t.matmul(t.leaf(np.diag(np.ones(4))), t.leaf(M)))
            return t.sum(t.mulcol(sq, v))

        self._check(g, (4,), rng)

    def test_addcol_mulcol(self):
        rng = np.random.default_rng(14)
        M = rng.normal(size=(5, 3))

        def f(v):
            t = v.tape
            return t.sum(t.mulcol(t.addcol(t.leaf(M), v), v))

        self._check(f, (5,), rng)

    def test_sigmoid_tanh_softplus(self):
        rng = np.random.default_rng(16)
        self._check(lambda v: v.tape.sum(v.tape.sigmoid(v)), (6,), rng)
        self._check(lambda v: v.tape.sum(v.tape.tanh(v)), (6,), rng)
        self._check(lambda v: v.tape.sum(v.tape.softplus(v)), (6,), rng)

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(17)
        self._check(lambda v: v.tape.sum(v.tape.relu(v)), (6,), rng, avoid_kink=True)

    def test_slice(self):
        rng = np.random.default_rng(18)

        def f(v):
            t = v.tape
            a = t.vslice(v, 0, 3)
            b = t.vslice(v, 3, 6)
            return t.add(t.sum(t.mul(a, a)), t.sum(t.tanh(b)))

        self._check(f, (6,), rng)

    def test_composite_three_layer(self):
        rng = np.random.default_rng(19)
        w1 = rng.normal(size=(6, 6))
        w2 = rng.normal(size=(6, 6))

        def f(v):
            t = v.tape
            h = t.tanh(t.matmul(t.leaf(w1), v))
            h = t.sigmoid(t.matmul(t.leaf(w2), h))
            return t.sum(t.mul(h, h))

        self._check(f, (6, 1), rng)


class TestCustomNode:
    def test_identity_callback_passthrough(self):
        t = RefTape()
        x = t.leaf(np.array([1.0, 2.0]))
        y = t.custom_node([x], x.value.copy(), lambda g: [g])
        g = t.backward(t.sum(y))
        assert np.array_equal(g[x.idx], [1.0, 1.0])

    def test_scaling_callback_doubles_gradients(self):
        t = RefTape()
        x = t.leaf(np.array([1.0, 2.0]))
        y = t.custom_node([x], x.value.copy(), lambda g: [2.0 * g])
        g = t.backward(t.sum(y))
        assert np.array_equal(g[x.idx], [2.0, 2.0])

    def test_shape_mismatch_from_callback(self):
        t = Tape()
        x = t.leaf(np.array([1.0, 2.0]))
        y = t.custom_node([x], np.array(0.0), lambda g: [np.zeros(3)])
        with pytest.raises(TapeError):
            t.backward(y)


class TestGradCheckUtility:
    def test_quadratic_form(self):
        rng = np.random.default_rng(20)
        A = rng.normal(size=(5, 5))
        A = A + A.T

        def f(v):
            t = v.tape
            return t.sum(t.mul(v, t.matmul(t.leaf(A), v)))

        assert grad_check(f, rng.normal(size=(5, 1))) < 1e-8

    def test_relu_away_from_zero_is_exact(self):
        err = grad_check(lambda v: v.tape.sum(v.tape.relu(v)), np.array([1.0, -2.0, 3.0]))
        assert err < 1e-10

    def test_sigmoid_chain(self):
        rng = np.random.default_rng(21)

        def f(v):
            t = v.tape
            return t.sum(t.sigmoid(t.sigmoid(v)))

        assert grad_check(f, rng.normal(size=6)) < 1e-6

    def test_eps_must_be_positive(self):
        with pytest.raises(TapeError):
            grad_check(lambda v: v.tape.sum(v), np.zeros(2), eps=0.0)
