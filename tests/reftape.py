"""Reference oracle: the tape's primitive operations, one node each.

``RefTape`` extends ``physrec.tape.Tape`` with elementwise and linear-
algebra primitives, each recorded with its own backward expression.  The
fused nodes of ``physrec.neural`` (the cell unroll, the dense head) are
checked bit for bit against graphs recorded here, and the primitives
themselves against central differences through ``grad_check``.  Shapes
are scalars, vectors and matrices; the only broadcasting is
scalar-with-array plus the explicit column-broadcast helpers
addcol/mulcol.
"""

from __future__ import annotations

import numpy as np

from physrec.tape import Tape, TapeError, Var


def _as_array(value):
    return np.asarray(value, dtype=float)


def _reduce_to(grad, shape):
    # gradients for scalar operands of broadcast elementwise ops
    if shape == () and grad.shape != ():
        return np.sum(grad)
    return grad


class RefTape(Tape):
    """A ``Tape`` that also records primitive operations."""

    def _coerce(self, other):
        """Return (array, is_var). Non-Var operands are constants."""
        if isinstance(other, Var):
            return other, True
        return _as_array(other), False

    @staticmethod
    def _match(a_shape, b_shape, op):
        if a_shape != b_shape and a_shape != () and b_shape != ():
            raise TapeError(f"{op}: shape mismatch {a_shape} vs {b_shape}")

    # -- elementwise primitives --------------------------------------------

    def add(self, a: Var, b):
        b, b_is_var = self._coerce(b)
        a_shape = a.value.shape
        if b_is_var:
            b_shape = b.value.shape
            self._match(a_shape, b_shape, "add")

            def back(g, out):
                return (_reduce_to(g, a_shape), _reduce_to(g, b_shape))

            return self._record(a.value + b.value, (a, b), back)
        return self._record(a.value + b, (a,), lambda g, out: (_reduce_to(g, a_shape),))

    def sub(self, a: Var, b):
        b, b_is_var = self._coerce(b)
        a_shape = a.value.shape
        if b_is_var:
            b_shape = b.value.shape
            self._match(a_shape, b_shape, "sub")

            def back(g, out):
                return (_reduce_to(g, a_shape), _reduce_to(-g, b_shape))

            return self._record(a.value - b.value, (a, b), back)
        return self._record(a.value - b, (a,), lambda g, out: (_reduce_to(g, a_shape),))

    def mul(self, a: Var, b):
        b, b_is_var = self._coerce(b)
        if b_is_var:
            self._match(a.value.shape, b.value.shape, "mul")
            av, bv = a.value, b.value

            def back(g, out):
                return (_reduce_to(g * bv, av.shape), _reduce_to(g * av, bv.shape))

            return self._record(av * bv, (a, b), back)
        a_shape = a.value.shape
        return self._record(a.value * b, (a,), lambda g, out: (_reduce_to(g * b, a_shape),))

    def div(self, a: Var, b):
        if isinstance(a, Var):
            b2, b_is_var = self._coerce(b)
            if b_is_var:
                self._match(a.value.shape, b2.value.shape, "div")
                av, bv = a.value, b2.value

                def back(g, out):
                    return (
                        _reduce_to(g / bv, av.shape),
                        _reduce_to(-g * av / (bv * bv), bv.shape),
                    )

                return self._record(av / bv, (a, b2), back)
            a_shape = a.value.shape
            return self._record(
                a.value / b2, (a,), lambda g, out: (_reduce_to(g / b2, a_shape),)
            )
        # constant numerator / Var denominator
        a_const = _as_array(a)
        bv = b.value

        def back(g, out):
            return (_reduce_to(-g * a_const / (bv * bv), bv.shape),)

        return self._record(a_const / bv, (b,), back)

    def scale(self, a: Var, c: float):
        c = float(c)
        return self._record(a.value * c, (a,), lambda g, out: (g * c,))

    # -- linear algebra -----------------------------------------------------

    def matmul(self, a: Var, b):
        b, b_is_var = self._coerce(b)
        av = a.value
        bv = b.value if b_is_var else b
        if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
            raise TapeError(f"matmul: incompatible shapes {av.shape} @ {bv.shape}")
        if b_is_var:

            def back(g, out):
                return (g @ bv.T, av.T @ g)

            return self._record(av @ bv, (a, b), back)
        return self._record(av @ bv, (a,), lambda g, out: (g @ bv.T,))

    def addcol(self, mat: Var, vec: Var):
        """Matrix plus column-broadcast vector."""
        mv, vv = mat.value, vec.value
        if mv.ndim != 2 or vv.ndim != 1 or mv.shape[0] != vv.shape[0]:
            raise TapeError(f"addcol: incompatible shapes {mv.shape} + {vv.shape}")

        def back(g, out):
            return (g, np.sum(g, axis=1))

        return self._record(mv + vv[:, None], (mat, vec), back)

    def mulcol(self, mat: Var, vec):
        """Matrix times column-broadcast vector."""
        vec, v_is_var = self._coerce(vec)
        mv = mat.value
        vv = vec.value if v_is_var else vec
        if mv.ndim != 2 or vv.ndim != 1 or mv.shape[0] != vv.shape[0]:
            raise TapeError(f"mulcol: incompatible shapes {mv.shape} * {vv.shape}")
        if v_is_var:

            def back(g, out):
                return (g * vv[:, None], np.sum(g * mv, axis=1))

            return self._record(mv * vv[:, None], (mat, vec), back)
        return self._record(mv * vv[:, None], (mat,), lambda g, out: (g * vv[:, None],))

    # -- reductions and shape ops -------------------------------------------

    def sum(self, a: Var):
        av = a.value
        return self._record(np.sum(av), (a,), lambda g, out: (g * np.ones_like(av),))

    def vslice(self, a: Var, start: int, stop: int):
        """Slice of the leading axis (rows of a matrix, span of a vector)."""
        av = a.value
        if not 0 <= start < stop <= av.shape[0]:
            raise TapeError(f"vslice [{start}:{stop}] out of bounds for {av.shape}")

        def back(g, out):
            full = np.zeros_like(av)
            full[start:stop] = g
            return (full,)

        return self._record(av[start:stop], (a,), back)

    # -- nonlinearities -------------------------------------------------------

    def sigmoid(self, a: Var):
        out_val = 1.0 / (1.0 + np.exp(-a.value))
        return self._record(out_val, (a,), lambda g, out: (g * out * (1.0 - out),))

    def tanh(self, a: Var):
        return self._record(np.tanh(a.value), (a,), lambda g, out: (g * (1.0 - out * out),))

    def relu(self, a: Var):
        # derivative at exactly 0 is taken as 0
        av = a.value
        return self._record(np.maximum(av, 0.0), (a,), lambda g, out: (g * (av > 0.0),))

    def softplus(self, a: Var):
        """``log1p(exp(x))``.  ``exp`` overflows above x = 709; the cell
        feeds this tanh outputs, which lie in (-1, 1), where it agrees
        with ``np.logaddexp(0, x)`` to 1e-15 relative."""
        av = a.value
        out_val = np.log1p(np.exp(av))

        def back(g, out):
            return (g / (1.0 + np.exp(-av)),)

        return self._record(out_val, (a,), back)


def grad_check(f, x: np.ndarray, eps: float = 1e-5) -> float:
    """Max relative error of tape gradients vs central finite differences.

    ``f`` maps a Var to a scalar Var; a fresh ``RefTape`` is built per
    evaluation, matching the define-by-run training style.
    """
    if not eps > 0:
        raise TapeError("eps must be positive")
    x = np.asarray(x, dtype=float)

    tape = RefTape()
    var = tape.leaf(x)
    loss = f(var)
    analytic = tape.backward(loss)[var.idx]

    def value_at(xv):
        t = RefTape()
        return float(f(t.leaf(xv)).value)

    worst = 0.0
    flat = x.ravel()
    grad_flat = np.asarray(analytic, dtype=float).ravel()
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = eps
        fd = (value_at((flat + bump).reshape(x.shape)) - value_at((flat - bump).reshape(x.shape))) / (
            2 * eps
        )
        err = abs(grad_flat[i] - fd) / max(abs(fd), abs(grad_flat[i]), 1e-8)
        worst = max(worst, err)
    return worst
