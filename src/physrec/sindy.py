"""Sparse-regression baseline: candidate library + sequential threshold ridge.

Recovers per-state dynamics by regressing estimated derivatives onto a
library of monomials and their products with every input, and
iteratively hard-thresholding small coefficients.

The library is one table, ``library_columns``: an ordered tuple of column
keys ``(exponents, input)``, where ``input`` is None for a monomial and
``j`` for a monomial times input ``j``.  ``build_library`` evaluates it,
``model_spec`` turns coefficients over it into a system, and
``map_to_coefficients`` matches a system's terms to it by key.
"""

from __future__ import annotations

import itertools

import numpy as np

from .dynamics import Factor, SpecError, SystemSpec, Term
from .signals import Trace

Column = tuple[tuple[int, ...], int | None]  # (exponents, input)


def library_columns(n_states: int, n_inputs: int, degree: int) -> tuple[Column, ...]:
    """The candidate library's column keys ``(exponents, input)``: every
    monomial of total degree 0..``degree`` in graded lexicographic order
    (1, x1, x2, ..., x1^2, x1 x2, ...) with input None, then each monomial
    times input ``j`` for j = 0..n_inputs-1."""
    if degree < 1:
        raise SpecError("library degree must be >= 1")
    monomials = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(n_states), total):
            e = [0] * n_states
            for i in combo:
                e[i] += 1
            monomials.append(tuple(e))
    return tuple((e, None) for e in monomials) + tuple(
        (e, j) for j in range(n_inputs) for e in monomials
    )


def build_library(
    columns: tuple[Column, ...], y_rows: np.ndarray, u_rows: np.ndarray | None = None
):
    """Design matrix (samples x columns) over state and input samples, one
    column per key of ``columns``: the monomial, times ``u[input]`` for an
    input column.

    ``y_rows`` is (n_states, k); ``u_rows`` is (n_inputs, k) or None.
    """
    y = np.atleast_2d(np.asarray(y_rows, dtype=float))
    n_states, k = y.shape
    if u_rows is None:
        u = np.zeros((0, k))
    else:
        u = np.atleast_2d(np.asarray(u_rows, dtype=float))
        if u.shape[1] != k:
            raise SpecError("state and input sample counts differ")
    monomials = {}
    for expo, j in columns:
        if len(expo) != n_states or j is not None and j >= len(u):
            raise SpecError(f"library column {expo, j} reads a state or input the samples lack")
        if expo not in monomials:
            col = np.ones(k)
            for i, e in enumerate(expo):
                if e:
                    col = col * y[i] ** e
            monomials[expo] = col
    return np.column_stack(
        [monomials[expo] if j is None else monomials[expo] * u[j] for expo, j in columns]
    )


def estimate_derivatives(tr: Trace) -> np.ndarray:
    """Per-channel time derivatives: central differences inside, one-sided
    (second order) at the ends."""
    if tr.k < 3:
        raise SpecError("need k >= 3 samples to estimate derivatives")
    return np.gradient(tr.y, tr.dt, axis=1, edge_order=2)


def stridge(
    A: np.ndarray,
    b: np.ndarray,
    lam: float,
    threshold: float,
    iters: int = 10,
) -> np.ndarray:
    """Sequential threshold ridge regression.

    Columns are normalized to unit RMS before solving and the result is
    de-normalized afterward, so the hard threshold acts on each term's
    RMS contribution to the target rather than on raw coefficients whose
    size depends on column units or sample count.  The surviving-column
    set only ever shrinks; pruned slots return as exact zeros.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if A.ndim != 2 or A.shape[1] < 1:
        raise SpecError("design matrix must have at least one column")
    if A.shape[0] != b.shape[0]:
        raise SpecError("design matrix and target lengths differ")
    if iters < 1:
        raise SpecError("iters must be >= 1")

    norms = np.linalg.norm(A, axis=0) / np.sqrt(A.shape[0])
    norms[norms == 0] = 1.0
    An = A / norms

    def ridge(cols):
        M = An[:, cols]
        gram = M.T @ M + lam * np.eye(len(cols))
        try:
            return np.linalg.solve(gram, M.T @ b)
        except np.linalg.LinAlgError:
            raise SpecError("singular restricted system in stridge") from None

    d = A.shape[1]
    active = list(range(d))
    w = np.zeros(d)
    w[active] = ridge(active)
    for _ in range(iters):
        keep = [c for c in active if abs(w[c]) >= threshold]
        if len(keep) == len(active):
            break
        if not keep:
            w[active] = 0.0
            active = keep
            break
        w[[c for c in active if c not in keep]] = 0.0
        active = keep
        w[active] = ridge(active)
    return w / norms


def model_spec(xi: np.ndarray, columns: tuple[Column, ...], n_inputs: int) -> SystemSpec:
    """The fitted model ``xdot = build_library(columns, x, u) @ xi`` as a
    weights-only system spec: each nonzero ``xi[col, state]`` becomes one
    ``Term`` with that weight and no named coefficient, in column order.
    Input columns become g-terms."""
    n = xi.shape[1]
    if len(columns) != xi.shape[0]:
        raise SpecError(f"xi has {xi.shape[0]} rows but the library has {len(columns)} columns")
    terms = [
        Term(state, None, tuple(Factor(i, e) for i, e in enumerate(expo) if e),
             float(xi[col, state]), inp)
        for col, (expo, inp) in enumerate(columns)
        for state in range(n)
        if xi[col, state] != 0.0
    ]
    f_terms = tuple(t for t in terms if t.input is None)
    g_terms = tuple(t for t in terms if t.input is not None)
    return SystemSpec("sparse_model", n, n_inputs, f_terms, g_terms, (), ())


def map_to_coefficients(
    xi: np.ndarray, columns: tuple[Column, ...], spec: SystemSpec
) -> tuple[np.ndarray, list[float]]:
    """Translate library coefficients onto a system's named coefficients.

    A spec term claims the column whose key ``(exponents, input)`` it
    multiplies out to; a term with a sin or cos factor has no key.  The
    implied estimate of the term's coefficient is ``xi[col, state] /
    weight``, and estimates from several terms of one coefficient are
    averaged.  Returns the estimate vector plus the values of the nonzero
    ``xi`` entries no term claims, in (column, state) order; those count
    against the model as terms whose true value is zero.
    """
    col_of = {key: col for col, key in enumerate(columns)}
    estimates: dict[str, list[float]] = {name: [] for name in spec.coeff_names}
    claimed = set()
    for term in (*spec.f_terms, *spec.g_terms):
        if any(fac.func != "identity" for fac in term.factors):
            continue
        expo = [0] * spec.n
        for fac in term.factors:
            expo[fac.var] += fac.power
        col = col_of.get((tuple(expo), term.input))
        if col is None:
            continue
        claimed.add((col, term.state))
        if term.coeff is not None:
            estimates[term.coeff].append(xi[col, term.state] / term.weight)
    theta = np.array(
        [np.mean(estimates[name]) if estimates[name] else 0.0 for name in spec.coeff_names]
    )
    spurious = [
        float(xi[col, state]) for col, state in zip(*np.nonzero(xi)) if (col, state) not in claimed
    ]
    return theta, spurious
