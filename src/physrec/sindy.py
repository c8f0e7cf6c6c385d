"""Sparse-regression baseline: candidate library + sequential threshold ridge.

Recovers per-state dynamics by regressing estimated derivatives onto a
library of monomials and their products with every input, and
iteratively hard-thresholding small coefficients.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dynamics import Coefficients, Factor, SpecError, SystemSpec, Term
from .neural import rmse_coeffs
from .signals import Trace


@dataclass(frozen=True)
class FunctionLibrary:
    poly_degree: int = 2

    def __post_init__(self):
        if self.poly_degree < 1:
            raise SpecError("library degree must be >= 1")


def _monomial_exponents(n_states: int, degree: int):
    """All exponent tuples with total degree 0..degree, graded lexicographic:
    1, x1, x2, ..., x1^2, x1 x2, ..."""
    out = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(n_states), total):
            e = [0] * n_states
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    return out


def _monomial_label(expo, prefix="x"):
    if not any(expo):
        return "1"
    parts = []
    for i, e in enumerate(expo):
        if e == 1:
            parts.append(f"{prefix}{i+1}")
        elif e > 1:
            parts.append(f"{prefix}{i+1}^{e}")
    return "*".join(parts)


def library_labels(lib: FunctionLibrary, n_states: int, n_inputs: int) -> list[str]:
    base = [_monomial_label(e) for e in _monomial_exponents(n_states, lib.poly_degree)]
    return base + [
        f"u{j+1}" if lbl == "1" else f"{lbl}*u{j+1}" for j in range(n_inputs) for lbl in base
    ]


def build_library(lib: FunctionLibrary, y_rows: np.ndarray, u_rows: np.ndarray | None = None):
    """Design matrix (samples x columns) over state and input samples: the
    monomials up to ``lib.poly_degree``, then each monomial times each input.

    ``y_rows`` is (n_states, k); ``u_rows`` is (n_inputs, k) or None.
    Column order matches :func:`library_labels`.
    """
    y = np.atleast_2d(np.asarray(y_rows, dtype=float))
    n_states, k = y.shape
    if u_rows is None:
        u = np.zeros((0, k))
    else:
        u = np.atleast_2d(np.asarray(u_rows, dtype=float))
        if u.shape[1] != k:
            raise SpecError("state and input sample counts differ")
    cols = []
    for expo in _monomial_exponents(n_states, lib.poly_degree):
        col = np.ones(k)
        for i, e in enumerate(expo):
            if e:
                col = col * y[i] ** e
        cols.append(col)
    return np.column_stack(cols + [col * u_j for u_j in u for col in cols])


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


@dataclass(frozen=True)
class SparseModel:
    """Sparse per-state coefficients over library columns."""

    xi: np.ndarray  # columns x n_states
    labels: tuple[str, ...]


def model_spec(xi: np.ndarray, lib: FunctionLibrary, n_inputs: int) -> SystemSpec:
    """The fitted model ``xdot = build_library(lib, x, u) @ xi`` as a
    weights-only system spec: each nonzero ``xi[col, state]`` becomes one
    ``Term`` with that weight and no named coefficient, in column order.
    Input columns become g-terms."""
    n = xi.shape[1]
    base = [
        tuple(Factor(i, e) for i, e in enumerate(expo) if e)
        for expo in _monomial_exponents(n, lib.poly_degree)
    ]
    columns = [(f, None) for f in base] + [(f, j) for j in range(n_inputs) for f in base]
    if len(columns) != xi.shape[0]:
        raise SpecError(f"xi has {xi.shape[0]} rows but the library has {len(columns)} columns")
    terms = [
        Term(state, None, factors, float(xi[col, state]), inp)
        for col, (factors, inp) in enumerate(columns)
        for state in range(n)
        if xi[col, state] != 0.0
    ]
    f_terms = tuple(t for t in terms if t.input is None)
    g_terms = tuple(t for t in terms if t.input is not None)
    return SystemSpec("sparse_model", n, n_inputs, f_terms, g_terms, (), ())


def _term_label(term, n_states: int) -> str:
    expo = [0] * n_states
    for fac in term.factors:
        if fac.func != "identity":
            return ""  # the library has no trig columns
        expo[fac.var] += fac.power
    lbl = _monomial_label(tuple(expo))
    if term.input is not None:
        lbl = f"u{term.input+1}" if lbl == "1" else f"{lbl}*u{term.input+1}"
    return lbl


def map_to_coefficients(
    model: SparseModel, spec: SystemSpec
) -> tuple[np.ndarray, list[tuple[str, int, float]]]:
    """Translate library coefficients onto a system's named coefficients.

    For every spec term whose monomial is a library column, the implied
    coefficient estimate is ``xi[col, state] / weight``; estimates from
    multiple terms of one coefficient are averaged.  Returns the estimate
    vector plus the list of spurious nonzero library entries (label,
    state, value) that match no spec term; those count against the model
    as terms whose true value is zero.
    """
    label_to_col = {l: i for i, l in enumerate(model.labels)}
    estimates: dict[str, list[float]] = {name: [] for name in spec.coeff_names}
    claimed = set()
    for term in list(spec.f_terms) + list(spec.g_terms):
        lbl = _term_label(term, spec.n)
        col = label_to_col.get(lbl)
        if col is None:
            continue
        claimed.add((col, term.state))
        if term.coeff is not None:
            estimates[term.coeff].append(model.xi[col, term.state] / term.weight)
    theta = np.array(
        [np.mean(estimates[name]) if estimates[name] else 0.0 for name in spec.coeff_names]
    )
    spurious = [
        (model.labels[col], state, float(model.xi[col, state]))
        for col in range(model.xi.shape[0])
        for state in range(model.xi.shape[1])
        if model.xi[col, state] != 0.0 and (col, state) not in claimed
    ]
    return theta, spurious


def rmse_with_spurious(
    theta_est: np.ndarray, theta_true: Coefficients, spurious: list[tuple[str, int, float]]
) -> float:
    """``rmse_coeffs`` where spurious recovered terms count as errors
    against a true value of zero."""
    extra = [v for (_, _, v) in spurious]
    truth = np.append(theta_true.values, np.zeros(len(extra)))
    return rmse_coeffs(np.append(theta_est, extra), truth)
