"""Control-affine dynamical systems as sparse term libraries.

A system is ``xdot = f(x, c) + g(x, c) u`` where both parts are sums of
terms.  Each term targets one state equation and multiplies a named
coefficient (or a fixed weight) by a product of monomial / trig factors
in the state variables; input-effect terms additionally multiply one
input channel, which keeps the whole right-hand side affine in the
input vector.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import lru_cache
from typing import NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

SIGN_KINDS = ("free", "nonneg", "nonpos")
FACTOR_FUNCS = ("identity", "sin", "cos")

BUILTIN_NAMES = ("lotka_volterra", "lorenz", "bergman_aid", "eeg_dvdp")


class SpecError(ValueError):
    """Raised when a system definition violates its own invariants."""


class ConfigError(ValueError):
    """Raised when a system config file does not parse; carries a field path."""


@dataclass(frozen=True)
class Factor:
    """One factor ``func(x[var]) ** power`` of a term."""

    var: int
    power: int = 1
    func: str = "identity"

    def __post_init__(self):
        if self.power < 1:
            raise SpecError(f"factor power must be >= 1, got {self.power}")
        if self.func not in FACTOR_FUNCS:
            raise SpecError(f"unknown factor func {self.func!r}")


@dataclass(frozen=True)
class Term:
    """``weight * coeff * prod(factors)`` added to equation ``state``.

    ``coeff`` may be None for structurally fixed terms.  ``input`` is the
    input-channel index for input-effect terms and None for drift terms.
    """

    state: int
    coeff: str | None = None
    factors: tuple[Factor, ...] = ()
    weight: float = 1.0
    input: int | None = None


@dataclass(frozen=True)
class SystemSpec:
    """Structure of one control-affine system (no coefficient values)."""

    name: str
    n: int
    m: int
    f_terms: tuple[Term, ...]
    g_terms: tuple[Term, ...]
    coeff_names: tuple[str, ...]
    coeff_signs: tuple[str, ...]
    resting: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise SpecError("state dimension must be >= 1")
        if self.m < 0:
            raise SpecError("input dimension must be >= 0")
        if len(self.coeff_signs) != len(self.coeff_names):
            raise SpecError("coeff_signs and coeff_names lengths differ")
        if len(set(self.coeff_names)) != len(self.coeff_names):
            raise SpecError("duplicate coefficient names")
        for s in self.coeff_signs:
            if s not in SIGN_KINDS:
                raise SpecError(f"unknown sign constraint {s!r}")
        used = set()
        for where, terms in (("f_terms", self.f_terms), ("g_terms", self.g_terms)):
            for i, t in enumerate(terms):
                path = f"{where}[{i}]"
                if not 0 <= t.state < self.n:
                    raise SpecError(f"{path}.state {t.state} out of range for n={self.n}")
                if where == "f_terms" and t.input is not None:
                    raise SpecError(f"{path}: drift term must not reference an input")
                if where == "g_terms":
                    if t.input is None or not 0 <= t.input < self.m:
                        raise SpecError(f"{path}.input {t.input} out of range for m={self.m}")
                for j, fac in enumerate(t.factors):
                    if not 0 <= fac.var < self.n:
                        raise SpecError(f"{path}.factors[{j}].var {fac.var} out of range")
                if t.coeff is not None:
                    if t.coeff not in self.coeff_names:
                        raise SpecError(f"{path}.coeff {t.coeff!r} not declared")
                    used.add(t.coeff)
        missing = set(self.coeff_names) - used
        if missing:
            raise SpecError(f"coefficients never used in any term: {sorted(missing)}")
        if self.resting is not None and len(self.resting) != self.n:
            raise SpecError("resting vector length must equal n")

    @property
    def p(self) -> int:
        return len(self.coeff_names)

    def coeff_index(self, name: str) -> int:
        return self.coeff_names.index(name)

    def sign_vector(self) -> np.ndarray:
        """+1 for nonneg, -1 for nonpos, 0 for free coefficients."""
        return np.array(
            [{"nonneg": 1.0, "nonpos": -1.0, "free": 0.0}[s] for s in self.coeff_signs]
        )

    def validate_coeff_values(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float)
        if values.shape != (self.p,):
            raise SpecError(f"expected {self.p} coefficient values, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise SpecError("coefficient values must be finite")
        for name, sign, v in zip(self.coeff_names, self.coeff_signs, values):
            if sign == "nonneg" and v < 0:
                raise SpecError(f"coefficient {name} must be >= 0, got {v}")
            if sign == "nonpos" and v > 0:
                raise SpecError(f"coefficient {name} must be <= 0, got {v}")

    def coefficients(self, values) -> "Coefficients":
        values = np.asarray(values, dtype=float)
        self.validate_coeff_values(values)
        return Coefficients(values)

    def resting_state(self) -> np.ndarray:
        if self.resting is None:
            return np.zeros(self.n)
        return np.asarray(self.resting, dtype=float)


@dataclass(frozen=True)
class Coefficients:
    """Coefficient vector of a system; entries are finite reals."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if v.ndim != 1:
            raise SpecError("coefficient values must be a 1-D vector")
        if not np.all(np.isfinite(v)):
            raise SpecError("coefficient values must be finite")


@dataclass(frozen=True)
class SensingMask:
    """Diagonal 0/1 selection of observed state components."""

    diag: tuple[int, ...]

    def __post_init__(self):
        if any(d not in (0, 1) for d in self.diag):
            raise SpecError("sensing mask entries must be 0 or 1")
        if sum(self.diag) == 0:
            raise SpecError("sensing mask must observe at least one state")

    @property
    def observed(self) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.diag) if d == 1)


# ---------------------------------------------------------------------------
# compiled evaluation


# a 0-d array: numpy adds it to an array faster than the float 0.0
_ZERO = np.zeros(())
_ZERO.flags.writeable = False
# bound once for ``full``, which passes each output buffer positionally
# (numpy parses that faster than out=)
_multiply, _add = np.multiply, np.add


class RhsScratch(NamedTuple):
    """``CompiledRhs.full``'s views and buffers over one work buffer."""

    take: object  # ``work.T.take``: the method, not ``np.take``'s Python wrapper
    derive: tuple  # (ufunc, source row of w, target row of w, extra arguments)
    gathered: np.ndarray  # (levels, slots·n, S): every level's gathered factors
    level0: np.ndarray  # gathered[0]
    later: tuple  # gathered[1:], one view per level
    terms: np.ndarray  # (slots·n, S): each table row's product
    slot0: np.ndarray  # terms[:n]
    slots: tuple  # terms[l·n : (l+1)·n] for l >= 1, one view per slot


class CompiledRhs:
    """Vectorized evaluator over one spec's term table, in slot-major order.

    Row ``l·n + e`` of the table is equation ``e``'s ``l``-th term (f-terms
    before g-terms, in term order); an equation with fewer terms than the
    longest one is padded with terms of zero weight.  A term is its
    weight×coefficient column, times one factor per *level*: level ``i``
    is the term's ``i``-th factor and the last level is its input channel.

    Evaluation reads a column-major (S, C) work buffer (``work``): columns
    ``[0, n)`` hold the state, then one column per distinct sin, cos or
    power factor, which ``full`` derives from the state, then the ``m``
    input channels (``input_cols``), then a column held at 1.0.  Each level
    keeps one gather index per table row into these columns; a missing
    factor, a drift term's input and every padding level point at the 1.0
    column.

    ``columns(coeff_rows)`` turns (S, p) coefficient rows into the
    (slots·n, S) weight×coefficient array and runs once per solve.
    ``scratch(work)``, also once per solve, makes ``full``'s buffers for
    that work buffer: the derived columns' views, a (levels, slots·n, S)
    gather buffer and a (slots·n, S) product buffer, each with its level
    or slot views sliced once.  ``full``, the one evaluation path, makes
    one call per derived factor column, one gather of every level
    (``take`` into the gather buffer), one multiply per level and one
    add per slot, every one of them writing into a buffer it is given, and
    allocates no array data when handed both ``out`` and ``scratch``.
    Every element therefore sees the same floating-point operations as
    summing the terms one by one: weight×coefficient, times each factor in
    order, times the input, summed from +0.0 in term order, whatever else
    is in the batch.  The padding changes no bit: ``v · 1.0`` is ``v``, a
    padding term is +0.0, and a sum started from +0.0 is never −0.0, so
    adding +0.0 leaves it as it is.  The sums stay one ``np.add`` per
    slot, because one ``np.add.reduce`` over the slot axis sums pairwise
    when the rest of the table is one element (n·S = 1).
    """

    def __init__(self, spec: SystemSpec):
        self.spec = spec
        n, p = spec.n, spec.p
        terms = (*spec.f_terms, *spec.g_terms)
        by_eq = [[t for t in terms if t.state == e] for e in range(n)]
        slots = max(1, *map(len, by_eq))
        levels = max((len(t.factors) for t in terms), default=0) + 1
        derived = list(
            dict.fromkeys(
                (f.var, f.power, f.func)
                for t in terms
                for f in t.factors
                if (f.power, f.func) != (1, "identity")
            )
        )
        col = {(v, 1, "identity"): v for v in range(n)}
        # (ufunc, source column, target column, extra arguments), in order
        self._derive = []
        for c, (var, power, func) in enumerate(derived, n):
            col[var, power, func] = c
            src = var
            if func != "identity":
                self._derive.append((getattr(np, func), var, c, ()))
                src = c
            if power == 2:  # what ``x**2`` computes
                self._derive.append((np.square, src, c, ()))
            elif power > 2:
                self._derive.append((np.power, src, c, (power,)))
        first_input = n + len(derived)
        self.input_cols = slice(first_input, first_input + spec.m)
        self._width = first_input + spec.m + 1
        ones = self._width - 1

        self._weights = np.zeros(slots * n)
        self._coeff = np.full(slots * n, p)  # p: the 1.0 column of ``columns``
        self._gather = np.full((levels, slots * n), ones)
        for e, eq_terms in enumerate(by_eq):
            for slot, t in enumerate(eq_terms):
                r = slot * n + e
                self._weights[r] = t.weight
                if t.coeff is not None:
                    self._coeff[r] = spec.coeff_index(t.coeff)
                for i, f in enumerate(t.factors):
                    self._gather[i, r] = col[f.var, f.power, f.func]
                if t.input is not None:
                    self._gather[-1, r] = first_input + t.input
        self._n = n

    def columns(self, coeff_rows) -> np.ndarray:
        """The (slots·n, S) weight×coefficient array, one row per table row."""
        S, p = coeff_rows.shape
        with_one = np.empty((p + 1, S))
        with_one[:p] = coeff_rows.T
        with_one[p] = 1.0
        return self._weights[:, None] * with_one[self._coeff]

    def work(self, x, u) -> np.ndarray:
        """A column-major (S, C) work buffer holding state rows ``x`` (S, n)
        and input rows ``u`` (S, m); ``full`` writes the derived columns."""
        buf = np.empty((x.shape[0], self._width), order="F")
        buf[:, : self._n] = x
        buf[:, self.input_cols] = u
        buf[:, -1] = 1.0
        return buf

    def scratch(self, work) -> RhsScratch:
        """``full``'s views of ``work`` and its buffers for ``work``'s S rows.
        They serve every later ``full`` call on this same buffer, whatever
        it then holds."""
        w = work.T
        gathered = np.empty((*self._gather.shape, work.shape[0]))
        terms = np.empty(gathered.shape[1:])
        n = self._n
        return RhsScratch(
            w.take,
            tuple((func, w[src], w[dst], args) for func, src, dst, args in self._derive),
            gathered,
            gathered[0],
            tuple(gathered[1:]),
            terms,
            terms[:n],
            tuple(terms[r : r + n] for r in range(n, len(terms), n)),
        )

    def full(self, work, cols, out=None, scratch=None):
        """``f(x, c) + g(x, c) u`` for every row of ``work``, as an (S, n)
        column-major array; ``cols`` from ``columns``.  The sum goes into
        ``out``, a C-order (n, S) array, and ``out.T`` is returned;
        ``scratch`` must come from ``scratch(work)``.  Either is made here
        when not given."""
        if scratch is None:
            scratch = self.scratch(work)
        if out is None:
            out = np.empty((self._n, work.shape[0]))
        take, derive, gathered, level0, later, terms, slot0, slots = scratch
        for func, src, dst, args in derive:
            func(src, *args, dst)
        # mode="clip": the indices are in range, and "raise" buffers ``out``
        take(self._gather, 0, gathered, "clip")
        _multiply(cols, level0, terms)
        for level in later:
            _multiply(terms, level, terms)
        _add(slot0, _ZERO, out)
        for rows in slots:
            _add(out, rows, out)
        return out.T


@lru_cache(maxsize=64)
def compile_rhs(spec: SystemSpec) -> CompiledRhs:
    return CompiledRhs(spec)


# ---------------------------------------------------------------------------
# built-in systems


def _lotka_volterra():
    F = Factor
    spec = SystemSpec(
        name="lotka_volterra",
        n=2,
        m=1,
        f_terms=(
            Term(0, "a", (F(0),)),
            Term(0, "b", (F(0), F(1)), -1.0),
            Term(1, "c", (F(1),), -1.0),
            Term(1, "d", (F(0), F(1))),
        ),
        g_terms=(Term(1, None, (), 1.0, input=0),),
        coeff_names=("a", "b", "c", "d"),
        coeff_signs=("nonneg",) * 4,
        resting=(100.0, 20.0),
    )
    return spec, spec.coefficients([0.5, 0.025, 0.5, 0.005])


def _lorenz():
    F = Factor
    spec = SystemSpec(
        name="lorenz",
        n=3,
        m=1,
        f_terms=(
            Term(0, "sigma", (F(1),)),
            Term(0, "sigma", (F(0),), -1.0),
            Term(1, "rho", (F(0),)),
            Term(1, None, (F(0), F(2)), -1.0),
            Term(1, None, (F(1),), -1.0),
            Term(2, None, (F(0), F(1))),
            Term(2, "beta", (F(2),), -1.0),
        ),
        g_terms=(Term(0, "u_gain", (), 1.0, input=0),),
        coeff_names=("sigma", "rho", "beta", "u_gain"),
        coeff_signs=("nonneg",) * 4,
        resting=(0.0, 0.0, 0.0),
    )
    return spec, spec.coefficients([10.0, 28.0, 8.0 / 3.0, 1.0])


def _bergman_aid():
    # States: blood insulin i, interstitial insulin i_s, glucose G.
    # Inputs: u1 insulin delivery, u2 meal glucose appearance.  The basal
    # offset in the i_s equation is carried by the standalone coefficient
    # i_b (absorbing its companion rate) so every term stays degree-1 in
    # the coefficients.  k_ctrl is a controller-gain placeholder with true
    # value 0; it is exposed so the coefficient count matches the nine
    # patient-specific values this benchmark advertises.
    F = Factor
    spec = SystemSpec(
        name="bergman_aid",
        n=3,
        m=2,
        f_terms=(
            Term(0, "n", (F(0),), -1.0),
            Term(0, "k_ctrl", (F(2),)),
            Term(1, "p1", (F(1),), -1.0),
            Term(1, "p2", (F(0),)),
            Term(1, "i_b", (), -1.0),
            Term(2, "g_b", (F(1),), -1.0),
            Term(2, "p3", (F(2),), -1.0),
        ),
        g_terms=(
            Term(0, "p4", (), 1.0, input=0),
            Term(2, "inv_voi", (), 1.0, input=1),
        ),
        coeff_names=("p1", "p2", "p3", "p4", "n", "inv_voi", "i_b", "g_b", "k_ctrl"),
        coeff_signs=("nonneg",) * 9,
        resting=(1.0, 0.0, 1.0),
    )
    # Time unit: minutes.  Glucose is carried in units of 100 mg/dL and
    # insulin relative to its basal level, which keeps every state O(1).
    # At the basal insulin rate 0.25 the insulin compartments rest at
    # (1, 0) and glucose only drains through its own slow decay.
    values = {
        "p1": 0.03,
        "p2": 0.02,
        "p3": 0.001,
        "p4": 0.2,
        "n": 0.05,
        "inv_voi": 0.006,
        "i_b": 0.02,
        "g_b": 0.002,
        "k_ctrl": 0.0,
    }
    return spec, spec.coefficients([values[k] for k in spec.coeff_names])


def _eeg_dvdp():
    # Two coupled oscillators written first-order with states
    # (x1, v1, x2, v2); v = xdot.  The cubic coupling (x1 - x2)^3 is
    # expanded into monomials that all share the coefficient b2.
    F = Factor
    cubic_minus = lambda s, sign: (  # noqa: E731 - local table builder
        Term(s, "b2", (F(0, 3),), sign),
        Term(s, "b2", (F(0, 2), F(2)), -3.0 * sign),
        Term(s, "b2", (F(0), F(2, 2)), 3.0 * sign),
        Term(s, "b2", (F(2, 3),), -sign),
    )
    spec = SystemSpec(
        name="eeg_dvdp",
        n=4,
        m=1,
        f_terms=(
            Term(0, None, (F(1),)),
            Term(1, "k1", (F(0),), -1.0),
            Term(1, "k2", (F(2),)),
            Term(1, "b1", (F(0, 3),), -1.0),
            *cubic_minus(1, -1.0),
            Term(1, "eps1", (F(1),)),
            Term(1, "eps1", (F(1), F(0, 2)), -1.0),
            Term(2, None, (F(3),)),
            Term(3, "k2", (F(0),)),
            Term(3, "k2", (F(2),), -1.0),
            *cubic_minus(3, 1.0),
            Term(3, "eps2", (F(3),)),
            Term(3, "eps2", (F(3), F(2, 2)), -1.0),
        ),
        g_terms=(Term(3, None, (), 1.0, input=0),),
        coeff_names=("k1", "k2", "b1", "b2", "eps1", "eps2"),
        coeff_signs=("nonneg",) * 6,
        resting=(0.1, 0.0, 0.1, 0.0),
    )
    return spec, spec.coefficients([1.0, 0.5, 1.0, 0.5, 0.2, 0.2])


_BUILTINS = {
    "lotka_volterra": _lotka_volterra,
    "lorenz": _lorenz,
    "bergman_aid": _bergman_aid,
    "eeg_dvdp": _eeg_dvdp,
}


def builtin_system(name: str) -> tuple[SystemSpec, Coefficients]:
    """Return a fully populated built-in system and its default coefficients."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise KeyError(
            f"unknown system {name!r}; supported: {', '.join(BUILTIN_NAMES)}. "
            "Other systems can be supplied via load_system_config()."
        ) from None
    return factory()


# ---------------------------------------------------------------------------
# config dataclasses from JSON


def json_value(tp, value, where: str):
    """``value``, decoded from JSON, read as the type ``tp``: ``int``,
    ``float`` (finite only; an int is stored as a float), ``bool`` and
    ``str`` values, a config dataclass (through ``from_json``), the untyped
    ``tuple`` as sorted ``(key, value)`` pairs from an object or a list of
    pairs, ``tuple[T, ...]`` or ``tuple[T1, T2]`` from an array, and
    ``X | None``.  Any other value, NaN and infinity included, is a
    ConfigError naming ``where``."""
    if tp is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        # false for NaN, for infinity and for an int past the float range
        if abs(value) <= sys.float_info.max:
            return float(value)
        want = "a finite float"
    elif tp in (int, float, bool, str):
        if isinstance(value, tp) and not (tp is int and isinstance(value, bool)):
            return value
        want = tp.__name__
    elif is_dataclass(tp):
        return from_json(tp, value, where)
    elif tp is tuple:
        pairs = list(value.items()) if isinstance(value, dict) else value
        if isinstance(pairs, (list, tuple)) and all(
            isinstance(p, (list, tuple)) and len(p) == 2 and isinstance(p[0], str) for p in pairs
        ):
            return tuple(sorted(dict(pairs).items()))
        want = "an object or a list of [key, value] pairs"
    elif get_origin(tp) is tuple:
        args = get_args(tp)
        if isinstance(value, (list, tuple)):
            kinds = args[:1] * len(value) if args[-1] is Ellipsis else args
            if len(kinds) == len(value):
                return tuple(json_value(t, v, f"{where}[{i}]")
                             for i, (t, v) in enumerate(zip(kinds, value)))
        want = f"[{', '.join(getattr(t, '__name__', '...') for t in args)}]"
    else:  # X | None, the one other form a config field takes
        return None if value is None else json_value(get_args(tp)[0], value, where)
    raise ConfigError(f"{where} must be {want}, got {value!r}")


@lru_cache(maxsize=None)
def _field_types(cls) -> dict:
    """``name -> (resolved type, required)`` of every field of ``cls``."""
    hints = get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
            for f in fields(cls)}


def from_json(cls, doc, path: str = ""):
    """The config dataclass ``cls`` from a decoded JSON object, each field
    read by ``json_value`` as its resolved type; inverts ``asdict`` after a
    JSON round trip, so a config keeps its digest.  A non-object, an
    unknown key, a missing required field or a value of the wrong type is a
    ConfigError naming its dotted path, which starts at ``path`` (the class
    name by default); so is a nested dataclass's own SpecError."""
    if not isinstance(doc, dict):
        name = path or f"{cls.__name__} config"
        raise ConfigError(f"{name} must be a JSON object, got {type(doc).__name__}")
    types, where = _field_types(cls), path or cls.__name__
    unknown = sorted(set(doc) - set(types))
    if unknown:
        raise ConfigError(f"{path}{': ' if path else ''}unknown {cls.__name__} keys: "
                          f"{', '.join(unknown)}")
    for name, (_, required) in types.items():
        if required and name not in doc:
            raise ConfigError(f"{where}: missing required field {name!r}")
    kwargs = {key: json_value(types[key][0], v, f"{where}.{key}") for key, v in doc.items()}
    try:
        return cls(**kwargs)
    except SpecError as e:
        raise (ConfigError(f"{path}: {e}") if path else e) from None


# ---------------------------------------------------------------------------
# system config files (JSON)


def _factor_to_dict(fac: Factor) -> dict:
    d = {"var": fac.var, "power": fac.power}
    if fac.func != "identity":
        d["func"] = fac.func
    return d


def _term_to_dict(t: Term) -> dict:
    d = {"state": t.state, "coeff": t.coeff, "factors": [_factor_to_dict(f) for f in t.factors]}
    if t.weight != 1.0:
        d["weight"] = t.weight
    if t.input is not None:
        d["input"] = t.input
    return d


def dump_system_config(spec: SystemSpec, coeffs: Coefficients, path) -> None:
    """Write a system and its coefficient values as a JSON config file,
    through ``write_json``."""
    doc = {
        "name": spec.name,
        "n": spec.n,
        "m": spec.m,
        "coeffs": [
            {"name": nm, "sign": sg, "value": float(v)}
            for nm, sg, v in zip(spec.coeff_names, spec.coeff_signs, coeffs.values)
        ],
        "f_terms": [_term_to_dict(t) for t in spec.f_terms],
        "g_terms": [_term_to_dict(t) for t in spec.g_terms],
    }
    if spec.resting is not None:
        doc["resting"] = list(spec.resting)
    write_json(doc, path)


@dataclass(frozen=True)
class _Coeff:
    """One entry of a system config's ``coeffs`` list."""

    name: str
    sign: str
    value: float


# the fields of a system config file, all but ``resting`` required
_SYSTEM_FIELDS = {"name": str, "n": int, "m": int, "coeffs": tuple[_Coeff, ...],
                  "f_terms": tuple[Term, ...], "g_terms": tuple[Term, ...],
                  "resting": tuple[float, ...] | None}


def decode_json(text: str, source: str):
    """``text`` decoded as JSON.  Invalid JSON is a ConfigError naming
    ``source`` (a file or a command-line flag) that keeps the decoder's
    line and column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{source}: not valid JSON ({e})") from None


def load_json(path):
    """The JSON document in the file ``path``, read by ``decode_json``."""
    with open(path) as fh:
        return decode_json(fh.read(), str(path))


def write_json(doc, path) -> None:
    """Write ``doc`` to ``path`` as strict JSON, indented, with a final
    newline.  Tuples and numpy arrays become lists and numpy scalars plain
    numbers; a non-finite float, inside a list too, becomes the CSV
    report's text for it (``"inf"``, ``"-inf"`` or ``"nan"``), so a strict
    parser reads the file."""
    with open(path, "w") as fh:
        json.dump(_jsonable(doc), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer, np.floating)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def load_system_config(path) -> tuple[SystemSpec, Coefficients]:
    """Load a system spec + coefficient values from a JSON config file.

    Every field, coefficient entry and term is read by ``json_value``'s
    rule, so a value of the wrong type is a ConfigError naming its field.
    Unknown top-level fields are ignored; dataset files written with a
    ``"rho"`` time-constant field therefore still load."""
    doc = load_json(path)
    try:
        if not isinstance(doc, dict):
            raise ConfigError(f"a system config must be a JSON object, got {type(doc).__name__}")
        for key in _SYSTEM_FIELDS:
            if key not in doc and key != "resting":
                raise ConfigError(f"missing required field {key!r}")
        read = {key: json_value(tp, doc.get(key), key) for key, tp in _SYSTEM_FIELDS.items()}
        coeffs = read.pop("coeffs")
        spec = SystemSpec(**read, coeff_names=tuple(c.name for c in coeffs),
                          coeff_signs=tuple(c.sign for c in coeffs))
        return spec, spec.coefficients([c.value for c in coeffs])
    except (ConfigError, SpecError) as e:
        raise ConfigError(f"{path}: {e}") from None
