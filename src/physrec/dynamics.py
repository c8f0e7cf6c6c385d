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
from dataclasses import dataclass
from functools import lru_cache

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


class CompiledRhs:
    """Vectorized evaluator over one spec's term table.

    Operates on batches: ``x`` is (S, n) and ``u`` is (S, m); results are
    (S, n).  ``columns(coeff_rows)`` turns (S, p) coefficient rows into one
    weight×coefficient column per term and runs once per solve; ``full``,
    the one evaluation path, walks the term table and multiplies each column by the term's factors in order and then by
    its input, and adds it to its equation, f-terms before g-terms and each
    in term order.  Every row therefore sees the same floating-point
    operations as summing the terms one by one, whatever else is in the
    batch.
    """

    def __init__(self, spec: SystemSpec):
        self.spec = spec
        terms = (*spec.f_terms, *spec.g_terms)
        self._scales = [
            (t.weight, None if t.coeff is None else spec.coeff_index(t.coeff)) for t in terms
        ]
        self._table = [
            (t.state, tuple((f.var, f.power, f.func) for f in t.factors), t.input) for t in terms
        ]

    def columns(self, coeff_rows) -> list[np.ndarray]:
        """One (S,) weight×coefficient column per term, f-terms first."""
        S = coeff_rows.shape[0]
        return [
            np.full(S, w) if ci is None else w * coeff_rows[:, ci]
            for w, ci in self._scales
        ]

    def full(self, x, cols, u):
        """``f(x, c) + g(x, c) u`` for every row; ``cols`` from ``columns``."""
        out = np.zeros_like(x)
        for (state, factors, inp), v in zip(self._table, cols):
            for var, power, func in factors:
                col = x[:, var]
                if func == "sin":
                    col = np.sin(col)
                elif func == "cos":
                    col = np.cos(col)
                v = v * col if power == 1 else v * col**power
            if inp is not None:
                v = v * u[:, inp]
            out[:, state] += v
        return out


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
    """Write a system and its coefficient values as a JSON config file."""
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
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _parse_factor(d: dict, path: str) -> Factor:
    if not isinstance(d, dict) or "var" not in d:
        raise ConfigError(f"{path}: factor must be an object with a 'var' field")
    try:
        return Factor(int(d["var"]), int(d.get("power", 1)), d.get("func", "identity"))
    except (SpecError, ValueError, TypeError) as e:
        raise ConfigError(f"{path}: {e}") from None


def _parse_term(d: dict, path: str, want_input: bool) -> Term:
    if not isinstance(d, dict) or "state" not in d:
        raise ConfigError(f"{path}: term must be an object with a 'state' field")
    factors = tuple(
        _parse_factor(f, f"{path}.factors[{i}]") for i, f in enumerate(d.get("factors", []))
    )
    inp = d.get("input")
    if want_input and inp is None:
        raise ConfigError(f"{path}: input-effect term missing 'input' field")
    return Term(
        state=int(d["state"]),
        coeff=d.get("coeff"),
        factors=factors,
        weight=float(d.get("weight", 1.0)),
        input=None if inp is None else int(inp),
    )


def load_system_config(path) -> tuple[SystemSpec, Coefficients]:
    """Load a system spec + coefficient values from a JSON config file.

    Unknown top-level fields are ignored; dataset files written with a
    ``"rho"`` time-constant field therefore still load."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: not valid JSON ({e})") from None
    for key in ("name", "n", "m", "coeffs", "f_terms", "g_terms"):
        if key not in doc:
            raise ConfigError(f"{path}: missing required field {key!r}")
    coeff_entries = doc["coeffs"]
    names, signs, values = [], [], []
    for i, entry in enumerate(coeff_entries):
        for key in ("name", "sign", "value"):
            if key not in entry:
                raise ConfigError(f"coeffs[{i}]: missing field {key!r}")
        names.append(entry["name"])
        signs.append(entry["sign"])
        values.append(float(entry["value"]))
    f_terms = tuple(
        _parse_term(t, f"f_terms[{i}]", want_input=False) for i, t in enumerate(doc["f_terms"])
    )
    g_terms = tuple(
        _parse_term(t, f"g_terms[{i}]", want_input=True) for i, t in enumerate(doc["g_terms"])
    )
    try:
        spec = SystemSpec(
            name=doc["name"],
            n=int(doc["n"]),
            m=int(doc["m"]),
            f_terms=f_terms,
            g_terms=g_terms,
            coeff_names=tuple(names),
            coeff_signs=tuple(signs),
            resting=tuple(doc["resting"]) if "resting" in doc else None,
        )
        return spec, spec.coefficients(values)
    except SpecError as e:
        raise ConfigError(f"{path}: {e}") from None
