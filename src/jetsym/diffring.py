"""Exact sparse differential-polynomial ring.

Polynomials live over the independent variables t and x, a bank of jet
coordinates z_0, z_1, ... (z_k standing for the k-th x-derivative of the
dependent variable), a bank of parameter-function symbols h_0, h_1, ...
(h_j standing for the j-th x-derivative of a symbolic solution h(t, x) of
the linear heat equation), and the exponential E = e^{z_0}, which may carry
any integer exponent (E^{-1} E = 1), so that the pullback through u = e^w
stays inside the ring.  Coefficients are arbitrary-precision rationals
(fractions.Fraction), so equality of polynomials is decidable and every
identity check in this package is exact.

Representation: a monomial is a tuple of ((kind, index), exponent) pairs
sorted by variable, with no zero exponent; a polynomial is a dict mapping
monomials to nonzero Fraction coefficients.  The variable order T < X <
z_0 < z_1 < ... < h_0 < h_1 < ... < E induces a graded monomial order
(total degree first, ties broken by the exponent sequence) that makes all
rendered output deterministic; a value carrying E is rendered grouped by
its power of E.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

# Variable kinds; a VarId is the pair (kind, index).
KIND_T = 0
KIND_X = 1
KIND_JET = 2
KIND_PAR = 3
KIND_EXP = 4

VarId = tuple[int, int]
Monomial = tuple[tuple[VarId, int], ...]

T_VAR: VarId = (KIND_T, 0)
X_VAR: VarId = (KIND_X, 0)
EXP_VAR: VarId = (KIND_EXP, 0)

_ONE_MONO: Monomial = ()

NEG_INF = float("-inf")

# Safety cap on jet/parameter indices, to catch runaway derivations early.
_INDEX_LIMIT = 64


class JetLimitError(RuntimeError):
    """Raised when a jet or parameter index exceeds the cap."""


def jet(k: int) -> VarId:
    """The jet variable z_k (z_0 is the dependent variable itself)."""
    if k < 0:
        raise ValueError(f"jet index must be >= 0, got {k}")
    if k > _INDEX_LIMIT:
        raise JetLimitError(f"jet index {k} exceeds the cap {_INDEX_LIMIT}")
    return (KIND_JET, k)


def par(j: int) -> VarId:
    """The parameter symbol h_j, the j-th x-derivative of h(t, x)."""
    if j < 0:
        raise ValueError(f"parameter index must be >= 0, got {j}")
    if j > _INDEX_LIMIT:
        raise JetLimitError(f"parameter index {j} exceeds the cap {_INDEX_LIMIT}")
    return (KIND_PAR, j)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Merge two sorted exponent tuples (only E can cancel to exponent 0)."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            if ea + eb:
                out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _mono_without(m: Monomial, v: VarId) -> Monomial:
    """Lower the exponent of v in m by one (v must occur)."""
    out = []
    for var, e in m:
        if var == v:
            if e != 1:
                out.append((var, e - 1))
        else:
            out.append((var, e))
    return tuple(out)


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def mono_key(m: Monomial):
    """Deterministic graded sort key (refines total degree)."""
    return (mono_degree(m), m)


class DiffPoly:
    """An exact sparse polynomial; immutable by convention.

    The term dict maps monomials to nonzero Fraction coefficients; the zero
    polynomial has an empty dict.  All arithmetic returns canonical values.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction | int] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = Fraction(coeff)
                if c:
                    clean[mono] = c
        self.terms = clean

    @staticmethod
    def _raw(terms: dict[Monomial, Fraction]) -> "DiffPoly":
        """Wrap an already-canonical term dict without copying."""
        p = DiffPoly.__new__(DiffPoly)
        p.terms = terms
        return p

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def zero() -> "DiffPoly":
        return DiffPoly._raw({})

    @staticmethod
    def const(c: Fraction | int) -> "DiffPoly":
        c = Fraction(c)
        return DiffPoly._raw({_ONE_MONO: c} if c else {})

    @staticmethod
    def variable(v: VarId, exp: int = 1, coeff: Fraction | int = 1) -> "DiffPoly":
        c = Fraction(coeff)
        if not c:
            return DiffPoly.zero()
        return DiffPoly._raw({((v, exp),): c})

    # -- ring arithmetic -----------------------------------------------------

    def __add__(self, other) -> "DiffPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = out.get(mono)
            if s is None:
                out[mono] = coeff
            else:
                s = s + coeff
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return DiffPoly._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "DiffPoly":
        return DiffPoly._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "DiffPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "DiffPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "DiffPoly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return DiffPoly.zero()
            return DiffPoly._raw({m: v * c for m, v in self.terms.items()})
        if not isinstance(other, DiffPoly):
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return DiffPoly.zero()
        if len(a) > len(b):
            a, b = b, a
        out: dict[Monomial, Fraction] = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                mono = _mono_mul(ma, mb)
                s = out.get(mono)
                if s is None:
                    out[mono] = ca * cb
                else:
                    s = s + ca * cb
                    if s:
                        out[mono] = s
                    else:
                        del out[mono]
        return DiffPoly._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "DiffPoly":
        if n < 0:
            raise ValueError("negative powers are not defined in the ring")
        result = DiffPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def scale(self, c: Fraction | int) -> "DiffPoly":
        return self * Fraction(c)

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def variables(self) -> set[VarId]:
        seen: set[VarId] = set()
        for mono in self.terms:
            for v, _ in mono:
                seen.add(v)
        return seen

    def degree(self, v: VarId) -> int:
        """Largest exponent of v over all terms (0 if v is absent)."""
        best = 0
        for mono in self.terms:
            for var, e in mono:
                if var == v and e > best:
                    best = e
        return best

    def order(self) -> int | float:
        """Largest jet index present, or -inf if no jet variable occurs."""
        best: int | float = NEG_INF
        for mono in self.terms:
            for (kind, idx), _ in mono:
                if kind == KIND_JET and idx > best:
                    best = idx
        return best

    def has_kind(self, kind: int) -> bool:
        for mono in self.terms:
            for (k, _), _ in mono:
                if k == kind:
                    return True
        return False

    def constant_term(self) -> Fraction:
        return self.terms.get(_ONE_MONO, Fraction(0))

    def restrict_to_kinds(self, kinds: Iterable[int]) -> "DiffPoly":
        """The sum of terms whose variables all belong to the given kinds."""
        allowed = set(kinds)
        out = {
            mono: coeff
            for mono, coeff in self.terms.items()
            if all(kind in allowed for (kind, _), _ in mono)
        }
        return DiffPoly._raw(out)

    # -- calculus ----------------------------------------------------------

    def partial(self, v: VarId) -> "DiffPoly":
        """Formal partial derivative with respect to the single variable v."""
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            for var, e in mono:
                if var == v:
                    reduced = _mono_without(mono, v)
                    c = coeff * e
                    s = out.get(reduced)
                    if s is None:
                        out[reduced] = c
                    else:
                        s = s + c
                        if s:
                            out[reduced] = s
                        else:
                            del out[reduced]
                    break
        return DiffPoly._raw(out)

    def integrate(self, v: VarId) -> "DiffPoly":
        """Formal antiderivative with respect to v (no integration constant)."""
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            emap = dict(mono)
            e = emap.get(v, 0)
            emap[v] = e + 1
            new_mono = tuple(sorted(emap.items()))
            out[new_mono] = coeff / (e + 1)
        return DiffPoly._raw(out)

    def substitute(self, rules: Mapping[VarId, "DiffPoly"]) -> "DiffPoly":
        """Simultaneous substitution of polynomials for variables.

        Variables not mentioned in the rules pass through unchanged.
        """
        if not rules:
            return self
        result = DiffPoly.zero()
        pow_cache: dict[tuple[VarId, int], DiffPoly] = {}
        for mono, coeff in self.terms.items():
            passthrough = []
            factors = []
            for var, e in mono:
                image = rules.get(var)
                if image is None:
                    passthrough.append((var, e))
                else:
                    key = (var, e)
                    cached = pow_cache.get(key)
                    if cached is None:
                        cached = image ** e
                        pow_cache[key] = cached
                    factors.append(cached)
            term = DiffPoly._raw({tuple(passthrough): coeff})
            for f in factors:
                term = term * f
            result = result + term
        return result

    # -- ordering and display ------------------------------------------------

    def sorted_terms(self, reverse: bool = True) -> list[tuple[Monomial, Fraction]]:
        """Terms in the global monomial order (leading term first by default)."""
        return sorted(self.terms.items(), key=lambda kv: mono_key(kv[0]), reverse=reverse)

    def __str__(self) -> str:
        return render_terms(self, var_name)

    def __repr__(self) -> str:
        return f"DiffPoly({self})"


def _coerce(value) -> "DiffPoly":
    if isinstance(value, DiffPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return DiffPoly.const(value)
    return NotImplemented


def var_name(v: VarId) -> str:
    kind, idx = v
    if kind == KIND_T:
        return "t"
    if kind == KIND_X:
        return "x"
    if kind == KIND_JET:
        return f"z{idx}"
    return f"h{idx}"


def _exp_name(m: int) -> str:
    if m == 1:
        return "e^w"
    if m == -1:
        return "e^{-w}"
    return f"e^{{{m}w}}"


def render_terms(p: DiffPoly, name, power: str = "{}^{}", coeff=str, sep: str = "*") -> str:
    """Render p term by term, leading monomial first.

    name(v) names a variable, power formats (name, exponent), coeff(c)
    renders a coefficient, and sep joins factors and a coefficient to its
    monomial.  A value carrying E is rendered as a sum of groups
    (...)*e^{mw} in increasing m, the E-free group bare.
    """
    if not p.terms:
        return "0"
    groups: dict[int, list] = {}
    for mono, c in p.terms.items():
        m = 0
        if mono and mono[-1][0] == EXP_VAR:
            mono, m = mono[:-1], mono[-1][1]
        groups.setdefault(m, []).append((mono, c))
    factors: dict[tuple[VarId, int], str] = {}
    parts = []
    for m in sorted(groups):
        frags = []
        for mono, c in sorted(groups[m], key=lambda kv: mono_key(kv[0]), reverse=True):
            names = []
            for f in mono:
                factor = factors.get(f)
                if factor is None:
                    v, e = f
                    factor = factors[f] = name(v) if e == 1 else power.format(name(v), e)
                names.append(factor)
            body = sep.join(names)
            if not body:
                frags.append(coeff(c))
            elif c == 1:
                frags.append(body)
            elif c == -1:
                frags.append(f"-{body}")
            else:
                frags.append(f"{coeff(c)}{sep}{body}")
        text = " + ".join(frags).replace("+ -", "- ")
        parts.append(f"({text})*{_exp_name(m)}" if m else text)
    return " + ".join(parts)


# Convenience constructors used throughout the package and the tests.

def t_poly() -> DiffPoly:
    return DiffPoly.variable(T_VAR)


def x_poly() -> DiffPoly:
    return DiffPoly.variable(X_VAR)


def jet_poly(k: int) -> DiffPoly:
    return DiffPoly.variable(jet(k))


def par_poly(j: int) -> DiffPoly:
    return DiffPoly.variable(par(j))


def exp_poly(m: int) -> DiffPoly:
    """E^m = e^{m z_0}, for any integer m."""
    return DiffPoly.variable(EXP_VAR, m) if m else DiffPoly.const(1)


def const(c: Fraction | int) -> DiffPoly:
    return DiffPoly.const(c)
