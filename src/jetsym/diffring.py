"""Exact sparse differential-polynomial ring.

Polynomials live over the independent variables t and x, a bank of jet
coordinates z_0, z_1, ... (z_k standing for the k-th x-derivative of the
dependent variable), a bank of parameter-function symbols h_0, h_1, ...
(h_j standing for the j-th x-derivative of a symbolic solution h(t, x) of
the linear heat equation), and the exponential E = e^{z_0}, which may carry
any integer exponent (E^{-1} E = 1), so that the pullback through u = e^w
stays inside the ring.  Coefficients are exact rationals, so equality of
polynomials is decidable and every identity check in this package is exact.

Representation: a monomial is one Python int holding every exponent in an
8-bit field, slots in the order t, x, E, z_0, h_0, z_1, h_1, ... (unit(v)
is 1 shifted to v's slot), so a monomial product is one integer addition.
The E field is a balanced digit in [-64, 64), so E^m E^{-m} cancels by the
same addition; every other field lies in [0, 128).  The top bit of each
field is a guard: an operation whose result leaves a field raises
ExponentOverflow instead of wrapping.  A polynomial stores integer
numerators per monomial over one positive denominator, normalised after
each operation so that gcd(denominator, *numerators) = 1; the zero
polynomial has no terms and denominator 1.  Values are therefore canonical
and compared by their packed form.  _scatter, which adds f a b to a table
of numerators, is the one product loop: a * b, the products of Horner's
rule in substitute, and sum_of_products, which forms a sum of w a b over
one common denominator with one field check and one normalisation (the
family ladder, the prolongation sums and the closed-form brackets), all
run through it.  derive, the one loop behind every total derivative,
reads the packed form directly; its tables of variable images are keyed
by unit, and it applies a monomial image n of v as the key offset
n - unit(v), one addition per factor.  substitute maps v^e under a
one-term image c n to c^e times a shift of the key by e n, and evaluates
the images with several terms by Horner's rule over the terms grouped by
their part in those variables, so that sums are merged before they are
multiplied.  Its first pass holds nothing; only when that pass leaves a
field and the body or an image carries E does it run once more, with
every power of E, the body's and the images' alike, held above the
fields, so that only the result's exponents must fit.

At the edges monomials appear as tuples of ((kind, index), exponent) pairs
sorted by variable, with no zero exponent, and coefficients as Fractions:
the constructor takes {tuple monomial: coefficient}, and the terms view
decodes.  The variable order T < X < z_0 < z_1 < ... < h_0 < h_1 < ... < E
of the tuples induces a graded monomial order (total degree first, ties
broken by the exponent sequence; mono_key in tests/conftest.py is its
tuple reference) that makes all rendered output deterministic.

jet_rows decodes and sorts a polynomial in one pass, and render_terms (so
str, and the CLI's renderers) reads its rows, as does ordered_terms in
tests/conftest.py, which decodes them to tuple terms.  A row
splits a packed monomial b = m + _DIGITS_BIAS into its t byte, its x byte
and its jet part b >> 16 (E, the z_k and the h_j).  A table that the
caller passes in holds, per jet part, its order-key bytes, degree,
factors and E exponent, computed on first sight, and the renderers keep
each jet part's factor text there per format; the order-12 Burgers family
table has 18 332 terms but only 371 distinct jet parts.  The order key of
a monomial is its degree and the bytes of its factors, two per factor v^e:
the rank of v in the order t < x < z_0 < ... < z_64 < h_0 < ... < h_64 < E,
then e, E's raised by 64.  Byte strings compare as the tuples do, a string
that ends first being the smaller, so the key is the graded order at any
width; order_key gives it for one packed monomial.  A value carrying E is
rendered grouped by its power of E.

Record, the base of the package's slotted immutable records, lives here
because every module that defines one already imports this one.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import reduce
from itertools import compress
from math import gcd, lcm
from operator import or_
from typing import Iterable

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

NEG_INF = float("-inf")

# Safety cap on jet/parameter indices, to catch runaway derivations early.
_INDEX_LIMIT = 64


class JetLimitError(RuntimeError):
    """Raised when a jet or parameter index exceeds the cap."""


class ExponentOverflow(JetLimitError):
    """Raised when an exponent leaves its packed field."""


class Record:
    """Base of the package's immutable records that are not NamedTuples.

    A subclass names its fields in __slots__, and the constructor takes
    their values in that order.  A record equals only a record of the same
    type with an equal _key() (every field, unless the subclass narrows
    it), hashes by its type and that key, and shows every field in its repr.
    """

    __slots__ = ()

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(
                f"{type(self).__name__} takes {len(names)} fields, got {len(values)}"
            )
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash((type(self), self._key()))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"


# -- packed monomials ----------------------------------------------------------

_BITS = 8
_MASK = (1 << _BITS) - 1
_E_SLOT = 2
_E_SHIFT = _E_SLOT * _BITS
# Adding _DIGITS_BIAS to a valid monomial lifts its E digit into [128, 256)
# without a borrow, so the bytes of the sum are its fields, E at byte 2
# raised by _E_DIGIT_BIAS, and there are at least three of them.
_E_DIGIT_BIAS = 3 << (_BITS - 2)
_DIGITS_BIAS = _E_DIGIT_BIAS << _E_SHIFT
# Adding _GUARD_BIAS lifts a valid E digit into [0, 128) instead, so that the
# top bit of every field of the sum is clear exactly when m is valid.
_GUARD_BIAS = 1 << (_BITS - 2) << _E_SHIFT

# Slot order t, x, E, then z_k and h_k interleaved.
_SLOT_VARS: list[VarId] = [T_VAR, X_VAR, EXP_VAR]
for _k in range(_INDEX_LIMIT + 1):
    _SLOT_VARS += [(KIND_JET, _k), (KIND_PAR, _k)]
_UNIT: dict[VarId, int] = {v: 1 << (_BITS * s) for s, v in enumerate(_SLOT_VARS)}
_JET_VARS = _SLOT_VARS[3::2]
_PAR_VARS = _SLOT_VARS[4::2]


def _slot_mask(slots) -> int:
    return sum(_MASK << (_BITS * s) for s in slots)


_NSLOTS = len(_SLOT_VARS)
_GUARD = int.from_bytes(bytes([1 << (_BITS - 1)]) * _NSLOTS, "little")
_E_MASK = _MASK << _E_SHIFT
_E_UNIT = 1 << _E_SHIFT
# After an overflow, substitute holds the E exponent e of each term of the
# body and the images at e << _HELD_SHIFT, above every field, while the rule
# runs again; adding e * _E_TO_HELD to a key moves it back.
_HELD_SHIFT = _NSLOTS * _BITS
_E_TO_HELD = _E_UNIT - (1 << _HELD_SHIFT)
# Valid exponents: [0, _FIELD_LIMIT) off E, [-_E_LIMIT, _E_LIMIT) on E.
_FIELD_LIMIT = 1 << (_BITS - 1)
_E_LIMIT = 1 << (_BITS - 2)
# Fields of each kind other than E, read from a monomial plus _DIGITS_BIAS.
_KIND_MASK = {
    KIND_T: _MASK,
    KIND_X: _MASK << _BITS,
    KIND_JET: _slot_mask(range(3, _NSLOTS, 2)),
    KIND_PAR: _slot_mask(range(4, _NSLOTS, 2)),
}


def unit(v: VarId) -> int:
    """The packed monomial v^1."""
    u = _UNIT.get(v)
    if u is None:
        kind, idx = v
        if kind in (KIND_JET, KIND_PAR) and idx > _INDEX_LIMIT:
            raise JetLimitError(f"index {idx} exceeds the cap {_INDEX_LIMIT}")
        raise ValueError(f"not a ring variable: {v!r}")
    return u


def unit_var(u: int) -> VarId:
    """The variable whose unit is u."""
    return _SLOT_VARS[(u.bit_length() - 1) // _BITS]


def _field(m: int, shift: int) -> int:
    """The exponent in the field at bit offset shift of the packed monomial m."""
    if shift == _E_SHIFT:
        e = (m >> shift) & _MASK
        return e - (1 << _BITS) if e >> (_BITS - 1) else e
    return ((m + _DIGITS_BIAS) >> shift) & _MASK


def _check_fields(monos) -> None:
    """Raise ExponentOverflow unless every field of every monomial is valid."""
    if reduce(or_, map(_GUARD_BIAS.__add__, monos), 0) & _GUARD:
        raise ExponentOverflow(
            "an exponent leaves its packed field: at most 127, and E^m needs -64 <= m < 64"
        )


def _encode(mono: Monomial) -> int:
    m = 0
    for v, e in mono:
        if type(e) is not int:
            raise ValueError(f"exponent of {v!r} must be an int, got {e!r}")
        if e < 0 and v != EXP_VAR:
            raise ValueError(f"negative exponent {e} on {v!r}")
        u = unit(v)
        # A factor is checked before it is added, since one outside its field
        # carries into the next; a sum of in-field factors is caught by the guard.
        if not (-_E_LIMIT <= e < _E_LIMIT if v == EXP_VAR else e < _FIELD_LIMIT):
            raise ExponentOverflow(f"exponent {e} of {v!r} leaves its packed field")
        m += e * u
        _check_fields((m,))
    return m


def _decode(m: int) -> Monomial:
    """The sorted ((kind, index), exponent) tuple of a packed monomial."""
    b = m + _DIGITS_BIAS
    return tx_factors(b & _TX_MASK) + _jet_factors(b >> _E_SHIFT)


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


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


_new = object.__new__


class TermsView(Mapping):
    """Read-only {tuple monomial: Fraction} view of a polynomial.

    Decoded on first read and kept; its length needs no decoding.
    """

    __slots__ = ("_nums", "_den", "_dict")

    def __init__(self, nums: dict[int, int], den: int):
        self._nums = nums
        self._den = den
        self._dict = None

    def _decoded(self) -> dict[Monomial, Fraction]:
        d = self._dict
        if d is None:
            den = self._den
            d = self._dict = {_decode(m): Fraction(c, den) for m, c in self._nums.items()}
        return d

    def __len__(self) -> int:
        return len(self._nums)

    def __getitem__(self, mono):
        return self._decoded()[mono]

    def __iter__(self):
        return iter(self._decoded())

    def items(self):
        return self._decoded().items()

    def __repr__(self) -> str:
        return f"TermsView({self._decoded()!r})"


class DiffPoly:
    """An exact sparse polynomial; immutable.

    _nums maps packed monomials to nonzero integer numerators over the
    positive denominator _den (see the module docstring); terms is the
    decoded read-only view.  _dx holds the total x-derivative once
    jetflow.x_derivative has computed it, so each value is differentiated
    once, and _partials the coefficients of its Frechet sum once
    jetflow.jet_partials has.  All arithmetic returns canonical values.
    """

    __slots__ = ("_nums", "_den", "_view", "_dx", "_partials")

    def __init__(self, terms: Mapping[Monomial, Fraction | int] | None = None):
        coeffs: dict[int, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            m = _encode(mono)
            coeffs[m] = coeffs.get(m, 0) + Fraction(coeff)
        den = lcm(*(c.denominator for c in coeffs.values()))
        nums = {m: c.numerator * (den // c.denominator) for m, c in coeffs.items() if c}
        p = DiffPoly._make(nums, den)
        self._nums, self._den = p._nums, p._den
        self._view = self._dx = self._partials = None

    @staticmethod
    def _make(nums: dict[int, int], den: int = 1) -> "DiffPoly":
        """Wrap nonzero numerators over den > 0, dividing both by gcd(den, *nums).

        nums is not copied.
        """
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                nums = {m: c // g for m, c in nums.items()}
                den //= g
        p = _new(DiffPoly)
        p._nums = nums
        p._den = den
        p._view = None
        p._dx = None
        p._partials = None
        return p

    @property
    def terms(self) -> TermsView:
        view = self._view
        if view is None:
            view = self._view = TermsView(self._nums, self._den)
        return view

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def zero() -> "DiffPoly":
        return DiffPoly._make({})

    @staticmethod
    def const(c: Fraction | int) -> "DiffPoly":
        c = Fraction(c)
        return DiffPoly._make({0: c.numerator} if c else {}, c.denominator)

    @staticmethod
    def variable(v: VarId, exp: int = 1) -> "DiffPoly":
        return DiffPoly._make({_encode(((v, exp),)): 1})

    # -- ring arithmetic -----------------------------------------------------

    def __add__(self, other) -> "DiffPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._nums:
            return self
        if not self._nums:
            return other
        out, den = _widened(self._nums, self._den, other._den)
        _subtract(out, -(den // other._den), other._nums)
        return DiffPoly._make(out, den)

    __radd__ = __add__

    def __neg__(self) -> "DiffPoly":
        return DiffPoly._make({m: -c for m, c in self._nums.items()}, self._den)

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
        if not isinstance(other, DiffPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            num, den = other.numerator, other.denominator
            if not num:
                return DiffPoly.zero()
            return DiffPoly._make({m: c * num for m, c in self._nums.items()}, self._den * den)
        a, b = self._nums, other._nums
        if not a or not b:
            return DiffPoly.zero()
        out: dict[int, int] = {}
        _scatter(out, a, b, 1)
        _check_fields(out)
        return DiffPoly._make(_nonzero(out), self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "DiffPoly":
        if n < 0:
            raise ValueError("negative powers are not defined in the ring")
        if n == 0:
            return DiffPoly.const(1)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        nums = self._nums
        if not nums or (len(nums) == 1 and 0 in nums):
            # a constant equals its value (see __eq__), so it hashes as one
            return hash(self.constant_term())
        return hash((self._den, frozenset(nums.items())))

    def _fields_or(self) -> int:
        """The union of the fields of every monomial other than E."""
        return reduce(or_, map(_DIGITS_BIAS.__add__, self._nums), 0) & ~_E_MASK

    def degree(self, v: VarId) -> int:
        """Largest exponent of v over all terms (0 if v is absent)."""
        shift = unit(v).bit_length() - 1
        return max([0, *(_field(m, shift) for m in self._nums)])

    def order(self) -> int | float:
        """Largest jet index present, or -inf if no jet variable occurs."""
        jets = self._fields_or() & _KIND_MASK[KIND_JET]
        if not jets:
            return NEG_INF
        return ((jets.bit_length() - 1) // _BITS - 3) // 2

    def has_kind(self, kind: int) -> bool:
        if kind == KIND_EXP:
            return any(m & _E_MASK for m in self._nums)
        return bool(self._fields_or() & _KIND_MASK[kind])

    def constant_term(self) -> Fraction:
        return Fraction(self._nums.get(0, 0), self._den)

    def restrict_to_kinds(self, kinds: Iterable[int]) -> "DiffPoly":
        """The sum of terms whose variables all belong to the given kinds."""
        allowed = set(kinds)
        banned = sum(mask for kind, mask in _KIND_MASK.items() if kind not in allowed)
        e_banned = 0 if KIND_EXP in allowed else _E_MASK
        out = {
            m: c
            for m, c in self._nums.items()
            if not (m + _DIGITS_BIAS) & banned and not m & e_banned
        }
        return DiffPoly._make(out, self._den)

    # -- calculus ----------------------------------------------------------

    def partial(self, v: VarId) -> "DiffPoly":
        """Formal partial derivative with respect to the single variable v."""
        u = unit(v)
        shift = u.bit_length() - 1
        out = {}
        for m, c in self._nums.items():
            e = _field(m, shift)
            if e:
                out[m - u] = c * e
        if v == EXP_VAR:
            _check_fields(out)
        return DiffPoly._make(out, self._den)

    def integrate(self, v: VarId) -> "DiffPoly":
        """Formal antiderivative with respect to v (no integration constant)."""
        u = unit(v)
        shift = u.bit_length() - 1
        raised = [(m, c, _field(m, shift) + 1) for m, c in self._nums.items()]
        if any(e == 0 for _, _, e in raised):
            raise ZeroDivisionError("the antiderivative of E^-1 is not in the ring")
        den = lcm(*(abs(e) for _, _, e in raised))
        out = {m + u: c * (den // e) for m, c, e in raised}
        _check_fields(out)
        return DiffPoly._make(out, self._den * den)

    def substitute(self, rules: Mapping[VarId, "DiffPoly"]) -> "DiffPoly":
        """Simultaneous substitution of polynomials for variables.

        Variables not mentioned in the rules pass through unchanged; a rule
        for anything else raises as unit() does.  A one-term image maps v^e
        to a shift of the packed key by its e-th power, checked like each
        product.  The terms are grouped by their part in the variables
        whose images have several terms, which Horner's rule then applies
        (see _horner) to integer numerators, each term pre-scaled by the
        powers of the image denominators it lacks.  The first pass holds
        nothing.  Only when it leaves a field and the body (unless E has a
        rule) or an image carries E does it run once more, on the body and
        the images with their E exponents held above every field (see
        _held_exp); one pass then moves the held exponents back and checks
        them, so only the result must fit E's field, as in (E^-60 z_0 z_1)
        with z_0 -> E^40 + t and z_1 -> E^40 + x.  A held exponent makes
        every key a long integer, which is why nothing is held before an
        overflow.  No image is substituted again.
        """
        if not rules:
            return self
        by_unit = {unit(v): image for v, image in rules.items()}
        try:
            return self._substitute(by_unit)
        except ExponentOverflow:
            held = {u: _held_exp(image) for u, image in by_unit.items() if image.has_kind(KIND_EXP)}
            body = self if _E_UNIT in by_unit else _held_exp(self)
            if not held and body == self:  # nothing carries E
                raise
            p = body._substitute({**by_unit, **held})
        # every key is e << _HELD_SHIFT plus its fields, E's 0
        if any(not -_E_LIMIT <= m >> _HELD_SHIFT < _E_LIMIT for m in p._nums):
            raise ExponentOverflow("a power of E leaves its packed field: E^m needs -64 <= m < 64")
        nums = {m + (m >> _HELD_SHIFT) * _E_TO_HELD: c for m, c in p._nums.items()}
        return DiffPoly._make(nums, p._den)

    def _substitute(self, by_unit: dict[int, "DiffPoly"]) -> "DiffPoly":
        """substitute by images keyed by unit, in one pass."""
        # The fields of the rule variables, of those whose images have
        # several terms, and of those whose powers have a step.
        fields = horner = walk = 0
        for u, image in by_unit.items():
            fields |= _MASK * u
            if len(image._nums) > 1:
                horner |= _MASK * u
            if len(image._nums) < 2 or image._den != 1:
                walk |= _MASK * u
        exp_rule = _E_UNIT in by_unit
        steps: dict[int, tuple] = {}  # e*u -> _power_step(image of u, e)
        groups: dict[int, dict[int, int]] = {}  # Horner part -> key -> numerator
        scaled = []  # (part, key, numerator, den) of the terms that need a den
        for m, c in self._nums.items():
            b = m + _DIGITS_BIAS
            rel = b & fields
            if exp_rule:  # rel holds E's digit raised by _E_DIGIT_BIAS
                if (b & _E_MASK) < _DIGITS_BIAS:
                    raise ValueError("negative powers are not defined in the ring")
                rel -= _DIGITS_BIAS
            key = m - rel  # every rule variable removed
            dt = 1
            todo = rel & walk
            if todo:
                shifts = []
                while todo:
                    off = (todo.bit_length() - 1) & -_BITS
                    e = todo >> off
                    todo -= e << off
                    step = steps.get(e << off)
                    if step is None:
                        step = steps[e << off] = _power_step(by_unit[1 << off], e)
                    shift, num, d = step
                    if shift is not None:
                        shifts.append(shift)
                        c *= num
                    dt *= d
                if not c:
                    continue
                for shift in shifts:
                    key += shift
                    if (key + _GUARD_BIAS) & _GUARD:
                        _check_fields((key,))
            if dt == 1:
                table = groups.setdefault(rel & horner, {})
                table[key] = table.get(key, 0) + c
            else:
                scaled.append((rel & horner, key, c, dt))
        den = lcm(*(dt for *_, dt in scaled))
        if den != 1:
            for table in groups.values():
                for key in table:
                    table[key] *= den
            for part, key, c, dt in scaled:
                table = groups.setdefault(part, {})
                table[key] = table.get(key, 0) + c * (den // dt)
        out = _horner(sorted(groups.items(), reverse=True), by_unit) if groups else {}
        return DiffPoly._make(_nonzero(out), self._den * den)

    # -- ordering and display ------------------------------------------------

    def __str__(self) -> str:
        return render_terms(self, var_name)

    def __repr__(self) -> str:
        return f"DiffPoly({self})"


def derive(p: DiffPoly, images: dict[int, DiffPoly], fill) -> DiffPoly:
    """The derivation D with D(v) = images[unit(v)], extended by the Leibniz rule.

    A factor v^e of a monomial m contributes e (m - unit(v)) D(v), each
    term of D(v) by one integer addition; e may be negative (E^{-1}).  A
    monomial image n (one term, coefficient 1) is a key offset: the factor
    adds e times the term's numerator at m + (n - unit(v)), one addition
    and one table update.  Every image of D_x and of d/dz_0 is one, as are
    D_t's images of t and h_j.  A variable missing from images gets
    fill(unit), which is expected to store the image in the table for the
    next call.  Each slot's image is looked up once per call, and only the
    nonzero fields of a term are visited.
    """
    out: dict[int, int] = {}
    get = out.get
    image_den = 1  # common denominator of the images used so far
    # per slot: the key offset of a monomial image, else (unit, image items,
    # image den), () for a zero image, None unread
    slots: list = [None] * _NSLOTS
    for m, c in p._nums.items():
        b = m + _DIGITS_BIAS
        fields = b.to_bytes((b.bit_length() + 7) >> 3, "little")
        for slot, e in compress(enumerate(fields), fields):
            if slot == _E_SLOT:
                e -= _E_DIGIT_BIAS
                if not e:
                    continue
            image = slots[slot]
            if image is None:
                image = slots[slot] = _slot_image(slot, images, fill)
            if image.__class__ is int:
                k = m + image
                out[k] = get(k, 0) + c * e * image_den
                continue
            if not image:
                continue
            u, terms, d = image
            if image_den % d:
                out, image_den = _widened(out, image_den, d)
                get = out.get
            cc = c * e * (image_den // d)
            base = m - u
            for im, ic in terms:
                k = base + im
                out[k] = get(k, 0) + cc * ic
    _check_fields(out)
    return DiffPoly._make(_nonzero(out), p._den * image_den)


def _slot_image(slot: int, images: dict[int, DiffPoly], fill):
    """How derive reads the image of the variable in slot: see its table."""
    u = 1 << (_BITS * slot)
    poly = images.get(u)
    if poly is None:
        poly = fill(u)
    nums = poly._nums
    if len(nums) == 1 and poly._den == 1:
        ((n, c),) = nums.items()
        if c == 1:
            return n - u
    return (u, nums.items(), poly._den) if nums else ()


def _held_exp(p: DiffPoly) -> DiffPoly:
    """p with each E exponent e held at e << _HELD_SHIFT, for substitute's retry."""
    return DiffPoly._make(
        {m - _field(m, _E_SHIFT) * _E_TO_HELD: c for m, c in p._nums.items()}, p._den
    )


def _power_step(image: DiffPoly, e: int) -> tuple:
    """How image^e (e >= 1) enters substitute: (None, 1, den^e) if image
    has several terms, else the key shift, numerator and den of the power
    (numerator 0 for the zero image).

    The power of a one-term image c n / d is c^e (e n) / d^e, already
    reduced.  For e > 1 the keys n 2^i (2^i <= e) and e n are checked in
    one pass, which raises exactly where image ** e does: while n 2^i is
    valid every field of the next key is below twice its limit, so it
    cannot wrap into the next field unseen.
    """
    nums = image._nums
    if len(nums) > 1:
        return None, 1, image._den**e
    if not nums:
        return 0, 0, 1
    ((n, c),) = nums.items()
    if e > 1:
        _check_fields([*(n << i for i in range(e.bit_length())), e * n])
    return e * n, c**e, image._den**e


def _horner(
    parts: list[tuple[int, dict[int, int]]], images: Mapping[int, DiffPoly]
) -> dict[int, int]:
    """The sum of table * prod image^e over parts, by Horner's rule.

    parts lists (part, table) by decreasing part: a packed product of
    variables whose images are keyed by unit, and the numerators by key
    that multiply it, reused here.  In the highest variable v present,
    p = sum_e p_e v^e maps to (...(p_top g + p_{top-1}) g + ...) g + p_0
    for the image numerators g, each p_e evaluated the same way first and
    each product scattered straight into its table.  The parts holding v
    come first; the rest make p_0.  Keys are checked before a table is
    multiplied and before it is returned; cancelled entries may remain.
    """
    out = parts.pop()[1] if not parts[-1][0] else {}
    i, n = 0, len(parts)
    while i < n:
        top = parts[i][0]
        off = (top.bit_length() - 1) & -_BITS  # v's field
        u = 1 << off
        runs: dict[int, list] = {}  # e -> the parts holding v^e, v removed
        while i < n and parts[i][0] >= u:
            part, table = parts[i]
            runs.setdefault(part >> off, []).append((part & (u - 1), table))
            i += 1
        g = images[u]._nums
        acc = _horner(runs[top >> off], images)
        for e in range((top >> off) - 1, -1, -1):
            sub = runs.get(e)
            target = out if not e else _horner(sub, images) if sub else {}
            _scatter(target, acc, g, 1)
            if e:
                _check_fields(target)
                acc = _nonzero(target)
    if n:
        _check_fields(out)
    return out


def sum_of_products(terms: Iterable[tuple[DiffPoly, DiffPoly, int | Fraction]]) -> DiffPoly:
    """The sum of w a b over the triples (a, b, w), w an int or a Fraction.

    Every product is scattered into one table over one common denominator;
    the keys are checked once, the cancelled ones too, so this raises
    ExponentOverflow exactly when some a * b does, and the table is
    normalised once.  The empty sum is zero.
    """
    terms = [(a, b, w, a._den * b._den * w.denominator) for a, b, w in terms]
    den = lcm(*(d for *_, d in terms))
    out: dict[int, int] = {}
    for a, b, w, d in terms:
        _scatter(out, a._nums, b._nums, w.numerator * (den // d))
    _check_fields(out)
    return DiffPoly._make(_nonzero(out), den)


def _scatter(out: dict[int, int], a: dict[int, int], b: dict[int, int], f: int) -> None:
    """out += f a b on numerator tables keyed by packed monomial, the factor
    with fewer terms outermost; the one product loop.  Keys are not checked."""
    if len(a) > len(b):
        a, b = b, a
    get = out.get
    b_items = b.items()
    for ma, ca in a.items():
        ca *= f
        if not out:  # an empty table takes a row whole: its keys are distinct
            out.update({ma + mb: ca * cb for mb, cb in b_items})
            continue
        for mb, cb in b_items:
            m = ma + mb
            out[m] = get(m, 0) + ca * cb


def _widened(nums: dict[int, int], den: int, d: int) -> tuple[dict[int, int], int]:
    """nums over den rewritten over lcm(den, d), in a new table."""
    grow = d // gcd(den, d)
    return ({m: c * grow for m, c in nums.items()} if grow != 1 else dict(nums)), den * grow


def _subtract(target: dict, a: int, source: dict) -> None:
    """target -= a * source, dropping cancelled entries."""
    get = target.get
    for key, v in source.items():
        s = get(key, 0) - a * v
        if s:
            target[key] = s
        else:
            del target[key]


def _nonzero(nums: dict[int, int]) -> dict[int, int]:
    """nums without its cancelled entries."""
    if 0 in nums.values():
        return {m: c for m, c in nums.items() if c}
    return nums


# -- jet parts: decoded once per table -----------------------------------------

# Of b = m + _DIGITS_BIAS, b & _TX_MASK holds the t and x fields and b >> _E_SHIFT
# is the jet part: E's biased digit, then z_0, h_0, z_1, h_1, ...
_TX_MASK = (1 << _E_SHIFT) - 1
# The order-key rank of each variable, as the variables sort in tuple monomials.
_RANK = {v: r for r, v in enumerate([T_VAR, X_VAR, *_JET_VARS, *_PAR_VARS, EXP_VAR])}


def _key_bytes(factors: Monomial) -> bytes:
    """The order-key bytes of the factors of a tuple monomial (see the
    module docstring): per factor v^e, the rank of v, then e, E's raised by
    _E_LIMIT into [0, 128)."""
    return bytes([b for v, e in factors for b in (_RANK[v], e + _E_LIMIT if v == EXP_VAR else e)])


def _jet_factors(j: int) -> Monomial:
    """The factors of the jet part j: the z_k, then the h_j, then E, as in a
    tuple monomial."""
    d = j.to_bytes((j.bit_length() + 7) >> 3, "little")
    z, h = d[1::2], d[2::2]
    factors = (
        *zip(compress(_JET_VARS, z), compress(z, z)),
        *zip(compress(_PAR_VARS, h), compress(h, h)),
    )
    e = d[0] - _E_DIGIT_BIAS
    if e:
        factors += ((EXP_VAR, e),)
    return factors


def _jet_part(j: int) -> tuple[bytes, int, Monomial, int]:
    """The order-key bytes, degree, factors and E exponent of the jet part j."""
    factors = _jet_factors(j)
    return _key_bytes(factors), mono_degree(factors), factors, (j & _MASK) - _E_DIGIT_BIAS


def order_key(m: int) -> tuple[int, bytes]:
    """The order key (degree, bytes) of the packed monomial m.

    Sorting packed monomials by it sorts them as the graded order sorts
    their decoded forms (see _key_bytes and tests/conftest.py's mono_key).
    """
    factors = _decode(m)
    return mono_degree(factors), _key_bytes(factors)


# The order-key bytes and degree of each t and x part met so far; there are
# at most 128 x 128.
_TX_KEYS: dict[int, tuple[bytes, int]] = {}


def jet_rows(p: DiffPoly, parts: dict) -> list[tuple[int, bytes, int, int, int, int]]:
    """p's terms as rows (degree, key, tx, jet part, numerator, denominator), leading term first.

    This is the one decode-and-sort pass over packed monomials.  A term's
    monomial m splits into its t and x fields tx and its jet part j (see
    _jet_part); parts maps each jet part to its decoded fields and is
    filled on first sight, so a table that shares it among its polynomials
    decodes each jet part once.  The rows come in decreasing graded
    order, sorted by the order key: the degree, then the key bytes of tx
    followed by those of j (see _key_bytes).  Each coefficient is a reduced
    ratio; no Fraction is made.
    """
    den = p._den
    get = parts.get
    tx_get = _TX_KEYS.get
    bias, shift, tx_mask = _DIGITS_BIAS, _E_SHIFT, _TX_MASK
    rows = []
    append = rows.append
    for m, c in p._nums.items():
        b = m + bias
        j = b >> shift
        part = get(j)
        if part is None:
            part = parts[j] = _jet_part(j)
        tx = b & tx_mask
        tx_key = tx_get(tx)
        if tx_key is None:
            factors = tx_factors(tx)
            tx_key = _TX_KEYS[tx] = (_key_bytes(factors), mono_degree(factors))
        g = gcd(c, den)
        append((tx_key[1] + part[1], tx_key[0] + part[0], tx, j, c // g, den // g))
    rows.sort(reverse=True)
    return rows


def tx_factors(tx: int) -> Monomial:
    """The factors of a row's t and x fields tx, as in a tuple monomial."""
    t, x = tx & _MASK, tx >> _BITS
    return ((T_VAR, t),) * bool(t) + ((X_VAR, x),) * bool(x)


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


def ratio_text(num: int, den: int) -> str:
    """The reduced ratio num/den as str(Fraction(num, den)) writes it."""
    return str(num) if den == 1 else f"{num}/{den}"


def render_terms(
    p: DiffPoly,
    name,
    power: str = "{}^{}",
    coeff=ratio_text,
    sep: str = "*",
    parts: dict | None = None,
    fmt=None,
) -> str:
    """Render p term by term, leading monomial first.

    name(v) names a variable, power formats (name, exponent), coeff(num,
    den) renders a coefficient given as a reduced ratio, and sep joins
    factors and a coefficient to its monomial.  A value carrying E is
    rendered as a sum of groups (...)*e^{mw} in increasing m, the E-free
    group bare.  The terms of one group share E^m, so they keep the order
    of jet_rows.  parts is jet_rows' table; under the key fmt, which names
    this format, it also keeps the factor text of each jet part and of each
    t and x part, so that rendering every polynomial of a table with one
    parts and fmt names each of them once.  Without fmt the texts are kept
    for this call only.
    """
    if not p:
        return "0"
    parts = {} if parts is None else parts
    part_texts, tx_texts = ({}, {}) if fmt is None else parts.setdefault(fmt, ({}, {}))

    def text_of(factors):
        return sep.join(name(v) if e == 1 else power.format(name(v), e) for v, e in factors)

    groups: dict[int, list[str]] = {}
    for _, _, tx, j, num, den in jet_rows(p, parts):
        jet_text = part_texts.get(j)
        if jet_text is None:
            _, _, factors, m = parts[j]
            jet_text = part_texts[j] = (text_of(factors[:-1] if m else factors), m)
        body, m = jet_text
        if tx:
            tx_text = tx_texts.get(tx)
            if tx_text is None:
                tx_text = tx_texts[tx] = text_of(tx_factors(tx))
            body = f"{tx_text}{sep}{body}" if body else tx_text
        if not body:
            frag = coeff(num, den)
        elif den == 1 and num == 1:
            frag = body
        elif den == 1 and num == -1:
            frag = f"-{body}"
        else:
            frag = f"{coeff(num, den)}{sep}{body}"
        group = groups.get(m)
        if group is None:
            group = groups[m] = []
        group.append(frag)
    out = []
    for m in sorted(groups):
        text = " + ".join(groups[m]).replace("+ -", "- ")
        out.append(f"({text})*{_exp_name(m)}" if m else text)
    return " + ".join(out)


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
