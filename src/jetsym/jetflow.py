"""Evolution equations and their on-shell calculus.

An evolution equation z_t = L[z] is reduced to the parametric jet
coordinates (t, x, z_0, z_1, ...).  The restricted total derivatives act as

    D_x = d/dx + sum_k z_{k+1} d/dz_k + sum_j h_{j+1} d/dh_j + z_1 E d/dE,
    D_t = d/dt + sum_k (D_x^k L) d/dz_k + sum_j h_{j+2} d/dh_j + L E d/dE,

where the parameter symbols h_j differentiate by index shift because the
symbolic parameter function h(t, x) solves the linear heat equation
(h_t = h_xx), and E = e^{z_0} by the chain rule.  Both are the one
routine diffring.derive, driven by a table of the images of the variables
kept here.  Three equations are built in, each a record that also holds
its letter, translation multiplier and families (see EvolutionEquation):

    HEAT         z_t = z_2             (u_t = u_xx)
    POTBURGERS   z_t = z_2 + z_1^2     (w_t = w_xx + w_x^2)
    BURGERS      z_t = z_2 - z_0 z_1   (v_t = v_xx - v v_x)

A characteristic eta attached to an equation is a generalized symmetry
exactly when its invariance residual D_t(eta) - L'[eta] vanishes, L' being
the Frechet derivative of the right-hand side.  The residual is expanded
term by term by the Leibniz rule: since L is free of t, the residual of
t^a x^b J, J a jet part (a packed monomial free of t and x), is

    t^a x^b Res(J) - sum_{i=1}^{min(b, top)} b!/(b-i)! t^a x^(b-i) G_i(J)
        + a t^(a-1) x^b J,

with Res(J) = D_t J - L'[J] and the tails
G_i(J) = sum_{k >= i} C(k, i) dL/dz_k D_x^{k-i} J, top the order of L.
Each equation keeps, per jet part, Res(J) and its tails as integer
numerator tables over the denominator of L, and the tower D_x J, ...,
D_x^(top-1) J as tables over 1; the residual and the solver read these
tables as they are built.  They are computed once, by the product rule:
with f the z_k or h_j of lowest index in J and J' = J / f,

    Res(f J') = f Res(J') + J' D_t f
                - sum_{m >= 1} dL/dz_m sum_{i=1}^{m} C(m, i) D_x^i f D_x^(m-i) J',

and D_x^j(f J') by the Leibniz rule, so that each part's images are key
shifts of a smaller part's (Goktas and Hereman 1997 build their ansaetze
weight by weight the same way).  Only the parts E^m, 1 included
(Res(1) = -dL/dz_0), are derived whole, from D_t J and prolongation_sums.
The powers of t and x only shift packed keys too.  The solver reads the
same expansion level by level: detsolve factors Res over the jet parts
alone, and each coefficient of t^a x^b reads the tails of the levels above
it.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import chain
from math import comb
from typing import Optional

from .diffring import (
    _BITS,
    _DIGITS_BIAS,
    _MASK,
    _TX_MASK,
    DiffPoly,
    EXP_VAR,
    KIND_EXP,
    KIND_JET,
    KIND_PAR,
    KIND_T,
    T_VAR,
    X_VAR,
    Record,
    _check_fields,
    _nonzero,
    derive,
    exp_poly,
    jet,
    jet_poly,
    par,
    sum_of_products,
    unit,
    unit_var,
)

# A derivation's table for derive: the image of each variable, keyed by its
# packed unit.
Images = dict[int, DiffPoly]

_E_UNIT = unit(EXP_VAR)
_T_UNIT = unit(T_VAR)
_X_UNIT = unit(X_VAR)
# the offset of z_0's field: a jet part J + _DIGITS_BIAS shifted down by it
# holds J's z_k and h_j fields alone
_Z0_SHIFT = unit(jet(0)).bit_length() - 1


# D_x: x -> 1, t -> 0, z_k -> z_{k+1}, h_j -> h_{j+1}, E -> z_1 E.
_DX_IMAGES: Images = {
    unit(T_VAR): DiffPoly.zero(),
    unit(X_VAR): DiffPoly.const(1),
    _E_UNIT: jet_poly(1) * exp_poly(1),
}


def _dx_image(u: int) -> DiffPoly:
    kind, idx = unit_var(u)
    shifted = jet(idx + 1) if kind == KIND_JET else par(idx + 1)
    image = _DX_IMAGES[u] = DiffPoly.variable(shifted)
    return image


def x_derivative(p: DiffPoly) -> DiffPoly:
    """Equation-independent total x-derivative on the parametric jet ring.

    The result is kept on p, which is immutable, so a value's tower
    D_x^k(p) is derived once however many Frechet sums walk it.
    """
    dx = p._dx
    if dx is None:
        dx = p._dx = derive(p, _DX_IMAGES, _dx_image)
    return dx


# d/dz_0: z_0 -> 1, E -> E (the chain rule for E = e^{z_0}), every other
# variable -> 0.
_DZ0_IMAGES: Images = {unit(jet(0)): DiffPoly.const(1), _E_UNIT: exp_poly(1)}


def _dz0_image(u: int) -> DiffPoly:
    image = _DZ0_IMAGES[u] = DiffPoly.zero()
    return image


def jet_partials(F: DiffPoly) -> tuple[DiffPoly, ...]:
    """(dF/dz_0, ..., dF/dz_top), the coefficients of the Frechet sum of F.

    top is the order of F, at least 0 when F carries E, whose chain rule
    dE/dz_0 = E enters dF/dz_0; the tuple is empty when F has neither.
    Kept on F like its D_x (see x_derivative), so each value's
    coefficients are computed once.
    """
    coeffs = F._partials
    if coeffs is None:
        top = F.order()
        if F.has_kind(KIND_EXP):
            top = max(top, 0)
        coeffs = F._partials = tuple(
            derive(F, _DZ0_IMAGES, _dz0_image) if k == 0 else F.partial(jet(k))
            for k in range(int(top) + 1 if top >= 0 else 0)
        )
    return coeffs


def x_tower(p: DiffPoly, n: int) -> list[DiffPoly]:
    """[p, D_x p, ..., D_x^(n-1) p], each D_x kept on the value before it."""
    tower = [p] if n else []
    for _ in range(n - 1):
        tower.append(x_derivative(tower[-1]))
    return tower


def prolongation_sums(F: DiffPoly, eta: DiffPoly, count: int) -> list[DiffPoly]:
    """G_0, ..., G_{count-1}: G_i = sum_{k >= i} C(k, i) dF/dz_k * D_x^{k-i} eta.

    The one prolongation sum: all read off jet_partials(F) and one tower
    eta, D_x eta, ..., D_x^top eta, top the order of F.  G_0 is the Frechet
    derivative F'[eta].
    """
    partials = jet_partials(F)
    tower = x_tower(eta, len(partials))
    return [
        sum_of_products((partials[k], tower[k - i], comb(k, i)) for k in range(i, len(partials)))
        for i in range(count)
    ]


def _shift_rule(terms) -> tuple[list[tuple[int, int]], list[tuple[int, int, int]]]:
    """A sum of shifted tower levels, w D_x^s P with its keys offset, as _shift_sum reads it.

    terms are (s, offset, w), s >= 0; those with s = 0, one term each, are
    merged by offset, so that terms that cancel are never formed, and the
    others come highest level first.
    """
    at: dict[int, int] = {}
    shifts: dict[tuple[int, int], int] = {}
    for s, offset, w in terms:
        if s:
            shifts[s, offset] = shifts.get((s, offset), 0) + w
        else:
            at[offset] = at.get(offset, 0) + w
    return (
        [(offset, w) for offset, w in at.items() if w],
        sorted(((s, offset, w) for (s, offset), w in shifts.items() if w), key=lambda t: -t[0]),
    )


def _shift_sum(out: dict[int, int], part: int, tower, rule) -> dict[int, int]:
    """out plus a _shift_rule read at the packed part P, tower[s - 1] being D_x^s P.

    The first level shifted into an empty table fills it whole.  The keys
    are not checked, and cancelled entries are kept.
    """
    at, shifts = rule
    for s, offset, w in shifts:
        if out:
            get = out.get
            for k, c in tower[s - 1].items():
                k += offset
                out[k] = get(k, 0) + w * c
        else:
            out = {k + offset: w * c for k, c in tower[s - 1].items()}
    get = out.get
    for offset, w in at:
        k = part + offset
        out[k] = get(k, 0) + w
    return out


class EvolutionEquation(Record):
    """An evolution equation z_t = rhs, and what the package knows of it.

    letter names z in output; multiplier is the M of the translation
    T = D_x + M behind the recursion operators and the families, None when
    the equation has none built in; q_family, z_family and reference are
    its Q family, its parameter family and the family whose span the
    solver compares with, each None where it has none.  A Record whose
    fields are read-only, and which equals only itself, as Characteristic
    compares it.  The tables of D_t images, of jet-part images and of the
    product rule's factor rules only ever extend, and every public
    operation is a pure function of its inputs.
    """

    __slots__ = ("name", "rhs", "allows_par", "letter", "multiplier", "q_family", "z_family",
                 "reference", "_dt_images", "_jet_images", "_factor_rules")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(
        self, name: str, rhs: DiffPoly, allows_par: bool = True, letter: str = "z",
        multiplier: Optional[DiffPoly] = None, q_family: Optional[Family] = None,
        z_family: Optional[Family] = None, reference: Optional[Family] = None,
    ):
        if rhs.has_kind(KIND_PAR) or rhs.has_kind(KIND_T):
            raise ValueError("equation right-hand side must involve jets (and x) only")
        # the images of D_t (t -> 1, x -> 0, z_k -> D_x^k rhs, h_j -> h_{j+2},
        # E -> rhs E); Res(J), its Leibniz tails (G_1(J), ...) and J's D_x
        # tower by packed jet part J; the product rule's shifts by factor
        super().__init__(
            name, rhs, allows_par, letter, multiplier, q_family, z_family, reference,
            {_T_UNIT: DiffPoly.const(1), _X_UNIT: DiffPoly.zero(), _E_UNIT: rhs * exp_poly(1)},
            {},
            {},
        )

    def __repr__(self) -> str:
        return f"EvolutionEquation({self.name}: z_t = {self.rhs})"

    def _dt_image(self, u: int) -> DiffPoly:
        kind, idx = unit_var(u)
        if kind == KIND_JET:
            # D_x^idx(rhs): each power is kept on the one before it
            image = self.rhs
            for _ in range(idx):
                image = x_derivative(image)
        else:
            image = DiffPoly.variable(par(idx + 2))
        self._dt_images[u] = image
        return image

    def _check_par(self, p: DiffPoly) -> None:
        if not self.allows_par and p.has_kind(KIND_PAR):
            raise ValueError(
                f"parameter symbols are not supported in the {self.name} ring"
            )

    def dx(self, p: DiffPoly) -> DiffPoly:
        """Restricted total x-derivative."""
        self._check_par(p)
        return x_derivative(p)

    def dt(self, p: DiffPoly) -> DiffPoly:
        """Restricted total t-derivative (z_t replaced by D_x^k(rhs))."""
        self._check_par(p)
        return derive(p, self._dt_images, self._dt_image)

    def frechet(self, F: DiffPoly, eta: DiffPoly) -> DiffPoly:
        """Frechet derivative of F in the direction eta (on-shell).

        The result is sum_k (dF/dz_k) * D_x^k(eta), the G_0 of
        prolongation_sums.  F may carry powers of E = e^{z_0}, which enter
        the k = 0 coefficient through dE/dz_0 = E, and, where the ring
        allows them, the h_j, which are coefficients.
        """
        self._check_par(F)
        self._check_par(eta)
        return prolongation_sums(F, eta, 1)[0]

    def jet_part_images(self, jet_part: int) -> tuple[dict[int, int], tuple[dict[int, int], ...]]:
        """Res(J) and the Leibniz tails (G_1(J), ..., G_top(J)) of a packed jet part J.

        G_i(J) = sum_{k >= i} C(k, i) dL/dz_k * D_x^{k-i} J, top the order
        of L, and Res(J) = D_t J - L'[J], each a table of integer numerators
        over the denominator of L, nonzero and not to be modified.  Computed
        on first request, by the product rule from the images of a smaller
        part (see _build_images), and kept, so each jet part's images are
        built once however many residuals and solver columns read them.
        """
        images = self._jet_images.get(jet_part)
        if images is None:
            images = self._build_images(jet_part)
        return images[0], images[1]

    def _build_images(self, jet_part: int) -> tuple:
        """Store and return (Res(J), its tails, J's D_x tower) for J = jet_part.

        Res(J) and its tails are int tables over the denominator of L, the
        tower D_x J, ..., D_x^(top-1) J, all that a product f J needs of J
        besides Res(J), int tables over 1.  J = f J', f the z_k or h_j of
        lowest index in J, is built from J' (see _product_images), and J'
        the same way from the table, down to a part already there or to
        E^m, whose images come from D_t and prolongation_sums.  A part with
        an h_j is refused in a ring without them before anything is built.
        """
        if not self.allows_par:
            self._check_par(DiffPoly._make({jet_part: 1}))
        table = self._jet_images
        steps = []  # (J, the unit of its lowest factor), from jet_part down
        J = jet_part
        while J not in table:
            factors = (J + _DIGITS_BIAS) >> _Z0_SHIFT
            if not factors:
                table[J] = self._base_images(J)
                break
            low = (factors & -factors).bit_length() - 1  # a bit of the lowest field
            u = 1 << (low - low % _BITS + _Z0_SHIFT)
            steps.append((J, u))
            J -= u
        for J, u in reversed(steps):
            table[J] = self._product_images(J - u, u, table[J - u])
        return table[jet_part]

    def _base_images(self, J: int) -> tuple:
        """The images of J = E^m (m = 0 included) by D_t and prolongation_sums.

        Each is an integer combination of L's coefficients, so it is exactly
        a table over L's denominator.
        """
        p = DiffPoly._make({J: 1})
        residual = self.dt(p)
        count = len(jet_partials(self.rhs))
        # G_0(J), G_1(J), ..., G_top(J), read off the tower J, ..., D_x^top J
        gs = prolongation_sums(self.rhs, p, count)
        if gs:
            residual = residual - gs[0]
        # D_x J .. D_x^(top-1) J, kept on p by prolongation_sums
        tower = x_tower(p, count)[1:-1]
        den = self.rhs._den
        res, *tails = (
            {m: c * (den // q._den) for m, c in q._nums.items()} for q in (residual, *gs[1:])
        )
        return res, tuple(tails), tuple(q._nums for q in tower)

    def _product_images(self, Jp: int, u: int, images: tuple) -> tuple:
        """The images of J = f J', f of unit u, from J''s images, by the product rule.

        With D_x^i f = z_{k+i} (or h_{j+i}) and D_t f = D_x^k L (or h_{j+2}),

            Res(f J') = f Res(J') + J' D_t f
                        - sum_{m >= 1} dL/dz_m sum_{i=1}^{m} C(m, i) D_x^i f D_x^(m-i) J',
            D_x^j(f J') = sum_{i=0}^{j} C(j, i) D_x^i f D_x^(j-i) J',

        and the tails are read off J's tower.  f and J' are monomials, so
        every product is a shift of packed keys, and the tables come out in
        _build_images's format as they are formed.
        """
        res_rule, tower_rules, tail_rules = self._factor_rule(u)
        residual, _, tower = images
        residual = _shift_sum({k + u: c for k, c in residual.items()}, Jp, tower, res_rule)
        tower = [_shift_sum({}, Jp, tower, rule) for rule in tower_rules]
        J = Jp + u
        tails = [_shift_sum({}, J, tower, rule) for rule in tail_rules]
        # every key, the cancelled ones too, as derive checks them
        _check_fields(chain(residual, *tower, *tails))
        return _nonzero(residual), tuple(map(_nonzero, tails)), tuple(map(_nonzero, tower))

    def _factor_rule(self, u: int) -> tuple:
        """What _product_images reads for a factor f of unit u, kept per u.

        The _shift_rule of Res(f J') - f Res(J') and of each level
        D_x^j(f J'), j = 1 .. top-1, over the tower of J', and of each tail
        G_i(J) over the tower of J = f J', every weight a numerator over the
        denominator of L.
        """
        rule = self._factor_rules.get(u)
        if rule is not None:
            return rule
        kind, idx = unit_var(u)
        var = jet if kind == KIND_JET else par
        den = self.rhs._den
        partials = [
            [(m, c * (den // p._den)) for m, c in p._nums.items()] for p in jet_partials(self.rhs)
        ]
        top = len(partials) - 1
        # D_x^i f for i = 0 .. top, each one variable
        dx_f = [unit(var(idx + i)) for i in range(top + 1)]
        image = self._dt_images.get(u)
        if image is None:
            image = self._dt_image(u)
        # J' D_t f, then the terms with i >= 1 of each dL/dz_m D_x^m(f J')
        res_terms = [(0, m, c * (den // image._den)) for m, c in image._nums.items()]
        res_terms += [
            (m - i, pm + dx_f[i], -comb(m, i) * c)
            for m in range(1, top + 1)
            for i in range(1, m + 1)
            for pm, c in partials[m]
        ]
        rule = self._factor_rules[u] = (
            _shift_rule(res_terms),
            [
                _shift_rule((j - i, dx_f[i], comb(j, i)) for i in range(j + 1))
                for j in range(1, top)
            ],
            [
                _shift_rule(
                    (k - i, pm, comb(k, i) * c) for k in range(i, top + 1) for pm, c in partials[k]
                )
                for i in range(1, top + 1)
            ],
        )
        return rule

    def _leibniz_residual(self, nums: dict[int, int]) -> dict[int, int]:
        """The invariance residual of sum_m nums[m] m, as numerators over L's denominator.

        Each term c t^a x^b J adds c times the Leibniz expansion of the
        module docstring, read from J's images (see jet_part_images), which
        are all over that denominator.  The result's numerators are nonzero
        and its fields checked; the caller divides by the input's own
        denominator.
        """
        table = self._jet_images
        den = self.rhs._den
        out: dict[int, int] = {}
        get = out.get
        for m, c in nums.items():
            tx = m & _TX_MASK
            images = table.get(m - tx)
            if images is None:
                images = self._build_images(m - tx)
            residual, tails, _ = images
            b = tx >> _BITS
            weight, shift = c, tx
            for i, image in enumerate((residual, *tails[:b])):
                if i:
                    # G_i(J) enters at t^a x^(b-i) with weight -c b!/(b-i)!
                    weight = (-c if i == 1 else weight) * (b - i + 1)
                    shift -= _X_UNIT
                for im, ic in image.items():
                    k = im + shift
                    out[k] = get(k, 0) + weight * ic
            a = tx & _MASK
            if a:
                k = m - _T_UNIT
                out[k] = get(k, 0) + c * a * den
        # an x in L can push a power of x past its field
        _check_fields(out)
        return _nonzero(out)


class Characteristic(Record):
    """A reduced evolutionary-symmetry characteristic tied to one equation.

    The body depends only on t, x, jet variables, (for parameter families)
    the h_j symbols and (for the potential-Burgers parameter family) powers
    of E = e^w; bodies over the Burgers ring must be free of the h_j
    symbols.  A Record whose equality and hashing ignore the label.
    """

    __slots__ = ("equation", "body", "label")

    def __init__(
        self, equation: EvolutionEquation, body: DiffPoly, label: Optional[object] = None
    ):
        super().__init__(equation, body, label)

    def _key(self) -> tuple:
        return (self.equation, self.body)

    def __str__(self) -> str:
        return f"{self.body}"


def invariance_residual(eq: EvolutionEquation, eta) -> DiffPoly:
    """D_t(eta) - L'[eta]; zero exactly when eta is a generalized symmetry.

    Accepts a Characteristic or its body.  The body may carry powers of
    E = e^w, which differentiate by D_x E = z_1 E and D_t E = L E.  One
    pass over eta's terms by the Leibniz rule (see the module docstring),
    exact for any body since L is free of t; a jet part with an h_j is
    refused in a ring without them when its images are first built.
    """
    if isinstance(eta, Characteristic):
        if eta.equation is not eq:
            raise ValueError("characteristic belongs to a different equation")
        eta = eta.body
    return DiffPoly._make(eq._leibniz_residual(eta._nums), eta._den * eq.rhs._den)


class Family(Enum):
    HEAT_Q = "heat_q"
    POT_Q = "pot_q"
    BURGERS_Q = "burgers_q"
    HEAT_Z = "heat_z"
    POT_Z = "pot_z"


Q_FAMILIES = (Family.HEAT_Q, Family.POT_Q, Family.BURGERS_Q)
Z_FAMILIES = (Family.HEAT_Z, Family.POT_Z)

# The translation multipliers are M = 0, w_1 and -v/2, and the solver
# compares Burgers' solutions with its own family.
HEAT = EvolutionEquation(
    "heat", jet_poly(2), True, "u", DiffPoly.zero(), Family.HEAT_Q, Family.HEAT_Z
)
POTBURGERS = EvolutionEquation(
    "potburgers", jet_poly(2) + jet_poly(1) * jet_poly(1), True, "w", jet_poly(1),
    Family.POT_Q, Family.POT_Z,
)
BURGERS = EvolutionEquation(
    "burgers", jet_poly(2) - jet_poly(0) * jet_poly(1), False, "v",
    jet_poly(0) * Fraction(-1, 2), Family.BURGERS_Q, reference=Family.BURGERS_Q,
)

EQUATIONS = {eq.name: eq for eq in (HEAT, POTBURGERS, BURGERS)}
