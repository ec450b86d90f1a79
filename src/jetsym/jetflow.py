"""Evolution equations and their on-shell calculus.

An evolution equation z_t = L[z] is reduced to the parametric jet
coordinates (t, x, z_0, z_1, ...).  The restricted total derivatives act as

    D_x = d/dx + sum_k z_{k+1} d/dz_k + sum_j h_{j+1} d/dh_j + z_1 E d/dE,
    D_t = d/dt + sum_k (D_x^k L) d/dz_k + sum_j h_{j+2} d/dh_j + L E d/dE,

where the parameter symbols h_j differentiate by index shift because the
symbolic parameter function h(t, x) solves the linear heat equation
(h_t = h_xx), and E = e^{z_0} by the chain rule.  Both are the one
routine diffring.derive, driven by a table of the images of the variables
kept here.  Three equations are built in:

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
Each equation keeps Res(J) and its tails per jet part, computed once from
D_t J and one tower J, D_x J, ..., D_x^top J, with G_0(J) = L'[J]; the
powers of t and x only shift packed keys.  The solver reads the same
expansion level by level: detsolve factors Res over the jet parts alone,
and each coefficient of t^a x^b reads the tails of the levels above it.
"""

from __future__ import annotations

from math import comb, lcm
from typing import Optional

from .diffring import (
    _BITS,
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
    _widened,
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


def x_antiderivative(p: DiffPoly) -> Optional[DiffPoly]:
    """A g with D_x g = p, or None when p is not a total x-derivative.

    p must be free of h_j and E; g has no integration constant beyond what
    the jets fix (opcalc.dx_preimage pins the kernel branch).  The
    remainder is one numerator table over one denominator.  Per jet order
    k, from the top down, one pass reads the terms that carry z_k (None if
    one carries it squared) and integrates them in z_{k-1} into that
    order's piece over one lcm of the divisors; D_x of the piece, taken in
    place off the table, cancels them and brings no higher jet.  What is
    left must be free of z_0, and its x-antiderivative is the last piece.
    The piece of order k carries z_{k-1} and no higher jet, so the pieces
    share no monomial and g is their union.
    """
    rest, den = dict(p._nums), p._den
    pieces = []
    top = p.order()
    for k in range(top if top > 0 else 0, 0, -1):
        u = unit(jet(k))
        off = u.bit_length() - 1
        below = off - 2 * _BITS  # z_{k-1}'s field
        moved = []  # (key integrated in z_{k-1}, numerator, divisor)
        for m, c in rest.items():
            e = m >> off & _MASK
            if e:
                if e > 1:
                    return None
                moved.append((m - u + (1 << below), c, (m >> below & _MASK) + 1))
        if not moved:
            continue
        lead = lcm(*(d for *_, d in moved))
        nums = {m: c * (lead // d) for m, c, d in moved}
        _check_fields(nums)
        piece = DiffPoly._make(nums, den * lead)
        pieces.append(piece)
        dx = derive(piece, _DX_IMAGES, _dx_image)
        d = dx._den
        if den % d:
            rest, den = _widened(rest, den, d)
        f = den // d
        get = rest.get
        for m, c in dx._nums.items():
            c = get(m, 0) - c * f
            if c:
                rest[m] = c
            else:
                del rest[m]
    # The pass of order k leaves no jet above z_{k-1}, so only z_0 can be
    # left, and a tail that carries it is not a derivative.
    tail = DiffPoly._make(rest, den)
    if tail.degree(jet(0)):
        return None
    pieces.append(tail.integrate(X_VAR))
    lead = lcm(*(q._den for q in pieces))
    nums = {}
    for q in pieces:
        f = lead // q._den
        nums.update((m, c * f) for m, c in q._nums.items())
    return DiffPoly._make(nums, lead)


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


def prolongation_sums(F: DiffPoly, eta: DiffPoly, count: int) -> list[DiffPoly]:
    """G_0, ..., G_{count-1}: G_i = sum_{k >= i} C(k, i) dF/dz_k * D_x^{k-i} eta.

    The one prolongation sum: all read off jet_partials(F) and one tower
    eta, D_x eta, ..., D_x^top eta, top the order of F.  G_0 is the Frechet
    derivative F'[eta].
    """
    partials = jet_partials(F)
    tower = [eta]
    for _ in partials[1:]:
        tower.append(x_derivative(tower[-1]))
    return [
        sum_of_products((partials[k], tower[k - i], comb(k, i)) for k in range(i, len(partials)))
        for i in range(count)
    ]


class EvolutionEquation:
    """A named evolution equation z_t = rhs.

    Instances are effectively immutable: the tables of D_t images and of
    jet-part residual images only ever extend, and every public operation
    is a pure function of its inputs.
    """

    def __init__(self, name: str, rhs: DiffPoly, allows_par: bool = True):
        if rhs.has_kind(KIND_PAR) or rhs.has_kind(KIND_T):
            raise ValueError("equation right-hand side must involve jets (and x) only")
        self.name = name
        self.rhs = rhs
        self.allows_par = allows_par
        # D_t: t -> 1, x -> 0, z_k -> D_x^k rhs, h_j -> h_{j+2}, E -> rhs E.
        self._dt_images: Images = {
            unit(T_VAR): DiffPoly.const(1),
            unit(X_VAR): DiffPoly.zero(),
            _E_UNIT: rhs * exp_poly(1),
        }
        # Res(J) and its Leibniz tails (G_1(J), ...) by packed jet part J
        self._jet_images: dict[int, tuple[DiffPoly, tuple[DiffPoly, ...]]] = {}

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

    def jet_part_images(self, jet_part: int) -> tuple[DiffPoly, tuple[DiffPoly, ...]]:
        """Res(J) and the Leibniz tails (G_1(J), ..., G_top(J)) of a packed jet part J.

        G_i(J) = sum_{k >= i} C(k, i) dL/dz_k * D_x^{k-i} J, all read off
        one tower J, D_x J, ..., D_x^top J by prolongation_sums, top the
        order of L; G_0(J) is the Frechet derivative L'[J], so
        Res(J) = D_t J - G_0(J).
        Computed on first request and kept, so each jet part's images are
        built once however many residuals and solver columns read them.
        """
        images = self._jet_images.get(jet_part)
        if images is None:
            J = DiffPoly._make({jet_part: 1})
            # D_t first: it refuses an h_j outside a ring that allows them
            residual = self.dt(J)
            # G_0(J), G_1(J), ..., G_top(J)
            gs = prolongation_sums(self.rhs, J, len(jet_partials(self.rhs)))
            if gs:
                residual = residual - gs[0]
            images = self._jet_images[jet_part] = (residual, tuple(gs[1:]))
        return images

    def _leibniz_residual(self, nums: dict[int, int]) -> tuple[dict[int, int], int]:
        """The invariance residual of sum_m nums[m] m, as (numerators, denominator).

        Each term c t^a x^b J adds c times the Leibniz expansion of the
        module docstring, read from jet_part_images(J); the images'
        denominators are widened into one as derive does.  The result's
        numerators are nonzero and its fields checked; the caller divides
        by the input's own denominator.
        """
        table = self._jet_images
        out: dict[int, int] = {}
        get = out.get
        den = 1  # common denominator of the images used so far
        for m, c in nums.items():
            tx = m & _TX_MASK
            images = table.get(m - tx)
            if images is None:
                images = self.jet_part_images(m - tx)
            residual, tails = images
            b = tx >> _BITS
            weight, shift = c, tx
            for i, image in enumerate((residual, *tails[:b])):
                if i:
                    # G_i(J) enters at t^a x^(b-i) with weight -c b!/(b-i)!
                    weight = (-c if i == 1 else weight) * (b - i + 1)
                    shift -= _X_UNIT
                d = image._den
                if den % d:
                    out, den = _widened(out, den, d)
                    get = out.get
                w = weight * (den // d)
                for im, ic in image._nums.items():
                    k = im + shift
                    out[k] = get(k, 0) + w * ic
            a = tx & _MASK
            if a:
                k = m - _T_UNIT
                out[k] = get(k, 0) + c * a * den
        # an x in L can push a power of x past its field
        _check_fields(out)
        return _nonzero(out), den


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
    nums, den = eq._leibniz_residual(eta._nums)
    return DiffPoly._make(nums, eta._den * den)


HEAT = EvolutionEquation("heat", jet_poly(2), allows_par=True)
POTBURGERS = EvolutionEquation(
    "potburgers", jet_poly(2) + jet_poly(1) * jet_poly(1), allows_par=True
)
BURGERS = EvolutionEquation(
    "burgers", jet_poly(2) - jet_poly(0) * jet_poly(1), allows_par=False
)

EQUATIONS = {eq.name: eq for eq in (HEAT, POTBURGERS, BURGERS)}
