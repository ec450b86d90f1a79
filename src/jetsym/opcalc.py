"""Operator expressions and the formal integration machinery.

Operators are small ASTs built from the total derivative D_x (and D_t for
identity probing), formal integration D_x^{-1}, multiplication by a
polynomial, rational scaling, sums, and right-to-left compositions.  The
built-in constructors cover the recursion operators of the three equations:

    heat:               D_x                and  t D_x + x/2
    potential Burgers:  D_x + w_1          and  t (D_x + w_1) + x/2
    Burgers:            D_x - v/2          and  t (D_x - v/2) + x/2
    Burgers, nonlocal:  D_x (D_x - v/2) D_x^{-1}   and   D_x (t (D_x - v/2) + x/2) D_x^{-1}

that is, a translation T = D_x + M and the boost t T + x/2, with M the
multiplier of the equation's record (jetflow.EvolutionEquation), which
also builds its families.

D_x^{-1} is only ever applied to total x-derivatives; membership is
certified by the Euler operator (variational derivative), which vanishes
exactly on the image of D_x for polynomials with polynomial (t, x)
coefficients.  dx_preimage integrates from one numerator table, one pass
per jet order (jetflow.x_antiderivative), and operator_identity_probe
normalizes both sides first (normalize_op), so that a sum of terms that
all start with D_x^{-1} and end with D_x, as the [R1, R2] commutator
does, takes one preimage and one D_x per probe.

The kernel of D_x on this ring consists of the polynomials in t alone, so a
preimage is only determined up to such terms.  dx_preimage pins the branch
canonically: the returned g has no bare constant term, and the t-only part
of its potential defect D_t g - sum_{k>=1} (dL/dz_k) D_x^k g vanishes.  On
characteristics of generalized symmetries this selects exactly the
potential that the recursion operators need, which makes the generation
identities between the operator powers and the symmetry families exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .diffring import (
    DiffPoly,
    KIND_EXP,
    KIND_PAR,
    KIND_T,
    KIND_X,
    T_VAR,
    Record,
    jet,
    t_poly,
    x_poly,
)
from .jetflow import (
    BURGERS,
    EvolutionEquation,
    invariance_residual,
    jet_partials,
    x_antiderivative,
    x_derivative,
)


class NotATotalDerivative(ValueError):
    """Raised by D_x^{-1} on input outside the image of D_x.

    Carries the (nonzero) Euler residual of the offending polynomial.
    """

    def __init__(self, message: str, euler_residual: DiffPoly):
        super().__init__(message)
        self.euler_residual = euler_residual


# -- operator AST ------------------------------------------------------------


class OperatorExpr(Record):
    """Base class for operator AST nodes.

    A node is a Record: immutable, and equal only to a node of the same type
    with equal fields (the names in __slots__); Dx() != Dt().
    """

    __slots__ = ()


class Dx(OperatorExpr):
    __slots__ = ()


class Dt(OperatorExpr):
    """Total t-derivative; admitted only for operator identity probing."""

    __slots__ = ()


class DxInv(OperatorExpr):
    __slots__ = ()


class MulBy(OperatorExpr):
    __slots__ = ("factor",)


class Scale(OperatorExpr):
    __slots__ = ("coeff",)


class Sum(OperatorExpr):
    __slots__ = ("ops",)


class Compose(OperatorExpr):
    """Composition, applied right to left; the empty composition is the identity."""

    __slots__ = ("ops",)


def op_sum(*ops: OperatorExpr) -> OperatorExpr:
    return Sum(tuple(ops))


def op_compose(*ops: OperatorExpr) -> OperatorExpr:
    return Compose(tuple(ops))


def op_scale(c: Fraction | int) -> OperatorExpr:
    return Scale(Fraction(c))


def op_power(op: OperatorExpr, n: int) -> OperatorExpr:
    if n < 0:
        raise ValueError("operator powers must be nonnegative")
    return Compose((op,) * n)


def identity_op() -> OperatorExpr:
    return Compose(())


def commutator_op(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    return Sum((Compose((a, b)), Compose((Scale(Fraction(-1)), b, a))))


def translation_op(eq: EvolutionEquation) -> OperatorExpr:
    """The first-order recursion operator tied to space translations.

    T = D_x + M, with M the equation's multiplier; an equation whose
    multiplier is None has no built-in recursion operators.
    """
    shift = eq.multiplier
    if shift is None:
        raise ValueError(f"no built-in recursion operators for {eq.name}")
    return Sum((Dx(), MulBy(shift))) if shift else Dx()


def boost_op(eq: EvolutionEquation) -> OperatorExpr:
    """The recursion operator tied to Galilean boosts, B = t T + x/2."""
    return Sum((Compose((MulBy(t_poly()), translation_op(eq))), MulBy(x_poly() * Fraction(1, 2))))


def recursion_ops() -> tuple[OperatorExpr, OperatorExpr]:
    """The two nonlocal recursion operators of the Burgers equation."""
    r1 = Compose((Dx(), translation_op(BURGERS), DxInv()))
    r2 = Compose((Dx(), boost_op(BURGERS), DxInv()))
    return r1, r2


def potential_defect_op(eq: EvolutionEquation) -> OperatorExpr:
    """D_t - sum_{k>=1} (dL/dz_k) D_x^k; annihilates potentials of symmetries.

    For the Burgers equation this is the operator D_t + v D_x - D_x^2 that
    commutes with both local recursion operators.
    """
    ops: list[OperatorExpr] = [Dt()]
    for k, c in enumerate(jet_partials(eq.rhs)):
        if k and c:
            ops.append(Compose((Scale(Fraction(-1)), MulBy(c), op_power(Dx(), k))))
    return Sum(tuple(ops))


def apply(op: OperatorExpr, eq: EvolutionEquation, p: DiffPoly) -> DiffPoly:
    """Evaluate an operator expression on a polynomial."""
    if isinstance(op, Dx):
        return eq.dx(p)
    if isinstance(op, Dt):
        return eq.dt(p)
    if isinstance(op, DxInv):
        return dx_preimage(eq, p)
    if isinstance(op, MulBy):
        return op.factor * p
    if isinstance(op, Scale):
        return p * op.coeff
    if isinstance(op, Sum):
        result = DiffPoly.zero()
        for sub in op.ops:
            result = result + apply(sub, eq, p)
        return result
    if isinstance(op, Compose):
        for sub in reversed(op.ops):
            p = apply(sub, eq, p)
        return p
    raise TypeError(f"not an operator expression: {op!r}")


# -- Euler operator and formal integration -----------------------------------


def euler_residual(p: DiffPoly) -> DiffPoly:
    """Variational derivative sum_k (-D_x)^k (dp/dz_k) in the free jet ring.

    Zero exactly when p is a total x-derivative of a differential
    polynomial (within the class of polynomial (t, x) coefficients).
    """
    if p.has_kind(KIND_PAR) or p.has_kind(KIND_EXP):
        raise ValueError("Euler operator requires a polynomial free of h_j and e^w")
    top = p.order()
    if top < 0:
        return DiffPoly.zero()
    # Horner form: one D_x per order instead of k for the k-th term.
    top = int(top)
    result = p.partial(jet(top))
    for k in range(top - 1, -1, -1):
        result = p.partial(jet(k)) - x_derivative(result)
    return result


class IntegrabilityCertificate(NamedTuple):
    euler_residual: DiffPoly
    is_total_derivative: bool


def integrability_certificate(p: DiffPoly) -> IntegrabilityCertificate:
    res = euler_residual(p)
    return IntegrabilityCertificate(res, res.is_zero())


def dx_preimage(eq: EvolutionEquation, p: DiffPoly) -> DiffPoly:
    """Return g with D_x(g) = p, for p in the image of D_x.

    The jets are integrated from one numerator table, one pass per jet
    order (jetflow.x_antiderivative: p must be linear in its top jet at
    each step, and the jet-free rest is integrated with respect to x), and
    the kernel branch is fixed as described in the module docstring.
    Raises NotATotalDerivative, carrying euler_residual(p), when p is not a
    total x-derivative.
    """
    if p.has_kind(KIND_PAR) or p.has_kind(KIND_EXP):
        raise ValueError("formal integration requires a polynomial free of h_j and e^w")
    g = x_antiderivative(p)
    if g is None:
        raise NotATotalDerivative("polynomial is not a total x-derivative", euler_residual(p))

    # Fix the t-only kernel branch via the potential defect
    # D_t g - sum_{k>=1} (dL/dz_k) D_x^k g.  When every term of L carries a
    # jet, D_t and D_x map terms with a jet to terms with a jet, so only the
    # jet-free part of g reaches the t-only part of the defect.
    rhs_jet_free = eq.rhs.restrict_to_kinds((KIND_X, KIND_EXP))
    part = g if rhs_jet_free else g.restrict_to_kinds((KIND_T, KIND_X))
    defect = invariance_residual(eq, part) + eq.rhs.partial(jet(0)) * part
    sigma = defect.restrict_to_kinds((KIND_T,))
    if sigma:
        g = g - sigma.integrate(T_VAR)
    # D_x g = p exactly, the t-only correction having zero D_x; g is a new
    # value, so its D_x slot can hold p (see jetflow.x_derivative).
    g._dx = p
    return g


def normalize_op(op: OperatorExpr) -> OperatorExpr:
    """Flatten compositions, cancel D_x^{-1} D_x pairs, and apply a common
    first node of a sum's terms once.

    On the reduced ring D_x has the nontrivial kernel of t-only
    polynomials, so a preimage followed by D_x recovers the input exactly
    while D_x followed by a preimage recovers it only up to that kernel.
    Operator identities involving D_x^{-1} (the recursion-operator
    commutator in particular) are statements of the formal calculus in
    which both cancellations are exact; this normalization realizes that
    convention at the AST level, leaving operator application itself
    untouched.

    A sum whose terms are all compositions applying the same node X first
    becomes (sum of the rests) X, which is exact for any X, since X(p) is
    one value: the [R1, R2] probe takes one D_x^{-1} instead of two.  A sum
    whose terms all apply D_x last, after at most a leading Scale (the
    term's coefficient), becomes D_x (sum of the rests, each keeping its
    Scale), which is exact because D_x is linear: the [R1, R2] probe then
    takes one D_x of T B g - B T g instead of one per term.  No other
    last-applied node is factored.
    """
    if isinstance(op, Sum):
        ops = tuple(normalize_op(sub) for sub in op.ops)
        if len(ops) > 1 and all(isinstance(sub, Compose) and sub.ops for sub in ops):
            first = ops[0].ops[-1]
            if all(sub.ops[-1] == first for sub in ops[1:]):
                rests = Sum(tuple(Compose(sub.ops[:-1]) for sub in ops))
                return normalize_op(Compose((rests, first)))
            rests = tuple(_after_dx(sub.ops) for sub in ops)
            if None not in rests:
                return normalize_op(Compose((Dx(), Sum(rests))))
        return Sum(ops)
    if isinstance(op, Compose):
        flat: list[OperatorExpr] = []
        for sub in op.ops:
            subn = normalize_op(sub)
            if isinstance(subn, Compose):
                flat.extend(subn.ops)
            else:
                flat.append(subn)
        out: list[OperatorExpr] = []
        for node in flat:
            # (..., DxInv, Dx, ...) applies Dx first; the pair collapses.
            if out and isinstance(node, Dx) and isinstance(out[-1], DxInv):
                out.pop()
            else:
                out.append(node)
        return Compose(tuple(out))
    return op


def _after_dx(ops: tuple) -> Compose | None:
    """The composition ops without the D_x it applies last, after at most
    a leading Scale, which stays; None when ops does not apply D_x last."""
    lead = ops[:1] if isinstance(ops[0], Scale) else ()
    rest = ops[len(lead):]
    if rest and isinstance(rest[0], Dx):
        return Compose(lead + rest[1:])
    return None


# -- identity probing ---------------------------------------------------------


class ProbeOutcome(NamedTuple):
    probe: DiffPoly
    residual: DiffPoly

    @property
    def equal(self) -> bool:
        return self.residual.is_zero()


class ProbeReport(Record):
    """The outcomes of an identity probe, one per probe polynomial."""

    __slots__ = ("outcomes",)

    @property
    def all_equal(self) -> bool:
        return all(o.equal for o in self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)


def operator_identity_probe(
    lhs: OperatorExpr,
    rhs: OperatorExpr,
    eq: EvolutionEquation,
    probes,
) -> ProbeReport:
    """Evaluate lhs - rhs on each probe and report exact equality per probe.

    Both sides are normalized (see normalize_op) before evaluation, so
    identities stated in the formal D_x^{-1} calculus are probed in that
    calculus.
    """
    lhs = normalize_op(lhs)
    rhs = normalize_op(rhs)
    outcomes = []
    for probe in probes:
        residual = apply(lhs, eq, probe) - apply(rhs, eq, probe)
        outcomes.append(ProbeOutcome(probe, residual))
    return ProbeReport(tuple(outcomes))
