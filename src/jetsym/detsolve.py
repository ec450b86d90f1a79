"""Bounded-ansatz solver for the generalized-symmetry determining equation.

A polynomial ansatz eta = sum_a c_a m_a over monomials in t, x, z_0..z_n
(with configurable degree bounds) turns the invariance condition
D_t eta - L'[eta] = 0 into an exact linear system for the coefficients:
the residual of each ansatz monomial is scattered into rows indexed by the
monomials of the residual.  Residuals of t^a x^b J are expanded by the
Leibniz rule from images computed once per jet part J.

The kernel is found on the image side: the columns' residual vectors are
taken in column order, each reduced by its highest row label against the
earlier ones while tracking the column combination.  A column whose
residual reduces to zero is free, and the tracked combination is its kernel
vector - the unique one with entry 1 at that column, 0 at the other free
columns and support on columns up to it.  Kernel basis vectors are
normalized to leading entry 1, so identical inputs always produce identical
bases.

For the Burgers equation the solver reproduces the graded dimension count
n + 1 at each order: the cumulative dimension through order n is
n (n + 3) / 2, and the solution space coincides with the span of the
symmetry family members of order <= n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

from .diffring import DiffPoly, Monomial, T_VAR, X_VAR, jet, mono_key
from .jetflow import (
    BURGERS,
    Characteristic,
    EvolutionEquation,
    invariance_residual,
    x_derivative,
)
from .symfam import Family, index_range, q_char

DEFAULT_MONOMIAL_CAP = 200_000

_ZERO = Fraction(0)
_ONE = Fraction(1)


class AnsatzTooLarge(RuntimeError):
    """The enumerated monomial basis exceeds the configured cap."""


@dataclass(frozen=True)
class Ansatz:
    """Monomial ansatz for an order-n symmetry with explicit degree bounds."""

    equation: EvolutionEquation
    order: int
    jet_degree: int = -1  # -1 means "default to order"
    x_degree: int = -1
    t_degree: int = -1
    monomial_cap: int = DEFAULT_MONOMIAL_CAP

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("ansatz order must be >= 0")
        for name in ("jet_degree", "x_degree", "t_degree"):
            if getattr(self, name) == -1:
                object.__setattr__(self, name, max(self.order, 1))

    def monomials(self) -> list[Monomial]:
        """The ansatz basis, sorted in the global monomial order."""
        jet_parts: list[Monomial] = []

        def extend(idx: int, budget: int, acc: list):
            if idx > self.order:
                jet_parts.append(tuple(acc))
                return
            for e in range(budget + 1):
                if e:
                    acc.append((jet(idx), e))
                extend(idx + 1, budget - e, acc)
                if e:
                    acc.pop()

        extend(0, self.jet_degree, [])

        count = len(jet_parts) * (self.x_degree + 1) * (self.t_degree + 1)
        if count > self.monomial_cap:
            raise AnsatzTooLarge(
                f"{count} ansatz monomials exceed the cap {self.monomial_cap}"
            )

        monos = []
        for a in range(self.t_degree + 1):
            for b in range(self.x_degree + 1):
                prefix = []
                if a:
                    prefix.append((T_VAR, a))
                if b:
                    prefix.append((X_VAR, b))
                prefix_t = tuple(prefix)
                for jp in jet_parts:
                    monos.append(prefix_t + jp)
        monos.sort(key=mono_key)
        return monos


@dataclass
class LinearSystem:
    """Sparse exact linear system; rows are labelled, columns are indexed."""

    ncols: int
    rows: dict = field(default_factory=dict)  # label -> {col index: Fraction}
    columns: tuple = ()  # optional column labels (ansatz monomials)

    @staticmethod
    def from_dense(matrix: Sequence[Sequence]) -> "LinearSystem":
        ncols = len(matrix[0]) if matrix else 0
        rows = {}
        for i, r in enumerate(matrix):
            entries = {j: Fraction(v) for j, v in enumerate(r) if v}
            if entries:
                rows[i] = entries
        return LinearSystem(ncols=ncols, rows=rows)


def _split_prefix(mono: Monomial) -> tuple[int, int, Monomial]:
    """Split t^a x^b J into (a, b, J); t and x sort before every jet variable."""
    a = b = i = 0
    if mono and mono[0][0] == T_VAR:
        a = mono[0][1]
        i = 1
    if i < len(mono) and mono[i][0] == X_VAR:
        b = mono[i][1]
        i += 1
    return a, b, mono[i:]


def _x_power(b: int) -> DiffPoly:
    return DiffPoly.variable(X_VAR, b) if b else DiffPoly.const(1)


def _jet_part_images(eq: EvolutionEquation, jet_part: Monomial):
    """Res(J) and the Leibniz tails G_1(J) .. G_ord(J) of one jet part J.

    G_i(J) = sum_{k >= i} C(k, i) dL/dz_k * D_x^{k-i} J, so that G_0(J) is
    the Frechet derivative L'[J] and Res(J) = D_t J - G_0(J).
    """
    top = eq.rhs.order()
    ord_l = int(top) if top >= 0 else 0
    J = DiffPoly({jet_part: 1})
    dx_powers = [J]
    for _ in range(ord_l):
        dx_powers.append(x_derivative(dx_powers[-1]))
    partials = [eq.rhs.partial(jet(k)) for k in range(ord_l + 1)]
    tails = []
    for i in range(ord_l + 1):
        g = DiffPoly.zero()
        for k in range(i, ord_l + 1):
            if partials[k]:
                g = g + partials[k] * dx_powers[k - i] * comb(k, i)
        tails.append(g)
    return eq.dt(J) - tails[0], tails[1:]


def _x_power_residual(b: int, part) -> dict[Monomial, Fraction]:
    """Res(x^b J) = x^b Res(J) - sum_{i=1}^{min(b, ord L)} b!/(b-i)! x^(b-i) G_i(J)."""
    residual, tails = part
    out = _x_power(b) * residual
    falling = 1
    for i, tail in enumerate(tails[:b], start=1):
        falling *= b - i + 1
        out = out - _x_power(b - i) * tail * falling
    return out.terms


def build_system(ansatz: Ansatz) -> LinearSystem:
    """Scatter the invariance residual of each ansatz monomial into rows.

    Residuals are expanded by the Leibniz rule from images cached once per
    jet part J (see _jet_part_images) and once per x-power (see
    _x_power_residual).  Since the right-hand side L is free of t,

        Res(t^a x^b J) = t^a Res(x^b J) + a t^(a-1) x^b J,

    where Res(x^b J) is free of t, so the two parts never share a monomial.
    """
    columns = ansatz.monomials()
    eq = ansatz.equation
    images: dict[Monomial, tuple] = {}
    x_residuals: dict[tuple[int, Monomial], dict] = {}
    rows: dict[Monomial, dict[int, Fraction]] = {}
    for col, mono in enumerate(columns):
        a, b, jet_part = _split_prefix(mono)
        residual = x_residuals.get((b, jet_part))
        if residual is None:
            part = images.get(jet_part)
            if part is None:
                part = images[jet_part] = _jet_part_images(eq, jet_part)
            residual = x_residuals[(b, jet_part)] = _x_power_residual(b, part)
        t_factor = ((T_VAR, a),) if a else ()
        for rmono, coeff in residual.items():
            rows.setdefault(t_factor + rmono, {})[col] = coeff
        if a:
            lowered = mono[1:] if a == 1 else ((T_VAR, a - 1),) + mono[1:]
            rows.setdefault(lowered, {})[col] = Fraction(a)
    return LinearSystem(ncols=len(columns), rows=rows, columns=tuple(columns))


# -- exact elimination ---------------------------------------------------------


def _eliminate(vectors):
    """Reduce each vector against its predecessors by its highest key.

    Vectors are sparse {key: Fraction} dicts over totally ordered keys.  Each
    one is reduced against a lead -> (reduced vector, combination) table,
    always at its current highest key, while that key leads a stored vector.
    Yields, per input vector in turn, None when it is independent of the
    vectors before it (its remainder joins the table), or else the exact
    dependency {index: coeff}, with coefficient 1 at its own index and support
    on earlier independent vectors, whose combination vanishes.
    """
    table: dict = {}
    for index, vec in enumerate(vectors):
        vec = dict(vec)
        combo = {index: _ONE}
        while vec:
            lead = max(vec)
            entry = table.get(lead)
            if entry is None:
                break
            pivot, pivot_combo = entry
            factor = -Fraction(vec[lead]) / pivot[lead]
            _axpy(vec, factor, pivot)
            _axpy(combo, factor, pivot_combo)
        if vec:
            table[lead] = (vec, combo)
            yield None
        else:
            yield combo


def _axpy(target: dict, factor: Fraction, source: dict) -> None:
    """target += factor * source, dropping cancelled entries."""
    for key, v in source.items():
        s = target.get(key, 0) + factor * v
        if s:
            target[key] = s
        else:
            target.pop(key, None)


def _row_sort_key(label):
    if isinstance(label, tuple):
        return (0, mono_key(label))
    return (1, label)


def nullspace(system: LinearSystem) -> list[tuple[Fraction, ...]]:
    """Exact rational kernel basis, one vector per free column.

    Each column's residual vector is reduced against the earlier columns'
    (see _eliminate), keyed by its rows' positions in _row_sort_key order; a
    column is free when its residual lies in the span of the earlier ones.
    Vectors are returned in increasing free-column order, each normalized
    so that its first nonzero entry equals 1.
    """
    ordered = sorted(system.rows, key=_row_sort_key)
    columns: list[dict[int, Fraction]] = [{} for _ in range(system.ncols)]
    for pos, label in enumerate(ordered):
        for col, coeff in system.rows[label].items():
            if coeff:
                columns[col][pos] = coeff
    basis = []
    for combo in _eliminate(columns):
        if combo is None:
            continue
        lead = combo[min(combo)]
        if lead != 1:
            combo = {c: v / lead for c, v in combo.items()}
        basis.append(tuple(combo.get(c, _ZERO) for c in range(system.ncols)))
    return basis


def _rank_of_bodies(bodies) -> int:
    monos = sorted({m for b in bodies for m in b.terms}, key=mono_key)
    index = {m: i for i, m in enumerate(monos)}
    vectors = ({index[m]: c for m, c in b.terms.items()} for b in bodies)
    return sum(1 for dep in _eliminate(vectors) if dep is None)


def family_bodies(order: int) -> list[DiffPoly]:
    """The Burgers family members with 1 <= k + l <= order, in index order."""
    return [
        q_char(Family.BURGERS_Q, k, l).body
        for k, l in index_range(order, include_origin=False)
    ]


@dataclass(frozen=True)
class SolveReport:
    order: int
    dimension: int
    basis: tuple[Characteristic, ...]
    family_span_matches: Optional[bool]  # None when no reference family applies
    ansatz_size: int


def solve_symmetries(
    eq: EvolutionEquation,
    order: int,
    jet_degree: int = -1,
    x_degree: int = -1,
    t_degree: int = -1,
    monomial_cap: int = DEFAULT_MONOMIAL_CAP,
    experimental: bool = False,
) -> SolveReport:
    """Solve the determining equation over a bounded polynomial ansatz.

    The supported equation is Burgers; other equations run only behind the
    experimental flag (a polynomial ansatz cannot represent their full
    parameter families) and skip the family span comparison.
    """
    if eq is not BURGERS and not experimental:
        raise ValueError(
            "solve_symmetries supports the Burgers equation; "
            "pass experimental=True to run other equations anyway"
        )
    ansatz = Ansatz(eq, order, jet_degree, x_degree, t_degree, monomial_cap)
    system = build_system(ansatz)
    kernel = nullspace(system)
    basis = []
    for vec in kernel:
        terms = {
            mono: coeff for mono, coeff in zip(system.columns, vec) if coeff
        }
        body = DiffPoly(terms)
        residual = invariance_residual(eq, body)
        if not residual.is_zero():
            raise RuntimeError("internal error: kernel vector fails the residual check")
        basis.append(Characteristic(eq, body))
    span_matches: Optional[bool] = None
    if eq is BURGERS:
        family = family_bodies(order)
        solver_rank = len(basis)
        family_rank = _rank_of_bodies(family)
        joint_rank = _rank_of_bodies([c.body for c in basis] + family)
        span_matches = solver_rank == family_rank == joint_rank
    return SolveReport(
        order=order,
        dimension=len(basis),
        basis=tuple(basis),
        family_span_matches=span_matches,
        ansatz_size=system.ncols,
    )
