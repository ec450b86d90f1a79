"""Triangular nonlinear coordinates for the Burgers jet space.

The translation recursion operator of the Burgers equation applied
repeatedly to 1 produces polynomials

    zeta_k = (D_x - v/2)^{k+1} 1,   zeta_0 = -v/2,  zeta_1 = -v_x/2 + v^2/4,

with order(zeta_k) = k and leading part -v_k/2, so the zeta_k serve as
coordinates on the solution manifold in place of the jets v_k.  They
satisfy D_x zeta_k = zeta_{k+1} - zeta_0 zeta_k and are annihilated by
D_t + v D_x - D_x^2.  zeta_k is the Burgers chain entry (0, k+1) of
symfam.family_seed_chain, so it is built and cached with the family.

Zeta-coordinate polynomials reuse the jet variable bank of the base ring;
the ZetaPoly wrapper tags them so they cannot be mixed with v-jet
polynomials by accident.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .diffring import DiffPoly, KIND_EXP, KIND_PAR, Record, jet, jet_poly
from .jetflow import BURGERS
from .symfam import Family, family_seed_chain


class OrderExceeded(ValueError):
    """The polynomial involves jets beyond the built coordinate range."""


class ZetaBasis(NamedTuple):
    max_index: int
    zetas: tuple[DiffPoly, ...]  # zetas[k] = (D_x - v/2)^{k+1} 1


class ZetaPoly(Record):
    """A polynomial in t, x and the zeta symbols (jet slots reinterpreted).

    A Record: equal only to a ZetaPoly with an equal poly.
    """

    __slots__ = ("poly",)

    def __str__(self) -> str:
        return str(self.poly)


def build_zetas(max_index: int) -> ZetaBasis:
    if max_index < 0:
        raise ValueError("max_index must be >= 0")
    zetas = tuple(
        family_seed_chain(Family.BURGERS_Q, 0, k + 1) for k in range(max_index + 1)
    )
    return ZetaBasis(max_index, zetas)


class ZetaIdentityReport(NamedTuple):
    derivative_ok: tuple[bool, ...]  # D_x zeta_k = zeta_{k+1} - zeta_0 zeta_k
    flow_ok: tuple[bool, ...]  # (D_t + v D_x - D_x^2) zeta_k = 0

    @property
    def all_ok(self) -> bool:
        return all(self.derivative_ok) and all(self.flow_ok)


def verify_zeta_identities(max_index: int) -> ZetaIdentityReport:
    """Check both defining identities exactly for all k <= max_index."""
    basis = build_zetas(max_index + 1)
    zetas = basis.zetas
    v = jet_poly(0)
    derivative_ok = []
    flow_ok = []
    for k in range(max_index + 1):
        zk = zetas[k]
        dxz = BURGERS.dx(zk)
        derivative_ok.append(dxz == zetas[k + 1] - zetas[0] * zk)
        flow = BURGERS.dt(zk) + v * dxz - BURGERS.dx(dxz)
        flow_ok.append(flow.is_zero())
    return ZetaIdentityReport(tuple(derivative_ok), tuple(flow_ok))


@lru_cache(maxsize=8)
def _jet_images_in_zeta(basis: ZetaBasis) -> tuple[DiffPoly, ...]:
    """v_k written as a polynomial in the zeta symbols, by triangularity.

    zeta_k = -v_k/2 + r_k(v_0..v_{k-1}) inverts to
    v_k = -2 (Z_k - r_k(V_0..V_{k-1})) with the lower images substituted.
    Built once per basis: a basis is hashable and its polynomials immutable.
    """
    images: list[DiffPoly] = []
    half = Fraction(1, 2)
    for k in range(basis.max_index + 1):
        remainder = basis.zetas[k] + half * jet_poly(k)
        rules = {jet(j): images[j] for j in range(k)}
        in_zeta = remainder.substitute(rules) if rules else remainder
        images.append(-2 * jet_poly(k) + 2 * in_zeta)
    return tuple(images)


def to_zeta_coordinates(p: DiffPoly, basis: ZetaBasis) -> ZetaPoly:
    """Rewrite a v-jet polynomial in the zeta coordinates."""
    if p.has_kind(KIND_PAR) or p.has_kind(KIND_EXP):
        raise ValueError("zeta coordinates are defined on the ring free of h_j and e^w")
    top = p.order()
    if top > basis.max_index:
        raise OrderExceeded(
            f"order {top} exceeds the coordinate range {basis.max_index}"
        )
    if top < 0:
        return ZetaPoly(p)
    images = _jet_images_in_zeta(basis)
    rules = {jet(k): images[k] for k in range(int(top) + 1)}
    return ZetaPoly(p.substitute(rules))


def from_zeta_coordinates(zp: ZetaPoly, basis: ZetaBasis) -> DiffPoly:
    """Substitute the zeta polynomials back; inverse of to_zeta_coordinates."""
    top = zp.poly.order()
    if top > basis.max_index:
        raise OrderExceeded(
            f"order {top} exceeds the coordinate range {basis.max_index}"
        )
    if top < 0:
        return zp.poly
    rules = {jet(k): basis.zetas[k] for k in range(int(top) + 1)}
    return zp.poly.substitute(rules)
