"""Record classes: read-only fields, typed equality, hashing and defaults.

The package defines its records as NamedTuples or as plain classes with
__slots__, so importing it does not load dataclasses (and with it inspect).
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from jetsym.cli import CheckResult, SymmetryTableDoc, TableEntry
from jetsym.detsolve import Ansatz, SolveReport, solve_symmetries
from jetsym.diffring import DiffPoly, jet_poly, t_poly, x_poly
from jetsym.jetflow import BURGERS, HEAT, Characteristic
from jetsym.opcalc import (
    Compose,
    Dt,
    Dx,
    DxInv,
    IntegrabilityCertificate,
    MulBy,
    ProbeOutcome,
    ProbeReport,
    Scale,
    Sum,
    integrability_certificate,
)
from jetsym.symfam import Family, FamilyIndex, LieGenerator, LieMatch, q_char
from jetsym.zeta import ZetaBasis, ZetaIdentityReport, ZetaPoly, build_zetas

SRC = Path(__file__).resolve().parent.parent / "src"


def _records():
    v = jet_poly(0)
    return [
        (Dx(), "x"),
        (MulBy(v), "factor"),
        (Scale(Fraction(1, 2)), "coeff"),
        (Sum((Dx(),)), "ops"),
        (Compose((Dx(),)), "ops"),
        (Characteristic(HEAT, v), "body"),
        (Ansatz(BURGERS, 2), "order"),
        (ZetaPoly(v), "poly"),
        (ProbeReport(()), "outcomes"),
        (FamilyIndex(Family.HEAT_Q, 1, 2), "k"),
        (LieGenerator(v, v, v), "phi"),
        (LieMatch("dilation", 1), "sign"),
        (ProbeOutcome(v, v), "residual"),
        (IntegrabilityCertificate(v, False), "is_total_derivative"),
        (ZetaBasis(0, (v,)), "max_index"),
        (ZetaIdentityReport((True,), (True,)), "flow_ok"),
        (SolveReport(1, 0, (), None, 0), "dimension"),
        (CheckResult("check", True), "ok"),
        (TableEntry("Q", 0, 0, v), "body"),
    ]


@pytest.mark.parametrize(
    "record, field", _records(), ids=[type(r).__name__ for r, _ in _records()]
)
def test_assignment_raises(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_operator_equality_depends_on_the_type():
    assert Dx() == Dx() and Dt() == Dt()
    assert Dx() != Dt() and Dx() != DxInv() and Dt() != DxInv()
    assert Compose((Dx(),)) == Compose((Dx(),))
    assert Compose((Dx(),)) != Compose((Dt(),))
    assert Sum((Dx(),)) != Compose((Dx(),))
    assert MulBy(t_poly()) == MulBy(t_poly()) != MulBy(x_poly())
    assert Scale(Fraction(2)) != MulBy(DiffPoly.const(2))
    assert len({Dx(), Dx(), Dt(), Compose((Dx(),)), Compose((Dx(),))}) == 3
    assert repr(Compose((Dx(), Scale(Fraction(1, 2))))) == (
        "Compose(ops=(Dx(), Scale(coeff=Fraction(1, 2))))"
    )


def test_characteristic_equality_ignores_the_label():
    body = q_char(Family.HEAT_Q, 1, 0).body
    labelled = Characteristic(HEAT, body, FamilyIndex(Family.HEAT_Q, 1, 0))
    assert labelled == Characteristic(HEAT, body)
    assert hash(labelled) == hash(Characteristic(HEAT, body))
    assert labelled != Characteristic(BURGERS, body)
    assert labelled != Characteristic(HEAT, body + 1)
    assert {labelled: 1}[Characteristic(HEAT, body, "other")] == 1


def test_family_index_is_a_hashable_value():
    a = FamilyIndex(Family.POT_Q, 2)
    assert (a.k, a.l) == (2, 0)
    assert a == FamilyIndex(Family.POT_Q, 2, 0) != FamilyIndex(Family.POT_Q, 0, 2)
    assert len({a, FamilyIndex(Family.POT_Q, 2, 0)}) == 1
    assert q_char(Family.HEAT_Q, 2, 1).label == FamilyIndex(Family.HEAT_Q, 2, 1)


def test_ansatz_resolves_its_default_bounds():
    a = Ansatz(BURGERS, 3, x_degree=1)
    assert (a.jet_degree, a.x_degree, a.t_degree) == (3, 1, 3)
    b = Ansatz(BURGERS, 0)
    assert (b.jet_degree, b.x_degree, b.t_degree) == (1, 1, 1)
    with pytest.raises(ValueError):
        Ansatz(BURGERS, -1)
    with pytest.raises(ValueError):
        Ansatz(BURGERS, 2, t_degree=-2)


def test_table_documents_do_not_share_metadata():
    a = SymmetryTableDoc("heat", [])
    b = SymmetryTableDoc("heat", [])
    a.metadata["engine"] = "x"
    assert b.metadata == {}
    assert a != b and SymmetryTableDoc("heat", [], {"engine": "x"}) == a
    assert SymmetryTableDoc("heat", [], {}) != SymmetryTableDoc("burgers", [], {})


def test_value_records_keep_their_fields():
    report = solve_symmetries(BURGERS, 1)
    assert report.dimension == len(report.basis) == 2
    assert build_zetas(2).max_index == 2
    cert = integrability_certificate(jet_poly(1))
    assert cert.is_total_derivative and cert.euler_residual.is_zero()
    assert ZetaPoly(jet_poly(0)) == ZetaPoly(jet_poly(0)) != jet_poly(0)


@pytest.mark.parametrize("module", ["jetsym", "jetsym.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    code = f"import sys, {module}; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
