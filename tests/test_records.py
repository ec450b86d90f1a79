"""Record classes: read-only fields, typed equality, hashing and defaults.

The package defines its records as NamedTuples or as subclasses of
diffring.Record, a slotted base that sets the fields in __slots__ order,
makes them read-only, compares and hashes by type and fields, and shows
every field in its repr.  So importing it does not load dataclasses (and
with it inspect), and the record protocol is written once.
"""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from jetsym.checks import CheckResult
from jetsym.cli import SymmetryTableDoc, TableEntry
from jetsym.detsolve import Ansatz, SolveReport, solve_symmetries
from jetsym.diffring import DiffPoly, Record, jet_poly, t_poly, x_poly
from jetsym.jetflow import BURGERS, HEAT, Characteristic, EvolutionEquation
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
        (SymmetryTableDoc("heat", []), "entries"),
    ]


_IDS = [type(r).__name__ for r, _ in _records()]


@pytest.mark.parametrize("record, field", _records(), ids=_IDS)
def test_assignment_raises(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


@pytest.mark.parametrize("record, field", _records(), ids=_IDS)
def test_deletion_raises(record, field):
    with pytest.raises(AttributeError):
        delattr(record, field)


def _copy(record):
    return type(record)(*(getattr(record, name) for name in record.__slots__))


@pytest.mark.parametrize(
    "record",
    [r for r, _ in _records() if isinstance(r, Record)],
    ids=lambda r: type(r).__name__,
)
def test_records_with_equal_fields_are_equal_and_hash_alike(record):
    twin = _copy(record)
    assert twin is not record and twin == record and not twin != record
    if isinstance(record, SymmetryTableDoc):
        with pytest.raises(TypeError):  # its entries are a list
            hash(record)
    else:
        assert hash(twin) == hash(record)
        assert len({record, twin}) == 1


def test_equation_fields_are_read_only():
    # an equation keeps the D_t images of its rhs, so no field may change
    eq = EvolutionEquation("burgers_copy", BURGERS.rhs, allows_par=False)
    for field in EvolutionEquation.__slots__:
        value = getattr(eq, field)
        with pytest.raises(AttributeError):
            setattr(eq, field, jet_poly(2) if field == "rhs" else value)
        with pytest.raises(AttributeError):
            delattr(eq, field)
        assert getattr(eq, field) is value
    assert eq.dt(jet_poly(3)) == BURGERS.dt(jet_poly(3)) != jet_poly(5)
    # equal only to itself, as Characteristic compares it
    twin = EvolutionEquation("burgers_copy", BURGERS.rhs, allows_par=False)
    assert eq == eq != twin and len({eq, twin}) == 2


def test_record_types_with_equal_fields_are_unequal():
    class Left(Record):
        __slots__ = ("a", "b")

    class Right(Record):
        __slots__ = ("a", "b")

    assert Left(1, 2) == Left(1, 2) != Right(1, 2)
    assert Left(1, 2) != Left(2, 1) and Left(1, 2) != (1, 2)
    assert len({Left(1, 2), Right(1, 2)}) == 2


@pytest.mark.parametrize(
    "make",
    [
        lambda v: Dx(v),
        lambda v: MulBy(),
        lambda v: MulBy(v, v),
        lambda v: ZetaPoly(v, v),
        lambda v: ProbeReport(),
    ],
)
def test_a_wrong_number_of_fields_raises_type_error(make):
    with pytest.raises(TypeError):
        make(jet_poly(0))


def test_ansatz_and_probe_report_compare_by_value():
    a = Ansatz(BURGERS, 2, x_degree=1)
    assert a == Ansatz(BURGERS, 2, 2, 1, 2)
    assert a != Ansatz(BURGERS, 2) and a != Ansatz(HEAT, 2, x_degree=1)
    assert a != Ansatz(BURGERS, 2, x_degree=1, t_degree=1)
    v = jet_poly(1)
    report = ProbeReport((ProbeOutcome(v, v - v),))
    assert report == ProbeReport((ProbeOutcome(v, DiffPoly()),))
    assert report != ProbeReport((ProbeOutcome(v, v),)) and report != ProbeReport(())


def test_only_record_defines_setattr_or_delattr():
    owners = []
    for path in sorted((SRC / "jetsym").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef):
                    names = [stmt.name]
                elif isinstance(stmt, ast.Assign):
                    names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
                else:
                    continue
                if {"__setattr__", "__delattr__"} & set(names):
                    owners.append(f"{path.name}:{node.name}")
    assert sorted(set(owners)) == ["diffring.py:Record"]


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


def test_record_reprs_list_every_field():
    v = jet_poly(1)
    assert repr(Ansatz(BURGERS, 2, x_degree=1)) == (
        "Ansatz(equation=EvolutionEquation(burgers: z_t = -z0*z1 + z2), order=2, "
        "jet_degree=2, x_degree=1, t_degree=2)"
    )
    assert repr(Characteristic(HEAT, v, "label")) == (
        "Characteristic(equation=EvolutionEquation(heat: z_t = z2), "
        "body=DiffPoly(z1), label='label')"
    )
    assert repr(ZetaPoly(v)) == "ZetaPoly(poly=DiffPoly(z1))"
    assert repr(ProbeReport((ProbeOutcome(v, v - v),))) == (
        "ProbeReport(outcomes=(ProbeOutcome(probe=DiffPoly(z1), residual=DiffPoly(0)),))"
    )
    doc = SymmetryTableDoc("heat", [TableEntry("Q", 0, 1, v)], {"engine": "x"})
    assert repr(doc) == (
        "SymmetryTableDoc(equation='heat', entries=[TableEntry(family='Q', k=0, l=1, "
        "body=DiffPoly(z1))], metadata={'engine': 'x'})"
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


# import jetsym loads no module, so the modules a process may load are named
@pytest.mark.parametrize("module", ["jetsym", "jetsym.cli", "jetsym.checks", "jetsym.detsolve"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    code = f"import sys, {module}; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
