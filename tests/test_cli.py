"""Command-line surface: tables, serialization, solver, maps, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import sorted_terms
from jetsym.cli import (
    SymmetryTableDoc,
    TableEntry,
    family_table,
    main,
    render_latex,
    render_table,
    render_text,
    write_table,
)
from jetsym.detsolve import solve_symmetries
from jetsym.diffring import (
    EXP_VAR,
    KIND_EXP,
    KIND_JET,
    KIND_PAR,
    KIND_T,
    KIND_X,
    T_VAR,
    X_VAR,
    DiffPoly,
    jet,
    jet_poly,
    par,
    t_poly,
)
from jetsym.jetflow import BURGERS
from jetsym.symfam import q_char

SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_burgers_text(capsys):
    code, out, _ = run(["gen", "--eq", "burgers", "--max-order", "2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert lines[0] == "Q[0,1] = -1/2*v1"
    assert lines[-1].startswith("Q[2,0] = ")


def test_gen_heat_order_zero(capsys):
    # an order-0 table is the origin alone, where the member (0, 0) is nonzero
    for eq, origin in [("heat", "u"), ("potburgers", "1")]:
        code, out, _ = run(["gen", "--eq", eq, "--max-order", "0"], capsys)
        assert code == 0
        assert out.strip() == f"Q[0,0] = {origin}"


def test_gen_json_round_trip(capsys):
    code, out, _ = run(
        ["gen", "--eq", "burgers", "--max-order", "1", "--format", "json"], capsys
    )
    assert code == 0
    doc = SymmetryTableDoc.from_json(out)
    assert doc == family_table("burgers", 1)
    assert doc.to_json() == out


def test_gen_json_is_deterministic(capsys):
    _, first, _ = run(["gen", "--eq", "heat", "--max-order", "2", "--format", "json"], capsys)
    _, second, _ = run(["gen", "--eq", "heat", "--max-order", "2", "--format", "json"], capsys)
    assert first == second


def test_gen_latex_fragment(capsys):
    code, out, _ = run(
        ["gen", "--eq", "burgers", "--max-order", "3", "--format", "latex"], capsys
    )
    assert code == 0
    assert out.count("{") == out.count("}")
    assert "\\hat{\\mathfrak{Q}}^{0,1} = -\\tfrac{1}{2} v_{x}" in out
    assert all(ord(ch) >= 32 or ch == "\n" for ch in out)


def test_gen_rejects_bad_order(capsys):
    # the Burgers member (0, 0) is D_x 1 = 0, so its table starts at order 1
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--eq", "burgers", "--max-order", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "jetsym: error: --max-order 0 is invalid for --eq burgers"
    with pytest.raises(SystemExit):
        main(["gen", "--eq", "heat", "--max-order", "-1"])


def test_gen_out_file(tmp_path, capsys):
    path = tmp_path / "table.json"
    code, out, _ = run(
        ["gen", "--eq", "heat", "--max-order", "1", "--format", "json", "--out", str(path)],
        capsys,
    )
    assert code == 0 and out == ""
    doc = SymmetryTableDoc.from_json(path.read_text())
    assert doc.equation == "heat"
    assert len(doc.entries) == 3


@pytest.mark.parametrize("target", ["missing_dir/table.txt", "."])
def test_gen_out_unwritable_is_a_usage_error(target, tmp_path, capsys):
    # a missing parent directory, and a directory in place of a file
    path = tmp_path / target
    code, out, err = run(["gen", "--eq", "heat", "--max-order", "1", "--out", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"cannot write {path}: ") and err.count("\n") == 1


def test_verify_suite_exit_zero(capsys):
    code, out, _ = run(["verify", "--suite", "maps", "--max-order", "2"], capsys)
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().splitlines()[-1].endswith("0 failed")


def test_verify_all_summary(capsys):
    code, out, _ = run(["verify", "--suite", "all", "--max-order", "2"], capsys)
    assert code == 0
    summary = out.strip().splitlines()[-1]
    assert "passed" in summary and "0 failed" in summary


def test_solve_order_one_json(capsys):
    code, out, _ = run(["solve", "--order", "1", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 2
    assert payload["family_span_matches"] is True


def test_solve_order_two_text(capsys):
    code, out, _ = run(["solve", "--order", "2"], capsys)
    assert code == 0
    assert "dimension 5" in out
    assert "family span: MATCH" in out


def test_solve_order_three_json_bytes_are_pinned(capsys):
    # the exact solver output: basis, order and normalization of every vector
    code, out, _ = run(["solve", "--order", "3", "--format", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9d0a4d4b49057bbd0d1ceb2237aaae2e31741d81d10bb31480f667245a813767"
    )


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["solve", "--order", "4"],
         "4f81a71d92b487edbdb39f921da39fc667562ad758c119c81b3047fd6166c154"),
        (["solve", "--order", "5"],
         "a779e01ad5db059bbf46939d3cfb6489aa0e45e33687b93ec3e0b5067789adc8"),
        (["solve", "--order", "5", "--format", "json"],
         "296a9e42f88d71b1af3941855014582d9b1f5573504cbc1dc5e93e56fc1eb6e8"),
    ],
)
def test_solve_bytes_are_pinned_at_orders_4_and_5(argv, digest, capsys):
    # orders at which elimination does real work: every pivot step shows in the basis
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_GEN_ARGS = ["gen", "--max-order", "8", "--eq"]
# the nine order-12 tables of the gen benchmark, with the digests of
# perfbench/expected.json
_GEN_12_ARGS = ["gen", "--max-order", "12", "--eq"]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (_GEN_ARGS + ["heat", "--format", "text"],
         "ce2628a69e7319f40475ab3af1f86e1a938b1fdb227c01734e426bf67a27ade8"),
        (_GEN_ARGS + ["heat", "--format", "latex"],
         "50a89fb3a3736b4d487913ec16b5ebb474dcd7d5fb8b3d4d6b36f1eac29caeea"),
        (_GEN_ARGS + ["heat", "--format", "json"],
         "137b865318a1f27442f0142d494b4164e694ae0856f37f625c70880003296484"),
        (_GEN_ARGS + ["potburgers", "--format", "text"],
         "be45030b8b41f8e5ae2be293db4d28ce4425a7c542d6c3969ce4c3ed7ead03e4"),
        (_GEN_ARGS + ["potburgers", "--format", "latex"],
         "34e95c727e042e43d1ad1d1efc39b32e76371c0b1d496cfe179fe499fef2a44f"),
        (_GEN_ARGS + ["potburgers", "--format", "json"],
         "384f3cab57b89c6be0936e1d885b9862527b8c1aa40e652e548f62f3836928c0"),
        (_GEN_ARGS + ["burgers", "--format", "text"],
         "53430af47a5470390c3aa13e04bfc58437245125e0a780bd55a6922df95e944f"),
        (_GEN_ARGS + ["burgers", "--format", "latex"],
         "becaa8be376271d06e57a8a8262d13b019bd203839dec25d97c859c21f3dfdac"),
        (_GEN_ARGS + ["burgers", "--format", "json"],
         "d33549b0ad0f1ee4c70356e0bd09a238cd0c9cf9b772d794e534e5e8f38e31d6"),
        (["verify", "--suite", "all"],
         "20216dd407bf6875462df98dd65d85c715c5edf350640a67fc4b7fc18f9d0e21"),
        (["verify", "--suite", "commutators", "--max-order", "4"],
         "114fcda14a043668983f1d34588b1972d16149ec911f4bdee1ab1e3a85353576"),
        (_GEN_12_ARGS + ["potburgers", "--format", "json"],
         "1ede1b62f33c247ac3aec2b3beb07358a6df18954f1937b370459dba434f53b2"),
        (_GEN_12_ARGS + ["burgers", "--format", "json"],
         "131692dc53f5eac3efce4f25323c5c032a987204e18ceea2cee43ea5b1810077"),
        (["verify", "--suite", "invariance", "--max-order", "9"],
         "9e5162e3be62c13654a1a16635f7bd9bee5ef8d9cdab29b1372c48ce5bc5eab2"),
        (["verify", "--suite", "recursion", "--max-order", "7"],
         "a23b6bda69bee2ba6e478c5acd94fc136b7d5d9512e5d473854b911bfa0d8805"),
        (["verify", "--suite", "zeta", "--max-order", "18"],
         "f3f5733492046eb0184c7c24d28afc258fe499040f029cf9c08766477d589ff9"),
        (["verify", "--suite", "maps", "--max-order", "10"],
         "bdc366748d94a107f7c720aec4ccc2cd40f90122b3111f745c30d371facd2647"),
        (["verify", "--suite", "commutators", "--max-order", "5"],
         "095ecaa95e1e63ebb6c6b833051963fd43280b8b2b81f827284a641949e3c302"),
        (_GEN_12_ARGS + ["heat", "--format", "text"],
         "a696aaa42fbd9e9bdd910f4ea99c14b935525f5c7449b5e06f8ab8c117520b86"),
        (_GEN_12_ARGS + ["heat", "--format", "latex"],
         "e27c043b3bdefd488f7d1d0bd580a1582f7640f9541931aa6377cc8c691d2b84"),
        (_GEN_12_ARGS + ["heat", "--format", "json"],
         "8ae6f6ac9551434498698e58ec2d659568a1c1b4d5d28f9de5fe043c8f1aa4f2"),
        (_GEN_12_ARGS + ["potburgers", "--format", "text"],
         "e0e714c722a60df8d82ad4a50bfa20be64885c8bb505ab167325f2d277677ac1"),
        (_GEN_12_ARGS + ["potburgers", "--format", "latex"],
         "fbe49f8138b25fc76fdb762365d1207426d4f88f524d35ada0d7118e45486df0"),
        (_GEN_12_ARGS + ["burgers", "--format", "text"],
         "a2da14408f8ad8bfd820f5dca2819da3a33a789389f0b0ee1777e31e00bb978b"),
        (_GEN_12_ARGS + ["burgers", "--format", "latex"],
         "719f45e13f48ed236810fede2b7081466f80bc7e0f0c1f97d9fc8490bea164b4"),
    ],
)
def test_gen_and_verify_bytes_are_pinned(argv, digest, capsys):
    # family tables in every format and the verify reports, byte for byte
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--help"], "165d73f006236c4ca71d54423f25e666a921e90c56c2fa6fc7085131e9e18617"),
        (["verify", "--help"], "76f5680d25e0cd3966e3c441f50ebc1a17a31aaf2287b2e686267c5e05c45276"),
        (["gen", "--help"], "25fcd5ef19b5fb4d3a0970ae914f1ff11a7b271a2f0a3ed20593993dafe0f566"),
        (["map", "--help"], "d8411b04cfbd29f90468e27d36f18c1fa201234d747b7cc75898cad7081bf519"),
    ],
)
def test_help_bytes_are_pinned(argv, digest, monkeypatch, capsys):
    # the help text names every cap; argparse wraps it at COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# Runs argv[1:] as a child, hashing its stdout as it streams, and prints the
# exit code, the sha256 and the child's peak resident set (KiB), read from
# os.wait4 on the child's pid.  Linux carries a process's peak resident set
# across fork and exec, so the child is started from this small process
# rather than from the test process.
_MEASURE = """
import hashlib, os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE)
digest = hashlib.sha256()
for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
    digest.update(chunk)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, digest.hexdigest(), usage.ru_maxrss)
"""


def run_child(argv, timeout=None):
    """jetsym argv in a fresh process: exit code, stdout sha256, peak RSS in MB."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", _MEASURE, sys.executable, "-m", "jetsym.cli", *argv],
        env=env, capture_output=True, text=True, check=True, timeout=timeout,
    )
    code, digest, rss_kib = out.stdout.split()
    return int(code), digest, int(rss_kib) / 1024


# Bounds on the whole-process peak of the order-16 Burgers tables: the peaks
# measured with CPython 3.11 on x86-64 Linux (39.5 MB for JSON, 35.5 MB for
# text) plus about 15 %.
_ORDER_CAP_PEAK_MB = {"json": 46, "text": 41}


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("json", "d78f2978252b5c7dcd8f89d8169193bc12071436a9b68b02a1a39dc191304340"),
        ("text", "4ac5284ba8947bcbdf1bbc12f7536eab29a987dc8e3f452c4a326b6c79dc16a9"),
    ],
)
def test_gen_bytes_are_pinned_at_the_order_cap(fmt, digest):
    # the largest table gen writes: 40.8 MB of JSON, 2.7 MB of text
    code, got, peak_mb = run_child(
        ["gen", "--eq", "burgers", "--max-order", "16", "--format", fmt]
    )
    assert code == 0
    assert got == digest
    # gen streams the document; holding the 40.8 MB JSON text in memory
    # takes the process past 150 MB
    assert peak_mb < _ORDER_CAP_PEAK_MB[fmt]


@pytest.mark.parametrize(
    "eq, digest",
    [
        ("heat", "23b6ad44888b2f761d8629a0bebb8fdb1f91c9ab6c288e1df78b6b12854d61d0"),
        ("potburgers", "08c2cfc2dc379d30e100976c64bd23330c25f9bd47ef44e3fcac0c15ff2d73f1"),
    ],
)
def test_gen_text_is_pinned_at_the_order_cap(eq, digest):
    # the deepest heat and potential-Burgers tables, whose entries off the
    # column the family ladder builds as shifted sums
    code, got, peak_mb = run_child(["gen", "--eq", eq, "--max-order", "16", "--format", "text"])
    assert code == 0
    assert got == digest
    assert peak_mb < 60


def test_solve_refuses_an_over_cap_ansatz_before_building_it():
    # order 12 has 5 200 300 jet parts; enumerating them before checking
    # the cap took 9 s and 931 MB
    code, got, peak_mb = run_child(["solve", "--order", "12"], timeout=30)
    assert code == 3
    assert got == hashlib.sha256(b"").hexdigest()
    assert peak_mb < 40


def test_solve_bytes_are_pinned_at_order_6():
    # the kernel basis depends on the column order, which is the monomial order
    code, got, _ = run_child(["solve", "--order", "6", "--format", "json"])
    assert code == 0
    assert got == "6d86cf151b3dc6c35ad27b496463b32c69868e95ddd1865d63cb0e2b1800aa1b"


def test_solve_reaches_order_8():
    # 24 310 jet parts, 1 969 110 ansatz monomials: dimension 44 = 8 (8 + 3) / 2,
    # and exit 0 is the family span match.  Measured at 2.8 s and 110 MB on a
    # 2-core x86-64 host, CPython 3.11.7; the bounds leave room for a loaded host.
    start = time.monotonic()
    code, got, peak_mb = run_child(["solve", "--order", "8", "--format", "json"], timeout=120)
    wall = time.monotonic() - start
    assert code == 0
    assert got == "238e4841c0dbb81a255e3785c00fa71e025e09754028ab8f5612d969268e5381"
    assert wall < 20
    assert peak_mb < 160


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--eq", "burgers", "--max-order", "4"],
        ["verify", "--suite", "maps", "--max-order", "1"],
        ["solve", "--order", "1"],
    ],
)
def test_closed_stdout_is_a_write_failure(argv):
    # as with `jetsym ... | head -1`: the reader closes the pipe before the
    # child writes, so every write fails with EPIPE
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "jetsym.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == "cannot write stdout: Broken pipe\n"


@pytest.mark.parametrize("fmt", ["text", "latex", "json"])
def test_gen_out_and_stdout_write_the_same_bytes(fmt, tmp_path, capsys):
    path = tmp_path / f"table.{fmt}"
    argv = ["gen", "--eq", "potburgers", "--max-order", "3", "--format", fmt]
    code, out, _ = run(argv, capsys)
    assert code == 0
    code, quiet, _ = run(argv + ["--out", str(path)], capsys)
    assert code == 0 and quiet == ""
    assert path.read_text() == out


@pytest.mark.parametrize("fmt", ["text", "latex", "json"])
@pytest.mark.parametrize("eq, order", [("heat", 0), ("potburgers", 3), ("burgers", 8)])
def test_render_table_is_what_write_table_streams(eq, order, fmt):
    from jetsym.cli import _WRITE_CHUNK

    doc = family_table(eq, order)
    writes = []

    class Sink:
        write = writes.append

    write_table(doc, fmt, Sink())
    text = render_table(doc, fmt)
    assert "".join(writes) == text
    if fmt == "json":
        assert text == doc.to_json()
    # pieces of about _WRITE_CHUNK characters (the Burgers JSON table is
    # 0.73 MB at order 8), never the whole of a larger document at once
    assert all(len(w) >= _WRITE_CHUNK for w in writes[:-1])
    assert all(len(w) < 2 * _WRITE_CHUNK for w in writes)


def test_gen_order_cap(capsys):
    from jetsym.cli import GEN_MAX_ORDER

    assert GEN_MAX_ORDER >= 12
    code, _, _ = run(["gen", "--eq", "heat", "--max-order", str(GEN_MAX_ORDER)], capsys)
    assert code == 0
    code, out, err = run(
        ["gen", "--eq", "heat", "--max-order", str(GEN_MAX_ORDER + 1)], capsys
    )
    assert code == 3
    assert out == ""
    assert "order too large" in err and f"cap {GEN_MAX_ORDER}" in err


@pytest.mark.parametrize(
    "suite, bound",
    [("invariance", 9), ("commutators", 4), ("recursion", 7), ("zeta", 18), ("maps", 10)],
)
def test_verify_order_caps(suite, bound, capsys):
    from jetsym.cli import _SUITE_ORDERS

    cap = _SUITE_ORDERS[suite][1]
    assert cap >= bound
    code, out, err = run(["verify", "--suite", suite, "--max-order", str(cap + 1)], capsys)
    assert code == 3
    assert out == ""
    assert f"--suite {suite}" in err and f"cap {cap}" in err


def test_verify_rejects_negative_order():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "maps", "--max-order", "-1"])
    assert exc.value.code == 2


def test_verify_all_checks_every_cap_before_running(capsys):
    code, out, err = run(["verify", "--suite", "all", "--max-order", "6"], capsys)
    assert code == 3
    assert out == ""
    assert "--suite commutators" in err


def test_solve_resource_cap(monkeypatch, capsys):
    import jetsym.detsolve as detsolve_mod

    def tiny_solve(eq, order, **kw):
        from jetsym.detsolve import AnsatzTooLarge

        raise AnsatzTooLarge("forced")

    # the solve handler imports solve_symmetries from detsolve when it runs
    monkeypatch.setattr(detsolve_mod, "solve_symmetries", tiny_solve)
    code, out, err = run(["solve", "--order", "4"], capsys)
    assert code == 3
    assert "ansatz too large" in err


def test_map_order_cap(capsys):
    from jetsym.cli import MAP_MAX_ORDER

    assert MAP_MAX_ORDER == 16
    for k, l in ((0, 16), (16, 0)):
        code, out, _ = run(["map", "--k", str(k), "--l", str(l), "--to", "potburgers"], capsys)
        assert code == 0 and out.startswith(f"heat: Q[{k},{l}] = ")
    for k, l in ((0, 17), (9, 8), (0, 70), (70, 0)):
        code, out, err = run(["map", "--k", str(k), "--l", str(l)], capsys)
        assert code == 3
        assert out == ""
        assert "order too large" in err and "cap 16" in err


def test_map_chain(capsys):
    code, out, _ = run(["map", "--from", "heat", "--to", "burgers", "--k", "0", "--l", "1"], capsys)
    assert code == 0
    assert "burgers: v1" in out


def test_map_kernel(capsys):
    code, out, _ = run(["map", "--from", "heat", "--to", "burgers", "--k", "0", "--l", "0"], capsys)
    assert code == 0
    assert "KERNEL" in out


def test_map_normalized(capsys):
    code, out, _ = run(
        ["map", "--to", "burgers", "--k", "0", "--l", "1", "--normalize"], capsys
    )
    assert code == 0
    assert "burgers (normalized): -1/2*v1" in out


def test_map_parameter_family_not_projectable(capsys):
    code, out, _ = run(["map", "--family", "z", "--to", "burgers"], capsys)
    assert code == 1
    assert "NOT PROJECTABLE" in out


@pytest.mark.parametrize("indices", [["--k", "3", "--l", "2"], ["--l", "1"], ["--k", "20"]])
def test_map_parameter_family_refuses_indices(indices, capsys):
    # Z(h) has no (k, l), as q_char says; the refusal comes before the cap
    with pytest.raises(SystemExit) as exc:
        main(["map", "--family", "z", *indices])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--family z takes no --k or --l" in out.err


def test_map_stdout_goldens(capsys):
    code, out, _ = run(["map", "--family", "z", "--to", "potburgers"], capsys)
    assert code == 0
    assert out == "heat: Z(h) = h\npotential: (h)*e^{-w}\n"
    code, out, _ = run(["map", "--k", "1", "--l", "1"], capsys)
    assert code == 0
    assert out == (
        "heat: Q[1,1] = 1/2*x*u1 + t*u2\n"
        "potential: t*w1^2 + 1/2*x*w1 + t*w2\n"
        "burgers: -t*v*v1 + 1/2*x*v1 + t*v2 + 1/2*v\n"
    )


def test_render_text_and_latex_zero():
    from jetsym.diffring import DiffPoly

    assert render_text(DiffPoly.zero(), "v") == "0"
    assert render_latex(DiffPoly.zero(), "v") == "0"


def test_render_high_jets():
    body = jet_poly(4) * t_poly()
    assert render_latex(body, "v") == "t v_{x^{4}}"
    assert render_text(body, "v") == "t*v4"


def test_json_round_trips_bodies_with_exp():
    from jetsym.cli import TableEntry, _body_from_json
    from jetsym.diffring import exp_poly
    from jetsym.jetflow import POTBURGERS
    from jetsym.symfam import Family, commutator

    z = q_char(Family.POT_Z)
    bracket = commutator(POTBURGERS, z, q_char(Family.POT_Q, 1, 1)).body
    for body in (z.body, bracket, z.body * exp_poly(3) + t_poly()):
        assert _body_from_json(_body_payload(body)) == body
    doc = SymmetryTableDoc("potburgers", [TableEntry("Z", 0, 0, z.body)])
    assert SymmetryTableDoc.from_json(doc.to_json()) == doc


# -- the JSON writer against the standard library's encoder ------------------------

_LETTER = {KIND_T: "t", KIND_X: "x", KIND_JET: "z", KIND_PAR: "h", KIND_EXP: "e"}


def _body_payload(body) -> list:
    return [
        [[[_LETTER[kind], idx, e] for (kind, idx), e in mono], str(c)]
        for mono, c in sorted_terms(body)
    ]


def _doc_payload(doc) -> dict:
    return {
        "equation": doc.equation,
        "metadata": doc.metadata,
        "entries": [
            {"family": e.family, "k": e.k, "l": e.l, "body": _body_payload(e.body)}
            for e in doc.entries
        ],
    }


@st.composite
def _bodies(draw):
    # up to four terms (none: the zero body); a term may have no factor (the
    # constant monomial), h_j factors, and E^m with m in [-2, 2]
    pool = [T_VAR, X_VAR, jet(0), jet(1), jet(7), par(0), par(2)]
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        chosen = draw(st.lists(st.sampled_from(pool), unique=True, max_size=3))
        mono = [(v, draw(st.integers(1, 3))) for v in chosen]
        m = draw(st.integers(-2, 2))
        if m:
            mono.append((EXP_VAR, m))
        num = draw(st.integers(-9, 9).filter(bool))
        terms[tuple(sorted(mono))] = Fraction(num, draw(st.integers(1, 4)))
    return DiffPoly(terms)


_entries = st.builds(TableEntry, st.text(max_size=3), st.integers(0, 20), st.integers(0, 20), _bodies())
_docs = st.builds(
    SymmetryTableDoc,
    st.sampled_from(["heat", "potburgers", "burgers"]),
    st.lists(_entries, max_size=4),
    st.dictionaries(st.text(max_size=4), st.one_of(st.text(max_size=4), st.integers())),
)


@settings(max_examples=120, deadline=None)
@given(_docs)
@example(SymmetryTableDoc("heat", [], {}))
@example(SymmetryTableDoc("potburgers", [TableEntry("Z", 0, 0, DiffPoly.zero())], {}))
def test_to_json_matches_the_standard_encoder(doc):
    text = doc.to_json()
    assert text == json.dumps(_doc_payload(doc), indent=2, sort_keys=True) + "\n"
    assert SymmetryTableDoc.from_json(text) == doc


def test_solve_json_matches_the_standard_encoder(capsys):
    report = solve_symmetries(BURGERS, 2)
    payload = {
        "order": report.order,
        "dimension": report.dimension,
        "ansatz_size": report.ansatz_size,
        "family_span_matches": report.family_span_matches,
        "basis": [_body_payload(c.body) for c in report.basis],
    }
    code, out, _ = run(["solve", "--order", "2", "--format", "json"], capsys)
    assert code == 0
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


_GOOD_TERM = [[["z", 1, 2], ["e", 0, -1]], "3/2"]


def _doc_with_body(body) -> str:
    entry = {"family": "Q", "k": 0, "l": 0, "body": body}
    return json.dumps({"equation": "heat", "metadata": {}, "entries": [entry]})


def test_json_accepts_the_good_term():
    from jetsym.cli import _body_from_json
    from jetsym.diffring import exp_poly

    assert _body_from_json([_GOOD_TERM]) == Fraction(3, 2) * jet_poly(1) ** 2 * exp_poly(-1)


@pytest.mark.parametrize(
    "body, message",
    [
        ([[[["q", 0, 1]], "1"]], "unknown variable kind"),
        ([[[[["z"], 0, 1]], "1"]], "unknown variable kind"),
        ([[[["z", "0", 1]], "1"]], "not an int"),
        ([[[["z", -1, 1]], "1"]], "not a ring variable"),
        ([[[["h", 65, 1]], "1"]], "exceeds the cap"),
        ([[[["t", 1, 1]], "1"]], "not a ring variable"),
        ([[[["z", 0, 0]], "1"]], "zero exponent"),
        ([[[["z", 0, 1.5]], "1"]], "must be an int"),
        ([[[["z", 0, -1]], "1"]], "negative exponent"),
        ([[[["z", 0, 200]], "1"]], "exponent 200"),
        ([[[["x", 0, 256]], "1"]], "exponent 256"),
        ([[[["e", 0, 192]], "1"]], "exponent 192"),
        ([[[["e", 0, -65]], "1"]], "exponent -65"),
        ([[[["z", 0, 1]], "0"]], "zero coefficient"),
        ([[[["z", 0, 1]], "1/0"]], "invalid coefficient"),
        ([_GOOD_TERM, [[["e", 0, -1], ["z", 1, 2]], "1"]], "occurs twice"),
        ([[[["z", 0, 1], ["z", 0, 1]], "1"]], "occurs twice"),
        ([[[["z", 0]], "1"]], "factor"),
        ([[[["z", 0, 1]]]], "term"),
    ],
)
def test_json_rejects_malformed_bodies(body, message):
    with pytest.raises(ValueError, match=message):
        SymmetryTableDoc.from_json(_doc_with_body(body))


def test_json_rejects_missing_keys():
    entry = {"family": "Q", "k": 0, "l": 0, "body": [_GOOD_TERM]}
    for key in ("equation", "metadata", "entries"):
        payload = {"equation": "heat", "metadata": {}, "entries": [entry]}
        del payload[key]
        with pytest.raises(ValueError, match=key):
            SymmetryTableDoc.from_json(json.dumps(payload))
    with pytest.raises(ValueError, match="entries"):
        SymmetryTableDoc.from_json(json.dumps({"equation": "heat", "metadata": {}, "entries": 5}))
    for key in entry:
        partial = {k: v for k, v in entry.items() if k != key}
        payload = {"equation": "heat", "metadata": {}, "entries": [partial]}
        with pytest.raises(ValueError, match=key):
            SymmetryTableDoc.from_json(json.dumps(payload))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("equation", "nope", "unknown equation"),
        ("equation", ["heat"], "unknown equation"),
        ("metadata", [1], "metadata"),
        ("family", 3, "family"),
        ("k", "1", "k of a table entry"),
        ("k", -1, "k of a table entry"),
        ("l", True, "l of a table entry"),
        ("l", 1.0, "l of a table entry"),
    ],
)
def test_json_rejects_malformed_fields(key, value, message):
    entry = {"family": "Q", "k": 0, "l": 0, "body": [_GOOD_TERM]}
    payload = {"equation": "heat", "metadata": {}, "entries": [entry]}
    if key in entry:
        entry[key] = value
    else:
        payload[key] = value
    with pytest.raises(ValueError, match=message):
        SymmetryTableDoc.from_json(json.dumps(payload))


def test_solve_exponent_over_the_field_exits_3(capsys):
    code, out, err = run(["solve", "--order", "0", "--x-deg", "130", "--t-deg", "0"], capsys)
    assert code == 3
    assert out == ""
    assert "exponent" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--order", "1", "--jet-deg", "128"],
        ["solve", "--order", "0", "--x-deg", "0", "--t-deg", "128"],
    ],
)
def test_solve_other_bounds_over_the_field_exit_3(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 3
    assert out == ""
    assert "exponent" in err


@pytest.mark.parametrize(
    "flag, value", [("--jet-deg", "-5"), ("--x-deg", "-3"), ("--t-deg", "-2")]
)
def test_solve_rejects_negative_degree_bounds(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--order", "2", flag, value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert flag in err
