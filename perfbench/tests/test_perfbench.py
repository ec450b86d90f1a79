"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests -q

The last test runs the traced benchmark twice per workload and takes about a
minute and a half; deselect it with ``-k 'not repeat'``.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import coords  # noqa: E402
import stats  # noqa: E402
from tracer import LAYER_METRICS, Tracer, span_totals  # noqa: E402
from workloads import CLI_WORKLOADS, WORKLOAD_NAMES, check_cli, load_expected  # noqa: E402


# -- coords generator ------------------------------------------------------------


def test_coords_inputs_are_fixed_by_seed_and_batch():
    assert coords.make_inputs(11, 0) == coords.make_inputs(11, 0)
    assert coords.make_inputs(11, 3) == coords.make_inputs(11, 3)
    assert coords.make_inputs(11, 0) != coords.make_inputs(12, 0)
    assert coords.make_inputs(11, 0) != coords.make_inputs(11, 1)


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_coords_terms_keep_the_fixed_scaling_weight(seed):
    inputs = coords.make_inputs(seed, 2)
    assert len(inputs) == coords.BATCH
    for terms in inputs:
        assert len(terms) == coords.TERMS
        for mono, coeff in terms.items():
            assert coeff != 0
            jets = {idx: e for (kind, idx), e in mono if kind == 2}
            assert sum((k + 1) * e for k, e in jets.items()) == coords.WEIGHT
            assert sum(jets.values()) == coords.FACTORS
            assert max(jets) <= coords.BASIS_ORDER
            assert {kind for (kind, _), _ in mono} <= {0, 1, 2}


def test_coords_batch_round_trips():
    results = coords.run_batch(3, 0)
    assert len(results) == coords.BATCH
    assert all(ok for _, ok, _ in results)
    assert all(n > 0 for _, _, n in results)


# -- self time -------------------------------------------------------------------


def test_self_time_on_a_synthetic_span_tree():
    # index: name, parent, start, end
    spans = [
        ("root", -1, 0, 100),
        ("a", 0, 10, 40),
        ("leaf", 1, 15, 25),
        ("b", 0, 30, 60),  # overlaps a on [30, 40]: covered once
        ("a", 0, 70, 80),
        ("late", 0, 90, 120),  # runs past its parent: clipped to [90, 100]
    ]
    names, parents, starts, ends = (list(col) for col in zip(*spans))
    t = span_totals(names, parents, starts, ends)
    # root is covered on [10, 60], [70, 80] and [90, 100]
    assert t.self_ns["root"] == 100 - 50 - 10 - 10
    assert t.self_ns["a"] == (30 - 10) + 10
    assert t.self_ns["leaf"] == 10
    assert t.self_ns["b"] == 30
    assert t.calls == {"root": 1, "a": 2, "leaf": 1, "b": 1, "late": 1}
    assert t.incl_ns["a"] == 40
    assert t.child_incl_ns[("root", "a")] == 40
    assert t.child_incl_ns[("a", "leaf")] == 10


def test_tracer_spans_nest_and_self_times_add_up():
    from jetsym.diffring import jet_poly

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("op"):
            p = jet_poly(1) * jet_poly(2)
            q = 0 + p  # DiffPoly.__radd__
            r = 3 * q  # DiffPoly.__rmul__
            r.substitute({(2, 1): jet_poly(0)})
    finally:
        tracer.uninstall()
    t = tracer.totals()
    assert t.calls["diffring.mul"] >= 2
    assert t.calls["diffring.add"] >= 1
    assert t.calls["diffring.substitute"] == 1
    assert sum(t.self_ns.values()) == t.incl_ns["op"]


# -- tracer installation -------------------------------------------------------


def test_wrappers_reach_every_binding_and_come_off_again():
    import jetsym
    from jetsym import cli, detsolve, jetflow, opcalc, symfam, zeta
    from jetsym.diffring import DiffPoly

    original_add = DiffPoly.__dict__["__add__"]
    original = jetflow.invariance_residual
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = jetflow.invariance_residual
        assert wrapped is not original and wrapped.__wrapped__ is original
        for module in (detsolve, cli, jetsym):
            assert module.invariance_residual is wrapped
        for module in (symfam, zeta, cli, jetsym):
            assert module.apply is opcalc.apply
        assert DiffPoly.__dict__["__radd__"] is not original_add
        assert DiffPoly.__dict__["__add__"] is not original_add
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    assert jetflow.invariance_residual is original
    assert detsolve.invariance_residual is original
    assert DiffPoly.__dict__["__radd__"] is original_add


def test_install_reaches_modules_imported_after_it():
    # jetsym.cli is not imported by the package; installing before it is
    # loaded must still replace its bindings.
    code = (
        "from tracer import Tracer\n"
        "Tracer().install()\n"
        "from jetsym import cli, jetflow, symfam\n"
        "assert cli.invariance_residual is jetflow.invariance_residual\n"
        "assert cli.q_char is symfam.q_char\n"
        "assert hasattr(cli.q_char, '__wrapped__')\n"
    )
    p = subprocess.run(
        [sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True,
        env={"PYTHONPATH": f"{BENCH}:{ROOT / 'src'}", "PATH": ""}, timeout=60,
    )
    assert p.returncode == 0, p.stderr


def test_missing_targets_are_reported_absent():
    tracer = Tracer()
    tracer.install(
        (
            ("colemap.exp", "jetsym.colemap", "no_such_function"),
            ("colemap.exp", "jetsym.colemap", "NoSuchClass.method"),
            ("gone", "jetsym.no_such_module", "f"),
        )
    )
    tracer.uninstall()
    assert tracer.absent == [
        "jetsym.colemap.no_such_function",
        "jetsym.colemap.NoSuchClass.method",
        "jetsym.no_such_module.f",
    ]


# -- op_tail_s percentile rule ---------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 11, 20])
def test_tail_falls_back_to_the_median_on_small_counts(n):
    values = [float(i) for i in range(n, 0, -1)]  # unsorted on purpose
    value, pct, beyond = stats.tail(values)
    assert value == (n + 1) / 2
    assert pct == 50.0
    assert beyond == n // 2


@pytest.mark.parametrize("n, rank", [(21, 11), (22, 12), (30, 20), (100, 90)])
def test_tail_leaves_ten_samples_beyond(n, rank):
    values = [float(i) for i in range(n, 0, -1)]
    value, pct, beyond = stats.tail(values)
    assert value == float(rank)
    assert pct == pytest.approx(100.0 * rank / n)
    assert beyond == stats.TAIL_BEYOND == n - rank


def test_tail_of_no_samples_is_an_error():
    with pytest.raises(ValueError):
        stats.tail([])


# -- correctness checks ----------------------------------------------------------


def test_every_cli_operation_is_pinned():
    expected = load_expected()
    keys = {" ".join(a) for ops in CLI_WORKLOADS.values() for a in ops}
    assert keys == set(expected)


def test_check_cli_rejects_a_changed_byte_and_exit_code():
    argv = CLI_WORKLOADS["verify"][0]
    expected = {" ".join(argv): {"exit": 0, "sha256": ""}}
    good = b"6 checks: 6 passed, 0 failed\n"
    expected[" ".join(argv)]["sha256"] = hashlib.sha256(good).hexdigest()
    assert check_cli(argv, good, 0, expected) == ""
    assert "sha256" in check_cli(argv, good.replace(b"6 p", b"5 p"), 0, expected)
    assert "exit code" in check_cli(argv, good, 1, expected)


# -- exact counts repeat ---------------------------------------------------------


def _traced_run(workload: str, seed: int) -> dict:
    p = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


EXACT = [m for m, unit, _ in LAYER_METRICS if unit != "s" and m != "trace.overhead_ratio"]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_exact_counts_repeat_exactly(workload):
    first = _traced_run(workload, 5)
    second = _traced_run(workload, 5)
    assert set(first) == {m for m, _, _ in LAYER_METRICS}
    differing = {m: (first[m], second[m]) for m in EXACT if first[m] != second[m]}
    assert not differing


# -- BENCHMARK.json and the bare-directory contract --------------------------------


def test_benchmark_json_lists_what_the_run_reports():
    import run

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(LAYER_METRICS)


def test_run_refuses_a_directory_without_sources(tmp_path):
    import shutil

    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
