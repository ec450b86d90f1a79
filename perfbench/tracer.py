"""Span tracer that times jetsym's layers from outside the package.

The tracer replaces public functions and methods of the ``jetsym`` modules
with wrappers that record one span per call: a name, a start and an end
(``perf_counter_ns``), the index of the enclosing span and a run id.  Spans
are kept in flat arrays in memory and summarised once the traced work has
ended, so recording a call costs a few appends.

Wrappers are installed by name.  A module-level function is replaced on its
defining module and on every loaded ``jetsym`` module that bound it by
import (``invariance_residual`` lives in ``jetflow``, ``detsolve`` and
``cli``); a method is replaced on its class, once per class attribute, so
``DiffPoly.__radd__`` is wrapped alongside ``__add__``.  A target that no
longer exists is reported as absent instead of failing, so the benchmark
keeps running when a later version of the package removes or renames it.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

# (span name, module, attribute path) for every wrapped callable.  Several
# targets may share one span name; their calls and times add up.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("diffring.mul", "jetsym.diffring", "DiffPoly.__mul__"),
    ("diffring.mul", "jetsym.diffring", "DiffPoly.__rmul__"),
    ("diffring.add", "jetsym.diffring", "DiffPoly.__add__"),
    ("diffring.add", "jetsym.diffring", "DiffPoly.__radd__"),
    ("diffring.partial", "jetsym.diffring", "DiffPoly.partial"),
    ("diffring.substitute", "jetsym.diffring", "DiffPoly.substitute"),
    ("jetflow.dx", "jetsym.jetflow", "x_derivative"),
    ("jetflow.dt", "jetsym.jetflow", "EvolutionEquation.dt"),
    ("jetflow.frechet", "jetsym.jetflow", "EvolutionEquation.frechet"),
    ("jetflow.invariance_residual", "jetsym.jetflow", "invariance_residual"),
    ("opcalc.apply", "jetsym.opcalc", "apply"),
    ("opcalc.dx_preimage", "jetsym.opcalc", "dx_preimage"),
    ("opcalc.euler_residual", "jetsym.opcalc", "euler_residual"),
    ("symfam.q_char", "jetsym.symfam", "q_char"),
    ("symfam.commutator", "jetsym.symfam", "commutator"),
    ("colemap.heat_to_potential", "jetsym.colemap", "heat_to_potential"),
    ("colemap.potential_to_burgers", "jetsym.colemap", "potential_to_burgers"),
    ("colemap.exp", "jetsym.colemap", "exp_dx"),
    ("colemap.exp", "jetsym.colemap", "exp_dt"),
    ("colemap.exp", "jetsym.colemap", "exp_frechet"),
    ("colemap.exp", "jetsym.colemap", "exp_invariance_residual"),
    ("zeta.to_coords", "jetsym.zeta", "to_zeta_coordinates"),
    ("zeta.from_coords", "jetsym.zeta", "from_zeta_coordinates"),
    ("detsolve.solve", "jetsym.detsolve", "solve_symmetries"),
    ("detsolve.enumerate", "jetsym.detsolve", "Ansatz.monomials"),
    ("detsolve.build", "jetsym.detsolve", "build_system"),
    ("detsolve.eliminate", "jetsym.detsolve", "nullspace"),
    ("cli.family_table", "jetsym.cli", "family_table"),
    ("cli.render", "jetsym.cli", "render_table"),
)

_INHERITED = object()  # marks a patched attribute that the owner did not define

# Where the process-global family cache lives; read, never wrapped.
Q_BODY_CACHE = ("jetsym.symfam", "_q_body")

# Every per-layer metric with its unit and the direction that is better.
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("diffring.mul.calls", "count", "lower"),
    ("diffring.mul.self_s", "s", "lower"),
    ("diffring.mul.term_products", "count", "lower"),
    ("diffring.add.calls", "count", "lower"),
    ("diffring.add.self_s", "s", "lower"),
    ("diffring.partial.calls", "count", "lower"),
    ("diffring.partial.self_s", "s", "lower"),
    ("diffring.substitute.calls", "count", "lower"),
    ("diffring.substitute.self_s", "s", "lower"),
    ("diffring.substitute.out_terms", "count", "lower"),
    ("jetflow.dx.calls", "count", "lower"),
    ("jetflow.dx.self_s", "s", "lower"),
    ("jetflow.dt.calls", "count", "lower"),
    ("jetflow.dt.self_s", "s", "lower"),
    ("jetflow.frechet.calls", "count", "lower"),
    ("jetflow.frechet.self_s", "s", "lower"),
    ("jetflow.invariance_residual.calls", "count", "lower"),
    ("jetflow.invariance_residual.self_s", "s", "lower"),
    ("opcalc.apply.calls", "count", "lower"),
    ("opcalc.apply.self_s", "s", "lower"),
    ("opcalc.dx_preimage.calls", "count", "lower"),
    ("opcalc.dx_preimage.self_s", "s", "lower"),
    ("opcalc.euler_residual.calls", "count", "lower"),
    ("symfam.q_char.calls", "count", "lower"),
    ("symfam.q_body.hit_ratio", "ratio", "higher"),
    ("symfam.commutator.calls", "count", "lower"),
    ("symfam.commutator.self_s", "s", "lower"),
    ("colemap.heat_to_potential.self_s", "s", "lower"),
    ("colemap.potential_to_burgers.self_s", "s", "lower"),
    ("colemap.exp.self_s", "s", "lower"),
    ("zeta.to_coords.self_s", "s", "lower"),
    ("zeta.from_coords.self_s", "s", "lower"),
    ("zeta.out_terms", "count", "lower"),
    ("detsolve.enumerate_s", "s", "lower"),
    ("detsolve.build_s", "s", "lower"),
    ("detsolve.eliminate_s", "s", "lower"),
    ("detsolve.check_s", "s", "lower"),
    ("detsolve.cols", "count", "lower"),
    ("detsolve.rows", "count", "lower"),
    ("detsolve.nnz", "count", "lower"),
    ("detsolve.rank", "count", "higher"),
    ("detsolve.useful_row_ratio", "ratio", "higher"),
    ("detsolve.max_entry_bits", "bits", "lower"),
    ("detsolve.max_kernel_bits", "bits", "lower"),
    ("cli.family_table.self_s", "s", "lower"),
    ("cli.render.self_s", "s", "lower"),
    ("cli.render.bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


@dataclass
class SpanTotals:
    """Per-name sums over a set of spans, all times in nanoseconds."""

    calls: dict = field(default_factory=dict)
    self_ns: dict = field(default_factory=dict)
    incl_ns: dict = field(default_factory=dict)
    # (parent name, child name) -> inclusive time of such children
    child_incl_ns: dict = field(default_factory=dict)


def span_totals(names, parents, starts, ends) -> SpanTotals:
    """Aggregate spans given as parallel sequences, in start order.

    A span's self time is its duration minus the part of that interval its
    child spans cover; overlapping children are counted once and children
    are clipped to their parent.  Spans must be listed in order of their
    start, which is the order a tracer records them in.
    """
    n = len(names)
    covered = [0] * n
    last_end = [0] * n
    totals = SpanTotals()
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        s = max(starts[i], starts[p], last_end[p])
        e = min(ends[i], ends[p])
        if e > s:
            covered[p] += e - s
        if e > last_end[p]:
            last_end[p] = e
        key = (names[p], names[i])
        totals.child_incl_ns[key] = totals.child_incl_ns.get(key, 0) + ends[i] - starts[i]
    for i in range(n):
        name = names[i]
        dur = ends[i] - starts[i]
        totals.calls[name] = totals.calls.get(name, 0) + 1
        totals.incl_ns[name] = totals.incl_ns.get(name, 0) + dur
        totals.self_ns[name] = totals.self_ns.get(name, 0) + dur - covered[i]
    return totals


class Tracer:
    """Records spans around the wrapped jetsym callables of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("q")
        self.end = array("q")
        self.run_id = 0
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.systems: list = []  # LinearSystem objects returned by build_system
        self.kernels: list = []  # kernel bases returned by nullspace
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _bump(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    @contextmanager
    def span(self, name: str):
        """Record one span around a block, such as a whole operation."""
        idx = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        nid = self._nid(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # -- count hooks, run after the wrapped call has returned ----------------

    def _after_mul(self, args, result) -> None:
        a, b = args
        nb = len(b.terms) if hasattr(b, "terms") else 1
        self._bump("diffring.mul.term_products", len(a.terms) * nb)

    def _after_substitute(self, args, result) -> None:
        self._bump("diffring.substitute.out_terms", len(result.terms))

    def _after_zeta(self, args, result) -> None:
        poly = getattr(result, "poly", result)
        self._bump("zeta.out_terms", len(poly.terms))

    def _after_render(self, args, result) -> None:
        self._bump("cli.render.bytes", len(result.encode()))

    def _after_build(self, args, result) -> None:
        self.systems.append(result)

    def _after_nullspace(self, args, result) -> None:
        self.kernels.append(result)

    _HOOKS = {
        "diffring.mul": _after_mul,
        "diffring.substitute": _after_substitute,
        "zeta.to_coords": _after_zeta,
        "zeta.from_coords": _after_zeta,
        "cli.render": _after_render,
        "detsolve.build": _after_build,
        "detsolve.eliminate": _after_nullspace,
    }

    # -- installing -----------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; record the missing ones as absent.

        All target modules are imported first, so that a function is also
        replaced in modules that import it but come later in the list.
        """
        modules = {}
        for _, module_name, _ in targets:
            try:
                modules[module_name] = importlib.import_module(module_name)
            except ImportError:
                pass
        for name, module_name, path in targets:
            module = modules.get(module_name)
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            hook = self._HOOKS.get(name)
            wrapper = self.wrap(name, original, hook.__get__(self) if hook else None)
            if owner is module:
                self._rebind_everywhere(original, wrapper)
            else:
                self._patch(owner, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "jetsym" or mod_name.startswith("jetsym.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- summarising ----------------------------------------------------------

    def totals(self) -> SpanTotals:
        names = [self.names[i] for i in self.name_id]
        return span_totals(names, self.parent, self.start, self.end)

    def q_body_cache(self) -> Optional[tuple[int, int]]:
        """(hits, misses) of the family cache, or None when it is gone."""
        module_name, attr = Q_BODY_CACHE
        module = sys.modules.get(module_name)
        info = getattr(getattr(module, attr, None), "cache_info", None)
        if info is None:
            return None
        ci = info()
        return ci.hits, ci.misses

    def detsolve_counts(self) -> dict[str, int]:
        out = {}
        if self.systems:
            out["detsolve.cols"] = sum(s.ncols for s in self.systems)
            out["detsolve.rows"] = sum(len(s.rows) for s in self.systems)
            out["detsolve.nnz"] = sum(len(r) for s in self.systems for r in s.rows.values())
            out["detsolve.max_entry_bits"] = max(
                (_bits(v) for s in self.systems for r in s.rows.values() for v in r.values()),
                default=0,
            )
        if self.kernels:
            out["detsolve.max_kernel_bits"] = max(
                (_bits(v) for k in self.kernels for vec in k for v in vec), default=0
            )
        if self.systems and len(self.kernels) == len(self.systems):
            out["detsolve.rank"] = sum(
                s.ncols - len(k) for s, k in zip(self.systems, self.kernels)
            )
        return out

    def summary(self) -> dict:
        """Per-name totals and counts, in a JSON-ready form."""
        t = self.totals()
        return {
            "calls": t.calls,
            "self_ns": t.self_ns,
            "incl_ns": t.incl_ns,
            "child_incl_ns": [[p, c, v] for (p, c), v in t.child_incl_ns.items()],
            "counts": {**self.counts, **self.detsolve_counts()},
            "q_body_cache": self.q_body_cache(),
            "absent": self.absent,
        }


_MAX_COUNTS = ("detsolve.max_entry_bits", "detsolve.max_kernel_bits")


def merge_summaries(summaries) -> dict:
    """Add up the summaries of the processes of one round."""
    merged = {"calls": {}, "self_ns": {}, "incl_ns": {}, "child_incl_ns": {}, "counts": {}}
    hits = misses = 0
    seen_cache = False
    absent: set[str] = set()
    for s in summaries:
        for key in ("calls", "self_ns", "incl_ns", "counts"):
            bucket = merged[key]
            for name, v in s[key].items():
                if key == "counts" and name in _MAX_COUNTS:
                    bucket[name] = max(bucket.get(name, 0), v)
                else:
                    bucket[name] = bucket.get(name, 0) + v
        for p, c, v in s["child_incl_ns"]:
            merged["child_incl_ns"][(p, c)] = merged["child_incl_ns"].get((p, c), 0) + v
        if s["q_body_cache"] is not None:
            seen_cache = True
            hits += s["q_body_cache"][0]
            misses += s["q_body_cache"][1]
        absent.update(s["absent"])
    merged["q_body_cache"] = (hits, misses) if seen_cache else None
    merged["absent"] = sorted(absent)
    return merged


def layer_values(merged: dict) -> dict[str, float]:
    """Every per-layer metric except the overhead ratio, from merged spans."""
    calls, self_ns, incl, child = (
        merged["calls"], merged["self_ns"], merged["incl_ns"], merged["child_incl_ns"]
    )
    counts = merged["counts"]

    def secs(ns) -> float:
        return ns / 1e9

    out: dict[str, float] = {}
    for metric, _unit, _better in LAYER_METRICS:
        if metric.endswith(".calls"):
            out[metric] = calls.get(metric[: -len(".calls")], 0)
        elif metric.endswith(".self_s"):
            out[metric] = secs(self_ns.get(metric[: -len(".self_s")], 0))
        elif metric in counts:
            out[metric] = counts[metric]
    out["detsolve.enumerate_s"] = secs(incl.get("detsolve.enumerate", 0))
    out["detsolve.eliminate_s"] = secs(incl.get("detsolve.eliminate", 0))
    out["detsolve.build_s"] = secs(
        incl.get("detsolve.build", 0) - child.get(("detsolve.build", "detsolve.enumerate"), 0)
    )
    out["detsolve.check_s"] = secs(
        incl.get("detsolve.solve", 0)
        - child.get(("detsolve.solve", "detsolve.build"), 0)
        - child.get(("detsolve.solve", "detsolve.eliminate"), 0)
    )
    rows = counts.get("detsolve.rows", 0)
    out["detsolve.useful_row_ratio"] = counts.get("detsolve.rank", 0) / rows if rows else 0.0
    cache = merged["q_body_cache"]
    lookups = sum(cache) if cache else 0
    out["symfam.q_body.hit_ratio"] = cache[0] / lookups if lookups else 0.0
    for metric, _unit, _better in LAYER_METRICS:
        out.setdefault(metric, 0)
    del out["trace.overhead_ratio"]
    return out
