"""Command-line surface: family tables, verification suites, solver, maps.

Subcommands:

    gen     emit a family table (text, LaTeX, or lossless JSON)
    verify  run an exact-check suite; exit 0 iff every check passes
    solve   run the bounded-ansatz determining-equation solver (Burgers)
    map     push one heat characteristic down the substitution chain

All output is byte-deterministic for fixed flags: terms are rendered in the
global monomial order, coefficients as exact num/den strings, and suite
results in a fixed order.  gen streams its table as it renders it.  Exit
codes: 0 success, 1 check or verdict failure, 2 usage error or output that
cannot be written (gen --out, or a closed stdout), 3 resource cap exceeded.

The verify suites live in jetsym.checks; this module keeps their default
bounds and caps.  A module that only one command uses is imported in that
command's handler (detsolve for solve, colemap for map, checks for verify),
so each process compiles no more of the package than its command runs;
the json module is likewise imported only where gen writes JSON, and
solve writes its JSON without it.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction
from typing import NamedTuple

from . import __version__
from .diffring import (
    DiffPoly,
    KIND_EXP,
    KIND_JET,
    KIND_PAR,
    KIND_T,
    KIND_X,
    JetLimitError,
    Record,
    jet_rows,
    ratio_text,
    render_terms,
    tx_factors,
)
from .jetflow import BURGERS, EQUATIONS, invariance_residual
from .symfam import Family, index_range, q_char

# invariance_residual is not called here.  It stays importable from
# jetsym.cli, where perfbench/tests checks that the layer tracer's wrappers
# reach it; every command loads jetflow anyway.

MONOMIAL_ORDER_ID = "graded:t<x<z<h"

_KIND_LETTER = {KIND_T: "t", KIND_X: "x", KIND_JET: "z", KIND_PAR: "h", KIND_EXP: "e"}


# -- rendering ------------------------------------------------------------------


def _text_var(v, dep: str) -> str:
    kind, idx = v
    if kind == KIND_T:
        return "t"
    if kind == KIND_X:
        return "x"
    letter = dep if kind == KIND_JET else "h"
    return letter if idx == 0 else f"{letter}{idx}"


def render_text(p: DiffPoly, dep: str, parts: dict | None = None) -> str:
    """p in plain text, dep naming the jet variables; parts as in render_terms."""
    return render_terms(p, lambda v: _text_var(v, dep), parts=parts, fmt=("text", dep))


def _latex_var(v, dep: str) -> str:
    kind, idx = v
    if kind == KIND_T:
        return "t"
    if kind == KIND_X:
        return "x"
    letter = dep if kind == KIND_JET else "h"
    if idx == 0:
        return letter
    if idx <= 3:
        return f"{letter}_{{{'x' * idx}}}"
    return f"{letter}_{{x^{{{idx}}}}}"


def _latex_coeff(num: int, den: int) -> str:
    if den == 1:
        return str(num)
    sign = "-" if num < 0 else ""
    return f"{sign}\\tfrac{{{abs(num)}}}{{{den}}}"


def render_latex(p: DiffPoly, dep: str, parts: dict | None = None) -> str:
    """p in LaTeX, dep naming the jet variables; parts as in render_terms."""
    return render_terms(
        p, lambda v: _latex_var(v, dep), "{}^{{{}}}", _latex_coeff, " ", parts, ("latex", dep)
    )


_FAMILY_TEX = {
    Family.HEAT_Q: "\\mathfrak{Q}",
    Family.POT_Q: "\\tilde{\\mathfrak{Q}}",
    Family.BURGERS_Q: "\\hat{\\mathfrak{Q}}",
}


# -- lossless JSON documents -----------------------------------------------------


def _json_array(items: Iterable[str | Iterable[str]], depth: int) -> Iterator[str]:
    """The text of a JSON array, laid out as json.dumps(indent=2) at depth,
    in fragments; each item is given as its text or its fragments."""
    inner = "\n" + "  " * (depth + 1)
    sep = "[" + inner
    for item in items:
        if isinstance(item, str):
            yield sep + item
        else:
            yield sep
            yield from item
        sep = "," + inner
    yield "[]" if sep[0] == "[" else "\n" + "  " * depth + "]"


def _json_object(fields: dict[str, str | Iterable[str]], depth: int) -> Iterator[str]:
    """The text of a JSON object, laid out as json.dumps(indent=2,
    sort_keys=True) at depth, in fragments.  The keys are plain names; a
    value is its text or its fragments."""
    inner = "\n" + "  " * (depth + 1)
    sep = "{" + inner
    for key, value in sorted(fields.items()):
        yield f'{sep}"{key}": '
        if isinstance(value, str):
            yield value
        else:
            yield from value
        sep = "," + inner
    yield "\n" + "  " * depth + "}"


def _body_json(p: DiffPoly, depth: int, parts: dict | None = None) -> str:
    """The text of p as a JSON array at depth, as one string: each term is
    [monomial, "coefficient"], each factor [letter, index, exponent].

    A coefficient is str(c) (digits, "-" and "/" need no escaping).  parts
    is the table of diffring.jet_rows; under ("json", depth) it also keeps
    the factor text of each jet part and each t and x part, so that the
    bodies of one document name each of them once.
    """
    i1, i2, i3, i4 = ("\n" + "  " * (depth + n) for n in (1, 2, 3, 4))
    parts = {} if parts is None else parts
    part_texts, tx_texts = parts.setdefault(("json", depth), ({}, {}))

    def text_of(factors):
        return f",{i3}".join(
            f'[{i4}"{_KIND_LETTER[kind]}",{i4}{idx},{i4}{e}{i3}]' for (kind, idx), e in factors
        )

    # each term's text is one f-string: [[t and x factors, jet factors], "c"]
    head, sep, mid, tail = f"[{i2}[{i3}", f",{i3}", f'{i2}],{i2}"', f'"{i1}]'
    texts = []
    for _, _, tx, j, num, den in jet_rows(p, parts):
        body = part_texts.get(j)
        if body is None:
            body = part_texts[j] = text_of(parts[j][2])
        tx_text = tx_texts.get(tx)
        if tx_text is None:
            tx_text = tx_texts[tx] = text_of(tx_factors(tx))
        c = ratio_text(num, den)
        if tx_text and body:
            texts.append(f"{head}{tx_text}{sep}{body}{mid}{c}{tail}")
        elif tx_text or body:
            texts.append(f"{head}{tx_text or body}{mid}{c}{tail}")
        else:
            texts.append(f'[{i2}[],{i2}"{c}{tail}')
    if not texts:
        return "[]"
    return f"[{i1}" + f",{i1}".join(texts) + "\n" + "  " * depth + "]"


class TableEntry(NamedTuple):
    family: str
    k: int
    l: int
    body: DiffPoly


class SymmetryTableDoc(Record):
    """A family table, as gen writes it.

    Its JSON is lossless: each coefficient is its exact num/den string, each
    factor [letter, index, exponent], and a power of E is ["e", 0, m].  A
    Record whose fields are read-only; each document gets its own metadata
    dict unless one is given.
    """

    __slots__ = ("equation", "entries", "metadata")

    def __init__(self, equation: str, entries: list, metadata: dict | None = None):
        super().__init__(equation, entries, {} if metadata is None else metadata)

    def _json_fragments(self) -> Iterator[str]:
        """The document as JSON, written directly, in fragments: a few per
        entry with each body whole; the bodies share one jet-part table.

        The joined bytes equal json.dumps(payload, indent=2, sort_keys=True)
        + "\\n" of the dict payload (tests/test_cli.py compares the two on
        random documents); the standard library's indenting encoder is pure
        Python and several times slower on large tables.
        """
        import json

        parts: dict = {}
        entries = (
            _json_object(
                {
                    "body": _body_json(e.body, 3, parts),
                    "family": json.dumps(e.family),
                    "k": json.dumps(e.k),
                    "l": json.dumps(e.l),
                },
                2,
            )
            for e in self.entries
        )
        metadata = json.dumps(self.metadata, indent=2, sort_keys=True).replace("\n", "\n  ")
        fields = {
            "entries": _json_array(entries, 1),
            "equation": json.dumps(self.equation),
            "metadata": metadata,
        }
        yield from _json_object(fields, 0)
        yield "\n"


def _has_origin(family: Family) -> bool:
    """Whether a Q family's member (0, 0) is nonzero; Burgers' is D_x 1 = 0."""
    return not q_char(family).body.is_zero()


def family_table(equation: str, max_order: int) -> SymmetryTableDoc:
    family = EQUATIONS[equation].q_family
    entries = [
        TableEntry("Q", k, l, q_char(family, k, l).body)
        for k, l in index_range(max_order, include_origin=_has_origin(family))
    ]
    metadata = {
        "engine": f"jetsym {__version__}",
        "monomial_order": MONOMIAL_ORDER_ID,
    }
    return SymmetryTableDoc(equation, entries, metadata)


def _table_fragments(doc: SymmetryTableDoc, fmt: str) -> Iterator[str]:
    """The table in fmt, in order: JSON a few fragments per entry with each
    body whole, text and LaTeX one line per entry.  The bodies share one
    jet-part table."""
    if fmt == "json":
        yield from doc._json_fragments()
        return
    if not doc.entries:
        yield "\n"
    eq = EQUATIONS[doc.equation]
    dep, parts = eq.letter, {}
    if fmt == "text":
        for e in doc.entries:
            yield f"Q[{e.k},{e.l}] = {render_text(e.body, dep, parts)}\n"
    else:
        sym = _FAMILY_TEX[eq.q_family]
        for e in doc.entries:
            yield f"{sym}^{{{e.k},{e.l}}} = {render_latex(e.body, dep, parts)}\n"


def render_table(doc: SymmetryTableDoc, fmt: str) -> str:
    """The whole table in fmt (json, text or latex), as write_table writes it."""
    return "".join(_table_fragments(doc, fmt))


# write_table joins fragments into pieces of about this many characters.
# Written one by one, the fragments leave a text stream in 8 KiB system
# calls, each of which wakes the reader of a pipe: the order-12 Burgers JSON
# table then took about 10 % more process time through a pipe.
_WRITE_CHUNK = 1 << 18


def write_table(doc: SymmetryTableDoc, fmt: str, stream) -> None:
    """Write the table in fmt to stream as it is rendered, in pieces of
    about _WRITE_CHUNK characters, so that the whole document is never
    held in memory.

    A body is written whole: a piece can exceed _WRITE_CHUNK by one body,
    whose JSON text reaches 277 K characters in the Burgers table at order
    12 and 1.1 M at order 16.
    """
    batch: list[str] = []
    size = 0
    for fragment in _table_fragments(doc, fmt):
        batch.append(fragment)
        size += len(fragment)
        if size >= _WRITE_CHUNK:
            stream.write("".join(batch))
            batch, size = [], 0
    stream.write("".join(batch))


# -- verification suites ----------------------------------------------------------

# suite name (see jetsym.checks) -> (default sweep bound, largest --max-order
# the CLI accepts).  At its cap each suite runs in 0.3-0.6 s, whole process
# (python -m jetsym.cli verify --suite NAME --max-order CAP, CPython 3.11.7,
# no bytecode cache, one pinned CPU of a loaded 2-core x86-64 host, medians
# of 10 runs): invariance 0.49 s, commutators 0.55 s, recursion 0.37 s,
# zeta 0.31 s, maps 0.61 s.
_SUITE_ORDERS = {
    "invariance": (6, 12),
    "commutators": (3, 5),
    "recursion": (5, 10),
    "zeta": (8, 24),
    "maps": (5, 14),
}

# Largest gen --max-order: the Burgers JSON table is 41 MB at 16, 194 MB at 20.
GEN_MAX_ORDER = 16

# Largest map --k + --l, the same bound as gen.  On a 2-core x86-64 host under
# CPython 3.11, k + l = 16 takes about 0.2 s; map --k 0 --l 64 --to potburgers
# ran for 85 s and grew to 2.6 GB before it was stopped.
MAP_MAX_ORDER = 16


# -- subcommands -----------------------------------------------------------------


def _cmd_gen(args, parser) -> int:
    if args.max_order < (0 if _has_origin(EQUATIONS[args.eq].q_family) else 1):
        parser.error(f"--max-order {args.max_order} is invalid for --eq {args.eq}")
    if args.max_order > GEN_MAX_ORDER:
        return _order_too_large(f"gen --max-order {args.max_order}", GEN_MAX_ORDER)
    doc = family_table(args.eq, args.max_order)
    if not args.out:
        write_table(doc, args.format, sys.stdout)
        return 0
    try:
        with open(args.out, "w") as fh:
            write_table(doc, args.format, fh)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    return 0


def _cmd_verify(args, parser) -> int:
    names = list(_SUITE_ORDERS) if args.suite == "all" else [args.suite]
    if args.max_order is not None:
        if args.max_order < 0:
            parser.error(f"--max-order {args.max_order} is invalid")
        for name in names:
            cap = _SUITE_ORDERS[name][1]
            if args.max_order > cap:
                return _order_too_large(f"verify --suite {name} --max-order {args.max_order}", cap)
    from .checks import run_suites

    return run_suites(
        (name, _SUITE_ORDERS[name][0] if args.max_order is None else args.max_order)
        for name in names
    )


def _order_too_large(request: str, cap: int) -> int:
    print(f"order too large: {request} exceeds the cap {cap}", file=sys.stderr)
    return 3


def _cmd_solve(args, parser) -> int:
    from .detsolve import AnsatzTooLarge, solve_symmetries

    if args.order < 0:
        parser.error("--order must be nonnegative")
    bounds = {"--jet-deg": args.jet_deg, "--x-deg": args.x_deg, "--t-deg": args.t_deg}
    for flag, bound in bounds.items():
        if bound < -1:
            parser.error(f"{flag} must be nonnegative, or -1 for the default")
    try:
        report = solve_symmetries(
            BURGERS,
            args.order,
            jet_degree=args.jet_deg,
            x_degree=args.x_deg,
            t_degree=args.t_deg,
        )
    except (AnsatzTooLarge, JetLimitError) as exc:
        print(f"ansatz too large: {exc}", file=sys.stderr)
        return 3
    if args.format == "json":
        # written without the json module: three ints, a bool or null, and
        # the bodies
        span = report.family_span_matches
        fields = {
            "ansatz_size": str(report.ansatz_size),
            "basis": _json_array((_body_json(c.body, 2) for c in report.basis), 1),
            "dimension": str(report.dimension),
            "family_span_matches": "null" if span is None else "true" if span else "false",
            "order": str(report.order),
        }
        sys.stdout.write("".join([*_json_object(fields, 0), "\n"]))
    else:
        print(f"order {report.order}: dimension {report.dimension} "
              f"(ansatz {report.ansatz_size} monomials)")
        verdict = "MATCH" if report.family_span_matches else "MISMATCH"
        print(f"family span: {verdict}")
        for i, c in enumerate(report.basis):
            print(f"  basis[{i}] = {render_text(c.body, c.equation.letter)}")
    return 0 if report.family_span_matches else 1


def _cmd_map(args, parser) -> int:
    from .colemap import NotProjectable, heat_to_potential, potential_to_burgers

    if args.k < 0 or args.l < 0:
        parser.error("--k and --l must be nonnegative")
    if args.family == "z" and (args.k or args.l):
        parser.error("--family z takes no --k or --l: the parameter family has no indices")
    if args.k + args.l > MAP_MAX_ORDER:
        return _order_too_large(f"map --k {args.k} --l {args.l}", MAP_MAX_ORDER)
    if args.family == "z":
        eta, label = q_char(Family.HEAT_Z), "Z(h)"
    else:
        eta, label = q_char(Family.HEAT_Q, args.k, args.l), f"Q[{args.k},{args.l}]"
    print(f"heat: {label} = {render_text(eta.body, eta.equation.letter)}")
    mid = heat_to_potential(eta)
    print(f"potential: {render_text(mid.body, mid.equation.letter)}")
    if args.to == "potburgers":
        return 0
    try:
        final = potential_to_burgers(mid)
    except NotProjectable as exc:
        print(f"NOT PROJECTABLE: {exc}")
        return 1
    body = final.body * Fraction(-1, 2) if args.normalize else final.body
    name = "burgers (normalized)" if args.normalize else "burgers"
    print(f"{name}: {render_text(body, final.equation.letter)}")
    if final.body.is_zero():
        print("KERNEL: the image vanishes")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetsym",
        description="exact symmetry calculus for the heat, potential Burgers, "
        "and Burgers equations",
    )
    parser.add_argument("--version", action="version", version=f"jetsym {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a symmetry family table")
    gen.add_argument("--eq", choices=tuple(EQUATIONS), required=True)
    gen.add_argument(
        "--max-order",
        type=int,
        required=True,
        help=f"emit members with k+l up to N (at most {GEN_MAX_ORDER})",
    )
    gen.add_argument("--format", choices=("json", "latex", "text"), default="text")
    gen.add_argument("--out", default=None, help="write to a file instead of stdout")

    verify = sub.add_parser("verify", help="run an exact verification suite")
    verify.add_argument(
        "--suite",
        choices=(*_SUITE_ORDERS, "all"),
        default="all",
    )
    verify.add_argument(
        "--max-order",
        type=int,
        default=None,
        help="override each suite's default sweep bound (caps: "
        + ", ".join(f"{name} {cap}" for name, (_, cap) in _SUITE_ORDERS.items())
        + ")",
    )

    solve = sub.add_parser("solve", help="bounded-ansatz determining-equation solver")
    solve.add_argument("--order", type=int, required=True, help="symmetry order n")
    solve.add_argument("--jet-deg", type=int, default=-1, help="total jet degree bound (default n)")
    solve.add_argument("--x-deg", type=int, default=-1, help="x degree bound (default n)")
    solve.add_argument("--t-deg", type=int, default=-1, help="t degree bound (default n)")
    solve.add_argument("--format", choices=("json", "text"), default="text")

    mp = sub.add_parser("map", help="push a heat characteristic down the chain")
    mp.add_argument("--from", dest="source", choices=("heat",), default="heat")
    mp.add_argument("--to", choices=("potburgers", "burgers"), default="burgers")
    mp.add_argument("--k", type=int, default=0)
    mp.add_argument("--l", type=int, default=0, help=f"k + l is at most {MAP_MAX_ORDER}")
    mp.add_argument("--family", choices=("q", "z"), default="q")
    mp.add_argument(
        "--normalize",
        action="store_true",
        help="emit the image divided by -2 (the family member itself)",
    )
    return parser


_COMMANDS = {"gen": _cmd_gen, "verify": _cmd_verify, "solve": _cmd_solve, "map": _cmd_map}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args, parser)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # The reader of stdout has gone (as with | head).  Point stdout at
        # os.devnull, so that the interpreter's final flush of what is still
        # buffered stays quiet, and report a write failure as gen --out does.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"cannot write stdout: {exc.strerror}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
