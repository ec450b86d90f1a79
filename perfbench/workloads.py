"""The benchmark's workloads and the correctness check of each operation.

Three workloads are CLI invocations, one process per operation, exactly as a
user types them.  ``coords`` is a library workload: one process handles a
batch of generated polynomials (see ``coords.py``).  README.md in this
directory gives the reason for each workload.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

SOLVE_ORDER = 4

# Sweep bounds above each suite's default, chosen so that no suite dominates
# a round: each takes roughly 0.6 to 1.5 s on a 2-core x86 host.
VERIFY_BOUNDS = (
    ("invariance", 9),
    ("commutators", 4),
    ("recursion", 7),
    ("zeta", 18),
    ("maps", 10),
)

GEN_ORDER = 12

CLI_WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    "solve": (("solve", "--order", str(SOLVE_ORDER), "--format", "json"),),
    "verify": tuple(
        ("verify", "--suite", suite, "--max-order", str(bound))
        for suite, bound in VERIFY_BOUNDS
    ),
    "gen": tuple(
        ("gen", "--eq", eq, "--max-order", str(GEN_ORDER), "--format", fmt)
        for eq in ("heat", "potburgers", "burgers")
        for fmt in ("text", "latex", "json")
    ),
}

WORKLOAD_NAMES = ("solve", "verify", "coords", "gen")

EXPECTED_PATH = Path(__file__).with_name("expected.json")

_VERIFY_SUMMARY = re.compile(rb"^(\d+) checks: (\d+) passed, 0 failed$")


def op_key(argv) -> str:
    return " ".join(argv)


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def check_cli(argv, stdout: bytes, returncode: int, expected: dict) -> str:
    """Return "" when the operation's output is correct, else the reason."""
    pin = expected.get(op_key(argv))
    if pin is None:
        return "no pinned output for this operation"
    if returncode != pin["exit"]:
        return f"exit code {returncode}, expected {pin['exit']}"
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != pin["sha256"]:
        return f"stdout sha256 {digest}, expected {pin['sha256']}"
    command = argv[0]
    if command == "solve":
        payload = json.loads(stdout)
        n = SOLVE_ORDER
        if payload.get("dimension") != n * (n + 3) // 2:
            return f"dimension {payload.get('dimension')}, expected {n * (n + 3) // 2}"
        if payload.get("family_span_matches") is not True:
            return "family_span_matches is not true"
    elif command == "verify":
        lines = stdout.rstrip(b"\n").split(b"\n")
        m = _VERIFY_SUMMARY.match(lines[-1])
        if m is None or m.group(1) != m.group(2):
            return f"summary line {lines[-1][:80]!r}"
    return ""
