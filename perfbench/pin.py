"""Write expected.json: sha256 of stdout and exit code of every CLI operation.

    python3 perfbench/pin.py

The pins hold jetsym's byte-determinism contract: a later version must
reproduce them exactly.  Re-pin only when an output change is intended.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import CLI_WORKLOADS, EXPECTED_PATH, op_key

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    pins = {}
    for ops in CLI_WORKLOADS.values():
        for argv in ops:
            p = subprocess.run([sys.executable, "-m", "jetsym.cli", *argv],
                               env=env, cwd=ROOT, capture_output=True)
            pins[op_key(argv)] = {"exit": p.returncode,
                                  "sha256": hashlib.sha256(p.stdout).hexdigest()}
            print(op_key(argv), pins[op_key(argv)])
    EXPECTED_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
