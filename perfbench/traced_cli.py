"""Run one jetsym CLI command with the layer tracer installed.

    python3 perfbench/traced_cli.py SUMMARY_FILE -- jetsym-arguments...

The command's stdout and exit code are those of ``jetsym`` itself, so the
benchmark checks a traced operation exactly as an untraced one.  The
tracer's summary is written to SUMMARY_FILE once the command has ended.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from tracer import Tracer


def main(argv) -> int:
    summary_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SUMMARY_FILE -- jetsym-arguments...")
    tracer = Tracer()
    tracer.install()
    from jetsym import cli

    with tracer.span("op"):
        code = cli.main(cli_args)
    sys.stdout.flush()
    t0 = time.perf_counter()
    summary = tracer.summary()
    summary["post_s"] = time.perf_counter() - t0
    Path(summary_path).write_text(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
