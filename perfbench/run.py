"""jetsym benchmark: end-to-end times per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is solve, verify, coords or gen, or ``all`` to run the four with their
passes interleaved.  Run from a checkout of the repository; the package is
imported from its ``src`` directory.  Every operation runs in a fresh
process, as a user runs ``jetsym``, because ``symfam._q_body`` and the
equations' ``D_x`` caches are process-global and start cold on every
invocation.  One client runs one process at a time (a closed loop) and the
workload's operations are taken in turn.  New processes start until S
seconds have passed and every operation has run at least once.

Times are rescaled to a fixed host speed by a reference computation timed
after every process, on the same CPU (see ``hostspeed.py``); the raw times
are in the record.  With ``--trace 0`` the run reports the end-to-end metrics:

    setup_s      median time for a fresh interpreter to ``import jetsym``
    wall_s       wall time of one pass over the workload's operations: the
                 sum over operations of the median time of each
    cpu_s        the same for user + system CPU time of the processes
    peak_rss_mb  the largest resident set of any process in the run
    op_tail_s    for the operation with the largest median time, the
                 highest percentile with at least ten samples beyond it,
                 or the median when there are at most twenty samples

With ``--trace 1`` it alternates untraced passes with passes under the layer
tracer (``tracer.py``) and reports the per-layer metrics, with
``trace.overhead_ratio`` = traced wall_s / untraced wall_s.  Times are the
median over complete traced passes; counts come from the first traced pass,
so they repeat exactly for a seed.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (named ``<workload>.<metric>`` for ``all``).
Every operation's output is checked (see ``workloads.py`` and
``coords.py``); any failure makes the exit code 1.  A record with sample
counts, raw times and the environment is written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import coords
import hostspeed
import stats
from tracer import LAYER_METRICS, layer_values, merge_summaries
from workloads import CLI_WORKLOADS, WORKLOAD_NAMES, check_cli, load_expected

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_tail_s", "s"),
)
SETUP_SAMPLES = 9


@dataclass
class Proc:
    wall: float
    cpu: float  # user + system seconds
    rss_mb: float  # peak resident set
    returncode: int
    stdout: bytes
    stderr: bytes


@dataclass
class Op:
    """One process of a workload: a CLI command or a batch of coords inputs."""

    kind: str
    argv: tuple = ()
    batch: int = 0


@dataclass
class Samples:
    """Raw measurements of one mode (untraced or traced), per operation kind."""

    wall: dict = field(default_factory=dict)  # op kind -> [seconds]
    cpu: dict = field(default_factory=dict)
    op_latency: dict = field(default_factory=dict)  # op kind -> [seconds]
    peak_rss_mb: float = 0.0
    summaries: dict = field(default_factory=dict)  # pass index -> [summary]
    complete_passes: list = field(default_factory=list)

    def add(self, kind: str, proc: Proc, wall: float, latencies) -> None:
        self.wall.setdefault(kind, []).append(wall)
        self.cpu.setdefault(kind, []).append(proc.cpu)
        self.op_latency.setdefault(kind, []).extend(latencies)
        self.peak_rss_mb = max(self.peak_rss_mb, proc.rss_mb)

    @staticmethod
    def pass_time(per_kind: dict) -> float:
        """Sum over operation kinds of each kind's median."""
        return sum(statistics.median(v) for v in per_kind.values())

    def processes(self) -> int:
        return sum(len(v) for v in self.wall.values())


class Runner:
    """Runs and checks the processes of one benchmark invocation."""

    def __init__(self, seed: int):
        self.seed = seed
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.expected = load_expected()
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: list[float] = []  # host-speed reference times
        self.spool = RESULTS_DIR / f"spool-{os.getpid()}"
        self.spool.mkdir(parents=True, exist_ok=True)

    def close(self) -> None:
        for f in self.spool.iterdir():
            f.unlink()
        self.spool.rmdir()

    def fail(self, what: str, reason: str) -> None:
        self.failures.append(f"{what}: {reason}")
        print(f"FAIL {what}: {reason}", file=sys.stderr)

    def run_process(self, argv) -> Proc:
        """Run one child to its end, then time the host-speed reference."""
        with open(self.spool / "stderr", "w+b") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen(argv, env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=err)
            with p.stdout:
                out = p.stdout.read()
            _, status, usage = os.wait4(p.pid, 0)
            wall = time.perf_counter() - t0
            p.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read()
        self.reference.extend(hostspeed.probe(wall))
        return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                    p.returncode, out, stderr)

    @staticmethod
    def stderr_tail(proc: Proc) -> str:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        return f" [{' | '.join(tail)}]" if tail else ""

    def setup_sample(self, setup: Samples) -> None:
        proc = self.run_process([sys.executable, "-c", "import jetsym"])
        if proc.returncode != 0:
            self.fail("import jetsym", f"exit {proc.returncode}" + self.stderr_tail(proc))
        setup.add("import jetsym", proc, proc.wall, [])


class Workload:
    """The passes of one workload, untraced and traced."""

    def __init__(self, name: str, runner: Runner):
        self.name = name
        self.runner = runner
        self.untraced = Samples()
        self.traced = Samples()

    def pass_ops(self, index: int) -> list[Op]:
        if self.name == "coords":
            return [Op("coords", batch=index)]
        return [Op(" ".join(a), argv=a) for a in CLI_WORKLOADS[self.name]]

    def run_op(self, op: Op, traced: bool, pass_index: int) -> None:
        r = self.runner
        samples = self.traced if traced else self.untraced
        summary_path = r.spool / "summary.json"
        if op.kind == "coords":
            argv = [sys.executable, str(BENCH_DIR / "coords.py"),
                    "--seed", str(r.seed), "--batch", str(op.batch)]
            if traced:
                argv += ["--summary", str(summary_path)]
        elif traced:
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"),
                    str(summary_path), "--", *op.argv]
        else:
            argv = [sys.executable, "-m", "jetsym.cli", *op.argv]
        proc = r.run_process(argv)
        wall = proc.wall
        if traced and summary_path.exists():
            summary = json.loads(summary_path.read_text())
            summary_path.unlink()
            wall -= summary["post_s"]
            samples.summaries.setdefault(pass_index, []).append(summary)
        if op.kind == "coords":
            self.check_coords(op, proc, samples, wall)
            return
        r.attempted += 1
        reason = check_cli(op.argv, proc.stdout, proc.returncode, r.expected)
        if reason:
            r.fail(op.kind, reason + r.stderr_tail(proc))
        samples.add(op.kind, proc, wall, [wall])

    def check_coords(self, op: Op, proc: Proc, samples: Samples, wall: float) -> None:
        r = self.runner
        what = f"coords seed {r.seed} batch {op.batch}"
        try:
            results = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            r.attempted += coords.BATCH
            r.fail(what, f"no result, exit {proc.returncode}" + r.stderr_tail(proc))
            return
        r.attempted += len(results)
        for i, (_, ok, _) in enumerate(results):
            if not ok:
                r.fail(f"{what} input {i}", "round trip is not the identity")
        if len(results) != coords.BATCH or proc.returncode not in (0, 1):
            r.fail(what, f"exit {proc.returncode}" + r.stderr_tail(proc))
        samples.add("coords", proc, wall, [x[0] for x in results])


def measure(runner: Runner, workloads: list[Workload], seconds: float, trace: bool) -> Samples:
    """Interleave passes until the deadline; returns the set-up samples.

    Pass i of every workload runs, untraced and then (with ``trace``) traced,
    before pass i + 1 of any.  After the deadline no new process starts,
    once every workload has completed a pass in every mode.
    """
    modes = (False, True) if trace else (False,)
    setup = Samples()
    deadline = time.perf_counter() + seconds

    def started() -> bool:
        return all(
            w.untraced.complete_passes and (w.traced.complete_passes or not trace)
            for w in workloads
        )

    index = 0
    while True:
        for w in workloads:
            for mode in modes:
                if not trace and setup.processes() < SETUP_SAMPLES:
                    runner.setup_sample(setup)
                for op in w.pass_ops(index):
                    if started() and time.perf_counter() >= deadline:
                        while not trace and setup.processes() < SETUP_SAMPLES:
                            runner.setup_sample(setup)
                        return setup
                    w.run_op(op, mode, index)
                (w.traced if mode else w.untraced).complete_passes.append(index)
        index += 1


def end_to_end(w: Workload, setup: Samples, factor: float) -> tuple[dict, dict]:
    """End-to-end metrics, times rescaled by the run's host-speed factor."""
    u = w.untraced
    raw = {
        "setup_s": setup.pass_time(setup.wall),
        "wall_s": u.pass_time(u.wall),
        "cpu_s": u.pass_time(u.cpu),
    }
    # The tail of the operation with the largest median: choosing the largest
    # tail instead would pick whichever operation drew the slowest samples.
    worst = max(u.op_latency, key=lambda k: statistics.median(u.op_latency[k]))
    raw["op_tail_s"], pct, beyond = stats.tail(u.op_latency[worst])
    values = {name: raw[name] * factor for name in ("setup_s", "wall_s", "cpu_s")}
    values["peak_rss_mb"] = max(u.peak_rss_mb, setup.peak_rss_mb)
    values["op_tail_s"] = raw["op_tail_s"] * factor
    n = u.processes()
    counts = {
        "setup_s": f"n={setup.processes()}",
        "wall_s": f"n={n} processes, >= {min(len(v) for v in u.wall.values())} per operation",
        "cpu_s": f"n={n} processes",
        "peak_rss_mb": f"n={n + setup.processes()} processes",
        "op_tail_s": f"p{pct:.1f} of n={len(u.op_latency[worst])}, "
                     f"{beyond} beyond, operation '{worst}'",
    }
    return values, {"samples": counts, "raw_s": raw, "raw_wall_samples_s": u.wall}


def layer_metrics(w: Workload, factor: float) -> tuple[dict, dict]:
    """Per-layer metrics from the complete traced passes; times rescaled."""
    t, u = w.traced, w.untraced
    complete = [i for i in t.complete_passes if i in t.summaries]
    merged = [merge_summaries(t.summaries[i]) for i in complete]
    per_pass = [layer_values(m) for m in merged]
    values = {}
    for metric, unit, _ in LAYER_METRICS:
        if metric == "trace.overhead_ratio":
            values[metric] = t.pass_time(t.wall) / u.pass_time(u.wall)
        elif unit == "s":
            values[metric] = statistics.median([p[metric] for p in per_pass]) * factor
        else:
            values[metric] = per_pass[0][metric]
    counts = {m: f"n={len(per_pass)} traced passes" for m, _, _ in LAYER_METRICS}
    counts["trace.overhead_ratio"] = (
        f"n={t.processes()} traced, {u.processes()} untraced processes"
    )
    return values, {"samples": counts, "absent": merged[0]["absent"]}


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    try:
        load1 = float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        load1 = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1min": load1,
        "seed": seed,
        "commit": git_commit(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="jetsym benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "jetsym" / "__init__.py").is_file():
        print(f"error: no jetsym sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    env_record = environment(args.seed)
    # One CPU for this process and every child it starts: the host-speed
    # reference then runs where the measured processes ran.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print("environment: " + json.dumps(env_record, sort_keys=True))

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    runner = Runner(args.seed)
    try:
        workloads = [Workload(name, runner) for name in names]
        runner.setup_sample(Samples())  # compiles the bytecode that set-up samples read
        setup = measure(runner, workloads, args.seconds, bool(args.trace))
    finally:
        runner.close()

    factor = hostspeed.scale(runner.reference)
    if args.trace:
        units = {m: u for m, u, _ in LAYER_METRICS}
        reports = {w.name: layer_metrics(w, factor) for w in workloads}
    else:
        units = dict(END_TO_END)
        reports = {w.name: end_to_end(w, setup, factor) for w in workloads}
    for name, (values, info) in reports.items():
        for absent in info.get("absent", []):
            print(f"{name:7} absent: {absent} (its metrics read 0)")
        for metric, value in values.items():
            print(f"{name:7} {metric:38} {value:>14.6g} {units[metric]:6} "
                  f"{info['samples'][metric]}")
    failed, attempted = len(runner.failures), runner.attempted
    print(f"{args.workload:7} {'fail_ratio':38} {failed / attempted:>14.6g} {'ratio':6} "
          f"n={attempted} operations")
    print(f"{args.workload:7} {'host_speed_factor':38} {factor:>14.6g} {'ratio':6} "
          f"n={len(runner.reference)} reference products; times = raw times * factor")

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env_record,
        "attempted": attempted,
        "failed": failed,
        "failures": runner.failures,
        "host_speed_factor": factor,
        "workloads": {
            name: {
                "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
                **info,
            }
            for name, (values, info) in reports.items()
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    prefix = args.workload == "all"
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            (f"{name}.{m}" if prefix else m): {"value": v, "unit": units[m]}
            for name, (values, _) in reports.items()
            for m, v in values.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
