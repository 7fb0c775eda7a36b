"""Benchmark runner: cold CLI jobs, one fresh interpreter each, one at a time.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md): chain3-deep, check-suite, seidel-validate.
The seed only shuffles the order of the operations inside a workload.

``--trace 0`` repeats the workload in rounds for about S seconds and reports
the end-to-end metrics wall_s (median round), setup_s (median of every
set-up), peak_rss_mb (highest child max-RSS) and ok_share.
``--trace 1`` ignores S: it runs the workload once untraced and twice with
span and counter wrappers installed in each child, checks that traced stdout
is byte-identical to untraced stdout and that the listed counters repeat
exactly, and reports the per-layer metrics plus the tracing overhead.

Human-readable lines come first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import contextlib
import json
import os
import random
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field

import child
from workloads import WORKLOADS, GateError

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, ".work")
# Set-up-only children: before the first round, and after each round.
SETUP_ARGV = ("--fan", "chain3")
FIRST_SETUPS = 5
ROUND_SETUPS = 3
# Counters that must repeat exactly between two traced passes.
EXACT_COUNTERS = ("series.QSeries.mul.calls", "lp.eliminate.rows_out",
                  "lp.integer_points.points_out", "mirror.enumerate_classes.classes_out")


@dataclass
class JobResult:
    wall_ns: int
    setup_ns: int | None = None
    rss_kb: int = 0
    timed_out: bool = False
    record: dict = field(default_factory=dict)


@dataclass
class OpResult:
    name: str
    wall_ns: int
    error: str | None = None     # None, "deadline", or why the output is wrong
    jobs: list = field(default_factory=list)


class Runner:
    """Spawns children in their own process group and reaps every one."""

    def __init__(self):
        self.count = 0
        self.live = None

    def spawn(self, mode, argv, timeout_s):
        path = os.path.join(WORK, f"job{self.count:05d}.json")
        self.count += 1
        actions = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 2, path + ".err",
                    os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
        cmd = [sys.executable, "-E", "-s", os.path.join(HERE, "child.py"),
               path, mode, "--", *argv]
        start = time.monotonic_ns()
        pid = self.live = os.posix_spawn(sys.executable, cmd, os.environ,
                                         file_actions=actions, setpgroup=0)
        fd = os.pidfd_open(pid)
        try:
            done = select.select([fd], [], [], max(timeout_s, 0))[0]
        finally:
            os.close(fd)
        end = time.monotonic_ns()
        if not done:
            os.killpg(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        self.live = None
        result = JobResult(end - start, rss_kb=usage.ru_maxrss, timed_out=not done)
        if done and os.waitstatus_to_exitcode(status) == 0:
            with open(path) as fh:
                result.record = json.load(fh)
            result.setup_ns = result.record["ready_ns"] - start
        elif done:
            with open(path + ".err") as fh:
                tail = fh.read().strip().splitlines()[-1:]
            result.record = {"crash": f"child exit {os.waitstatus_to_exitcode(status)}: "
                                      f"{tail}"}
        return result

    def stop(self):
        """Kill and reap a child left running by an interrupted spawn."""
        if self.live is not None:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.killpg(self.live, signal.SIGKILL)
                os.waitpid(self.live, 0)
            self.live = None


def probe_setups(runner, count):
    """Set-up times of children that only import toricmirror and parse a fan."""
    return [runner.spawn("setup", SETUP_ARGV, 60).setup_ns for _ in range(count)]


def run_op(runner, op, mode, deadline_s):
    result = OpResult(op.name, 0)
    for job in op.jobs:
        res = runner.spawn(mode, job.argv, deadline_s - result.wall_ns / 1e9)
        result.jobs.append(res)
        result.wall_ns += res.wall_ns
        if res.timed_out or result.wall_ns > deadline_s * 1e9:
            result.wall_ns = int(deadline_s * 1e9)
            result.error = "deadline"
            return result
        if "crash" in res.record:
            result.error = res.record["crash"]
            return result
        try:
            job.check(res.record["status"], res.record["stdout"])
        except GateError as exc:
            result.error = f"wrong output of {' '.join(job.argv)}: {exc}"
            return result
    return result


def run_round(runner, ops, mode, deadline_s):
    return [run_op(runner, op, mode, deadline_s) for op in ops]


def layer_metrics(results):
    """calls, inclusive s and self s per span name, plus summed counters.

    Inclusive time counts only the outermost span of a name, so recursion
    through a wrapped function is not counted twice.
    """
    out = {f"{m}.{p}.{k}": 0 for m, p in child.SPANS for k in ("calls", "s", "self_s")}
    counters = {name: 0 for name in (f"{n}.{c}" for n, (_, cs) in child.COUNTERS.items()
                                     for c in cs)}
    for op in results:
        for job in op.jobs:
            rec = job.record
            if "spans" not in rec:
                continue
            names, spans = rec["names"], rec["spans"]
            inner = [0] * len(spans)
            for name_i, parent, start, end in spans:
                if parent >= 0:
                    inner[parent] += end - start
            for i, (name_i, parent, start, end) in enumerate(spans):
                name = names[name_i]
                out[f"{name}.calls"] += 1
                out[f"{name}.self_s"] += (end - start - inner[i]) / 1e9
                up = parent
                while up >= 0 and spans[up][0] != name_i:
                    up = spans[up][1]
                if up < 0:
                    out[f"{name}.s"] += (end - start) / 1e9
            for key, value in rec["counters"].items():
                if key.endswith("_max"):
                    counters[key] = max(counters[key], value)
                else:
                    counters[key] += value
    out.update(counters)
    return out


def stdout_of(results):
    return {(op.name, i): job.record.get("stdout")
            for op in results for i, job in enumerate(op.jobs) if "stdout" in job.record}


def summarize(rounds):
    ops = [op for r in rounds for op in r]
    failed = [op for op in ops if op.error]
    wrong = [op for op in failed if op.error != "deadline"]
    for op in failed:
        print(f"  FAIL {op.name}: {op.error}")
    return len(ops), len(failed), not wrong


def round_walls(rounds):
    return [sum(op.wall_ns for op in r) / 1e9 for r in rounds]


def end_to_end(rounds, setups):
    walls = round_walls(rounds)
    jobs = [job for r in rounds for op in r for job in op.jobs]
    setups = setups + [job.setup_ns for job in jobs if job.setup_ns is not None]
    ops = [op for r in rounds for op in r]
    ok = sum(1 for op in ops if not op.error)
    print(f"  {len(rounds)} rounds, round walls "
          f"{', '.join(f'{w:.3f}' for w in walls)} s; {len(setups)} set-ups")
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups) / 1e9, "s"),
        "peak_rss_mb": (max(job.rss_kb for job in jobs if not job.timed_out) / 1024,
                        "MiB"),
        "ok_share": (ok / len(ops), "share"),
    }


def _is_count(name):
    return name.rsplit(".", 1)[1] not in ("s", "self_s")


def print_metrics(metrics):
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6f} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(child.SRC, "toricmirror", "cli.py")):
        print(f"error: no toricmirror sources under {child.SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    ops = workload.build(WORK)
    random.Random(args.seed).shuffle(ops)
    runner = Runner()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        runner.spawn("setup", SETUP_ARGV, 60)     # warm-up: compiles bytecode
        setups = probe_setups(runner, FIRST_SETUPS)
        print(f"workload {workload.name}: {len(ops)} operations, deadline "
              f"{workload.deadline_s:g} s each, seed {args.seed}")
        start = time.monotonic()
        if not args.trace:
            rounds = []
            # Start another round only if one more of average length still
            # ends within the measuring time; the first round always runs.
            while not rounds or ((time.monotonic() - start) * (len(rounds) + 1)
                                 / len(rounds) <= args.seconds):
                rounds.append(run_round(runner, ops, "run", workload.deadline_s))
                setups += probe_setups(runner, ROUND_SETUPS)
            attempted, failed, correct = summarize(rounds)
            metrics = end_to_end(rounds, setups)
            print(f"  failed_share {failed}/{attempted}")
            print_metrics(metrics)
        else:
            plain = run_round(runner, ops, "run", workload.deadline_s)
            print("  end to end, untraced pass:")
            print_metrics(end_to_end([plain], setups))
            traced = [run_round(runner, ops, "trace", workload.deadline_s)
                      for _ in range(2)]
            attempted, failed, correct = summarize([plain] + traced)
            print(f"  failed_share {failed}/{attempted} over 1 untraced + 2 traced passes")
            reference = stdout_of(plain)
            for t in traced:
                for key, text in stdout_of(t).items():
                    if key in reference and reference[key] != text:
                        print(f"  MISMATCH traced stdout of {key[0]} job {key[1]}")
                        correct = False
            layers = [layer_metrics(t) for t in traced]
            for name in EXACT_COUNTERS:
                if layers[0][name] != layers[1][name]:
                    print(f"  MISMATCH counter {name}: {layers[0][name]} != {layers[1][name]}")
                    correct = False
            traced_wall = statistics.mean(round_walls(traced))
            metrics = {name: (a, "count") if _is_count(name) else ((a + b) / 2, "s")
                       for (name, a), b in zip(layers[0].items(), layers[1].values())}
            metrics["trace.overhead_s"] = (traced_wall - round_walls([plain])[0], "s")
            print("  per layer, mean of the two traced passes:")
            print_metrics(metrics)
    finally:
        runner.stop()
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
