"""Benchmark of the `olog` toolkit: end-to-end metrics and per-layer spans.

Usage (from the repository root):

    python3 perfbench/run.py --op-limit-s 10 --workload check --seed 1 --seconds 24 --trace 0

Each op is one closed-loop `olog` command run in process through
`ologkit.cli.main(argv)` with its stdout captured (derive ops call
`ologkit.schema.derive_equality` directly), one client, under the default
recursion limit.  Set-up (import, writing the seeded fixtures, warm-up) is
repeated and its median reported as `setup_s`.  The op sequence then runs in
rounds until `--seconds` is spent; every answer is judged against an oracle
outside the timed region.  A failed, wrong or over-limit op counts as the
time limit in `op_s.*`.  Times are seconds at a nominal host speed (see
`hostspeed`); NOTES.md has the details.

`--trace 1` alternates untraced and traced rounds and prints the per-layer
metrics instead: self seconds and counts per round from the traced rounds,
and the tracing overhead (traced minus untraced round wall time).
`--workload all` runs every workload of BENCHMARK.json in its own process,
untraced and traced, and prints all of it.  The last stdout line is JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3
# Each op's time is the median of at least this many untraced rounds.  Every
# workload has 50+ ops, so op_s.p90 has at least fifteen samples beyond it.
MIN_ROUNDS = 3
DOCUMENTED_EXIT_CODES = {0, 1, 2, 3}  # ok, violation, parse error, parameter constraint


class OpTimeout(BaseException):
    """Raised into an op that outlives the per-op time limit."""


def _on_alarm(signum, frame):
    raise OpTimeout


def import_ologkit() -> SimpleNamespace:
    """A fresh import of the package, so every set-up repeat pays for it."""
    for name in [n for n in sys.modules if n == "ologkit" or n.startswith("ologkit.")]:
        del sys.modules[name]
    importlib.import_module("ologkit.cli")
    return SimpleNamespace(**{
        name: sys.modules[f"ologkit.{name}"]
        for name in ("cli", "bundled", "dsl", "schema", "instance", "chains")
    })


def call(mods, op: workloads.Op):
    if op.argv is not None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = mods.cli.main(op.argv)
        return code, out.getvalue()
    return mods.schema.derive_equality(*op.derive)


def run_op(mods, op, judge, limit: float, recorder=None, key=None):
    """(seconds, failure cause or None, wrong answer?) for one op."""
    started = time.perf_counter()
    outcome, cause = None, None
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            if recorder is None:
                outcome = call(mods, op)
            else:
                with recorder.op(key):
                    outcome = call(mods, op)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        cause = "over the time limit"
    except Exception as exc:  # a crash is a failed op; the run goes on
        cause = f"{type(exc).__name__}: {exc}"[:160]
    elapsed = time.perf_counter() - started
    if cause is not None:
        return elapsed, cause, False
    if op.argv is not None and outcome[0] not in DOCUMENTED_EXIT_CODES:
        return elapsed, f"undocumented exit code {outcome[0]}", False
    wrong = judge(outcome)
    if wrong is not None:
        return elapsed, f"wrong answer: {wrong}", True
    if elapsed > limit:
        return elapsed, "over the time limit", False
    return elapsed, None, False


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def set_up(name: str, seed: int, work: Path, sampler: hostspeed.Sampler):
    """Import, write fixtures and warm up; repeated, returns the last one.

    The set-up time is the median repeat, at nominal host speed.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        mods = import_ologkit()
        work.mkdir(parents=True, exist_ok=True)
        fixtures = workloads.Fixtures(mods, work)
        ops = workloads.WORKLOADS[name](fixtures, random.Random(f"{name}/{seed}"))
        for op in workloads.warm_up(fixtures, name):
            call(mods, op)
        ended = time.perf_counter()
        slowdown = sampler.slowdown(started, ended) or hostspeed.slowdown_now()
        times.append((ended - started) / slowdown)
    return mods, ops, statistics.median(times)


def measure(args, work: Path, sampler: hostspeed.Sampler):
    """Set up, then run the op sequence in rounds until the time is spent."""
    mods, ops, setup_s = set_up(args.workload, args.seed, work, sampler)
    judges = [op.answer() for op in ops]
    # The fixtures and oracle tables stay alive all run; freezing them keeps
    # the collector from re-scanning them, so rounds time the program alone.
    gc.collect()
    gc.freeze()
    recorder = tracing.Recorder()
    limit = args.op_limit_s
    signal.signal(signal.SIGALRM, _on_alarm)

    rounds: list[dict] = []
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        record = {"traced": traced, "spans": [], "elapsed": [], "kernel": [], "failed": [],
                  "failures": []}
        with recorder.bound(mods) if traced else contextlib.nullcontext():
            for op_id, (op, judge) in enumerate(zip(ops, judges)):
                key = (len(rounds), op_id)
                record["kernel"].append(hostspeed.kernel_seconds())
                started_op = time.perf_counter()
                seconds, cause, wrong = run_op(
                    mods, op, judge, limit, recorder if traced else None, key
                )
                record["spans"].append((started_op, started_op + seconds))
                record["elapsed"].append(seconds)
                record["failed"].append(cause is not None)
                if cause:
                    record["failures"].append((op.name, cause, wrong))
        rounds.append(record)
        spent = time.perf_counter() - started
        per_round = spent / len(rounds)
        if args.trace:
            if len(rounds) % 2 == 0 and spent + 2 * per_round > args.seconds:
                break  # each untraced round has its traced partner
        elif len(rounds) >= MIN_ROUNDS and spent + per_round > args.seconds:
            break

    return ops, setup_s, rounds, recorder


def run_workload(args, work: Path, per_layer: list[dict]) -> dict:
    with hostspeed.Sampler() as sampler:
        ops, setup_s, rounds, recorder = measure(args, work, sampler)
    for record in rounds:
        record["slowdown"] = hostspeed.slowdowns(sampler, record["spans"], record["kernel"])
        record["nominal"] = [t / f for t, f in zip(record["elapsed"], record["slowdown"])]
    limit = args.op_limit_s
    plain = [r for r in rounds if not r["traced"]]
    failures = [f for r in rounds for f in r["failures"]]
    if args.trace:
        traced = [i for i, r in enumerate(rounds) if r["traced"]]
        scale = {
            (i, op_id): 1 / slowdown
            for i in traced
            for op_id, slowdown in enumerate(rounds[i]["slowdown"])
        }
        values = {name: total / len(traced) for name, total in recorder.totals(scale).items()}
        values["trace.wall_s"] = statistics.fmean(sum(rounds[i]["nominal"]) for i in traced)
        values["trace.untraced_wall_s"] = statistics.fmean(sum(r["nominal"]) for r in plain)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        values["host.kernel_s"] = statistics.median(k for r in rounds for k in r["kernel"])
        metrics = {m["name"]: (values.get(m["name"], 0), m["unit"]) for m in per_layer}
    else:
        # wall_s sums each op's median over the rounds; the percentiles pool
        # every execution, a failed one counting as the time limit.
        per_op = [statistics.median(r["nominal"][i] for r in plain) for i in range(len(ops))]
        op_s = [
            limit if failed else seconds
            for r in plain
            for seconds, failed in zip(r["nominal"], r["failed"])
        ]
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (sum(per_op), "s"),
            "op_s.p50": (percentile(op_s, 0.5), "s"),
            "op_s.p90": (percentile(op_s, 0.9), "s"),
            "decided_ratio": (1 - sum(sum(r["failed"]) for r in plain) / len(op_s), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    raw_wall = statistics.median(sum(r["elapsed"]) for r in plain)
    slowdown = statistics.median(k for r in rounds for k in r["kernel"]) / hostspeed.REF_S
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops x {len(rounds)} rounds "
          f"({len(ops) * len(plain)} untraced op_s samples), limit {limit:g} s; "
          f"raw median round {raw_wall:.3f} s, host slowdown {slowdown:.2f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for (op_name, cause), count in Counter((f[0], f[1]) for f in failures).items():
        print(f"  failed x{count}: {op_name}: {cause}")
    return {
        "correct": not any(wrong for _, _, wrong in failures),
        "attempted": len(ops) * len(rounds),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args, names: list[str]) -> int:
    """The named workloads, each in its own process, untraced and traced."""
    results = {}
    for name in names:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()),
                    "--op-limit-s", str(args.op_limit_s), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                return proc.returncode or 1
            results[f"{name}/trace{trace}"] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--op-limit-s", type=float, required=True,
                        help="per-op time limit in seconds")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ologkit" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no ologkit sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload == "all":
        return run_all(args, [w["name"] for w in spec["workloads"]])
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        result = run_workload(args, work, spec["per_layer"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
