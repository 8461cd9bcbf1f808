"""Benchmark for orbev: run one workload, check every output, print the metrics.

    python3 perfbench/run.py --workload {mirror-sweep,duality-sweep,closed-form} \\
        --seed N --seconds S --trace {0,1}

A run is a sequence of rounds.  Each round is one fresh worker process that
sets up and then issues every operation of the workload once, in order, with
one worker at a time and no threads.  With --trace 0 the run holds as many
whole rounds as fit in --seconds, and at least one.  It reports the median
`setup_s` and `peak_rss_mib` over the rounds, and `wall_s`, the time of a
round's operations at a reference speed (see wall_s below).
With --trace 1 it alternates untraced and traced rounds, TRACE_PAIRS of each,
and reports the per-layer metrics of the first traced round with the tracing
overhead.

Checks run after the rounds, on every round's outputs.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Run and trace files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

TRACE_PAIRS = 3
# The calibration loop's median time on the machine the reference figures in
# perfbench/README.md come from: wall_s is given at that machine's speed.
CAL_REF_S = 0.0037
RUN_LIMIT_S = 170  # a run must end within 180 s; a worker still running then is killed


class BenchError(Exception):
    pass


def run_worker(deadline: float, workload: str, seed: int, workdir: Path, *extra: str) -> dict:
    env = dict(os.environ)
    env.pop("ORBEV_THREADS", None)  # a value exported by the caller must not change what is measured
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--workdir", workdir.relative_to(ROOT).as_posix(), *extra, "--spawned"]
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(
            cmd + [repr(time.monotonic())], cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker was stopped after {timeout:.0f} s, at the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def wall_s(rounds: list[dict]) -> float:
    """The time one round's operations take at the reference speed.

    Each operation's time is divided by the mean of the calibration times
    taken just before and just after it, which gives it in calibration loops;
    the median of that over the rounds, summed over operations and scaled by
    CAL_REF_S, is the result.  On a shared host the speed of this process
    moves by half within seconds and stays low for minutes, and an
    operation's raw time moves with it; its time relative to a calibration
    loop run alongside it moves far less.
    """
    ratios = [
        [op["seconds"] * 2 / (c0 + c1) for op, c0, c1 in zip(r["ops"], r["calibration_s"], r["calibration_s"][1:])]
        for r in rounds
    ]
    return CAL_REF_S * sum(statistics.median(per_op) for per_op in zip(*ratios))


def ops_s(round_: dict) -> float:
    """Raw seconds the round's operations took, without the calibrations between them."""
    return sum(op["seconds"] for op in round_["ops"])


def parse(stdout: str):
    """The JSON document an operation printed, or None."""
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def check_rounds(workload: str, rounds: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, failure messages) over every round.

    An operation fails when it exits non-zero, raises, prints no JSON document
    or fails a check.  `mirror-check` and `duality-check` print their JSON and
    exit 2 when the verdict is false, so the output is checked whatever the
    exit code.
    """
    from checks import CHECKS

    argv, first = rounds[0]["argv"], rounds[0]["ops"]
    docs = [parse(op["stdout"]) for op in first]
    first_bad = CHECKS[workload](argv, docs)
    for i, doc in enumerate(docs):
        if doc is None:
            first_bad[i].append("stdout is not one JSON document")
    attempted, failed, messages = 0, 0, []
    for r, round_ in enumerate(rounds):
        ops = round_["ops"]
        # Later rounds are checked through byte-equality with the first.
        bad = {i: list(m) for i, m in first_bad.items() if m}
        for i, op in enumerate(ops):
            if op["stdout"] != first[i]["stdout"]:
                bad.setdefault(i, []).append("stdout differs from the first round's")
            if op["rc"] is None:
                bad.setdefault(i, []).append(f"raised: {op['stderr'].strip()[-300:]}")
            elif op["rc"] != 0:
                bad.setdefault(i, []).append(f"exit {op['rc']}: {op['stderr'].strip()[-300:]}")
        attempted += len(ops)
        failed += len(bad)
        messages += [f"round {r} op {i} {' '.join(argv[i])}: {'; '.join(bad[i])}" for i in sorted(bad)]
    return attempted, failed, messages


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind: subprocess.run kills and waits for the worker, and the work dir is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "orbev" / "__init__.py").is_file():
        print(f"run.py: no orbev source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # for the reference results the checks compare against
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    stem = f"{args.workload}-seed{args.seed}"
    try:
        if args.trace:
            spans = OUT / f"trace-{stem}.spans.jsonl.gz"
            untraced, traced = [], []
            for _ in range(TRACE_PAIRS):
                untraced.append(run_worker(deadline, args.workload, args.seed, workdir))
                extra = () if traced else ("--spans", spans.relative_to(ROOT).as_posix())
                traced.append(run_worker(deadline, args.workload, args.seed, workdir, *extra))
            rounds, setups = untraced + traced, []
            metrics = dict(traced[0]["layers"])
            traced_s, untraced_s = wall_s(traced), wall_s(untraced)
            overhead = traced_s - untraced_s
            metrics["trace.wall_s"] = {"value": traced_s, "unit": "s"}
            metrics["trace.untraced_wall_s"] = {"value": untraced_s, "unit": "s"}
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            metrics["trace.overhead_ratio"] = {"value": overhead / untraced_s, "unit": "ratio"}
            # tracing.py names the metrics; BENCHMARK.json must list exactly those.
            declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
            if declared != set(metrics):
                raise BenchError(f"per-layer metrics differ from BENCHMARK.json's: {sorted(declared ^ set(metrics))}")
        else:
            rounds = []
            start = time.monotonic()
            # Whole rounds only, so every run fails the same share of operations.
            last = 0.0
            while not rounds or time.monotonic() - start + last <= args.seconds:
                began = time.monotonic()
                rounds.append(run_worker(deadline, args.workload, args.seed, workdir))
                last = time.monotonic() - began
            setups = [r["setup_s"] for r in rounds]
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "wall_s": {"value": wall_s(rounds), "unit": "s"},
                "peak_rss_mib": {"value": statistics.median(r["peak_rss_mib"] for r in rounds), "unit": "MiB"},
            }
        attempted, failed, messages = check_rounds(args.workload, rounds)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in messages:
        print(message, file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "setup_s_samples": setups,
        "raw_ops_s_median": statistics.median(ops_s(r) for r in rounds),
        "rounds": [
            {
                "setup_s": r["setup_s"],
                "ops_s": ops_s(r),
                "calibration_s": r["calibration_s"],
                "peak_rss_mib": r["peak_rss_mib"],
                "op_seconds": [op["seconds"] for op in r["ops"]],
            }
            for r in rounds
        ],
        "failures": messages,
        "result": result,
    }
    if args.trace:
        record["spans_file"] = spans.name
    kind = "trace" if args.trace else "run"
    (OUT / f"{kind}-{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
