"""One round of a workload in a fresh interpreter: set up, then every operation in turn.

The engine's caches are process-wide `lru_cache`s, so each round gets its own
process.  The worker imports orbev from the checkout's `src/`, builds the
workload's inputs, then calls `orbev.cli.main` once per operation with that
operation's argv and a buffer for stdout.  Before the first operation and
after each one it times a fixed calibration loop.  It prints one JSON object:
set-up time (measured from the parent's clock reading just before the
spawn), peak resident set, the calibration times, and every operation's
time, exit code and output.

    python3 perfbench/worker.py --workload W --seed N --workdir DIR --spawned T [--spans FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def peak_rss_mib() -> float:
    """The process's own resident high-water mark (VmHWM).

    getrusage's ru_maxrss is not used: Linux carries the peak of the address
    space replaced by exec into it, so a worker spawned from a large parent
    would report the parent's peak.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM is missing from /proc/self/status")


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work, with the collector off.

    The work is of the kinds orbev's own loops do: products of small integer
    matrices held as tuples, dicts keyed by tuples, and `Fraction` sums.  It
    takes about 4 ms.  The collector is off so that the time does not depend
    on how many objects orbev's caches hold.
    """
    from fractions import Fraction

    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        m = ((1, 2, 0), (0, 1, 3), (1, 0, 1))
        x, acc = m, {}
        for i in range(1, 200):
            x = tuple(tuple(sum(a * b for a, b in zip(row, col)) % 101 for col in zip(*m)) for row in x)
            key = (x[0][0] % 7, x[1][1] % 5)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(x[2][2] + 1, i % 9 + 1)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--spans", type=Path, default=None, help="trace this round and write its spans here")
    args = parser.parse_args()

    if not (SRC / "orbev" / "__init__.py").is_file():
        print(f"worker: no orbev package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import orbev.cli

    if Path(orbev.__file__).resolve().parent != SRC / "orbev":
        print(f"worker: imported orbev from {orbev.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import build_ops

    ops = build_ops(args.workload, args.seed, args.workdir)
    setup_s = time.monotonic() - args.spawned

    run = orbev.cli.main
    tracer = None
    if args.spans is not None:
        from tracing import Tracer, cache_counters

        tracer = Tracer()
        cache_before = cache_counters()
        tracer.install()
        run = tracer.wrap("cli.main", run)

    results = []
    calibration_s = [calibrate()]
    origin = time.perf_counter()
    for index, argv in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        out, err = io.StringIO(), io.StringIO()
        op_start = time.monotonic()
        with contextlib.redirect_stderr(err):
            try:
                rc = run(argv, out=out)
            except Exception:  # an operation that raises is a failed operation, not a failed round
                rc = None
                err.write(traceback.format_exc())
        results.append(
            {"rc": rc, "seconds": time.monotonic() - op_start, "stdout": out.getvalue(), "stderr": err.getvalue()}
        )
        calibration_s.append(calibrate())
    peak = peak_rss_mib()

    report = {
        "setup_s": setup_s,
        "peak_rss_mib": peak,
        "calibration_s": calibration_s,
        "argv": ops,
        "ops": results,
    }
    if tracer is not None:
        tracer.uninstall()
        metrics = tracer.layer_metrics(cache_before, cache_counters())
        report["layers"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
        tracer.write_spans(args.spans, origin)
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
