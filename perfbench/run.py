"""Benchmark of the ostta package: one workload per run.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory and nothing is installed. The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`. The same object, plus the figures behind it, is written to
`perfbench/results/`. See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# The child that times the short set-up: interpreter start, imports, and
# the workload's input generation.
STARTUP_CHILD = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.make(sys.argv[3], int(sys.argv[4]), sys.argv[5] == '1', '').inputs()"
)


def repeat_rounds(seconds: float, round_fn, after_first=None) -> list[float]:
    """Run whole rounds until the next one would end after `seconds`; at
    least one. Returns what each round measured."""
    start = time.perf_counter()
    measured = []
    while True:
        began = time.perf_counter()
        measured.append(round_fn())
        if after_first is not None and len(measured) == 1:
            after_first()
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return measured


def pct(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def time_startup(name: str, seed: int, tiny: bool, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", STARTUP_CHILD, SRC, HERE, name, str(seed),
                        "1" if tiny else "0"], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
        workdir: str) -> tuple[dict, dict]:
    """One benchmark run: returns the printed result and the figures behind it."""
    import checks
    import tracer
    import workloads

    workload = workloads.make(name, seed, tiny, workdir)
    startup_s = time_startup(name, seed, tiny, workload.sizes.startup_repeats)
    spans = tracer.Tracer() if trace else None
    if spans is not None:
        spans.install()
    workload.inputs()
    build_s = []
    for _ in range(1 if trace else workload.sizes.build_repeats):
        start = time.perf_counter()
        workload.build()
        build_s.append(time.perf_counter() - start)
    round_s = repeat_rounds(seconds, workload.round,
                            spans.uninstall if spans is not None else None)
    c = checks.Checks()
    workload.check(c)

    passes = [sorted(p) for p in workload.latencies]
    end_to_end = {
        "setup_s": (startup_s + statistics.median(build_s), "s"),
        "run_s": (statistics.median(round_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "state_kb": (statistics.mean(workload.state_bytes) / 1024, "KB"),
        "sample_p50_us": (statistics.median(pct(p, 0.50) for p in passes) * 1e6, "us"),
    }
    # Not an end-to-end metric: on reference it is set by the machine's
    # noise, not the program (see README).
    sample_p99_us = statistics.median(pct(p, 0.99) for p in passes) * 1e6
    shown = spans.metrics() if spans is not None else end_to_end
    result = {
        "correct": not c.failures,
        "attempted": workload.samples + c.attempted,
        "failed": len(c.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "sample_p99_us": sample_p99_us,
        "startup_s": startup_s, "build_s": build_s, "round_s": round_s,
        "one_sample_calls": sum(map(len, passes)), "failures": c.failures,
        "h_scores": getattr(workload, "h_scores", None),
    }
    if spans is not None:
        detail["functions"] = {k: {"calls": s.calls, "inclusive_s": s.inclusive,
                                   "self_s": s.self_time} for k, s in spans.stats.items()}
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("reference", "long_stream", "big_bank"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input, for a quick smoke run")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ostta", "__init__.py")):
        print(f"perfbench: no ostta package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import ostta
    if not os.path.abspath(ostta.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported ostta from {ostta.__file__}, not {SRC}", file=sys.stderr)
        return 2

    results = os.path.join(HERE, "results")
    work_root = os.path.join(HERE, "work")
    os.makedirs(results, exist_ok=True)
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.tiny, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    with open(os.path.join(results, stem + ".json"), "w") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for failure in detail["failures"]:
        print(f"FAILED CHECK: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
