"""Run one benchmark workload from a seed and print its metrics.

    python3 benchmarks/run.py --workload swift_ensemble --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the library is imported from the
checkout's ``src/``.  The workload builds its inputs from ``--seed``, runs
whole rounds of its operations for about ``--seconds`` seconds, checks the
outputs and prints, as the last line of standard output, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
first makes the same untraced run, then replays its first rounds with spans
around the library's layer functions (see tracing.py) and reports the
per-layer metrics, among them the tracing overhead.  Spans are written to
``benchmarks/spans/<workload>.npz`` when the run ends; the commands' output
files go to a temporary directory that is removed.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _process_start() -> float:
    """CLOCK_BOOTTIME seconds at which this process started, from
    /proc/self/stat; falls back to when this module began to load.
    """
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return int(fields[19]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return time.clock_gettime(time.CLOCK_BOOTTIME) - (time.perf_counter() - _STARTED)


def measure(workload, seconds: float, min_rounds: int, order=None) -> list:
    """Run rounds in ``order`` (default 0, 1, 2, ...) while the next one is
    expected to end within ``seconds``, and always at least ``min_rounds``.
    """
    rounds = []
    t0 = time.perf_counter()
    for i in itertools.count() if order is None else order:
        rounds.append(workload.run_round(i))
        n, elapsed = len(rounds), time.perf_counter() - t0
        if n >= min_rounds and elapsed * (n + 1) / n > seconds:
            break
    return rounds


def traced_metrics(workload, rounds: list, seconds: float, run_id: str,
                   spans_path: Path) -> tuple[dict, list]:
    """Replay rounds under the tracer, the last first, for about ``seconds``;
    return the per-layer figures and the replayed rounds.
    """
    import tracing

    tracer = tracing.Tracer(run_id)
    # the last rounds first: they ran warm untraced too
    with tracer.active():
        replayed = measure(workload, seconds, 1, order=range(len(rounds) - 1, -1, -1))
    values = tracing.layer_metrics(tracer, len(replayed))
    traced_wall = statistics.median(r.values["wall"] for r in replayed)
    untraced_wall = statistics.median(r.values["wall"] for r in rounds[-len(replayed):])
    values["trace.overhead"] = traced_wall / untraced_wall - 1.0
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    return values, replayed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (ROOT / "src" / "mariner_chan" / "__init__.py").is_file():
        print(f"error: no src/mariner_chan under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import mariner_chan
    import workloads

    if Path(mariner_chan.__file__).resolve().parent != ROOT / "src" / "mariner_chan":
        print(f"error: imported {mariner_chan.__file__}, not the checkout's", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH) as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        setup_s = time.clock_gettime(time.CLOCK_BOOTTIME) - _process_start()
        rounds = measure(workload, args.seconds, workload.min_rounds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted = sum(r.attempted for r in rounds)
        failed = sum(r.failed for r in rounds)
        if args.trace:
            run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}-{time.time_ns()}"
            values, replayed = traced_metrics(workload, rounds, args.seconds / 3.0, run_id,
                                              BENCH / "spans" / f"{args.workload}.npz")
            attempted += sum(r.attempted for r in replayed)
            failed += sum(r.failed for r in replayed)
            # a stage this workload does not run reads 0
            values.update(dict.fromkeys(workloads.STAGES, 0.0), **workload.stages(rounds))
            wanted = spec["per_layer"]
        else:
            wall_s = statistics.median(r.values["wall"] for r in rounds)
            values = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
            wanted = spec["end_to_end"]
        problems = workload.check()

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
