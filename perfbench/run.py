"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload paper_fullmatch --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  With ``--trace 0`` it measures the workload end to end and
prints the end-to-end metrics; with ``--trace 1`` it runs the workload
half untraced and half traced (the difference is the tracing overhead),
then the per-layer probes, writes the spans to ``.perfbench_out/`` and
prints the per-layer metrics.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--short`` shrinks
every input for the benchmark's own tests; all output checks stay on.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_fullmatch", "log_grep", "ids_service")
SETUP_TRIALS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="reduced input sizes (the benchmark's own tests)")
    return ap.parse_args(argv)


def isolate_planner() -> str:
    """A private, empty XDG cache for this process and the server child, so
    a machine-local ``repro calibrate`` file cannot change any plan."""
    cache = os.path.join(ROOT, ".perfbench_tmp", f"xdg-{os.getpid()}")
    os.makedirs(cache)
    os.environ["XDG_CACHE_HOME"] = cache
    os.environ.pop("REPRO_CALIBRATION", None)
    return cache


def make_workload(name: str, seed: int, short: bool):
    if name == "paper_fullmatch":
        import paper_fullmatch
        return paper_fullmatch.Workload(seed, short)
    if name == "log_grep":
        import log_grep
        return log_grep.Workload(seed, short)
    import ids_service
    return ids_service.Workload(seed, short, ROOT)


def measure(wl, log, tracer, seconds: float) -> None:
    """Whole rounds until this measured phase has lasted ``seconds``."""
    until = log.busy_s + seconds
    while True:
        log.new_round()
        wl.round(log, tracer)
        if log.busy_s >= until:
            return


def end_to_end(name, setups, log, peak_rss_mb):
    """The six end-to-end metrics.  Warm metrics are medians over the run's
    windows; cold ops are few per window, so their median pools the run."""
    from harness import ROUNDS_PER_WINDOW, TAIL_PERCENTILE, median, metric, percentile

    wins = log.windows(ROUNDS_PER_WINDOW[name])
    return {
        "setup_s": metric(median(setups), "s"),
        "warm_mb_s": metric(median([w.warm_bytes / 1e6 / w.busy_s for w in wins]), "MB/s"),
        "warm_p50_ms": metric(median([median(w.warm_ms) for w in wins]), "ms"),
        "warm_tail_ms": metric(
            median([percentile(w.warm_ms, TAIL_PERCENTILE[name]) for w in wins]), "ms"),
        "cold_p50_ms": metric(median(log.cold_ms), "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def traced(wl, args):
    """Half the run untraced, half traced, then the per-layer probes."""
    from harness import NullTracer, OpLog, Tracer, metric
    from layers import Probes

    log = OpLog()
    measure(wl, log, NullTracer(), args.seconds / 2)
    plain = log.busy_s / (log.attempted or 1)
    attempted0, busy0 = log.attempted, log.busy_s
    tracer = Tracer()
    measure(wl, log, tracer, args.seconds / 2)
    with_spans = (log.busy_s - busy0) / ((log.attempted - attempted0) or 1)
    wl.close()
    probes = Probes(tracer, args.seed, args.short, ROOT)
    metrics = {k: metric(v, unit) for k, (v, unit) in probes.run().items()}
    metrics["trace.overhead_ratio"] = metric(with_spans / plain, "ratio")
    path = os.path.join(ROOT, ".perfbench_out", f"trace-{args.workload}-{args.seed}.json")
    tracer.dump(path)
    print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    print(f"{'layer':<10} {'total_ms':>10} {'self_ms':>10} {'spans':>6}")
    for layer, row in sorted(tracer.self_ms_by_layer().items()):
        print(f"{layer:<10} {row['total_ms']:>10.2f} {row['self_ms']:>10.2f} "
              f"{row['spans']:>6}")
    return log, metrics, probes.mismatches


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro next to the benchmark; run it from a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    cache = isolate_planner()
    try:
        return run(args)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
        stop_resource_tracker()


def run(args) -> int:
    from harness import NullTracer, OpLog

    wl = make_workload(args.workload, args.seed, args.short)
    mismatches = []
    try:
        setups = [wl.setup_trial(keep=i == SETUP_TRIALS - 1) for i in range(SETUP_TRIALS)]
        print("setup_s trials: " + ", ".join(f"{s:.4f}" for s in setups))
        if args.trace:
            log, metrics, mismatches = traced(wl, args)
        else:
            log = OpLog()
            measure(wl, log, NullTracer(), args.seconds)
            metrics = end_to_end(args.workload, setups, log, wl.peak_rss_mb())
    finally:
        wl.close()
    for op_class, summary in wl.plans().items():
        print(f"plan {op_class}: {summary}")
    print(f"rounds {len(log.rounds)}, warm ops {len(log.warm_ms)}, "
          f"cold ops {len(log.cold_ms)}, measured {log.busy_s:.3f} s, "
          f"known-fault failures {log.known_failed}")
    for why in log.unexpected_failures + mismatches:
        print(f"FAILED: {why}")
    correct = wl.correct and log.failed == log.known_failed and not mismatches
    print(json.dumps({"correct": correct, "attempted": log.attempted,
                      "failed": log.failed, "metrics": metrics}))
    return 0


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's shared-memory resource tracker, which
    the chunk pool starts and would otherwise outlive this process."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
