"""Executor comparison — serial vs lockstep vs processes.

The three ways this repo can dispatch Algorithm 5's chunk scans, measured
on *identical* inputs (same pattern, same text, same chunk count ``p``):

* **serial** — reference: ``p`` scalar scans, one after another.
* **lockstep** — single-process SIMD substitute: one vector gather advances
  all ``p`` chunk states per position.
* **processes** — the real thing: one OS process per worker, transition
  tables in shared memory, so scalar chunk scans run on real cores.

On a multi-core host the processes row should beat serial (>1×, approaching
min(p, cores)× for large inputs); on a single-core host it records the IPC
overhead instead — the table prints ``os.cpu_count()`` so the record is
interpretable either way.  Also reproduces the Fig. 10 warm/cold contrast
for process pools (pool reuse vs spawn-per-call).
"""

import os

from repro import compile_pattern
from repro.bench.harness import (
    BenchRecord,
    format_table,
    measure_throughput,
    shape_check,
    time_callable,
)
from repro.bench.report import emit, emit_json
from repro.matching.lockstep import lockstep_run
from repro.matching.parallel_sfa import parallel_sfa_run
from repro.parallel.executor import ProcessExecutor
from repro.workloads.patterns import rn_pattern
from repro.workloads.textgen import rn_accepted_text

TEXT_BYTES = 2_000_000
P = 8


def test_executor_throughput_comparison(benchmark):
    m = compile_pattern(rn_pattern(5))
    text = rn_accepted_text(5, TEXT_BYTES, seed=0)
    classes = m.translate(text)
    cores = os.cpu_count() or 1

    def run(executor=None):
        return parallel_sfa_run(m.sfa, classes, P, executor=executor)

    verdicts = {"serial": run().accepted}
    tput = {
        "serial": measure_throughput(run, len(text), repeat=2),
        "lockstep": measure_throughput(
            lambda: lockstep_run(m.sfa, classes, P), len(text), repeat=2
        ),
    }
    verdicts["lockstep"] = lockstep_run(m.sfa, classes, P).accepted
    with ProcessExecutor(min(P, cores)) as pex:
        verdicts["processes"] = run(pex).accepted  # also warms pool + table shm
        tput["processes"] = measure_throughput(lambda: run(pex), len(text), repeat=2)
        process_backed = pex.available

    rows = [
        BenchRecord(name, {
            "MB/s": tput[name],
            "speedup vs serial": tput[name] / tput["serial"],
        })
        for name in ("serial", "lockstep", "processes")
    ]
    emit(
        format_table(
            f"Executors — Algorithm 5 chunk dispatch on r_5, "
            f"{TEXT_BYTES/1e6:.0f} MB, p={P}, {cores} core(s)",
            ["MB/s", "speedup vs serial"],
            rows,
            note="Identical inputs across backends. 'processes' runs the "
            "scalar chunk scans on real cores (tables in shared memory); "
            "its speedup tracks min(p, cores) once the input amortizes "
            "the per-call IPC.",
        )
    )
    for name in ("serial", "lockstep", "processes"):
        emit_json("bench_executors", name, mb_per_s=tput[name],
                  speedup=tput[name] / tput["serial"], p=P, cores=cores)
    shape_check("all backends agree on the verdict",
                len(set(verdicts.values())) == 1, f"{verdicts}")
    shape_check("verdict is accept (text is from L(r_5))", verdicts["serial"])
    if cores > 1 and process_backed:
        shape_check("processes beat serial on a multi-core host",
                    tput["processes"] > tput["serial"],
                    f"{tput['processes']:.1f} vs {tput['serial']:.1f} MB/s")

    benchmark.pedantic(lambda: run(), rounds=3, iterations=1)


def test_process_pool_warm_vs_cold(benchmark):
    """Fig. 10's overhead mechanism on the process backend: pool reuse wins.

    A cold run pays worker spawn (the paper's thread-creation cost, only
    heavier) on every call; the warm pool pays it once.  Measured on a
    small input so the fixed cost dominates.
    """
    m = compile_pattern(rn_pattern(5))
    classes = m.translate(rn_accepted_text(5, 50_000, seed=0))
    workers = min(2, os.cpu_count() or 1)

    with ProcessExecutor(workers) as warm:
        parallel_sfa_run(m.sfa, classes, 2, executor=warm)  # spawn once
        if not warm.available:
            emit("\nExecutors — warm/cold study skipped: process backend "
                 f"unavailable ({warm.fallback_reason})\n")
            return
        t_warm = time_callable(
            lambda: parallel_sfa_run(m.sfa, classes, 2, executor=warm), repeat=3
        )
    with ProcessExecutor(workers, fresh_workers=True) as cold:
        t_cold = time_callable(
            lambda: parallel_sfa_run(m.sfa, classes, 2, executor=cold), repeat=3
        )

    rows = [
        BenchRecord("warm (persistent pool)", {"ms/call": t_warm * 1e3}),
        BenchRecord("cold (spawn per call)", {"ms/call": t_cold * 1e3,
                                              "cold/warm": t_cold / t_warm}),
    ]
    emit(
        format_table(
            "Executors — process pool warm vs cold (50 KB input, p=2)",
            ["ms/call", "cold/warm"],
            rows,
            note="The cold mode re-creates the worker pool per call — the "
            "Fig. 10 spawn overhead, which is why the executor keeps a "
            "persistent pool and caches published tables.",
        )
    )
    shape_check("cold start costs more than a warm call", t_cold > t_warm,
                f"{t_cold*1e3:.1f} vs {t_warm*1e3:.1f} ms")

    benchmark.pedantic(
        lambda: parallel_sfa_run(m.sfa, classes, 2), rounds=3, iterations=1
    )
