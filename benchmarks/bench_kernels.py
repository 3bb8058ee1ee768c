"""Scan-kernel comparison — python vs stride2 / stride4.

The chunk-scan inner loop bounds every engine's single-core throughput:
serial, lockstep and processes all execute the same per-symbol walk.
This bench measures the plan's kernel (DESIGN.md §3.5) on identical
inputs (r_5, 2 MB accepted text, one chunk, one core):

* **python** — the reference per-byte loop of Algorithm 5's chunk scan.
* **stride2 / stride4** — precomposed superalphabet tables: one lookup per
  2/4 input symbols, same loop body (the speed *is* the stride).

For Algorithm 3's all-states transform scan the stride kernels also
switch to the block-composed transform (mappings composed in NumPy, no
per-symbol Python loop) — the decisive win on that narrow scan.

The shape claim matches the tentpole acceptance: a stride kernel is ≥ 3×
the pure-Python ``sfa_scan`` on this workload.
"""

from repro import compile_pattern
from repro.bench.harness import (
    BenchRecord,
    format_table,
    measure_throughput,
    shape_check,
)
from repro.bench.report import emit, emit_json
from repro.matching.parallel_sfa import parallel_sfa_run
from repro.matching.speculative import speculative_run
from repro.parallel.scan import KERNELS
from repro.workloads.patterns import rn_pattern
from repro.workloads.textgen import rn_accepted_text

TEXT_BYTES = 2_000_000


def seed_sfa_scan(table, initial, classes):
    """The pre-kernel-subsystem ``sfa_scan`` (the ≥ 3× reference point).

    Rebuilds the flattened table list on every call and pays two int
    allocations per symbol — exactly the loop every engine ran before the
    stride kernels (and the flat-list cache) landed.
    """
    k = table.shape[1]
    flat = table.ravel().tolist()
    f = int(initial)
    for c in classes.tolist():
        f = flat[f * k + c]
    return f


def test_sfa_kernel_throughput(benchmark):
    m = compile_pattern(rn_pattern(5))
    text = rn_accepted_text(5, TEXT_BYTES, seed=0)
    classes = m.translate(text)
    sfa = m.sfa
    st4 = sfa.stride_table(4)

    def run(kernel):
        return parallel_sfa_run(sfa, classes, 1, kernel=kernel)

    verdicts = {k: run(k).accepted for k in KERNELS}
    tput = {"seed loop": measure_throughput(
        lambda: seed_sfa_scan(sfa.table, sfa.initial, classes),
        len(text), repeat=3,
    )}
    tput.update({
        k: measure_throughput(lambda k=k: run(k), len(text), repeat=3)
        for k in KERNELS
    })

    rows = [
        BenchRecord(k, {
            "MB/s": tput[k],
            "speedup vs seed": tput[k] / tput["seed loop"],
        })
        for k in ("seed loop", *KERNELS)
    ]
    emit(
        format_table(
            f"Kernels — Algorithm 5 chunk scan on r_5, "
            f"{TEXT_BYTES/1e6:.0f} MB, p=1 (|S|={sfa.size}, "
            f"stride4 table {st4.table_bytes/1024:.0f} KB)",
            ["MB/s", "speedup vs seed"],
            rows,
            note="Identical inputs across kernels.  'seed loop' is the "
            "pre-kernel sfa_scan (per-call flat rebuild); 'python' is the "
            "same loop with the cached pre-scaled list.  stride4 does n/4 "
            "lookups (plus one vectorized pack).",
        )
    )
    for k in ("seed loop", *KERNELS):
        emit_json("bench_kernels.sfa_scan", k, mb_per_s=tput[k],
                  speedup=tput[k] / tput["seed loop"])
    shape_check("all kernels agree on the verdict",
                len(set(verdicts.values())) == 1, f"{verdicts}")
    shape_check("verdict is accept (text is from L(r_5))", verdicts["python"])
    shape_check("stride4 beats stride2 (half the lookups again)",
                tput["stride4"] > tput["stride2"],
                f"{tput['stride4']:.1f} vs {tput['stride2']:.1f} MB/s")
    best = max(tput["stride2"], tput["stride4"])
    shape_check("a stride kernel is >= 3x the seed python scan",
                best >= 3 * tput["seed loop"],
                f"best {best:.1f} vs seed {tput['seed loop']:.1f} MB/s")
    shape_check("stride4 also beats the cached python kernel by >= 2x",
                tput["stride4"] >= 2 * tput["python"],
                f"{tput['stride4']:.1f} vs {tput['python']:.1f} MB/s")

    benchmark.pedantic(lambda: run("stride4"), rounds=3, iterations=1)


def test_transform_kernel_vectorization(benchmark):
    """Algorithm 3's all-states scan: the stride4 kernel vs the python loop.

    The python transform scan issues one |D|-wide NumPy gather per input
    character — per-call overhead dominates, so it crawls.  The stride4
    kernel shrinks the symbol stream to n/4 and composes 256-symbol
    blocks of it entirely inside NumPy: an order-of-magnitude win, which
    is what makes the speculative engine usable at all.
    """
    m = compile_pattern(rn_pattern(5))
    text = rn_accepted_text(5, TEXT_BYTES, seed=0)
    classes = m.translate(text)
    dfa = m.min_dfa

    # python transform is ~0.3 MB/s; time it on a slice and extrapolate.
    py_slice = classes[: TEXT_BYTES // 20]
    tput = {
        "python": measure_throughput(
            lambda: speculative_run(dfa, py_slice, 1, kernel="python"),
            len(py_slice), repeat=2,
        ),
        "stride4": measure_throughput(
            lambda: speculative_run(dfa, classes, 1, kernel="stride4"),
            len(text), repeat=3,
        ),
    }
    verdicts = {
        k: speculative_run(dfa, classes[: len(py_slice)], 1, kernel=k).accepted
        for k in ("python", "stride4")
    }

    rows = [
        BenchRecord(k, {
            "MB/s": tput[k],
            "speedup vs python": tput[k] / tput["python"],
        })
        for k in ("python", "stride4")
    ]
    emit(
        format_table(
            f"Kernels — Algorithm 3 all-states scan on r_5, "
            f"{TEXT_BYTES/1e6:.0f} MB, p=1 (|D|={dfa.size})",
            ["MB/s", "speedup vs python"],
            rows,
            note="python row measured on a 100 KB slice (it is "
            "per-character NumPy dispatch); the stride4 row on the full "
            "2 MB.",
        )
    )
    for k in ("python", "stride4"):
        emit_json("bench_kernels.transform_scan", k, mb_per_s=tput[k],
                  speedup=tput[k] / tput["python"])
    shape_check("python and stride4 agree on the verdict",
                verdicts["python"] == verdicts["stride4"], f"{verdicts}")
    shape_check("stride4 accepts the full text (it is from L(r_5))",
                speculative_run(dfa, classes, 1, kernel="stride4").accepted)
    shape_check("stride4 transform is >= 3x the python transform",
                tput["stride4"] >= 3 * tput["python"],
                f"{tput['stride4']:.1f} vs {tput['python']:.1f} MB/s")

    benchmark.pedantic(
        lambda: speculative_run(dfa, classes, 1, kernel="stride4"),
        rounds=3, iterations=1,
    )
