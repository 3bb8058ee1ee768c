"""log_grep: span extraction over a syslog-like corpus through
``CompiledPattern.finditer`` with ``plan="auto"``.

Three warm patterns, one per regime, each on inputs sized to take a
similar share of the measured time: a sparse pattern with a required
literal (the literal prefilter), a sparse one with none (the backward
start pass) and a dense one (span emission).  Greedy and leftmost-longest
matching coincide on all of them, so ``re.finditer`` is the reference.

Round: each warm pattern on each of its three corpus segments (9 warm
ops) and 3 cold ops (a literal-bearing pattern this process has not
compiled, on a short segment).
"""

from __future__ import annotations

import re
import time
from typing import Dict, List, Tuple

import numpy as np

import gen
from harness import OpLog, library_peak_rss_mb

#: (pattern, full-size input bytes).  On the 2-vCPU reference machine an
#: op takes about 35, 50 and 105 ms: each regime gets a sizeable share of
#: the measured time, and the three latency clusters stay apart, so the
#: warm percentiles do not jump between regimes from run to run.
WARM = (
    ("ERROR [0-9]+", 4 << 20),
    ("[a-c]+=[0-9]{2,}", 768 << 10),
    ("[0-9]+", 192 << 10),
)
SEGMENTS = 3
COLD_BYTES = 64 << 10


def ref_spans(pattern: str, data: bytes) -> List[Tuple[int, int]]:
    return [m.span() for m in re.finditer(pattern.encode(), data)]


class Workload:
    name = "log_grep"

    def __init__(self, seed: int, short: bool):
        from repro import compile_pattern

        self.compile_pattern = compile_pattern
        self.rng = np.random.default_rng(seed)
        self.scale = 16 if short else 1
        self.correct = True
        biggest = max(size for _, size in WARM) // self.scale
        corpus = gen.log_corpus(self.rng, biggest + (1 << 20) // self.scale)
        self.corpus = corpus
        #: pattern -> [(segment, reference spans)]
        self.inputs: Dict[str, list] = {}
        for pat, size in WARM:
            size //= self.scale
            segs = []
            for _ in range(SEGMENTS):
                at = int(self.rng.integers(0, len(corpus) - size))
                seg = corpus[at:at + size]
                segs.append((seg, ref_spans(pat, seg)))
            self.inputs[pat] = segs
        self.cold_patterns = gen.cold_log_patterns(self.rng)
        self.patterns = {}

    def setup_trial(self, keep: bool) -> float:
        t0 = time.perf_counter()
        pats = {pat: self.compile_pattern(pat) for pat, _ in WARM}
        answers = [
            list(pats[pat].finditer(self.inputs[pat][0][0], plan="auto"))
            for pat, _ in WARM
        ]
        dt = time.perf_counter() - t0
        if answers != [self.inputs[pat][0][1] for pat, _ in WARM]:
            self.correct = False
        if keep:
            self.patterns = pats
        else:
            self._close_pools(pats)
        return dt

    def _close_pools(self, pats) -> None:
        from repro import resolve_plan

        for pat, m in pats.items():
            n = len(self.inputs[pat][0][0])
            ex = resolve_plan("auto", "spans", n, subject=m).resolve_executor()
            if ex is not None:
                ex.close()

    def plans(self):
        from repro import resolve_plan

        out = {
            f"warm {pat}": resolve_plan(
                "auto", "spans", len(self.inputs[pat][0][0]), subject=m
            ).summary()
            for pat, m in self.patterns.items()
        }
        # Same shape as the cold patterns, outside their sequence.
        probe = self.compile_pattern("host9 app\\[0[0-9]+\\]: INFO")
        out["cold literal pattern"] = resolve_plan(
            "auto", "spans", COLD_BYTES // self.scale, subject=probe
        ).summary()
        return out

    def round(self, log: OpLog, tracer) -> None:
        cold = []
        size = COLD_BYTES // self.scale
        for _ in range(3):
            pat = next(self.cold_patterns)
            at = int(self.rng.integers(0, len(self.corpus) - size))
            seg = self.corpus[at:at + size]
            cold.append((pat, seg, ref_spans(pat, seg)))
        for k, (pat, _) in enumerate(WARM):
            m = self.patterns[pat]
            for seg, want in self.inputs[pat]:
                with tracer.span(f"workload.warm_{k}"):
                    log.op("warm", f"finditer {pat}",
                           lambda: list(m.finditer(seg, plan="auto")),
                           lambda out: out == want, len(seg))
            pat_c, seg_c, want_c = cold[k]
            with tracer.span("workload.cold"):
                log.op("cold", f"cold finditer {pat_c}",
                       lambda: list(self.compile_pattern(pat_c).finditer(seg_c, plan="auto")),
                       lambda out: out == want_c)

    def peak_rss_mb(self) -> float:
        return library_peak_rss_mb()

    def close(self) -> None:
        self._close_pools(self.patterns)
