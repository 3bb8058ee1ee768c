"""paper_fullmatch: whole-text membership on the paper's r_n family
(Figs. 6-7), through ``compile_pattern`` and ``CompiledPattern.fullmatch``
with ``plan="auto"``.

Round: 24 warm ops (accepted and rejected texts of r_5 and r_50, in turn),
4 cold ops (compile r_n for an n this process has not compiled, match a
full-size accepted text) and one known-fault op (r_500, Fig. 8, in a child
under a memory cap; outside the measured phase).
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time

import numpy as np

import gen
from harness import OpLog, library_peak_rss_mb

HERE = os.path.dirname(os.path.abspath(__file__))

#: Address-space cap of the known-fault child.  A healthy r_500 scan of
#: 4 MB fits well inside it; today's unbounded D-SFA build does not.
FAULT_CAP_BYTES = 512 << 20
FAULT_TEXT_BYTES = 4 << 20
WARM_N = (5, 50)


class Workload:
    name = "paper_fullmatch"

    def __init__(self, seed: int, short: bool):
        from repro import compile_pattern

        self.compile_pattern = compile_pattern
        self.seed = seed
        self.size = (256 << 10) if short else (8 << 20)
        self.rng = np.random.default_rng(seed)
        self.correct = True
        self.texts = {}
        for n in WARM_N:
            acc = gen.rn_text(self.rng, n, self.size)
            rej = gen.rn_twin(self.rng, acc, n)
            self.texts[n] = ((acc, True), (rej, False))
            rx = re.compile(gen.rn_source(n).encode())
            for text, want in self.texts[n]:
                if (rx.fullmatch(text) is not None) != want:
                    self.correct = False
        self.cold_ns = gen.cold_rn_sizes()
        self.patterns = {}
        self.fault_plan = None

    # -- set-up ----------------------------------------------------------
    def setup_trial(self, keep: bool) -> float:
        t0 = time.perf_counter()
        pats = {n: self.compile_pattern(gen.rn_source(n)) for n in WARM_N}
        answers = [pats[n].fullmatch(self.texts[n][0][0], plan="auto") for n in WARM_N]
        dt = time.perf_counter() - t0
        if answers != [True] * len(WARM_N):
            self.correct = False
        if keep:
            self.patterns = pats
        else:
            self._close_pools(pats)
        return dt

    def _close_pools(self, pats) -> None:
        from repro import resolve_plan

        for n, m in pats.items():
            ex = resolve_plan("auto", "fullmatch", self.size, subject=m).resolve_executor()
            if ex is not None:
                ex.close()

    def plans(self):
        from repro import resolve_plan

        out = {
            f"warm r_{n}": resolve_plan(
                "auto", "fullmatch", self.size, subject=m
            ).summary()
            for n, m in self.patterns.items()
        }
        # A pattern outside the cold sequence, parsed but never built.
        probe = self.compile_pattern(gen.rn_source(97))
        out["cold r_n"] = resolve_plan("auto", "fullmatch", self.size, subject=probe).summary()
        if self.fault_plan is not None:
            out["known fault r_500"] = self.fault_plan
        return out

    # -- one round ---------------------------------------------------------
    def round(self, log: OpLog, tracer) -> None:
        cold = []
        for _ in range(4):
            n = next(self.cold_ns)
            text = gen.rn_text(self.rng, n, self.size)
            if re.fullmatch(gen.rn_source(n).encode(), text) is None:
                self.correct = False
            cold.append((n, text))
        for i in range(24):
            n = WARM_N[(i // 2) % 2]
            text, want = self.texts[n][i % 2]
            m = self.patterns[n]
            with tracer.span(f"workload.warm_r{n}"):
                log.op("warm", f"r_{n} fullmatch", lambda: m.fullmatch(text, plan="auto"),
                       lambda out: out is want, len(text))
            if i % 6 == 5:
                n_c, text_c = cold[i // 6]
                with tracer.span("workload.cold_rn"):
                    log.op("cold", f"cold r_{n_c}",
                           lambda: self.compile_pattern(gen.rn_source(n_c)).fullmatch(
                               text_c, plan="auto"),
                           lambda out: out is True)
        log.known_fault(self._fault_op())

    def _fault_op(self) -> bool:
        """fullmatch(plan="auto") of r_500 on an accepted 4 MB text, in a
        child process; True only if the child answers True."""
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "r500_child.py"),
                 str(self.seed), str(FAULT_TEXT_BYTES), str(FAULT_CAP_BYTES)],
                env=env, capture_output=True, text=True, timeout=120,
            )
        except subprocess.TimeoutExpired:
            return False
        lines = proc.stdout.split()
        if lines and lines[0].startswith("plan="):
            self.fault_plan = lines[0][5:]
        return proc.returncode == 0 and lines[-1:] == ["True"]

    # -- teardown ----------------------------------------------------------
    def peak_rss_mb(self) -> float:
        return library_peak_rss_mb()

    def close(self) -> None:
        self._close_pools(self.patterns)
