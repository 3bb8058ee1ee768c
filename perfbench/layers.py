"""Per-layer probes for the traced run.

Each probe calls one layer's public functions directly, from here, on the
inputs of the workload the metric belongs to, inside a span named
``<layer>.<metric>``.  The end-to-end metric each probe should move is
mapped in README.md.  Timings are medians of ``REPEAT`` calls.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import gen
import ids_service
import log_grep
import paper_fullmatch
from harness import NullTracer, OpLog, median

REPEAT = 3


def _timed(tracer, name: str, fn, repeat: int = REPEAT):
    """Median wall seconds of ``repeat`` calls, and the last result."""
    times = []
    out = None
    for _ in range(repeat):
        with tracer.span(name):
            t0 = time.perf_counter()
            out = fn()
            times.append(time.perf_counter() - t0)
    return median(times), out


def _mean_per_call(tracer, name: str, items, fn) -> float:
    """Mean wall seconds of ``fn(item)`` over ``items`` (median of passes)."""
    items = list(items)
    total, _ = _timed(tracer, name, lambda: [fn(x) for x in items])
    return total / len(items)


class Probes:
    def __init__(self, tracer, seed: int, short: bool, root: str):
        self.tracer = tracer
        self.seed = seed
        self.short = short
        self.root = root
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.mismatches: List[str] = []
        self.plans = []  # every plan resolved here; their pools close at the end

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def run(self) -> Dict[str, Tuple[float, str]]:
        paper = paper_fullmatch.Workload(self.seed, self.short)
        logs = log_grep.Workload(self.seed, self.short)
        ids = ids_service.Workload(self.seed, self.short, self.root)
        cold_sources = [next(logs.cold_patterns) for _ in range(20)]
        cold_sources += [ids._next_cold_rule() for _ in range(40)]
        with self.tracer.span("regex"):
            self.regex(paper, cold_sources)
        with self.tracer.span("automata"):
            self.automata()
        with self.tracer.span("analysis"):
            self.analysis(cold_sources)
        with self.tracer.span("planning"):
            mps = self.planning(ids)
        with self.tracer.span("parallel"):
            self.parallel(paper)
        with self.tracer.span("matching"):
            self.matching(paper, logs, ids, mps)
        with self.tracer.span("service"):
            self.service(ids)
        for plan in self.plans:
            ex = plan.resolve_executor()
            if ex is not None:
                ex.close()
        return self.metrics

    # -- regex -------------------------------------------------------------
    def regex(self, paper, sources) -> None:
        from repro import compile_pattern
        from repro.regex.parser import parse

        per = _mean_per_call(self.tracer, "regex.parse", sources, parse)
        self.put("regex.parse_us", per * 1e6, "us")
        text = paper.texts[5][0][0]
        part = compile_pattern(gen.rn_source(5)).partition
        dt, _ = _timed(self.tracer, "regex.translate", lambda: part.translate(text))
        self.put("regex.translate_mb_s", len(text) / dt / 1e6, "MB/s")

    # -- automata ------------------------------------------------------------
    def automata(self) -> None:
        """The cold-op pipeline of paper_fullmatch, stage by stage, on r_50."""
        from repro import compile_pattern
        from repro.automata.dfa import minimize, subset_construction
        from repro.automata.nfa import glushkov_nfa
        from repro.automata.sfa import correspondence_construction
        from repro.automata.stride import best_stride_table, build_stride_table

        m = compile_pattern(gen.rn_source(50))
        t = self.tracer
        dt, nfa = _timed(t, "automata.glushkov", lambda: glushkov_nfa(m.ast, m.partition))
        self.put("automata.glushkov_ms", dt * 1e3, "ms")
        dt, dfa = _timed(t, "automata.subset",
                         lambda: subset_construction(nfa, max_states=m.max_dfa_states))
        self.put("automata.subset_ms", dt * 1e3, "ms")
        dt, mdfa = _timed(t, "automata.minimize", lambda: minimize(dfa))
        self.put("automata.minimize_ms", dt * 1e3, "ms")
        dt, sfa = _timed(t, "automata.correspondence",
                         lambda: correspondence_construction(mdfa, max_states=m.max_sfa_states))
        self.put("automata.correspondence_ms", dt * 1e3, "ms")
        dt, _ = _timed(t, "automata.stride_build", lambda: build_stride_table(sfa.table, 4))
        self.put("automata.stride_build_ms", dt * 1e3, "ms")
        self.put("automata.min_dfa_states", mdfa.size, "count")
        self.put("automata.sfa_states", sfa.size, "count")
        # Tables a warm paper_fullmatch process keeps for r_5 and r_50.
        total = 0
        for n in paper_fullmatch.WARM_N:
            w = compile_pattern(gen.rn_source(n))
            st = best_stride_table(w.sfa, 4)
            total += w.min_dfa.table.nbytes + w.sfa.table.nbytes + w.sfa.maps.nbytes
            total += st.table.nbytes if st is not None else 0
        self.put("automata.table_mb", total / 2**20, "MB")

    # -- analysis ------------------------------------------------------------
    def analysis(self, sources) -> None:
        """Static analysis of the cold patterns of log_grep and ids_service."""
        from repro import compile_pattern
        from repro.analysis.facts import compute_facts
        from repro.analysis.literals import choose_prefilter, literal_info

        pats = [compile_pattern(s) for s in sources]
        per = _mean_per_call(self.tracer, "analysis.facts", pats,
                             lambda m: compute_facts(m.ast, partition=m.partition))
        self.put("analysis.facts_ms", per * 1e3, "ms")
        per = _mean_per_call(self.tracer, "analysis.literals", pats,
                             lambda m: choose_prefilter(literal_info(m.ast)))
        self.put("analysis.literals_ms", per * 1e3, "ms")

    # -- planning ------------------------------------------------------------
    def planning(self, ids):
        """resolve_plan on the ids_service request shapes: the ruleset's
        multiscan and the hot set's match requests, 512-byte payloads."""
        from repro import MultiPatternSet, compile_pattern, resolve_plan

        with self.tracer.span("matching.multi.compile"):  # the probes' fixture
            mps = MultiPatternSet(ids.rules, backend="auto")
        hot = []
        for pat, mode in gen.HOT_PATTERNS:
            m = compile_pattern(pat)
            hot.append((mode, m if mode == "fullmatch" else m.search_pattern()))
        n = len(ids.payloads[0])
        calls = [("multi", mps)] + hot
        per = _mean_per_call(self.tracer, "planning.resolve", calls * 200,
                             lambda c: resolve_plan("auto", c[0], n, subject=c[1]))
        self.put("planning.resolve_us", per * 1e6, "us")
        return mps

    # -- parallel ------------------------------------------------------------
    def parallel(self, paper) -> None:
        """The chunk kernel, the executor's dispatch and the reduction of the
        warm r_5 scan, as its resolved plan runs them."""
        from repro import compile_pattern, resolve_plan
        from repro.automata.stride import best_stride_table
        from repro.parallel.chunking import clamp_chunks, split_balanced
        from repro.parallel.executor import SerialExecutor
        from repro.parallel.reduction import sequential_reduction_dsfa
        from repro.parallel.scan import sfa_scan

        text = paper.texts[5][0][0]
        m = compile_pattern(gen.rn_source(5))
        m.fullmatch(text, plan="auto")  # warm: tables built, pool up
        plan = resolve_plan("auto", "fullmatch", len(text), subject=m)
        self.plans.append(plan)
        sfa = m.sfa
        classes = m.translate(text)
        table, symbols = sfa.table, classes
        if plan.kernel.startswith("stride"):
            st = best_stride_table(sfa, int(plan.kernel[-1]))
            if st is not None:
                table, symbols = st.table, st.pack(classes)[0]
        spans = split_balanced(len(symbols), clamp_chunks(len(symbols), plan.num_chunks))
        a, b = spans[0]
        dt, _ = _timed(self.tracer, "parallel.kernel",
                       lambda: sfa_scan(table, sfa.initial, symbols[a:b]))
        self.put("parallel.kernel_mb_s", len(text) * (b - a) / len(symbols) / dt / 1e6, "MB/s")

        ex = plan.resolve_executor() or SerialExecutor()
        dispatch = []
        states = None
        for _ in range(REPEAT):
            with self.tracer.span("parallel.dispatch"):
                t0 = time.perf_counter()
                states = ex.scan("sfa", table, sfa.initial, symbols, spans)
                wall = time.perf_counter() - t0
            slowest = 0.0
            for a, b in spans:
                with self.tracer.span("parallel.dispatch_kernel"):
                    t0 = time.perf_counter()
                    sfa_scan(table, sfa.initial, symbols[a:b])
                    slowest = max(slowest, time.perf_counter() - t0)
            dispatch.append(wall - slowest)
        self.put("parallel.dispatch_ms", median(dispatch) * 1e3, "ms")

        per = _mean_per_call(
            self.tracer, "parallel.reduction", range(2000),
            lambda _: sequential_reduction_dsfa(sfa.maps, states, sfa.origin_initial))
        self.put("parallel.reduction_us", per * 1e6, "us")

    # -- matching ------------------------------------------------------------
    def matching(self, paper, logs, ids, mps) -> None:
        from repro import compile_pattern, resolve_plan
        from repro.matching.sequential import SequentialDFAMatcher

        t = self.tracer
        text = paper.texts[5][0][0][: 2 << 20]
        m = compile_pattern(gen.rn_source(5))
        classes = m.translate(text)
        walker = SequentialDFAMatcher(m.min_dfa)
        dt, _ = _timed(t, "matching.dfa_walk", lambda: walker.run_classes(classes))
        self.put("matching.dfa_walk_mb_s", len(text) / dt / 1e6, "MB/s")

        start_bytes = start_s = pre_bytes = pre_s = emit_s = 0.0
        candidates = pre_spans = 0
        for pat, _ in log_grep.WARM:
            seg, want = logs.inputs[pat][0]
            m = compile_pattern(pat)
            eng = m.span_engine()
            m.finditer(seg, plan="auto")  # warm
            plan = resolve_plan("auto", "spans", len(seg), subject=m)
            self.plans.append(plan)
            total, spans = _timed(t, "matching.spans", lambda: list(m.finditer(seg, plan="auto")))
            if spans != want:
                self.mismatches.append(f"spans of {pat}")
            if eng.prefilter is not None and plan.prefilter is not False:
                dt, bits = _timed(t, "matching.spans.prefilter",
                                  lambda: eng.prefilter_bits(seg, len(seg)))
                pre_bytes += len(seg)
                pre_s += dt
                candidates += int(bits.sum())
                pre_spans += len(spans)
            else:
                cls = eng.partition.translate(seg)
                ex = plan.resolve_executor()
                dt, _ = _timed(t, "matching.spans.start_pass",
                               lambda: eng.start_bits(cls, plan.num_chunks, ex, plan.kernel))
                start_bytes += len(seg)
                start_s += dt
            emit_s += total - dt
        self.put("matching.spans.start_pass_mb_s", start_bytes / start_s / 1e6, "MB/s")
        self.put("matching.spans.prefilter_mb_s", pre_bytes / pre_s / 1e6, "MB/s")
        self.put("matching.spans.emit_ms", emit_s * 1e3, "ms")
        self.put("matching.spans.candidates_per_span", candidates / max(pre_spans, 1), "ratio")

        payloads = ids.payloads
        dt, got = _timed(t, "matching.multi",
                         lambda: [sorted(mps.matches(p, plan="auto")) for p in payloads])
        if got != ids.want_multi:
            self.mismatches.append("multi-pattern matches")
        self.put("matching.multi.payloads_s", len(payloads) / dt, "1/s")
        screened = sum(len(mps.prescreen(p)) for p in payloads)
        matched = sum(len(w) for w in ids.want_multi)
        self.put("matching.multi.candidates_per_match", screened / max(matched, 1), "ratio")

    # -- service -------------------------------------------------------------
    def service(self, ids) -> None:
        from repro.service.protocol import encode_message, parse_header

        header = ids_service.multiscan_header(ids.rules)
        payloads = ids.payloads

        def frame(p):
            msg = encode_message(header, p)
            parse_header(msg[: msg.index(b"\n") + 1])

        per = _mean_per_call(self.tracer, "service.framing", payloads, frame)
        self.put("service.framing_us", per * 1e6, "us")

        log = OpLog()
        with self.tracer.span("service.traffic"):
            ids.setup_trial(keep=True)
            try:
                for _ in range(2 if self.short else 10):
                    log.new_round()
                    ids.round(log, NullTracer())
                stats = ids.server.request({"op": "stats"})
            finally:
                ids.close()
        if log.failed:
            self.mismatches.extend(log.unexpected_failures)
        self.put("service.server_p50_ms", stats["metrics"]["latency_ms"]["p50"], "ms")
        self.put("service.cache_hits", stats["cache"]["hits"], "count")
        self.put("service.cache_misses", stats["cache"]["misses"], "count")
        self.put("service.compile_s", stats["cache"]["compile_seconds"], "s")
