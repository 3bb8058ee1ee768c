"""ids_service: a ``repro serve`` child with default options, driven by one
client connection in a closed loop (the next request leaves only after the
previous reply arrived).  Client and server are pinned to one CPU for the
workload: on a small virtual machine a wake-up across CPUs costs the
hypervisor's scheduling delay, which otherwise dominates run-to-run spread.

Round of 50 requests in a fixed order: 30 ``multiscan`` requests of a
100-rule ``generate_ruleset`` set over seeded 512-byte payloads, 19
``match`` requests (contains or fullmatch) over a hot set of six patterns,
and one ``match`` (contains) request carrying a rule this server has never
seen, which forces a cache miss and a compile.  Every request asks for
``plan="auto"``.  Payloads stay far below the 1 MiB parallel threshold, so
per-request costs dominate: framing, cache lookup, planning, the scan.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from typing import List

import numpy as np

import gen
from harness import OpLog, pid_peak_rss_mb

RULES = 100
#: ``generate_ruleset``'s own default seed: every run scans one fixed rule
#: set, as a deployed sensor does; traffic and cold rules follow --seed.
RULESET_SEED = 2940
PAYLOADS = 256
ROUND = ["multi"] * 30 + ["hot"] * 19 + ["cold"]
#: One fixed interleaving for every run and seed.
ORDER = [ROUND[int(i)] for i in np.random.default_rng(0).permutation(len(ROUND))]


def _re_of(pattern: str):
    return re.compile(pattern.encode("latin-1"))


class Server:
    """One ``repro serve --port 0`` child and a client connection to it."""

    def __init__(self, root: str, cpu: int):
        from repro.service.client import ServiceClient

        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            os.sched_setaffinity(self.proc.pid, {cpu})
            line = self.proc.stdout.readline()
            if "listening on " not in line:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
            self.client = ServiceClient(port=port, timeout=120)
        except BaseException:
            self.stop()
            raise

    def request(self, header, payload=None):
        return self.client.request(header, payload)

    def stop(self) -> None:
        client = getattr(self, "client", None)
        if client is not None:
            try:
                client.shutdown()
            except Exception:  # a dead server is stopped below either way
                pass
            client.close()
            self.client = None
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def multiscan_header(rules: List[str]):
    return {"op": "multiscan", "mode": "search", "ignore_case": False,
            "rules": rules, "plan": "auto"}


def match_header(pattern: str, mode: str):
    return {"op": "match", "pattern": pattern, "mode": mode,
            "ignore_case": False, "plan": "auto"}


class Workload:
    name = "ids_service"

    def __init__(self, seed: int, short: bool, root: str):
        from repro.workloads.snort import generate_ruleset

        self.generate_ruleset = generate_ruleset
        self.root = root
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.correct = True
        self.rules = list(generate_ruleset(RULES, seed=RULESET_SEED).patterns)
        count = PAYLOADS // 8 if short else PAYLOADS
        self.payloads = gen.payloads(self.rng, count)
        rxs = [_re_of(r) for r in self.rules]
        self.want_multi = [
            [i for i, rx in enumerate(rxs) if rx.search(p)] for p in self.payloads
        ]
        self.want_hot = []
        for pat, mode in gen.HOT_PATTERNS:
            rx = _re_of(pat)
            fn = rx.fullmatch if mode == "fullmatch" else rx.search
            self.want_hot.append([fn(p) is not None for p in self.payloads])
        self.seen = set(self.rules) | {p for p, _ in gen.HOT_PATTERNS}
        self.cold_batch = 0
        self.cold_queue: List[str] = []
        self.server = None
        self.k = 0  # request counter: picks payloads and hot patterns
        self.plan_seen = {}
        self.affinity = os.sched_getaffinity(0)
        self.cpu = max(self.affinity)

    def _next_cold_rule(self) -> str:
        while not self.cold_queue:
            self.cold_batch += 1
            batch = self.generate_ruleset(64, seed=self.seed * 1000 + self.cold_batch)
            for rule in batch.patterns:
                if rule not in self.seen:
                    self.seen.add(rule)
                    self.cold_queue.append(rule)
        return self.cold_queue.pop(0)

    def _note_plan(self, op_class: str, reply) -> None:
        self.plan_seen.setdefault(op_class, reply.get("plan"))

    def setup_trial(self, keep: bool) -> float:
        os.sched_setaffinity(0, {self.cpu})
        t0 = time.perf_counter()
        server = Server(self.root, self.cpu)
        try:
            reply = server.request(multiscan_header(self.rules), self.payloads[0])
            answers = [reply["rules"] == self.want_multi[0]]
            for h, (pat, mode) in enumerate(gen.HOT_PATTERNS):
                hot = server.request(match_header(pat, mode), self.payloads[0])
                answers.append(hot["match"] is self.want_hot[h][0])
            dt = time.perf_counter() - t0
        except BaseException:
            server.stop()
            raise
        if not all(answers):
            self.correct = False
        if keep:
            self.server = server
            self._note_plan("warm multiscan", reply)
        else:
            server.stop()
        return dt

    def plans(self):
        return dict(self.plan_seen)

    def round(self, log: OpLog, tracer) -> None:
        cold_rule = self._next_cold_rule()
        cold_payload = self.payloads[self.k % len(self.payloads)]
        cold_want = _re_of(cold_rule).search(cold_payload) is not None
        srv = self.server
        for kind in ORDER:
            self.k += 1
            idx = self.k % len(self.payloads)
            payload = self.payloads[idx]
            if kind == "multi":
                want = self.want_multi[idx]
                header = multiscan_header(self.rules)
                with tracer.span("workload.multiscan"):
                    log.op("warm", "multiscan", lambda: srv.request(header, payload),
                           lambda r: r["rules"] == want, len(payload))
            elif kind == "hot":
                h = self.k % len(gen.HOT_PATTERNS)
                pat, mode = gen.HOT_PATTERNS[h]
                want = self.want_hot[h][idx]
                header = match_header(pat, mode)
                with tracer.span("workload.hot_match"):
                    log.op("warm", f"match {mode} {pat}",
                           lambda: self._noted("warm match", srv.request(header, payload)),
                           lambda r: r["match"] is want, len(payload))
            else:
                header = match_header(cold_rule, "contains")
                with tracer.span("workload.cold_match"):
                    log.op("cold", f"cold match {cold_rule}",
                           lambda: self._noted("cold match", srv.request(header, cold_payload)),
                           lambda r: r["match"] is cold_want)

    def _noted(self, op_class: str, reply):
        self._note_plan(op_class, reply)
        return reply

    def peak_rss_mb(self) -> float:
        """The server child's peak resident set."""
        peak = pid_peak_rss_mb(self.server.proc.pid)
        if peak is None:
            raise RuntimeError("server exited before its peak RSS was read")
        return peak

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        os.sched_setaffinity(0, self.affinity)

