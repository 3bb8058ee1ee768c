"""Measurement plumbing shared by the workloads: op accounting, statistics,
the in-memory span tracer and peak-RSS readers.

Nothing here imports the program under test, so the generators and the
reference checks stay independent of it.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import resource
import time
from typing import Callable, Dict, List, Optional

#: Warm-tail percentile per workload, chosen so that every window (below)
#: of a default run leaves at least 10 warm samples beyond it.
TAIL_PERCENTILE = {"paper_fullmatch": 75.0, "log_grep": 75.0, "ids_service": 99.0}

#: Rounds per measurement window.  Warm metrics are computed per window
#: and the run reports their median, so a burst of host contention that
#: covers less than half of the windows does not move the result.
ROUNDS_PER_WINDOW = {"paper_fullmatch": 2, "log_grep": 5, "ids_service": 25}


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (``numpy.percentile``'s default)."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: List[float]) -> float:
    return percentile(values, 50.0)


class Round:
    """The samples of one round: warm and cold latencies, warm input bytes
    and busy time (the summed wall time of its timed ops)."""

    def __init__(self) -> None:
        self.warm_ms: List[float] = []
        self.cold_ms: List[float] = []
        self.warm_bytes = 0
        self.busy_s = 0.0


class OpLog:
    """Attempted/failed accounting plus the latency samples of one run,
    kept per round.

    ``busy_s`` is the measured phase's wall time: the summed wall time of
    every timed warm and cold op.  Input generation, reference answers and
    the known-fault op run outside it.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.known_failed = 0
        self.unexpected_failures: List[str] = []
        self.rounds: List[Round] = []
        self.busy_s = 0.0

    def new_round(self) -> None:
        self.rounds.append(Round())

    @property
    def warm_ms(self) -> List[float]:
        return [x for r in self.rounds for x in r.warm_ms]

    @property
    def cold_ms(self) -> List[float]:
        return [x for r in self.rounds for x in r.cold_ms]

    def windows(self, rounds_per_window: int) -> List[Round]:
        """Consecutive rounds merged into windows; a short last window is
        folded into the one before it."""
        out: List[Round] = []
        for i, r in enumerate(self.rounds):
            if i % rounds_per_window == 0 and (len(self.rounds) - i) >= rounds_per_window:
                out.append(Round())
            elif not out:
                out.append(Round())
            w = out[-1]
            w.warm_ms += r.warm_ms
            w.cold_ms += r.cold_ms
            w.warm_bytes += r.warm_bytes
            w.busy_s += r.busy_s
        return out

    def op(self, kind: str, label: str, fn: Callable[[], object],
           check: Callable[[object], bool], nbytes: int = 0) -> None:
        """Run one timed op; a raise or a wrong answer counts as failed and
        leaves no latency sample behind."""
        self.attempted += 1
        rnd = self.rounds[-1]
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as e:  # the op's failure is the measurement
            dt = time.perf_counter() - t0
            self.busy_s += dt
            rnd.busy_s += dt
            self._fail(f"{label}: {type(e).__name__}: {e}")
            return
        dt = time.perf_counter() - t0
        self.busy_s += dt
        rnd.busy_s += dt
        if not check(out):
            self._fail(f"{label}: answer differs from the reference")
            return
        if kind == "warm":
            rnd.warm_ms.append(dt * 1e3)
            rnd.warm_bytes += nbytes
        else:
            rnd.cold_ms.append(dt * 1e3)

    def known_fault(self, ok: bool) -> None:
        """One attempt of the known-fault op (its time is never measured)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.known_failed += 1

    def _fail(self, why: str) -> None:
        self.failed += 1
        if len(self.unexpected_failures) < 20:
            self.unexpected_failures.append(why)


class Span:
    __slots__ = ("tracer", "name", "sid", "parent", "root", "start", "end")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "Span":
        stack = self.tracer.stack
        self.sid = next(self.tracer.ids)
        self.parent = stack[-1].sid if stack else None
        self.root = stack[0].sid if stack else self.sid
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.tracer.stack.pop()
        self.tracer.spans.append(self)


class Tracer:
    """In-memory span recorder: each span keeps a name, start, end, parent
    and the id of the root span it belongs to (one op or one probe)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        self.ids = itertools.count(1)

    def span(self, name: str) -> Span:
        return Span(self, name)

    def self_ms_by_layer(self) -> Dict[str, Dict[str, float]]:
        """Per layer (the span name up to its first dot): total span time of
        the layer's outermost spans and the self time of all its spans
        (duration minus the part covered by child spans)."""
        child_s: Dict[int, float] = {}
        names = {s.sid: s.name for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                child_s[s.parent] = child_s.get(s.parent, 0.0) + (s.end - s.start)
        out: Dict[str, Dict[str, float]] = {}
        for s in self.spans:
            layer = s.name.split(".", 1)[0]
            row = out.setdefault(layer, {"total_ms": 0.0, "self_ms": 0.0, "spans": 0})
            dur = s.end - s.start
            row["self_ms"] += (dur - child_s.get(s.sid, 0.0)) * 1e3
            row["spans"] += 1
            parent_layer = (
                names[s.parent].split(".", 1)[0] if s.parent is not None else None
            )
            if parent_layer != layer:
                row["total_ms"] += dur * 1e3
        return out

    def dump(self, path: str) -> None:
        t0 = min((s.start for s in self.spans), default=0.0)
        rows = [
            {"id": s.sid, "parent": s.parent, "root": s.root, "name": s.name,
             "start_ms": (s.start - t0) * 1e3, "end_ms": (s.end - t0) * 1e3}
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"spans": rows, "layers": self.self_ms_by_layer()}, f, indent=1)


class NullTracer:
    """Tracing off: ``span`` hands back one shared no-op context manager."""

    _NULL = contextlib.nullcontext()

    def span(self, name: str):
        return self._NULL


def self_peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> Optional[float]:
    """Peak resident set of a live child process, from its VmHWM."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def library_peak_rss_mb() -> float:
    """Peak resident set of this process or of any live chunk-pool worker
    it forked, whichever is higher."""
    import multiprocessing

    peaks = [self_peak_rss_mb()]
    for child in multiprocessing.active_children():
        peak = pid_peak_rss_mb(child.pid)
        if peak is not None:
            peaks.append(peak)
    return max(peaks)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}
