"""Reference lines on the benchmark's own inputs: Python ``re`` and the
library's legacy ``plan=None`` strategy, next to ``plan="auto"``.

    python3 perfbench/reference.py --seed 1

Prints one line per workload input class with warm throughput (MB/s, or
payloads/s for the IDS ruleset).  Every answer is checked against the
workload's reference before it is timed.  The figures go into README.md;
they are not part of the benchmark's metrics.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import ids_service  # noqa: E402
import log_grep  # noqa: E402
import paper_fullmatch  # noqa: E402
from harness import median  # noqa: E402
from run import isolate_planner  # noqa: E402


def best_rate(fn, nbytes: float, repeat: int = 5) -> float:
    fn()  # warm
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return nbytes / median(times)


def check(got, want, what: str) -> None:
    if got != want:
        raise SystemExit(f"reference.py: {what} disagrees with the reference")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    cache = isolate_planner()
    try:
        report(args.seed)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return 0


def report(seed: int) -> None:
    from repro import MultiPatternSet, compile_pattern

    paper = paper_fullmatch.Workload(seed, short=False)
    for n in paper_fullmatch.WARM_N:
        rx = re.compile(gen.rn_source(n).encode())
        m = compile_pattern(gen.rn_source(n))
        for text, want in paper.texts[n]:
            for label, fn in (("re.fullmatch", lambda: rx.fullmatch(text) is not None),
                              ("plan=None", lambda: m.fullmatch(text)),
                              ("plan=auto", lambda: m.fullmatch(text, plan="auto"))):
                check(fn(), want, f"{label} r_{n}")
                rate = best_rate(fn, len(text))
                print(f"paper_fullmatch r_{n} {'accepted' if want else 'rejected'} "
                      f"{label}: {rate / 1e6:.2f} MB/s")

    logs = log_grep.Workload(seed, short=False)
    for pat, _ in log_grep.WARM:
        seg, want = logs.inputs[pat][0]
        rx = re.compile(pat.encode())
        m = compile_pattern(pat)
        for label, fn in (("re.finditer", lambda: [x.span() for x in rx.finditer(seg)]),
                          ("plan=None", lambda: list(m.finditer(seg))),
                          ("plan=auto", lambda: list(m.finditer(seg, plan="auto")))):
            check(fn(), want, f"{label} {pat}")
            print(f"log_grep {pat} {label}: {best_rate(fn, len(seg)) / 1e6:.2f} MB/s")

    ids = ids_service.Workload(seed, short=False, root=os.path.dirname(HERE))
    rxs = [re.compile(r.encode("latin-1")) for r in ids.rules]
    mps = MultiPatternSet(ids.rules, backend="auto")
    pays = ids.payloads
    for label, fn in (
        ("per-rule re.search",
         lambda: [[i for i, rx in enumerate(rxs) if rx.search(p)] for p in pays]),
        ("plan=None", lambda: [sorted(mps.matches(p)) for p in pays]),
        ("plan=auto", lambda: [sorted(mps.matches(p, plan="auto")) for p in pays]),
    ):
        check(fn(), ids.want_multi, f"{label} ruleset")
        print(f"ids_service {len(ids.rules)}-rule set {label}: "
              f"{best_rate(fn, len(pays)):.0f} payloads/s (in-process)")


if __name__ == "__main__":
    sys.exit(main())
