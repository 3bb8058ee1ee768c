"""Multi-pattern equivalence across kernel × executor × chunking.

The IDS scan path must make every plan language-invisible: for any
ruleset, any payload, any chunk count (including ``p > n``), any kernel
(including odd stride tails) and any dispatch backend, ``matches`` and
``scan_chunked`` return the exact rule set of the serial python-kernel
scan — and the streaming cursor agrees with batch matching under
arbitrary block boundaries.  Mirrors ``tests/test_kernels.py`` /
``tests/test_executor_equivalence.py`` for :class:`MultiPatternSet`.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching.multi import MultiPatternSet
from repro.matching.stream import StreamingMultiMatcher
from repro.parallel.executor import ProcessExecutor, SerialExecutor
from repro.parallel.scan import KERNELS
from repro.planning.plan import Plan
from repro.workloads.snort import generate_ruleset

# Hand-written rules plus two generated SNORT-like rulesets (seeds chosen
# for small unions — the cross product of Σ*-wrapped rules grows fast).
RULESETS = {
    "hand": ("abc", "a[0-9]+b", "(GET|POST) /x", "zz*top"),
    "snort21": tuple(generate_ruleset(6, seed=21))[:3],
    "snort7": tuple(generate_ruleset(6, seed=7))[:3],
}

# Payload alphabet biased toward the rules' literals so matches happen.
ALPHABET = b"abcdefgxz019 /.:GET POST curl exe"


@functools.lru_cache(maxsize=None)
def multiset(key: str) -> MultiPatternSet:
    return MultiPatternSet(list(RULESETS[key]), max_dfa_states=300_000)


payloads = st.binary(max_size=200) | st.text(
    alphabet=[chr(c) for c in set(ALPHABET)], max_size=200
).map(lambda s: s.encode())


@given(
    data=payloads,
    p=st.integers(1, 9),
    kernel=st.sampled_from(KERNELS),
    key=st.sampled_from(sorted(RULESETS)),
)
@settings(max_examples=40, deadline=None)
def test_matches_invariant_under_kernel_and_chunking(data, p, kernel, key):
    mps = multiset(key)
    ref = mps.matches(data, plan=Plan())
    plan = Plan(num_chunks=p, kernel=kernel)
    assert mps.matches(data) == ref  # the auto plan
    assert mps.matches(data, plan=plan) == ref
    assert mps.scan_chunked(data, plan=plan) == ref
    assert mps.matches_any(data, plan=plan) == bool(ref)


@pytest.fixture(scope="module")
def process_ex():
    with ProcessExecutor(2) as ex:
        yield ex


# Deterministic payload sweep for the (expensive) executor matrix: empty
# input, p > n, stride tails of every residue, and a real multi-rule hit.
EXECUTOR_PAYLOADS = [
    b"",
    b"a",
    b"abc",
    b"zztop GET /x",
    b"junk abc junk a987b junk zztop END" * 3,
    b"x" * 41 + b"abc" + b"y" * 30,
]


@pytest.mark.parametrize("p", [1, 3, 50])
@pytest.mark.parametrize("kernel", ["python", "stride4"])
def test_matches_invariant_under_executors(process_ex, p, kernel):
    mps = multiset("hand")
    backends = ((None, None), ("serial", SerialExecutor()),
                ("processes", process_ex))
    for data in EXECUTOR_PAYLOADS:
        ref = mps.matches(data, plan=Plan())
        for name, ex in backends:
            plan = Plan(num_chunks=p, executor=name, kernel=kernel)
            got = mps.matches(data, plan=plan, executor=ex)
            assert got == ref, (data, p, kernel, name)
            got = mps.scan_chunked(data, plan=plan, executor=ex)
            assert got == ref, ("chunked", data, p, kernel, name)


def test_snort_ruleset_across_backends(process_ex):
    mps = multiset("snort7")
    data = b"scripts/jsp42 999999:0123 format=ab12 " * 4
    ref = mps.matches(data, plan=Plan())
    assert ref  # the payload is built to trip rules
    for kernel in ("python", "stride2"):
        plan = Plan(num_chunks=5, executor="processes", kernel=kernel)
        assert mps.matches(data, plan=plan, executor=process_ex) == ref


@given(
    data=payloads,
    cuts=st.lists(st.integers(0, 200), max_size=6),
    p=st.integers(1, 5),
    kernel=st.sampled_from(KERNELS),
    key=st.sampled_from(sorted(RULESETS)),
)
@settings(max_examples=40, deadline=None)
def test_streaming_agrees_with_batch(data, cuts, p, kernel, key):
    mps = multiset(key)
    expected = mps.matches(data)
    bounds = sorted({0, len(data), *[c % (len(data) + 1) for c in cuts]})
    blocks = [data[a:b] for a, b in zip(bounds, bounds[1:])]
    cur = StreamingMultiMatcher(
        mps, plan=Plan(engine="lockstep", num_chunks=p, kernel=kernel)
    )
    reported = set()
    for block in blocks:
        fresh = cur.feed(block)
        assert fresh.isdisjoint(reported)  # each rule is reported once
        reported |= fresh
    assert cur.matched_rules() == expected
    assert cur.rules() == expected  # search mode: matched set is monotone
    assert reported == expected
    assert cur.bytes_consumed == len(data)


@given(data=st.binary(max_size=60), cuts=st.lists(st.integers(0, 60), max_size=4))
@settings(max_examples=25, deadline=None)
def test_streaming_fullmatch_mode_tracks_current_rules(data, cuts):
    mps = _fullmatch_set()
    expected = mps.matches(data)
    bounds = sorted({0, len(data), *[c % (len(data) + 1) for c in cuts]})
    cur = StreamingMultiMatcher(mps)
    for a, b in zip(bounds, bounds[1:]):
        cur.feed(data[a:b])
    # fullmatch mode is not monotone: rules() is the verdict for exactly
    # the consumed bytes; matched_rules() accumulates boundary verdicts.
    assert cur.rules() == expected
    assert cur.matched_rules() >= expected


@functools.lru_cache(maxsize=None)
def _fullmatch_set() -> MultiPatternSet:
    return MultiPatternSet(["(ab)*", "a+", "[ab]{3}"], mode="fullmatch")
