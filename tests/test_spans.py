"""Unit tests for the span-extraction subsystem (DESIGN.md §3.7)."""

import random
import re
import resource
import sys

import numpy as np
import pytest

from repro import MultiPatternSet, Plan, compile_pattern
from repro.errors import MatchEngineError
from repro.matching.stream import (
    StreamingMultiSpanMatcher,
    StreamingSpanMatcher,
)


class TestSpanAPI:
    def test_finditer_returns_spans(self):
        m = compile_pattern("ab")
        assert list(m.finditer(b"xxabxxab")) == [(2, 4), (6, 8)]

    def test_find_first_or_none(self):
        m = compile_pattern("ab")
        assert m.find(b"xxabxxab") == (2, 4)
        assert m.find(b"xxx") is None

    def test_count(self):
        assert compile_pattern("a").count(b"aaa") == 3
        assert compile_pattern("a+").count(b"aa b aaa") == 2

    def test_findall_returns_bytes(self):
        m = compile_pattern("a+")
        assert m.findall(b"aa b aaa") == [b"aa", b"aaa"]

    def test_memoryview_and_bytearray_inputs(self):
        m = compile_pattern("ab")
        data = b"xxabxx"
        assert list(m.finditer(memoryview(data))) == [(2, 4)]
        assert list(m.finditer(bytearray(data))) == [(2, 4)]
        assert m.findall(memoryview(data)) == [b"ab"]

    def test_ignore_case_spans(self):
        m = compile_pattern("error", ignore_case=True)
        assert list(m.finditer(b"xx ERROR yy Error")) == [(3, 8), (12, 17)]

    def test_leftmost_longest_alternation(self):
        # Python re would report (0, 1); POSIX longest wins here.
        assert list(compile_pattern("a|ab").finditer(b"ab")) == [(0, 2)]

    def test_nullable_pattern_matches_re(self):
        rx = re.compile(b"a*")
        m = compile_pattern("a*")
        for text in (b"", b"a", b"baa", b"aab", b"bb"):
            assert list(m.finditer(text)) == [x.span() for x in rx.finditer(text)]

    def test_empty_language_has_no_spans(self):
        # [^\x00-\xff] is an empty class -> Never; nothing ever matches
        m = compile_pattern("a{2}b{0}c|x")
        assert list(m.finditer(b"aacx")) == [(0, 3), (3, 4)]

    def test_bad_kernel_and_chunks_rejected(self):
        m = compile_pattern("a")
        with pytest.raises(MatchEngineError):
            m.span_engine().spans(b"a", plan={"kernel": "simd"})
        with pytest.raises(MatchEngineError):
            m.span_engine().spans(b"a", plan={"num_chunks": 0})

    def test_span_engine_cached(self):
        m = compile_pattern("ab")
        assert m.span_engine() is m.span_engine()


class TestStartBits:
    def test_bits_mark_match_starts(self):
        m = compile_pattern("ab")
        eng = m.span_engine()
        classes = m.translate(b"abxab")
        bits = eng.start_bits(classes)
        assert bits.tolist() == [True, False, False, True, False, False]

    def test_trailing_position_for_nullable(self):
        eng = compile_pattern("a*").span_engine()
        bits = eng.start_bits(compile_pattern("a*").translate(b"b"))
        assert bits.tolist() == [True, True]

    def test_chunked_bits_equal_serial(self):
        m = compile_pattern("(ab)+|c")
        eng = m.span_engine()
        rng = random.Random(13)
        for _ in range(25):
            text = bytes(rng.choice(b"abcab") for _ in range(rng.randrange(0, 60)))
            classes = m.translate(text)
            base = eng.start_bits(classes)
            for p in (2, 3, 9, len(text) + 2):
                for kernel in ("python", "stride2", "stride4"):
                    got = eng.start_bits(classes, p, None, kernel)
                    assert np.array_equal(got, base), (text, p, kernel)


class TestStreamingSpans:
    def test_emits_before_finish(self):
        cur = StreamingSpanMatcher(compile_pattern("ERROR [0-9]+"), Plan())
        assert cur.feed(b"ok\nERROR 42 boom\n") == [(3, 11)]
        assert cur.bytes_buffered == 0

    def test_holds_extensible_tail(self):
        cur = StreamingSpanMatcher(compile_pattern("ERROR [0-9]+"), Plan())
        assert cur.feed(b"xx ERROR 4") == []  # digits may keep coming
        assert cur.bytes_buffered == 7  # held from the match start
        assert cur.feed(b"2 done") == [(3, 11)]

    def test_finish_flushes_and_closes(self):
        cur = StreamingSpanMatcher(compile_pattern("a+"), Plan())
        assert cur.feed(b"xaa") == []
        assert cur.finish() == [(1, 3)]
        assert cur.finish() == []
        with pytest.raises(MatchEngineError):
            cur.feed(b"more")

    def test_reset(self):
        cur = StreamingSpanMatcher(compile_pattern("ab"), Plan())
        cur.feed(b"ab")
        cur.reset()
        assert cur.feed(b"xxab\n") == [(2, 4)]

    def test_global_offsets_across_many_feeds(self):
        cur = StreamingSpanMatcher(compile_pattern("ab"), Plan())
        got = []
        for _ in range(10):
            got += cur.feed(b"xab\n")
        got += cur.finish()
        assert got == [(4 * i + 1, 4 * i + 3) for i in range(10)]

    def test_rejects_non_pattern(self):
        with pytest.raises(MatchEngineError):
            StreamingSpanMatcher("a+")

    def test_random_blockings_equal_batch(self):
        rng = random.Random(99)
        for pattern in ("a+b", "(ab|ba)*", "ERROR [0-9]+"):
            m = compile_pattern(pattern)
            for _ in range(15):
                n = rng.randrange(0, 70)
                text = bytes(
                    rng.choice(b"abERROR 0123\n") for _ in range(n)
                )
                batch = list(m.finditer(text))
                cur = StreamingSpanMatcher(m, Plan())
                got, i = [], 0
                while i < n:
                    j = min(n, i + rng.randrange(1, 10))
                    got += cur.feed(text[i:j])
                    i = j
                got += cur.finish()
                assert got == batch, (pattern, text)


class TestMultiPatternSpans:
    RULES = ["abc", "a[0-9]+b", "zz*top"]

    def test_finditer_reports_rule_spans(self):
        mps = MultiPatternSet(self.RULES)
        got = mps.finditer(b"pad abc pad a42b abc ztop")
        assert got == [(0, 4, 7), (1, 12, 16), (0, 17, 20), (2, 21, 25)]

    def test_prefilter_skips_missing_rules(self):
        mps = MultiPatternSet(self.RULES)
        assert mps.finditer(b"nothing here") == []
        assert mps.finditer(b"xx abc xx") == [(0, 3, 6)]

    def test_knobs_do_not_change_spans(self):
        mps = MultiPatternSet(self.RULES)
        data = b"x" * 200 + b"abc" + b"y" * 100 + b"a7b"
        base = mps.finditer(data)
        for executor in (None, "serial"):
            for kernel in ("python", "stride2"):
                plan = Plan(num_chunks=4, executor=executor, kernel=kernel)
                got = mps.finditer(data, plan=plan)
                assert got == base, (executor, kernel)

    def test_fullmatch_mode_extracts_all_rules(self):
        mps = MultiPatternSet(["abc", "x+"], mode="fullmatch")
        # neither rule fullmatches, but occurrences are still reported
        assert mps.finditer(b"abc xx") == [(0, 0, 3), (1, 4, 6)]

    def test_rule_pattern_cached_and_case_aware(self):
        mps = MultiPatternSet([("abc", True), "d"])
        assert mps.rule_pattern(0) is mps.rule_pattern(0)
        assert list(mps.rule_pattern(0).finditer(b"ABC")) == [(0, 3)]

    def test_streaming_multi_equals_batch(self):
        mps = MultiPatternSet(self.RULES)
        data = b"pad abc pad a42b abc ztop"
        batch = mps.finditer(data)
        rng = random.Random(5)
        for _ in range(8):
            sm = StreamingMultiSpanMatcher(mps, Plan())
            got, i = [], 0
            while i < len(data):
                j = min(len(data), i + rng.randrange(1, 7))
                got += sm.feed(data[i:j])
                i = j
            got += sm.finish()
            assert sorted(got) == sorted(batch)
            sm.reset()


class TestReadInputMmap:
    def test_regular_file_is_mmapped(self, tmp_path):
        import mmap as mmap_mod

        from repro.cli import _read_input

        f = tmp_path / "in.bin"
        f.write_bytes(b"abcd")
        data = _read_input(str(f))
        assert isinstance(data, mmap_mod.mmap)
        assert len(data) == 4
        assert bytes(memoryview(data)) == b"abcd"
        # the engines consume it zero-copy through the buffer protocol
        assert compile_pattern("bc").find(data) == (1, 3)

    def test_empty_file_returns_bytes(self, tmp_path):
        from repro.cli import _read_input

        f = tmp_path / "empty.bin"
        f.write_bytes(b"")
        assert _read_input(str(f)) == b""

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is KB on Linux")
    def test_large_sparse_file_does_not_balloon_rss(self, tmp_path):
        """Regression: the seed `_read_input` slurped whole files into RAM.

        A 256 MB sparse file must not move the process high-water RSS by
        anywhere near its size — mmap pages in only what is touched.
        """
        from repro.cli import _read_input

        size = 256 * 1024 * 1024
        f = tmp_path / "sparse.bin"
        with open(f, "wb") as fh:
            fh.seek(size - 4)
            fh.write(b"abcd")
        before_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        data = _read_input(str(f))
        assert len(data) == size
        # touch both ends (what a binary sniff + a tail peek would do)
        assert bytes(memoryview(data)[:4]) == b"\0\0\0\0"
        assert bytes(memoryview(data)[-4:]) == b"abcd"
        after_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        grown_mb = (after_kb - before_kb) / 1024
        assert grown_mb < 64, f"RSS grew {grown_mb:.0f} MB for a sparse mmap"
