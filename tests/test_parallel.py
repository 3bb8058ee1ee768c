"""Chunking, reductions and executors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MatchEngineError
from repro.parallel.chunking import lockstep_layout, split_balanced, split_classes
from repro.parallel.executor import (
    ProcessExecutor,
    SerialExecutor,
    make_executor,
)
from repro.planning.plan import Plan
from repro.parallel.reduction import (
    sequential_reduction_dsfa,
    sequential_reduction_nsfa,
    tree_reduction_boolean,
    tree_reduction_transformations,
)


class TestSplitBalanced:
    def test_even_split(self):
        assert split_balanced(10, 2) == [(0, 5), (5, 10)]

    def test_remainder_goes_first(self):
        spans = split_balanced(10, 3)
        lengths = [b - a for a, b in spans]
        assert lengths == [4, 3, 3]

    def test_more_chunks_than_items(self):
        spans = split_balanced(2, 5)
        assert len(spans) == 5
        assert sum(b - a for a, b in spans) == 2

    def test_zero_items(self):
        spans = split_balanced(0, 3)
        assert all(a == b for a, b in spans)

    def test_invalid_p(self):
        with pytest.raises(MatchEngineError):
            split_balanced(5, 0)

    @given(st.integers(0, 1000), st.integers(1, 32))
    def test_partition_properties(self, n, p):
        spans = split_balanced(n, p)
        assert len(spans) == p
        assert spans[0][0] == 0 and spans[-1][1] == n
        for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
            assert b1 == a2  # contiguous
        lengths = [b - a for a, b in spans]
        assert max(lengths) - min(lengths) <= 1  # balanced


class TestSplitClasses:
    def test_views_cover_input(self):
        arr = np.arange(17)
        chunks = split_classes(arr, 4)
        assert np.concatenate(chunks).tolist() == arr.tolist()

    def test_views_not_copies(self):
        arr = np.arange(8)
        chunks = split_classes(arr, 2)
        assert chunks[0].base is arr


class TestLockstepLayout:
    def test_block_shape_and_tail(self):
        arr = np.arange(11)
        block, tail = lockstep_layout(arr, 4)
        assert block.shape == (2, 4)  # m = 11 // 4 = 2
        assert tail.tolist() == [8, 9, 10]

    def test_position_major_layout(self):
        arr = np.arange(8)
        block, tail = lockstep_layout(arr, 2)
        # chunk 0 = [0..3], chunk 1 = [4..7]; row j = position j of chunks
        assert block[:, 0].tolist() == [0, 1, 2, 3]
        assert block[:, 1].tolist() == [4, 5, 6, 7]
        assert len(tail) == 0

    def test_rows_contiguous(self):
        arr = np.arange(12)
        block, _ = lockstep_layout(arr, 3)
        assert block.flags["C_CONTIGUOUS"]


class TestReductions:
    def test_sequential_dsfa(self):
        maps = np.array([[0, 1, 2], [1, 2, 0], [2, 2, 2]], dtype=np.int32)
        assert sequential_reduction_dsfa(maps, [1, 1], initial=0) == 2
        assert sequential_reduction_dsfa(maps, [], initial=1) == 1

    def test_sequential_nsfa(self):
        maps = np.zeros((2, 2, 2), dtype=bool)
        maps[0] = np.eye(2, dtype=bool)
        maps[1] = [[0, 1], [1, 0]]
        row = sequential_reduction_nsfa(maps, [1], initial_states=[0])
        assert row.tolist() == [False, True]

    def test_tree_transformations_equals_fold(self):
        rng = np.random.default_rng(3)
        parts = [rng.integers(0, 6, size=6).astype(np.int32) for _ in range(9)]
        tree = tree_reduction_transformations(parts)
        acc = parts[0]
        for t in parts[1:]:
            acc = t[acc]
        assert (tree == acc).all()

    def test_tree_boolean_equals_fold(self):
        rng = np.random.default_rng(4)
        parts = [(rng.random((4, 4)) < 0.4) for _ in range(7)]
        tree = tree_reduction_boolean(parts)
        acc = parts[0].astype(np.uint8)
        for m in parts[1:]:
            acc = ((acc @ m.astype(np.uint8)) > 0).astype(np.uint8)
        assert (tree == (acc > 0)).all()

    def test_empty_reduction_rejected(self):
        with pytest.raises(MatchEngineError):
            tree_reduction_transformations([])
        with pytest.raises(MatchEngineError):
            tree_reduction_boolean([])

    @given(st.integers(1, 16))
    @settings(max_examples=30, deadline=None)
    def test_tree_any_width(self, width):
        parts = [np.arange(4, dtype=np.int32) for _ in range(width)]
        assert (tree_reduction_transformations(parts) == np.arange(4)).all()


class TestExecutors:
    def test_serial_order_preserved(self):
        ex = SerialExecutor()
        out = ex.map(lambda a: int(a.sum()), [np.array([1]), np.array([2, 3])])
        assert out == [1, 5]


class TestProcessExecutor:
    """The multicore backend: shared-memory tables + a worker pool."""

    TABLE = np.array([[1, 0], [0, 1]], dtype=np.int32)  # parity automaton

    def _classes(self, n=5000):
        rng = np.random.default_rng(7)
        return rng.integers(0, 2, size=n).astype(np.int32)

    def test_scan_matches_serial(self):
        classes = self._classes()
        spans = split_balanced(len(classes), 4)
        expect = SerialExecutor().scan("sfa", self.TABLE, 0, classes, spans)
        with ProcessExecutor(2) as ex:
            got = ex.scan("sfa", self.TABLE, 0, classes, spans)
        assert got == expect

    def test_transform_scan_matches_serial(self):
        classes = self._classes()
        spans = split_balanced(len(classes), 3)
        expect = SerialExecutor().scan("transform", self.TABLE, 0, classes, spans)
        with ProcessExecutor(2) as ex:
            got = ex.scan("transform", self.TABLE, 0, classes, spans)
        assert all((a == b).all() for a, b in zip(got, expect))

    def test_table_published_once(self):
        classes = self._classes()
        spans = split_balanced(len(classes), 2)
        with ProcessExecutor(2) as ex:
            ex.scan("sfa", self.TABLE, 0, classes, spans)
            ex.scan("sfa", self.TABLE, 0, classes, spans)
            # one content-addressed segment for the table; the per-call
            # classes segments are unlinked before scan() returns
            assert len(ex.published_segment_names()) == 1

    def test_table_cache_bounded_fifo(self):
        from multiprocessing import shared_memory

        classes = self._classes(500)
        spans = split_balanced(len(classes), 2)
        with ProcessExecutor(2) as ex:
            ex.max_tables = 2
            tables = [
                np.array([[i & 1, (i >> 1) & 1], [0, 1]], dtype=np.int32)
                for i in range(4)  # four distinct first rows
            ]
            expect = [SerialExecutor().scan("sfa", t, 0, classes, spans)
                      for t in tables]
            first_names = None
            for t, e in zip(tables, expect):
                assert ex.scan("sfa", t, 0, classes, spans) == e
                if first_names is None:
                    first_names = ex.published_segment_names()
            assert len(ex.published_segment_names()) <= 2
            # the first published table was evicted and unlinked
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=first_names[0])
            # an evicted table is republished transparently and still correct
            assert ex.scan("sfa", tables[0], 0, classes, spans) == expect[0]

    def test_close_unlinks_segments_and_shuts_pool(self):
        from multiprocessing import shared_memory

        classes = self._classes()
        ex = ProcessExecutor(2)
        ex.scan("sfa", self.TABLE, 0, classes, split_balanced(len(classes), 2))
        names = ex.published_segment_names()
        assert names and ex._pool is not None
        ex.close()
        assert ex._pool is None
        assert ex.published_segment_names() == []
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        ex.close()  # idempotent

    def test_fallback_when_processes_unavailable(self):
        classes = self._classes()
        spans = split_balanced(len(classes), 4)
        ex = ProcessExecutor(2, start_method="no-such-method")
        assert not ex.available
        assert ex.fallback_reason
        expect = SerialExecutor().scan("sfa", self.TABLE, 0, classes, spans)
        assert ex.scan("sfa", self.TABLE, 0, classes, spans) == expect
        ex.close()

    def test_fresh_workers_mode(self):
        classes = self._classes(1000)
        spans = split_balanced(len(classes), 2)
        with ProcessExecutor(2, fresh_workers=True) as ex:
            expect = SerialExecutor().scan("sfa", self.TABLE, 0, classes, spans)
            assert ex.scan("sfa", self.TABLE, 0, classes, spans) == expect
            assert ex._pool is None  # cold mode never keeps a pool

    def test_generic_map_degrades_on_closures(self):
        # closures cannot cross process boundaries; map runs them in-process
        with ProcessExecutor(2) as ex:
            out = ex.map(lambda a: int(a.sum()), [np.arange(3), np.arange(5)])
        assert out == [3, 10]

    def test_invalid_worker_count(self):
        with pytest.raises(MatchEngineError):
            ProcessExecutor(0)

    def test_empty_input(self):
        with ProcessExecutor(2) as ex:
            got = ex.scan("sfa", self.TABLE, 0, np.array([], dtype=np.int32),
                          split_balanced(0, 3))
        assert got == [0, 0, 0]


class TestExecutorFactory:
    def test_make_executor_names(self):
        for name, cls in [("serial", SerialExecutor), ("processes", ProcessExecutor)]:
            ex = make_executor(name, 2)
            assert isinstance(ex, cls)
            ex.close()

    def test_make_executor_unknown(self):
        with pytest.raises(MatchEngineError):
            make_executor("gpu")

    def test_resolve_executor_passthrough_and_none(self):
        ser = SerialExecutor()
        # no executor named: in-process, whatever pool the caller holds
        assert Plan().resolve_executor() is None
        assert Plan().resolve_executor(ser) is None
        # a caller-owned pool stands in for the named backend
        assert Plan(executor="serial").resolve_executor(ser) is ser
        with pytest.raises(MatchEngineError):
            Plan(executor="threads")

    def test_resolve_executor_shared_instances(self):
        a = Plan(executor="serial", num_workers=2).resolve_executor()
        b = Plan(executor="serial", num_workers=2).resolve_executor()
        assert a is b and isinstance(a, SerialExecutor)
