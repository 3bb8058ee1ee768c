"""Multi-stride (superalphabet) transition tables.

The SFA construction pre-evaluates the all-states simulation into the
automaton; the same precomposition idea applies along the *input* axis.  A
transition table over ``k`` byte classes is a set of generators of the
transition monoid (one transformation per class), and composing them over
every ``s``-gram yields a table over the superalphabet of ``k^s`` symbols:

    T_s[q, (c_0, …, c_{s-1})] = δ(…δ(q, c_0)…, c_{s-1})

so a scan performs ``n/s`` lookups instead of ``n``.  The trade-off is
table size — ``|Q| · k^s`` entries — so construction is capped by a
table-byte budget and returns ``None`` beyond it; callers fall back to the
1-gram table.  Symbols are packed big-endian (the earliest class is the
most significant digit), matching :func:`repro.regex.charclass.pack_stride`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import AutomatonError

#: Default cap on a stride table's size; 4 MiB comfortably fits the paper's
#: pattern families (r_5's 110-state, 3-class D-SFA needs 35 KB at stride 4)
#: while refusing blow-ups like wide byte-class alphabets at stride 4.
DEFAULT_MAX_TABLE_BYTES = 4 << 20

#: Strides the kernels know how to drive (powers of two; built by doubling).
STRIDES = (2, 4)


@dataclass
class StrideTable:
    """A precomposed ``stride``-gram transition table.

    ``table[q, s]`` is the state reached from ``q`` after the ``stride``
    base symbols encoded in superalphabet symbol ``s``; the state space is
    the original automaton's, so per-chunk results feed the existing
    reductions unchanged.
    """

    table: np.ndarray
    stride: int
    base_classes: int

    def __post_init__(self) -> None:
        self.table = np.ascontiguousarray(self.table, dtype=np.int32)

    @property
    def num_states(self) -> int:
        return self.table.shape[0]

    @property
    def num_symbols(self) -> int:
        """``k^stride`` — the superalphabet width."""
        return self.table.shape[1]

    @property
    def table_bytes(self) -> int:
        return self.table.nbytes

    def pack(self, classes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Pack a base-class stream into this table's symbols (+ tail)."""
        from repro.regex.charclass import pack_stride

        return pack_stride(classes, self.base_classes, self.stride)

    def __repr__(self) -> str:
        return (
            f"StrideTable(stride={self.stride}, states={self.num_states}, "
            f"symbols={self.num_symbols})"
        )


def build_stride_table(
    table: np.ndarray,
    stride: int,
    max_table_bytes: Optional[int] = DEFAULT_MAX_TABLE_BYTES,
) -> Optional[StrideTable]:
    """Precompose ``table`` over ``stride``-grams, or ``None`` if over budget.

    The composition doubles the gram length each round with one vectorized
    gather — ``T_{2s}[q, (u, v)] = T_s[T_s[q, u], v]`` reshaped to width
    ``w²`` — so a stride-4 table costs two gathers total.  The budget is
    checked on the *final* width before any allocation (``k^stride`` is
    computed in Python ints, so huge alphabets cannot overflow).
    """
    if stride not in STRIDES:
        raise AutomatonError(f"unsupported stride {stride!r} (choose from {STRIDES})")
    table = np.ascontiguousarray(table, dtype=np.int32)
    n, k = table.shape
    width = k**stride
    if max_table_bytes is not None and n * width * 4 > max_table_bytes:
        return None
    cur = table
    s = 1
    while s < stride:
        w = cur.shape[1]
        # cur2[q, u*w + v] = cur[cur[q, u], v] — one gather per doubling.
        cur = cur[cur].reshape(n, w * w)
        s *= 2
    return StrideTable(cur, stride, k)


def best_stride_table(
    automaton,
    stride: int,
    max_table_bytes: Optional[int] = None,
) -> Optional[StrideTable]:
    """The largest affordable precomposition with stride ≤ the requested one.

    ``stride4`` routinely blows any budget on wide byte-class alphabets
    (``k⁴`` columns — an IDS union automaton with 30+ classes would need
    gigabytes) while ``stride2`` fits comfortably.  Rather than collapsing
    all the way to the 1-gram table, try each supported stride from the
    requested one downward and return the first within budget, so the
    stride kernel degrades gracefully instead of cliffing to the reference
    loop.  Tables are memoized per automaton exactly like
    :func:`cached_stride_table`; returns ``None`` when even the smallest
    supported stride is over budget.
    """
    if stride not in STRIDES:
        raise AutomatonError(f"unsupported stride {stride!r} (choose from {STRIDES})")
    for s in sorted((c for c in STRIDES if c <= stride), reverse=True):
        st = cached_stride_table(automaton, s, max_table_bytes)
        if st is not None:
            return st
    return None


def cached_stride_table(
    automaton,
    stride: int,
    max_table_bytes: Optional[int] = None,
) -> Optional[StrideTable]:
    """Build-and-memoize a stride table on ``automaton`` (DFA or SFA).

    The cache lives on the automaton object keyed by ``(stride, budget)``;
    a ``None`` (over-budget) outcome is cached too, so engines can probe on
    every call without re-checking the budget arithmetic.
    """
    budget = DEFAULT_MAX_TABLE_BYTES if max_table_bytes is None else max_table_bytes
    cache = getattr(automaton, "_stride_tables", None)
    if cache is None:
        cache = {}
        object.__setattr__(automaton, "_stride_tables", cache)
    key = (stride, budget)
    if key not in cache:
        cache[key] = build_stride_table(automaton.table, stride, budget)
    return cache[key]
