"""Match-span extraction: leftmost-longest ``find``/``finditer`` (§3.7).

Every engine reproduced from the paper answers *accept/reject*; grep-class
workloads need to know **where** matches are.  This module extends the
chunk-composition model from acceptance bits to match spans.

Semantics — leftmost-longest, non-overlapping
---------------------------------------------
Spans follow the POSIX rule: among all matches, the one with the smallest
start wins; among those, the longest.  Iteration is non-overlapping with
Python's cursor rule (after a span ``(s, e)`` the next search starts at
``e``, or ``s + 1`` for an empty span), so on patterns where Python's
leftmost-*greedy* backtracking already returns the longest alternative
(the overwhelmingly common case — no alternation between a branch and a
longer extension of it), spans are byte-identical to ``re.finditer``.
Where the two rules differ (``a|ab`` on ``"ab"``: POSIX ``(0, 2)``,
Python ``(0, 1)``), this engine is pinned to leftmost-longest — the
differential harness (``tests/test_find_differential.py``) checks both.

Algorithm
---------
A single forward DFA cannot report leftmost starts (the first *ending*
match is not the leftmost-*starting* one: ``abcde|c`` on ``"abcde"`` ends
a match at 3 first, but the leftmost-longest match is ``(0, 5)``).  The
engine therefore uses the classic two-automaton decomposition:

1. **Start pass** (the whole-input pass): scan the input *right-to-left*
   with the start automaton ``B = DFA(Σ*·rev(P))``.  After consuming
   ``t[i:]`` reversed, ``B`` accepts iff ``t[i:]`` has a prefix in
   ``L(P)`` — i.e. iff a match *begins* at ``i``.  One pass yields the
   boolean ``starts[0..n]`` array.
2. **Emission** (sparse): hop to the next start ``s ≥ pos`` (a vectorized
   ``searchsorted`` over the start positions), walk the pattern DFA
   forward from ``s`` recording the last accepting position (the longest
   end), early-exiting at the dead state.  Emit, advance, repeat.

Chunk-parallel span extraction generalizes Algorithm 5: the start pass is
a *scan* (in the parallel-prefix sense) over the reversed input —

* each chunk reports its **partial-match state**: the D-SFA mapping of
  ``B`` over the chunk (computed from the identity, embarrassingly
  parallel, stride kernels apply);
* a **sequential stitch** composes the mappings (``O(p)``) to recover the
  exact ``B`` state entering each chunk boundary — the open prefix/suffix
  state of the chunk-composition model;
* each chunk then emits its local ``starts`` bits from its stitched
  boundary state (parallel again, the ``"mask"`` scan kind).

The final emission walk is shared and touches only match regions.  Like
every chunked engine here, results are chunking/executor/kernel-invariant.

Complexity: the start pass is one linear scan (parallelizable); emission
is linear in the matched bytes for typical patterns (the dead-state early
exit fires on the first non-viable byte), with a known quadratic corner
when the forward walk overshoots on patterns like ``a*b|a`` over long
``a``-runs — the same corner real DFA grep implementations accept.

Streaming liveness (used by :class:`repro.matching.stream`'s span
cursors) needs one more automaton: ``alive[i]`` ⟺ ``t[i:] ∈ Pref(L(P))``
⟺ a match starting at ``i`` could still be completed by future bytes.
``rev(Pref(L)) = Suff(rev(L))``, whose NFA is the reversed pattern NFA
with every reachable state initial; one more right-to-left mask pass
yields the bits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple, Union

import numpy as np

from repro.analysis.literals import (
    PrefilterPlan,
    choose_prefilter,
    literal_info,
)
from repro.automata.dfa import DFA, minimize, subset_construction
from repro.automata.nfa import NFA, glushkov_nfa
from repro.automata.sfa import SFA, correspondence_construction
from repro.automata.stride import best_stride_table
from repro.errors import StateExplosionError
from repro.parallel.chunking import clamp_chunks, split_balanced
from repro.parallel.executor import ChunkExecutor, SerialExecutor
from repro.parallel.scan import (
    _accept_flat,
    _scaled_flat,
    mask_scan,
    sfa_scan,
)
from repro.planning.plan import AUTO, resolve_plan
from repro.regex.ast import Concat, Literal, Star, reverse_node
from repro.regex.charclass import CharSet, pack_stride
from repro.util.bitset import iter_bits

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.matching.engine import CompiledPattern

Span = Tuple[int, int]
Data = Union[bytes, bytearray, memoryview]


def accept_last(dfa: DFA) -> DFA:
    """Renumber a DFA so accepting states occupy the top indices.

    With this layout :func:`repro.parallel.scan.mask_scan`'s accept test
    is one int comparison (``state >= threshold``) on a rarely-taken
    branch — ~1.7× over the accept-table lookup on grep-shaped inputs.
    Pure relabeling: the language and state count are untouched.
    """
    order = np.argsort(dfa.accept, kind="stable")  # non-accepting first
    if np.array_equal(order, np.arange(dfa.num_states)):
        return dfa
    perm = np.empty(dfa.num_states, dtype=np.int32)
    perm[order] = np.arange(dfa.num_states, dtype=np.int32)
    return DFA(
        perm[dfa.table[order]],
        int(perm[dfa.initial]),
        dfa.accept[order],
        dfa.partition,
    )


class SpanEngine:
    """Span extraction state for one compiled pattern.

    Builds (lazily where possible) three automata over the pattern's own
    byte-class partition:

    * ``fwd`` — the pattern's minimal DFA (the longest-end walk);
    * ``bwd`` — the start automaton ``DFA(Σ*·rev(P))``, scanned
      right-to-left (built eagerly: it *is* the engine);
    * ``live`` — the prefix-liveness automaton ``DFA(Suff(rev(P)))`` for
      streaming holdback (built on first use).

    The backward D-SFA for chunk-parallel start passes is also lazy and
    degrades to the serial pass if its construction exceeds the state
    budget.
    """

    def __init__(self, pattern: "CompiledPattern"):
        self.pattern = pattern
        self.partition = pattern.partition
        self.fwd = pattern.min_dfa
        any_star = Star(Literal(CharSet.any_byte()))
        bnfa = glushkov_nfa(
            Concat([any_star, reverse_node(pattern.ast)]), self.partition
        )
        self.bwd = accept_last(minimize(
            subset_construction(bnfa, max_states=pattern.max_dfa_states)
        ))
        self._bsfa: Optional[SFA] = None
        self._bsfa_failed = False
        self._live: Optional[DFA] = None
        # Literal-factor prefilter plan (DESIGN.md §3.9.3): when the
        # analyzer proves a required literal with a finite offset window,
        # start bits can be over-approximated from raw byte search instead
        # of the exact backward automaton pass.  ``None`` = ineligible.
        self.prefilter: Optional[PrefilterPlan] = choose_prefilter(
            literal_info(pattern.ast)
        )
        # Dead states of the forward DFA, pre-scaled by the table width for
        # the emission walk's early exit.  After minimization there is at
        # most one; an unminimized DFA may keep several (missing one only
        # costs the early exit, never correctness).
        k = self.fwd.num_classes
        self._dead_scaled = frozenset(
            int(q) * k for q in self.fwd.trap_states()
        )

    # -- public API ------------------------------------------------------
    def spans(
        self,
        data: Data,
        *,
        plan=AUTO,
        executor: Optional[ChunkExecutor] = None,
        limit: Optional[int] = None,
    ) -> List[Span]:
        """All leftmost-longest non-overlapping ``(start, end)`` spans.

        ``plan`` resolves as everywhere else (``"auto"`` = the §3.10 cost
        model, or an explicit :class:`~repro.planning.plan.Plan`);
        ``executor`` is a caller-owned pool for the plan's dispatch.  The
        plan's ``prefilter`` controls the literal skip-ahead: ``None``
        engages it whenever the analyzer produced a plan, ``False`` forces
        the exact backward start pass (the two are span-identical — the
        prefilter only over-approximates *candidate* starts; the emission
        walk rejects the false ones).
        """
        p = resolve_plan(plan, "spans", len(data), subject=self.pattern)
        classes = self.partition.translate(data)
        if self.prefilter is not None and p.prefilter is not False:
            bits = self.prefilter_bits(data, len(classes))
        else:
            bits = self.start_bits(
                classes, p.num_chunks, p.resolve_executor(executor), p.kernel
            )
        out, _ = self._emit(classes, bits, limit=limit)
        return out

    # -- start pass ------------------------------------------------------
    def start_bits(
        self, classes: np.ndarray, num_chunks: int = 1, executor=None,
        kernel: str = "python",
    ) -> np.ndarray:
        """``bits[i]`` ⟺ a match of the pattern begins at position ``i``.

        Length ``n + 1``: position ``n`` hosts the trailing empty match of
        nullable patterns (matching ``re.finditer``'s behaviour).
        """
        n = len(classes)
        bdfa = self.bwd
        bits = np.empty(n + 1, dtype=np.bool_)
        bits[n] = bool(bdfa.accept[bdfa.initial])
        if n == 0:
            return bits
        rev = classes[::-1]
        p = clamp_chunks(n, num_chunks)
        if p > 1:
            rev_bits = self._chunked_rev_bits(
                rev, p, executor or SerialExecutor(), kernel
            )
            if rev_bits is not None:
                bits[:n] = rev_bits[::-1]
                return bits
        bits[:n] = mask_scan(bdfa.table, bdfa.accept, bdfa.initial, rev)[::-1]
        return bits

    def prefilter_bits(self, data: Data, n: int) -> np.ndarray:
        """Over-approximated start bits from literal occurrences (§3.9.3).

        The plan claims every match places ``text`` at ``start + δ`` for
        some ``δ ∈ [min_start, max_start]``, so the union over occurrences
        ``o`` of ``[o - max_start, o - min_start]`` is a superset of the
        true start set.  Feeding a superset into :meth:`_emit` is sound:
        a false candidate start finds no accepting position and is
        skipped; leftmost-longest selection and the cursor rule only ever
        act on *real* matches, which all survive.  No automaton touches
        the bytes between candidate sites — that is the entire win.
        """
        plan = self.prefilter
        assert plan is not None
        bits = np.zeros(n + 1, dtype=np.bool_)
        # bytes/bytearray/mmap expose .find; anything else (rare) copies.
        hay = data if hasattr(data, "find") else bytes(data)
        needle = plan.text
        lo_off, hi_off = plan.min_start, plan.max_start
        # An occurrence before min_start cannot host a non-negative start.
        i = hay.find(needle, lo_off)
        if hi_off == lo_off:
            anchored: List[int] = []
            while i >= 0:
                anchored.append(i - lo_off)
                i = hay.find(needle, i + 1)
            if anchored:
                bits[np.asarray(anchored, dtype=np.int64)] = True
        else:
            while i >= 0:
                bits[max(0, i - hi_off):i - lo_off + 1] = True
                i = hay.find(needle, i + 1)
        return bits

    def alive_bits(self, classes: np.ndarray) -> np.ndarray:
        """``bits[i]`` ⟺ ``t[i:] ∈ Pref(L(P))`` (a match from ``i`` could
        still complete past the end of ``classes``)."""
        live = self._live_dfa()
        n = len(classes)
        bits = np.empty(n + 1, dtype=np.bool_)
        bits[n] = bool(live.accept[live.initial])
        if n:
            bits[:n] = mask_scan(
                live.table, live.accept, live.initial, classes[::-1]
            )[::-1]
        return bits

    def _chunked_rev_bits(self, rev, p, ex, kernel) -> Optional[np.ndarray]:
        """The Algorithm-5 generalization: parallel start pass over ``rev``.

        Phase 1 scans each chunk's B-D-SFA mapping from the identity
        (parallel; stride kernels apply).  Phase 2 stitches the
        mappings sequentially into exact chunk-boundary states.  Phase 3
        re-scans each chunk from its boundary state emitting local accept
        bits (parallel, ``"mask"`` kind).  Returns ``None`` when the
        backward D-SFA exceeds its state budget — callers fall back to
        the serial pass.
        """
        bsfa = self._backward_sfa()
        if bsfa is None:
            return None
        bdfa = self.bwd
        n = len(rev)
        st = None
        if kernel in ("stride2", "stride4"):
            st = best_stride_table(bsfa, 2 if kernel == "stride2" else 4, None)
        if st is not None:
            packed, tail = pack_stride(rev, bsfa.num_classes, st.stride)
            pspans = split_balanced(
                len(packed), clamp_chunks(len(packed), p)
            )
            chunk_states = list(
                ex.scan("sfa", st.table, bsfa.initial, packed, pspans)
            )
            sym_spans = [(a * st.stride, b * st.stride) for a, b in pspans]
            if len(tail):
                chunk_states[-1] = sfa_scan(
                    bsfa.table, chunk_states[-1], tail
                )
            sym_spans[-1] = (sym_spans[-1][0], n)
        else:
            sym_spans = split_balanced(n, p)
            chunk_states = list(
                ex.scan("sfa", bsfa.table, bsfa.initial, rev, sym_spans)
            )
        bounds: List[int] = []
        run = bsfa.initial
        for cs in chunk_states:
            bounds.append(int(bsfa.apply_mapping(run, bsfa.origin_initial)))
            run = bsfa.compose_indices(run, int(cs))
        masks = ex.scan(
            "mask", bdfa.table, bounds, rev, sym_spans, accept=bdfa.accept
        )
        return np.concatenate([np.asarray(m, dtype=np.bool_) for m in masks])

    # -- emission --------------------------------------------------------
    def _emit(
        self,
        classes: np.ndarray,
        bits: np.ndarray,
        alive: Optional[np.ndarray] = None,
        limit: Optional[int] = None,
    ) -> Tuple[List[Span], Optional[int]]:
        """Walk the start bits into spans.

        Batch mode (``alive=None``) consumes everything and returns
        ``(spans, None)``.  Streaming mode stops at the earliest position
        whose outcome future bytes could still change (``alive[i]`` true)
        and returns ``(final_spans, holdback_position)``.
        """
        n = len(classes)
        starts = np.flatnonzero(bits)
        alive_pos = np.flatnonzero(alive) if alive is not None else None
        cb = classes.tobytes()
        fwd = self.fwd
        flat = _scaled_flat(fwd.table)
        acc = _accept_flat(fwd.accept, fwd.num_classes)
        dead = self._dead_scaled
        init = int(fwd.initial) * fwd.num_classes
        init_acc = bool(fwd.accept[fwd.initial])
        out: List[Span] = []
        pos = 0
        hold: Optional[int] = None
        while True:
            si = int(np.searchsorted(starts, pos))
            s = int(starts[si]) if si < len(starts) else -1
            if alive_pos is not None:
                ai = int(np.searchsorted(alive_pos, pos))
                a = int(alive_pos[ai]) if ai < len(alive_pos) else -1
                if a >= 0 and (s < 0 or a <= s):
                    # Everything from ``a`` on is still in play: either a
                    # partial match starts there, or the complete match at
                    # ``s == a`` could still grow.  Defer to the next feed.
                    hold = a
                    break
            if s < 0:
                break
            if s >= n:
                out.append((n, n))  # trailing empty match (nullable P)
                break
            f = init
            last = s if init_acc else -1
            for i in range(s, n):
                f = flat[f + cb[i]]
                if acc[f]:
                    last = i + 1
                elif f in dead:
                    break
            if last < 0:
                # Exact start bits promise a match; prefilter bits only
                # promise a *candidate* — false positives land here.
                pos = s + 1
                continue
            out.append((s, last))
            pos = last if last > s else s + 1
            if limit is not None and len(out) >= limit:
                break
        return out, hold

    # -- lazy automata ---------------------------------------------------
    def _backward_sfa(self) -> Optional[SFA]:
        if self._bsfa is None and not self._bsfa_failed:
            try:
                self._bsfa = correspondence_construction(
                    self.bwd, max_states=self.pattern.max_sfa_states
                )
            except StateExplosionError:
                self._bsfa_failed = True
        return self._bsfa

    def _live_dfa(self) -> DFA:
        if self._live is None:
            nfa = self.pattern.nfa
            rnfa = nfa.reverse()
            # Suff(rev(L)): every state reachable from the reversed NFA's
            # initial set becomes initial (= the co-accessible states of
            # the pattern NFA — those on some accepting path's spine).
            reach = rnfa.initial
            frontier = rnfa.initial
            while frontier:
                nxt = 0
                for q in iter_bits(frontier):
                    for c in range(rnfa.num_classes):
                        nxt |= rnfa.trans[q][c]
                frontier = nxt & ~reach
                reach |= frontier
            live_nfa = NFA(
                rnfa.num_states, rnfa.num_classes, rnfa.trans,
                reach, rnfa.final, rnfa.partition,
            )
            self._live = accept_last(minimize(
                subset_construction(
                    live_nfa, max_states=self.pattern.max_dfa_states
                )
            ))
        return self._live

    def __repr__(self) -> str:
        return (
            f"SpanEngine(pattern={self.pattern.pattern!r}, "
            f"fwd={self.fwd.num_states}, bwd={self.bwd.num_states})"
        )
