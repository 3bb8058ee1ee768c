"""The :class:`Plan` object — the one way to say *how* to run a scan.

A :class:`Plan` bundles the complete execution strategy for one scan:
engine, chunk count, dispatch backend, kernel, prefilter policy and
reduction.  Every public scan entry point takes ``plan=`` — a
:class:`Plan`, or ``"auto"`` (the default) to let the
:class:`~repro.planning.planner.Planner`'s cost model pick from input
length, pattern analysis facts, core count and persisted calibration.
:func:`resolve_plan` turns that argument into a concrete plan **once, at
the API boundary**; everything below consumes plan fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional, Union

from repro.errors import MatchEngineError

#: The sentinel accepted by every ``plan=`` parameter.
AUTO = "auto"

#: Task kinds the planner distinguishes (they weight the cost model
#: differently: span scans add the mask pass + prefilter decision, ...).
TASKS = ("fullmatch", "contains", "spans", "multi", "stream")

#: Acceptance engines: Algorithms 2, 3 and 5, and Algorithm 5 in lockstep.
ENGINES = ("dfa", "speculative", "sfa", "lockstep")


@dataclass(frozen=True)
class Plan:
    """A complete execution strategy for one scan.

    ``engine``
        acceptance engine: ``"dfa"`` (Algorithm 2), ``"speculative"``
        (Algorithm 3), ``"sfa"`` (Algorithm 5), ``"lockstep"``
        (vectorized Algorithm 5).  Span/multi scans ignore it.
    ``executor``
        chunk-dispatch backend name (``"serial"``/``"processes"``) or
        ``None`` for in-process scanning.
    ``num_workers``
        pool size for the process backend (``None``: CPU count).
    ``kernel``
        chunk-scan kernel, one of :data:`~repro.parallel.scan.KERNELS`.
    ``num_chunks``
        the paper's ``p``.
    ``prefilter``
        literal skip-ahead for span scans: ``None`` = engine decides
        (use it when the analyzer produced a plan), ``False`` = off,
        ``True`` = on when available.
    ``reduction``
        chunk-result reduction (``"sequential"``/``"tree"``).
    ``source``
        provenance: ``"auto"`` for cost-model plans, ``"explicit"`` for
        plans built by hand or parsed from a summary.
    ``reason``
        one-line planner rationale (surfaces in ``repro plan`` and the
        service plan dump; empty for explicit plans).
    """

    engine: str = "dfa"
    executor: Optional[str] = None
    num_workers: Optional[int] = None
    kernel: str = "python"
    num_chunks: int = 1
    prefilter: Optional[bool] = None
    reduction: str = "sequential"
    source: str = "explicit"
    reason: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        from repro.parallel.executor import EXECUTOR_NAMES
        from repro.parallel.scan import check_kernel

        check_kernel(self.kernel)
        if not isinstance(self.num_chunks, int) or self.num_chunks < 1:
            raise MatchEngineError("num_chunks must be >= 1")
        if self.executor is not None and self.executor not in EXECUTOR_NAMES:
            raise MatchEngineError(
                f"unknown executor {self.executor!r} "
                f"(choose from {', '.join(EXECUTOR_NAMES)})"
            )
        if self.engine not in ENGINES:
            raise MatchEngineError(f"unknown engine {self.engine!r}")
        if self.reduction not in ("sequential", "tree"):
            raise MatchEngineError(f"unknown reduction {self.reduction!r}")

    # -- derived views ---------------------------------------------------
    def resolve_executor(self, pool=None):
        """The live :class:`~repro.parallel.executor.ChunkExecutor` that
        runs this plan's chunk dispatch, or ``None`` for in-process
        scanning (``executor=None``; some engines then take the in-process
        lockstep path).  ``pool`` is a caller-owned executor that stands
        in for the plan's named backend."""
        from repro.parallel.executor import ChunkExecutor, get_shared_executor

        if self.executor is None:
            return None
        if pool is None:
            return get_shared_executor(self.executor, self.num_workers)
        if not isinstance(pool, ChunkExecutor):
            raise MatchEngineError(f"not an executor: {pool!r}")
        return pool

    def summary(self) -> str:
        """Compact one-line form, e.g. ``sfa/p1/inline/stride4`` — the
        inverse of :meth:`parse`."""
        ex = self.executor or "inline"
        return f"{self.engine}/p{self.num_chunks}/{ex}/{self.kernel}"

    @classmethod
    def parse(cls, summary: str) -> "Plan":
        """Read back a :meth:`summary` string (``engine/pN/executor/kernel``,
        executor ``inline`` meaning in-process) — the CLI's ``--plan``."""
        parts = summary.split("/") if isinstance(summary, str) else []
        if len(parts) != 4 or not parts[1].startswith("p") \
                or not parts[1][1:].isdigit():
            raise MatchEngineError(
                f"plan {summary!r} is not 'auto' or ENGINE/pN/EXECUTOR/KERNEL "
                "(e.g. sfa/p2/processes/stride4)"
            )
        engine, p, ex, kernel = parts
        return cls(
            engine=engine, num_chunks=int(p[1:]),
            executor=None if ex == "inline" else ex, kernel=kernel,
        )

    def to_dict(self) -> Dict[str, Any]:
        """Stable JSON shape (the ``repro plan`` dump / service replies)."""
        return {
            "engine": self.engine,
            "executor": self.executor,
            "num_workers": self.num_workers,
            "kernel": self.kernel,
            "num_chunks": self.num_chunks,
            "prefilter": self.prefilter,
            "reduction": self.reduction,
            "source": self.source,
            "reason": self.reason,
            "summary": self.summary(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Plan":
        """Rebuild a plan from :meth:`to_dict` output (wire/service use).

        Unknown keys are ignored so older clients survive newer servers.
        """
        if not isinstance(payload, dict):
            raise MatchEngineError(
                f"plan must be 'auto' or a plan object, got {payload!r}"
            )
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})


PlanArg = Union[str, Plan, Dict[str, Any]]


def resolve_plan(plan: PlanArg, task: str, n: int, *, subject=None) -> Plan:
    """Turn a ``plan=`` argument into a concrete :class:`Plan`.

    ``plan`` is a :class:`Plan` (returned as is), its :meth:`Plan.to_dict`
    form, or ``"auto"``.  ``task`` ∈ :data:`TASKS`, ``n`` is the input
    length in bytes (``< 0``: unknown, streaming) and ``subject`` the
    compiled object being scanned (a
    :class:`~repro.matching.engine.CompiledPattern`,
    :class:`~repro.matching.multi.MultiPatternSet`, or a raw automaton) —
    the planner mines it for analysis facts and already-built tables.
    """
    if task not in TASKS:
        raise MatchEngineError(f"unknown plan task {task!r}")
    if isinstance(plan, Plan):
        return plan
    if isinstance(plan, dict):
        return Plan.from_dict(plan)
    if plan == AUTO:
        from repro.planning.planner import get_planner

        return get_planner().plan(task, n, subject=subject)
    raise MatchEngineError(f"plan must be 'auto' or a Plan, got {plan!r}")
