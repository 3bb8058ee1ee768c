"""Parallel substrate: chunking, executors, reductions, machine + cache sim.

The paper's testbed (dual hexa-core Xeon, pthreads) is reproduced three
ways, documented in DESIGN.md §3:

* true multicore chunk-parallel execution on a
  :class:`~repro.parallel.executor.ProcessExecutor` worker pool with the
  transition tables in :mod:`multiprocessing.shared_memory`,
* chunk-parallel execution inside one process (lockstep vectorization),
  and
* a :class:`~repro.parallel.simulator.SimulatedMachine` whose per-access
  costs come from a set-associative LRU cache model sized like the paper's
  CPU — used to regenerate the thread-count axes of Figs. 6–10.
"""

from repro.parallel.chunking import clamp_chunks, split_balanced, split_classes
from repro.parallel.executor import (
    ChunkExecutor,
    ProcessExecutor,
    SerialExecutor,
    get_shared_executor,
    make_executor,
)
from repro.parallel.scan import (
    KERNELS,
    run_scan,
    sfa_scan,
    transform_scan,
    transform_scan_vector,
)
from repro.parallel.reduction import (
    sequential_reduction_dsfa,
    sequential_reduction_nsfa,
    tree_reduction_transformations,
)
from repro.parallel.cache import AnalyticCacheModel, CacheHierarchy, CacheLevel
from repro.parallel.simulator import MachineConfig, SimulatedMachine

__all__ = [
    "AnalyticCacheModel",
    "CacheHierarchy",
    "CacheLevel",
    "ChunkExecutor",
    "KERNELS",
    "MachineConfig",
    "ProcessExecutor",
    "SerialExecutor",
    "SimulatedMachine",
    "clamp_chunks",
    "get_shared_executor",
    "make_executor",
    "run_scan",
    "sequential_reduction_dsfa",
    "sequential_reduction_nsfa",
    "sfa_scan",
    "split_balanced",
    "split_classes",
    "transform_scan",
    "transform_scan_vector",
    "tree_reduction_transformations",
]
