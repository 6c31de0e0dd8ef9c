"""Deterministic worker-pool helpers.

Work is always cut into fixed-size blocks and results are combined in block
order, so the outcome is bit-identical for any worker count.  Workers are
threads, so they help only where a block spends its time in large numpy
calls that release the GIL; a loop of small-array numpy steps holds it.

The pool's one user is `diffusion.bridge_functional`, where each 4096-path
block draws and interpolates whole (paths, steps) arrays: on a 2-vCPU VM,
20,000 bridges of 64 steps over a 129^2 potential take a median 0.28 s on
one worker and 0.15 s on two.  Filtered back-projection runs in one thread:
it back-projects only the unknowns, and a node and its mirror through the
domain's center share the bin search of one complex np.interp.  The
Feynman-Kac exit sampler runs in one thread too: the length of its windows
of steps depends on how many paths of all blocks are alive, so its blocks
walk in lockstep.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

_worker_override: int | None = None

# Fixed block size; independent of the worker count by design.
MC_BLOCK = 4096


def set_workers(n: int | None) -> None:
    """Set the process-wide worker count (None restores the default)."""
    global _worker_override
    _worker_override = None if n is None else max(1, int(n))


def worker_count() -> int:
    """The count `set_workers` set, else one per CPU (no environment variable)."""
    return _worker_override if _worker_override is not None else (os.cpu_count() or 1)


def map_blocks(fn, items, workers: int | None = None) -> list:
    """Apply fn to each item, preserving order; parallel when workers > 1."""
    items = list(items)
    n = worker_count() if workers is None else max(1, workers)
    if n <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=min(n, len(items))) as pool:
        return list(pool.map(fn, items))


def block_ranges(total: int, block: int) -> list[tuple[int, int]]:
    """Split [0, total) into fixed-size blocks (last one may be short)."""
    return [(lo, min(lo + block, total)) for lo in range(0, max(total, 0), block)]
