"""Deterministic block helpers.

Work is split into blocks whose boundaries depend only on the input size,
and per-block results are combined in block order, so any reduction
performed inside or across blocks sees the same operand order every run.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")

DEFAULT_BLOCK = 2048


def block_ranges(n: int, block: int = DEFAULT_BLOCK) -> list[tuple[int, int]]:
    """Fixed [start, stop) partition of range(n)."""
    if n <= 0:
        return []
    return [(i, min(i + block, n)) for i in range(0, n, block)]


def map_blocks(
    fn: Callable[[int, int], T],
    ranges: Sequence[tuple[int, int]],
    threads: int = 1,
) -> list[T]:
    """Apply ``fn(start, stop)`` to each block in order on the calling
    thread, returning results in block order.

    ``threads`` is ignored.  The blocks are pure-Python loops that hold the
    GIL, so a thread pool only added overhead; the parameter stays because
    the counter in ``perfbench/tracing.py`` calls this function with three
    arguments."""
    return [fn(start, stop) for start, stop in ranges]
