"""Small shared helpers."""

from __future__ import annotations

from typing import Callable, Iterable, Sequence


def ordered_map(fn: Callable, items: Sequence | Iterable, threads: int = 1) -> list:
    """[fn(x) for x in items], in input order.

    `threads` is accepted and has no effect: the work is GIL-bound Python and
    numpy, and a thread pool only added hand-offs (profile ran slower on two
    threads than on one).
    """
    return [fn(x) for x in items]
