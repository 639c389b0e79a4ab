"""Small shared helpers."""

from __future__ import annotations

from typing import Callable, Iterable, Sequence


def ordered_map(fn: Callable, items: Sequence | Iterable) -> list:
    """[fn(x) for x in items], in input order.

    Serial: the work is GIL-bound Python and numpy, and a thread pool only
    added hand-offs. The function stays, rather than being inlined into
    dispersion.evaluate_boundary, because bench/spans.py wraps it by name to
    count the boundary batches of a run.
    """
    return [fn(x) for x in items]
