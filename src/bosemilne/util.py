"""Small shared helpers."""

from __future__ import annotations

import contextlib
import ctypes
import functools
from typing import Callable, Iterable, Sequence

import numpy as np


def ordered_map(fn: Callable, items: Sequence | Iterable) -> list:
    """[fn(x) for x in items], in input order.

    Serial: the work is GIL-bound Python and numpy, and a thread pool only
    added hand-offs. The function stays, rather than being inlined into
    dispersion.evaluate_boundary, because bench/spans.py wraps it by name to
    count the boundary batches of a run.
    """
    return [fn(x) for x in items]


@functools.cache
def _openblas_set_local():
    """OpenBLAS's ``int openblas_set_num_threads_local(int)``, or None.

    Looked up in numpy's own extension module: dlsym searches that module's
    dependencies, which include the OpenBLAS that numpy links. None where
    numpy links another BLAS or an OpenBLAS without the symbol, and on numpy
    1.x, which has no numpy._core.
    """
    try:
        fn = ctypes.CDLL(np._core._multiarray_umath.__file__).openblas_set_num_threads_local
    except (AttributeError, OSError):
        return None
    fn.argtypes = [ctypes.c_int]
    fn.restype = ctypes.c_int
    return fn


@contextlib.contextmanager
def blas_one_thread():
    """Run the block with numpy's OpenBLAS on the calling thread alone.

    The program's dense calls (the DOM solve's block GEMMs and LU, the
    frequency rule's eigh) are small, and a second pool worker only spins
    through the elementwise numpy work between them: about twice the CPU for
    the same wall time. The count is OpenBLAS's process-wide one; the
    previous count comes back when the block ends, however it ends. Without
    the symbol (`_openblas_set_local` is None) this does nothing.
    """
    set_local = _openblas_set_local()
    if set_local is None:
        yield
        return
    previous = set_local(1)
    try:
        yield
    finally:
        set_local(previous)
