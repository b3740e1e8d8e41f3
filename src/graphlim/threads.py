"""The package's thread policy: at most one extra thread, and BLAS held to
one thread while the exact engine runs its own matrix products.

OpenBLAS lets its threads busy-wait for a while after each threaded call,
so a two-thread product leaves a core spinning after it returns.
`one_blas_thread` sets the thread count of the OpenBLAS numpy loaded to one
and restores the caller's count on the way out. Its setter and getter are
found by their exported names in the library mapped into the process; with
another BLAS, or without /proc/self/maps, the scope does nothing. Nothing
here runs at import but the fork hook: no count is changed and no thread
started until a call needs one.

`pool()` is the process's one single-thread executor, created on first use
and created afresh in a forked child, which has no copy of its thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from typing import TYPE_CHECKING, Callable, Iterator

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

# (setter, getter) names: scipy-openblas wheels, then plain OpenBLAS builds
_NAMES = [
    (f"{prefix}_set_num_threads{suffix}", f"{prefix}_get_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "_64", "")
]

_lock = threading.Lock()
_depth = 0  # scopes open in the process; the outermost saves and restores
_saved = 0
_pool: ThreadPoolExecutor | None = None


@functools.cache
def _blas_threads() -> tuple[Callable[[int], None], Callable[[], int]] | tuple[None, None]:
    """The thread-count setter and getter of the mapped OpenBLAS, or Nones."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None, None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for names in _NAMES:
            if all(hasattr(lib, name) for name in names):
                setter, getter = (getattr(lib, name) for name in names)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None, None


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the body with OpenBLAS on one thread; the count it had before is
    restored when the last open scope closes, also on an exception."""
    global _depth, _saved
    setter, getter = _blas_threads()
    if setter is None:
        yield
        return
    with _lock:
        if _depth == 0:
            _saved = getter()
            if _saved != 1:
                setter(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _saved != 1:
                setter(_saved)


def pool() -> ThreadPoolExecutor:
    """The process's single worker thread, started on first use."""
    global _pool
    with _lock:
        if _pool is None:
            # imported here: concurrent.futures adds about 10 ms to every
            # start-up, and most commands never use the worker
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(1, thread_name_prefix="graphlim")
        return _pool


def _after_fork_in_child() -> None:
    # the child has only the forking thread: the parent's worker is gone,
    # and a lock another thread held at the fork would never be released
    global _lock, _pool
    _lock, _pool = threading.Lock(), None


if hasattr(os, "register_at_fork"):  # not on Windows
    os.register_at_fork(after_in_child=_after_fork_in_child)
