"""A study's replications or a battery's sample splits, fanned out over
forked processes under one OpenBLAS thread (:func:`fan_out`), so that the
results depend on neither the worker count nor the BLAS thread count."""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import warnings
from contextlib import contextmanager
from functools import cache
from pathlib import Path

import numpy as np


def usable_cpus() -> int:
    """How many CPUs this process may run on: its affinity set where the
    platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@cache
def blas_thread_calls():
    """The ``(get, set)`` thread-count functions of the OpenBLAS that numpy
    wheels bundle (64- or 32-bit integer build), or ``None`` where none is
    found, as when numpy is linked to another BLAS."""
    # loading a library numpy has already loaded returns that same library
    for path in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS at one thread, then restore the
    caller's count.  Nothing is set where no OpenBLAS is found or the count
    is already 1: setting it in a forked child slows OpenBLAS down."""
    calls = blas_thread_calls()
    before = None if calls is None else calls[0]()
    if before in (None, 1):
        yield
        return
    calls[1](1)
    try:
        yield
    finally:
        calls[1](before)


def processes(count: int, workers: int | None) -> int:
    """How many processes run ``count`` tasks: ``workers`` (every usable
    CPU if ``None``), at most one per task; 1 without ``fork`` or in a
    daemonic process, such as a fan-out's child, so no fan-out nests."""
    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
    ):
        return 1
    return min(workers or usable_cpus(), count)


def fan_out(fn, count: int, workers: int | None) -> list:
    """``fn(index)`` for every index below ``count``, in order.

    With ``w = processes(count, workers)`` above 1, indices ``s, s + w,
    ...`` form share ``s``.  This process runs share 0 and forks ``w - 1``
    children for the others, which start with its imports and patches in
    place, live for one fan-out and send their results through a pipe.  As
    from one process, the tasks' warnings are raised here in index order,
    then the lowest failing index's error, once every child has exited.  A
    child that exits without sending its share raises ``RuntimeError``.
    """
    w = processes(count, workers)
    with one_blas_thread():
        if w == 1:
            return [fn(index) for index in range(count)]
        shares = _fork_shares(fn, count, w)
    done = [None] * count
    for share, (pairs, _) in enumerate(shares):
        done[share : share + len(pairs) * w : w] = pairs
    failures = [failure for _, failure in shares if failure is not None]
    stop, error = min(failures, key=lambda failure: failure[0]) if failures else (count, None)
    # the caller's filters, and any record it keeps, see the tasks' warnings
    # only once they are raised again here; the registry shows a repeated
    # warning once, as in one process
    registry = globals().setdefault("__warningregistry__", {})
    for _, caught in done[:stop]:
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno, registry=registry)
    if error is not None:
        raise error
    return [result for result, _ in done]


def _fork_shares(fn, count: int, w: int) -> list:
    """Each share's :func:`_run_share` outcome: share 0 run here, the
    others in ``w - 1`` forked children, each joined before this returns."""
    context = multiprocessing.get_context("fork")
    children = []
    try:
        for share in range(1, w):
            receive, send = context.Pipe(duplex=False)
            child = context.Process(
                target=_send_share, args=(send, fn, share, count, w), daemon=True
            )
            child.start()
            # the child holds the only sending end, so its exit ends the pipe
            send.close()
            children.append((child, receive))
        shares = [_run_share(fn, 0, count, w)]
        return shares + [_receive_share(child, receive) for child, receive in children]
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receive in children:
            receive.close()
            child.join()


def _run_share(fn, share: int, count: int, w: int) -> tuple:
    """Indices ``share, share + w, ...`` in order, as a list of
    ``(fn(index), warnings it raised)`` pairs, and ``(index, error)`` for the
    first of them that raises (the rest are not run), else ``None``."""
    done = []
    for index in range(share, count, w):
        try:
            with warnings.catch_warnings(record=True) as caught:
                result = fn(index)
        except Exception as exc:
            return done, (index, exc)
        done.append((result, [(m.message, m.category, m.filename, m.lineno) for m in caught]))
    return done, None


def _send_share(send, fn, share: int, count: int, w: int) -> None:
    """Run a share in a forked child and send its outcome to the caller."""
    with send:
        send.send(_run_share(fn, share, count, w))


def _receive_share(child, receive) -> tuple:
    """What a child's :func:`_send_share` sent."""
    try:
        return receive.recv()
    except EOFError:
        child.join()
        raise RuntimeError(
            f"a worker process exited with code {child.exitcode} before it sent its share"
        ) from None
