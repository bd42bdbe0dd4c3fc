"""The worker process pool that `synth` and `extract` share.

Workers are spawned, not forked: numpy's BLAS has started threads in the
calling process. A spawned worker imports the caller's main module, so a
script that runs `synth` or `extract` needs the `if __name__ == "__main__":`
guard. Each worker takes the caller's warning filters, so a filter that
the caller set in code (a test's `error::RuntimeWarning`, say) acts in the
workers as in the caller, and each worker ends itself as soon as the
caller's process is gone, however it died. A worker that dies itself
(killed, say, or out of memory) breaks the pool; the pool raises that as a
PhysioBiasError, which `cli.main` reports like any other.
While the pool is open, the BLAS thread-count variables of this process's
environment, which the workers inherit and their BLAS reads as numpy loads,
are 1: a threaded BLAS sums in another order, so a long session's EDA solve
would give other bits on a host with another CPU count.
"""
from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import threading
import warnings
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager

from .errors import PhysioBiasError


_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _exit_with_parent(sentinel: int) -> None:
    multiprocessing.connection.wait([sentinel])
    os._exit(1)


def _start_worker(filters: list) -> None:
    warnings.filters[:] = filters
    sentinel = multiprocessing.parent_process().sentinel
    threading.Thread(target=_exit_with_parent, args=(sentinel,), daemon=True).start()


@contextmanager
def spawn_pool(tasks: int) -> Iterator[ProcessPoolExecutor]:
    """A pool of one worker per available CPU, at most one per task, each
    with a one-thread BLAS; the caller's environment is restored on close."""
    saved = {name: os.environ[name] for name in _BLAS_THREAD_VARIABLES if name in os.environ}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARIABLES, "1"))
    try:
        with ProcessPoolExecutor(
            min(len(os.sched_getaffinity(0)), tasks),
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_start_worker,
            initargs=(list(warnings.filters),),
        ) as pool:
            yield pool
    except BrokenProcessPool as exc:
        raise PhysioBiasError(str(exc)) from None
    finally:
        for name in _BLAS_THREAD_VARIABLES:
            os.environ.pop(name)
        os.environ.update(saved)
