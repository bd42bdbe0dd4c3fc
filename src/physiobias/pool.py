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


def _exit_with_parent(sentinel: int) -> None:
    multiprocessing.connection.wait([sentinel])
    os._exit(1)


def _start_worker(filters: list) -> None:
    warnings.filters[:] = filters
    sentinel = multiprocessing.parent_process().sentinel
    threading.Thread(target=_exit_with_parent, args=(sentinel,), daemon=True).start()


@contextmanager
def spawn_pool(tasks: int) -> Iterator[ProcessPoolExecutor]:
    """A pool of one worker per available CPU, at most one per task."""
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
