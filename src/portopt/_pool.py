"""The run's process pool: one map that every parallel step goes through.

pipeline.map_sectors opens one pool of forked workers per subcommand.  Several
sectors are mapped over it; a lone sector runs in the owning process, which
then maps the MVP sample blocks and the gap statistic's reference batches
over the pool.  Everywhere else (library calls, a one-worker run, code
inside a pool worker) pool_map is a plain map, so each task must give the
same bits wherever it runs.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

_pool = None  # (owner pid, executor) while a run's pool is open


class WorkerDied(Exception):
    """A pool worker process died, say killed by a signal, before its tasks were done."""


def pool_map(func, items):
    """list(map(func, items)), over the run's pool in the process that owns
    it.  func and items must pickle; a single item runs in this process."""
    items = list(items)
    if _pool is None or _pool[0] != os.getpid() or len(items) < 2:
        return list(map(func, items))
    return list(_pool[1].map(func, items))


@contextmanager
def fork_pool(workers):
    """Open the run's pool of `workers` forked processes for pool_map in this
    process (none for fewer than 2).  The workers fork as the first tasks
    are sent, so they inherit this process's memory as it is then.  A worker
    that dies breaks the pool, and the with block raises WorkerDied."""
    global _pool
    if workers < 2:
        yield
        return
    # imported here so that single-process runs do not pay for it
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork")) as pool:
        _pool = (os.getpid(), pool)
        try:
            yield
        except BrokenProcessPool:
            raise WorkerDied("a worker process died before its tasks were done") from None
        finally:
            _pool = None
