"""Contiguous ranges of work run in forked processes, one per available CPU.

The calling process runs the first range and a forked child runs each other
one.  A range has ``None`` in place of its result when no child produced one,
and the caller does that range's work itself, so a result never depends on
how many processes ran it.  Condition 1 splits its trials this way
(:func:`imbindex.audit.audit_condition1`).
"""

from __future__ import annotations

import os
import pickle
import threading
from typing import Sequence


def worker_count(units: int, min_per_range: int) -> int:
    """Ranges to split ``units`` units of work into: one per available CPU,
    each given at least ``min_per_range`` units.

    One, run in the caller, where ``os.fork`` is missing or a second Python
    thread runs (forking a threaded process can copy a held lock).
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, units // min_per_range))


def run_forked(run, ranges: Sequence[tuple[int, int]]) -> list:
    """``run(start, stop)`` on each range, in range order: the first in this
    process, each other in a forked child.

    A child sends only its result back, pickled through a pipe, and leaves
    through ``os._exit``, so it never returns into the caller nor flushes this
    process's stdio buffers.  A range has ``None`` in place of its result when
    its pipe or its fork was refused, its child raised, or its child did not
    exit with status 0.  An exception raised by the first range propagates,
    after every child still running is killed.  Every child is reaped, and
    every pipe closed, before this returns.
    """
    children: list[tuple[int, int, int]] = []  # (range position, pid, read end of its pipe)
    reaped = 0
    outcomes: list = [None] * len(ranges)
    try:
        for k, (start, stop) in enumerate(ranges[1:], 1):
            try:
                read, write = os.pipe()
            except OSError:  # refused, as at an open-file limit: the range has no result
                continue
            try:
                pid = os.fork()
            except OSError:  # refused, as at a process limit: the range has no result
                os.close(read)
                os.close(write)
                continue
            if pid == 0:
                try:
                    data = pickle.dumps(run(start, stop))  # whole, so a failure writes nothing
                    with open(write, "wb") as pipe:
                        pipe.write(data)
                    os._exit(0)
                finally:
                    os._exit(1)  # run or the write raised
            os.close(write)
            children.append((k, pid, read))
        outcomes[0] = run(*ranges[0])
        for k, pid, read in children:
            with open(read, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            reaped += 1
            if status == 0:
                outcomes[k] = pickle.loads(data)
        return outcomes
    finally:
        for _k, pid, _read in children[reaped:]:
            from signal import SIGKILL  # loaded only when a child must be stopped

            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
        for _k, _pid, read in children:
            os.close(read)
