"""`map_jobs(fn, jobs)`: `[fn(job) for job in jobs]` on every usable CPU.

The jobs are dealt round-robin over one share per usable CPU (at most one per
job). The caller runs share 0; each other share runs in an `os.fork` child
that pickles its results, or the exception that stopped it, back through a
pipe and always leaves by `os._exit`; the shares that cannot be forked (no
process or memory to spare) run in the caller too. The results, and the
exception raised (that of the first failing job in job order), are those of
the plain loop. A child that ends without sending them gives a `DeepRefError`
ranked at its first job, and a child whose jobs all come after a failure
already seen is not waited for. Every child is killed and reaped before
`map_jobs` returns or raises.

The jobs run in the calling process alone with one usable CPU, without
`os.fork`, off Linux, inside a child, or while another Python thread lives: a
fork copies only the calling thread, so a lock that another thread holds would
stay held in the child. Each child is a copy-on-write image of the caller, so
peak system memory grows with the number of shares.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading

from .errors import DeepRefError

_in_child = False  # set only in a forked child, which never returns to its caller


def _shares(n_jobs: int) -> int:
    if (n_jobs < 2 or _in_child or not hasattr(os, "fork") or not sys.platform.startswith("linux")
            or threading.active_count() > 1):
        return 1
    return min(n_jobs, len(os.sched_getaffinity(0)))


def _run(fn, jobs) -> tuple[list, Exception | None]:
    """The results of `fn` over `jobs` up to the first that raises, and its exception."""
    results = []
    try:
        for job in jobs:
            results.append(fn(job))
    except Exception as exc:
        return results, exc
    return results, None


def _child(fn, jobs, reader: int, writer: int):
    global _in_child
    _in_child = True
    code = 1
    try:
        os.close(reader)
        outcome = _run(fn, jobs)
        try:
            payload = pickle.dumps(outcome)
        except Exception as exc:
            payload = pickle.dumps(([], DeepRefError(f"worker could not send its outcome: {exc!r}")))
        with os.fdopen(writer, "wb") as fh:
            fh.write(payload)
        code = 0
    finally:
        os._exit(code)


def _receive(pid: int, children: dict[int, tuple[int, int]]) -> tuple[list, Exception | None]:
    """The outcome child `pid` sends; if it sends none, reap it and give a `DeepRefError`."""
    chunks = []
    while chunk := os.read(children[pid][1], 1 << 16):
        chunks.append(chunk)
    try:
        return pickle.loads(b"".join(chunks))
    except Exception:
        os.close(children.pop(pid)[1])
        _, status = os.waitpid(pid, 0)
        return [], DeepRefError(f"worker process {pid} ended without a result "
                                f"(exit status {os.waitstatus_to_exitcode(status)})")


def map_jobs(fn, jobs) -> list:
    """`[fn(job) for job in jobs]`, on one share of the jobs per usable CPU."""
    jobs = list(jobs)
    n = _shares(len(jobs))
    children: dict[int, tuple[int, int]] = {}  # unreaped child pid -> (its share, read end of its pipe)
    try:
        for share in range(1, n):
            reader, writer = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the shares not forked run in this process
                os.close(reader)
                os.close(writer)
                break
            if pid == 0:
                _child(fn, jobs[share::n], reader, writer)
            os.close(writer)
            children[pid] = share, reader
        forked = {share for share, _ in children.values()}
        mine = [i for i in range(len(jobs)) if i % n not in forked]
        results, exc = _run(fn, [jobs[i] for i in mine])
        outcomes = [(mine, results)]
        first, error = (mine[len(results)], exc) if exc is not None else (len(jobs), None)
        for pid, (share, _) in list(children.items()):
            if share > first:  # every job of this child comes after the first failure so far
                break
            indices = range(share, len(jobs), n)
            results, exc = _receive(pid, children)
            outcomes.append((indices, results))
            if exc is not None and indices[len(results)] < first:
                first, error = indices[len(results)], exc
    finally:
        for pid, (_, reader) in children.items():
            os.close(reader)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if error is not None:
        raise error
    out = [None] * len(jobs)
    for indices, results in outcomes:
        for i, result in zip(indices, results):
            out[i] = result
    return out
