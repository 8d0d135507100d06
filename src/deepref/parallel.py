"""`map_jobs(fn, jobs)`: `[fn(job) for job in jobs]` on every usable CPU.

The jobs are dealt round-robin over one share per usable CPU (at most one per
job). The caller runs share 0; each other share runs in a worker process that
`map_jobs` forks on first use and keeps for the life of the process. A call
sends each worker its share as one length-prefixed pickle `(fn, jobs)` over
that worker's pipe, and reads back its results, or the exception that stopped
it, the same way. So `fn` must pickle by name (a module-level function) and
each job must carry the data it needs. The shares that cannot be forked (no
process or memory to spare) run in the caller too. The results, and the
exception raised (that of the first failing job in job order), are those of
the plain loop. A worker that ends without sending its outcome gives a
`DeepRefError` ranked at its first job, and a worker whose jobs all come after
a failure already seen is not waited for.

A call that ends before it has read every outcome (such a failure, a dead
worker, an interrupt) kills and reaps the workers that still owe one, so no
stale outcome is left in a pipe; the next call forks fresh workers for those
shares. `shutdown()`, also run at exit, kills and reaps them all, and a worker
whose parent dies reads end-of-file and leaves.

A warm worker's heap is its own, so a call takes no fork and no copy-on-write
faults. In exchange a worker holds its own copy of the data shipped to it (for
`rd_sweep`, the frames and the net), and it is a snapshot of the caller when
it was forked: a module attribute changed later (a monkeypatched function, a
constant) is not seen until `shutdown()` makes the next call fork again.

While workers run a call, every process runs numpy's bundled OpenBLAS on one
thread, as there is one share per CPU: a worker from its start, the caller for
the call, after which its count is restored. Nothing is done when OpenBLAS's
thread-count functions cannot be found.

The jobs run in the calling process alone with one usable CPU, without
`os.fork`, off Linux, inside a share (a worker's, or the caller's while its
call runs), or while another Python thread lives: a
fork copies only the calling thread, so a lock that another thread holds would
stay held in the child.
"""

from __future__ import annotations

import atexit
import contextlib
import ctypes
import functools
import os
import pickle
import signal
import struct
import sys
import threading
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DeepRefError

_LENGTH = struct.Struct("<Q")  # the prefix of every message: its length in bytes

# True while this process runs a share: a worker always, the caller during a
# call (whose workers owe it outcomes, so a nested call must not use them)
_busy = False


class _Worker(NamedTuple):
    pid: int
    jobs: int  # write end of the pipe the worker reads its shares from
    outcomes: int  # read end of the pipe it sends its outcomes back on


_workers: dict[int, _Worker] = {}  # share -> the worker that runs it


def _shares(n_jobs: int) -> int:
    if (n_jobs < 2 or _busy or not hasattr(os, "fork") or not sys.platform.startswith("linux")
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


def _write_message(fd: int, payload: bytes) -> None:
    for part in (_LENGTH.pack(len(payload)), payload):  # no joined copy of the payload
        view = memoryview(part)
        while view:
            view = view[os.write(fd, view):]


def _read_exact(fd: int, n: int) -> bytearray | None:
    """`n` bytes from `fd`, or None if it ends first."""
    buf = bytearray(n)
    view, got = memoryview(buf), 0
    while got < n:
        count = os.readv(fd, [view[got:]])
        if count == 0:
            return None
        got += count
    return buf


def _read_message(fd: int) -> bytearray | None:
    """The next message on `fd`, or None if the pipe ends first."""
    header = _read_exact(fd, _LENGTH.size)
    return None if header is None else _read_exact(fd, _LENGTH.unpack(header)[0])


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)  # the copy numpy loaded, never another
        except OSError:
            continue
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """OpenBLAS on one thread in this process for the block, then as it was."""
    get, set_ = _openblas_threads() or (lambda: 1, None)
    before = get()
    if before != 1:
        set_(1)
    try:
        yield
    finally:
        if before != 1:
            set_(before)


def _serve(jobs: int, outcomes: int):
    """A worker's life: run each share that arrives on `jobs` and send its
    outcome on `outcomes`, until the pipe ends."""
    global _busy
    _busy = True
    code = 1
    try:
        with _one_blas_thread():
            while (message := _read_message(jobs)) is not None:
                outcome = _run(*pickle.loads(message))
                try:
                    payload = pickle.dumps(outcome)
                except Exception as exc:
                    payload = pickle.dumps(([], DeepRefError(f"worker could not send its outcome: {exc!r}")))
                _write_message(outcomes, payload)
        code = 0
    finally:
        os._exit(code)


def _fork_worker() -> _Worker | None:
    """A new worker, or None when no process can be forked."""
    jobs_r, jobs_w = os.pipe()
    outcomes_r, outcomes_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (jobs_r, jobs_w, outcomes_r, outcomes_w):
            os.close(fd)
        return None
    if pid == 0:
        os.close(jobs_w)
        os.close(outcomes_r)
        _serve(jobs_r, outcomes_w)
    os.close(jobs_r)
    os.close(outcomes_w)
    return _Worker(pid, jobs_w, outcomes_r)


def _live_worker(share: int) -> _Worker | None:
    """The worker of `share`, forked anew if it has none or its worker died;
    None when no process can be forked."""
    if share in _workers:
        try:
            if os.waitid(os.P_PID, _workers[share].pid,
                         os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:  # still running
                return _workers[share]
        except ChildProcessError:  # reaped by someone else
            pass
        _discard(share)
    worker = _fork_worker()
    if worker is not None:
        _workers[share] = worker
    return worker


def _discard(share: int) -> int | None:
    """Kill and reap the worker of `share`, if it has one; its exit status."""
    worker = _workers.pop(share, None)
    if worker is None:
        return None
    os.close(worker.jobs)
    os.close(worker.outcomes)
    try:
        os.kill(worker.pid, signal.SIGKILL)
        return os.waitstatus_to_exitcode(os.waitpid(worker.pid, 0)[1])
    except (ProcessLookupError, ChildProcessError):  # already reaped
        return None


def shutdown() -> None:
    """Kill and reap every worker; the next call forks new ones."""
    for share in list(_workers):
        _discard(share)


def _forget_workers() -> None:
    """In any forked child: drop the parent's ends of the workers' pipes, so
    that only the parent holds them and a worker sees end-of-file when it dies."""
    for worker in _workers.values():
        os.close(worker.jobs)
        os.close(worker.outcomes)
    _workers.clear()


atexit.register(shutdown)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def _receive(share: int) -> tuple[list, Exception | None]:
    """The outcome the worker of `share` sends; if it sends none, reap it and give a `DeepRefError`."""
    worker = _workers[share]
    message = _read_message(worker.outcomes)
    if message is not None:
        return pickle.loads(message)
    status = _discard(share)
    return [], DeepRefError(f"worker process {worker.pid} ended without a result (exit status {status})")


def map_jobs(fn, jobs) -> list:
    """`[fn(job) for job in jobs]`, on one share of the jobs per usable CPU."""
    global _busy
    jobs = list(jobs)
    n = _shares(len(jobs))
    owing: list[int] = []  # the shares sent to a worker whose outcome is not read yet
    was_busy, _busy = _busy, _busy or n > 1
    try:
        for share in range(1, n):
            payload = pickle.dumps((fn, jobs[share::n]))
            worker = _live_worker(share)
            if worker is None:  # no process to spare: the shares not sent run in this process
                break
            owing.append(share)
            try:
                _write_message(worker.jobs, payload)
            except BrokenPipeError:  # it died since: `_receive` reports it
                pass
        mine = [i for i in range(len(jobs)) if i % n not in owing]
        with _one_blas_thread() if owing else contextlib.nullcontext():
            results, exc = _run(fn, [jobs[i] for i in mine])
            outcomes = [(mine, results)]
            first, error = (mine[len(results)], exc) if exc is not None else (len(jobs), None)
            for share in list(owing):
                if share > first:  # every job of this share comes after the first failure so far
                    break
                indices = range(share, len(jobs), n)
                results, exc = _receive(share)
                owing.remove(share)
                outcomes.append((indices, results))
                if exc is not None and indices[len(results)] < first:
                    first, error = indices[len(results)], exc
    finally:
        _busy = was_busy
        for share in owing:
            _discard(share)
    if error is not None:
        raise error
    out = [None] * len(jobs)
    for indices, results in outcomes:
        for i, result in zip(indices, results):
            out[i] = result
    return out
