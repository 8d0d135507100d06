"""`map_jobs(fn, jobs)`: `[fn(job) for job in jobs]` on every usable CPU, and
`deferral()`: jobs run on a second CPU while the caller carries on.

The jobs are dealt round-robin over one share per usable CPU (at most one per
job). The caller runs share 0; each other share runs in a worker process that
is forked on first use and kept for the life of the process. A call pickles
`fn` once, workers or not, so `fn` must pickle by name on every machine (a
module-level function or a `functools.partial` of one), and sends each worker
its share as one length-prefixed pickle `(pickled fn, jobs)` over its jobs
pipe; the results, or the exception that stopped them, come back the same way
on its outcomes pipe. Shares that cannot be forked (no process or memory to
spare) run in the caller too. The results, and the exception raised (that of
the first failing job in job order), are those of the plain loop. A worker
that ends without sending its outcome gives a `DeepRefError` ranked at its
first job, and one whose jobs all come after a failure already seen is not
waited for.

The deferred form is for work the caller would otherwise wait on, one job at
a time: `with deferral() as d`, `d.submit(out, fn, *args)` sends
`fn(*args)` to share 1's worker as a share of one job and returns at once,
and `d.collect()` reads the outcomes back in call order, writes each result
into its `out` array and raises the exception of the first failing job in
call order. Jobs pile up in the worker's jobs pipe, which is enlarged once to
`JOBS_PIPE_BYTES` (1 MiB; skipped where the system refuses) so that a
network's weight gradients (66-131 KB each for the benchmark's small net)
wait there instead of on the worker. Outcomes are read at `collect`, off the
caller's path while the worker is busy, and by a send that finds the jobs
pipe full: the caller writes that pipe without blocking, and reads outcomes
while it waits for room, because a worker whose outcomes have filled the
outcomes pipe waits on the caller and reads no more jobs, and a caller that
only wrote would then wait on it for good.

A call that ends before it has read every outcome (such a failure, a dead
worker, an interrupt; for a deferral, leaving its block) kills and reaps the
workers that still owe one, so no stale outcome is left in a pipe; the next
call forks fresh workers for those shares. `shutdown()`, also run at exit,
kills and reaps them all, and a worker whose parent dies reads end-of-file
and leaves.

A warm worker's heap is its own, so a call takes no fork and no copy-on-write
faults. In exchange a worker holds its own copy of the data shipped to it (for
`rd_sweep`, the frames and the rule), and it is a snapshot of the caller when
it was forked: a module attribute changed later (a monkeypatched function, a
constant) is not seen until `shutdown()` makes the next call fork again.

While workers run a call or a deferral is open, every process runs numpy's
bundled OpenBLAS on one thread, as there is one share per CPU: a worker from
its start, the caller for the call or the deferral, after which its count is
restored. Nothing is done when OpenBLAS's thread-count functions cannot be
found.

The jobs run in the calling process alone (a deferral's at `submit`) with one
usable CPU, without `os.fork`, off Linux, inside a share (a worker's, or the
caller's while its call runs or its deferral is open), or while another Python
thread lives: a fork copies only the calling thread, so a lock that another
thread holds would stay held in the child.
"""

from __future__ import annotations

import atexit
import collections
import contextlib
import ctypes
import functools
import os
import pickle
import select
import signal
import struct
import sys
import threading
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DeepRefError

_LENGTH = struct.Struct("<Q")  # the prefix of every message: its length in bytes
# the pickle protocol of every message: protocol 5 copies a numpy array's
# buffer once, and pickled a 128 KB weight-gradient job in 9 us, not the 69 us
# of the default protocol 4 (2-vCPU x86_64 box)
_PROTOCOL = 5

# the size a worker's jobs pipe is set to. At the default 64 KiB, training's
# weight-gradient jobs (66-131 KB each for the benchmark's small net) waited
# on the worker: an epoch of the benchmark's `train` took 216-220 ms, against
# 179-192 ms with 1 MiB and 205-208 ms with no worker (2-vCPU x86_64 box)
JOBS_PIPE_BYTES = 1 << 20

# True while this process runs a share: a worker always, the caller during a
# call or an open deferral (whose workers owe it outcomes, so a nested call
# must not use them)
_busy = False


class _Worker(NamedTuple):
    pid: int
    jobs: int  # write end of the pipe the worker reads its shares from; non-blocking
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


def _write_message(fd: int, payload: bytes, wait=None) -> None:
    """Write one message to `fd`. Each time a non-blocking `fd` is full, wait
    until it has room (or its reader is gone), or call `wait()` instead, which
    returns once it may have room, or False to give up."""
    parts = [memoryview(_LENGTH.pack(len(payload))), memoryview(payload)]
    while parts:  # one call for both parts while they fit, and no joined copy of them
        try:
            written = os.writev(fd, parts)
        except BlockingIOError:
            if wait is None:
                select.select([], [fd], [])
            elif not wait():
                return
            continue
        while parts and written >= len(parts[0]):
            written -= len(parts.pop(0))
        if written:
            parts[0] = parts[0][written:]


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
                fn, share = pickle.loads(message)
                outcome = _run(pickle.loads(fn), share)
                try:
                    payload = pickle.dumps(outcome, _PROTOCOL)
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
    import fcntl  # here: forks happen on Linux only

    with contextlib.suppress(OSError, AttributeError):  # refused, or no such call here
        fcntl.fcntl(jobs_w, fcntl.F_SETPIPE_SZ, JOBS_PIPE_BYTES)
    os.set_blocking(jobs_w, False)
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
    pickled_fn = pickle.dumps(fn)  # on every call: `fn` fails alike with or without workers
    jobs = list(jobs)
    n = _shares(len(jobs))
    owing: list[int] = []  # the shares sent to a worker whose outcome is not read yet
    was_busy, _busy = _busy, _busy or n > 1
    try:
        for share in range(1, n):
            payload = pickle.dumps((pickled_fn, jobs[share::n]), _PROTOCOL)
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


def _call(job):
    fn, args = job
    return fn(*args)


_PICKLED_CALL = pickle.dumps(_call)


class Deferral:
    """Jobs that run on share 1's worker while the caller carries on; made by
    `deferral()`, which decides whether they run there or in the caller."""

    def __init__(self, forked: bool):
        self._forked = forked
        self._calls = 0  # jobs submitted so far
        self._owed: collections.deque = collections.deque()  # (call, out) the worker owes, in call order
        self._error: tuple[int, Exception] | None = None  # (call, exception) of the first failure

    def submit(self, out: np.ndarray, fn, *args) -> None:
        """Have `fn(*args)` written into `out` (an array of the result's shape)
        by the next `collect()`; `fn` must pickle by name, as for `map_jobs`."""
        call = self._calls
        self._calls += 1
        if self._forked:
            worker = _workers[1] if self._owed else _live_worker(1)
        else:
            worker = None
        if worker is None:  # in the caller, as is a job that finds no process to spare
            pickle.dumps(fn)  # `fn` fails alike with or without a worker
            self._settle(call, out, _run(_call, [(fn, args)]))
            return
        payload = pickle.dumps((_PICKLED_CALL, [(fn, args)]), _PROTOCOL)
        self._owed.append((call, out))
        try:
            _write_message(worker.jobs, payload, functools.partial(self._wait, worker))
        except BrokenPipeError:  # it died: `collect` reports it
            pass

    def _wait(self, worker: _Worker) -> bool:
        """Until the worker's jobs pipe may have room, read its outcomes (it may
        be waiting on a full outcomes pipe, and so not reading jobs); False
        once it died."""
        if select.select([worker.outcomes], [worker.jobs], [])[0]:
            self._receive_one()
        return 1 in _workers

    def _receive_one(self) -> None:
        call, out = self._owed.popleft()
        outcome = _receive(1)
        if 1 not in _workers:  # it died: the outcomes it owed are lost with it
            self._owed.clear()
        self._settle(call, out, outcome)

    def _settle(self, call: int, out: np.ndarray, outcome: tuple[list, Exception | None]) -> None:
        results, exc = outcome
        if exc is None:
            out[...] = results[0]
        elif self._error is None or call < self._error[0]:
            self._error = call, exc

    def collect(self) -> None:
        """Wait for every job submitted so far and fill its `out`; raise the
        exception of the first failing job in call order."""
        while self._owed:
            self._receive_one()
        error, self._error = self._error, None
        if error is not None:
            raise error[1]


@contextlib.contextmanager
def deferral():
    """A `Deferral` for the block. Its jobs run on share 1's worker, or in the
    caller where `map_jobs` would run them there; a worker that still owes
    outcomes when the block ends is killed and reaped."""
    global _busy
    # the worker is forked now, if it has to be, while the caller's heap is
    # small: a worker keeps what the caller held at the fork
    forked = _shares(2) > 1 and _live_worker(1) is not None
    deferred = Deferral(forked)
    was_busy, _busy = _busy, _busy or forked
    try:
        with _one_blas_thread() if forked else contextlib.nullcontext():
            yield deferred
    finally:
        _busy = was_busy
        if deferred._owed:
            _discard(1)
