"""`map_jobs(fn, jobs)`: `[fn(job) for job in jobs]` on every usable CPU, and
`deferral()`: jobs run on a second CPU while the caller carries on. Both run
through one protocol, a `Deferral`.

A `Deferral` sends each job `fn(*args)` to the worker process of a share as
one length-prefixed pickle `(fn, args)` on its jobs pipe (`fn` None: the one
of the job before), and the worker sends each outcome `(result, exception)`
back, in the order sent, on its outcomes pipe. A share's worker is forked at
first use and kept for the process. `fn` is pickled with or without a
worker, so it fails alike: it must pickle by name on every machine (a
module-level function or a `functools.partial` of one). `collect()` reads
the outcomes in rank order across the workers up to the first failure, so
the results and the exception raised are the plain loop's; a worker that
ends without an outcome gives a `DeepRefError` ranked at the first job it
still owes. A job ranked after a failure already known is not run.

`map_jobs` deals the jobs round-robin over one share per usable CPU (at most
one per job), ranked by index. It sends the jobs of shares 1..n-1, with `fn`,
pickled once for the call, in each share's first job only (its worker keeps
it for the others), then runs share 0's in the caller (and those of a share
it cannot fork) up to the first failure; then it collects.
`deferral()` has share 1 alone, ranked in call order: `d.submit(out, fn,
*args)` sends a job and returns at once, and `d.collect()` writes each
result into its `out` array.

A jobs pipe is enlarged to `JOBS_PIPE_BYTES` (1 MiB, where the system
allows), so that training's weight gradients (66-131 KB each for the
benchmark's small net) queue there and not on the worker. The caller writes
it without blocking and reads that worker's outcomes while it is full: a
worker whose outcomes pipe is full reads no jobs, and a caller that only
wrote would wait on it for good.

A worker that still owes an outcome no longer wanted (ranked after the first
failure, or owed when a call or a deferral's block ends) is killed and
reaped, so no stale outcome is left in a pipe; its share's next job forks a
fresh one. `shutdown()`, also run at exit, kills and reaps every worker, and
a worker whose parent dies reads end-of-file and leaves.

A warm worker costs a call no fork and no copy-on-write faults, but it holds
its own copy of the data shipped to it, and it is a snapshot of the caller
at its fork: a module attribute changed later (a monkeypatched function, a
constant) is not seen until `shutdown()` makes the next call fork again.

While workers run a call or a deferral is open, every process runs numpy's
bundled OpenBLAS on one thread (a worker from its start, the caller until
the call or the block ends), where its thread-count functions can be found.

The jobs run in the caller alone (a deferral's at `submit`) with one usable
CPU, without `os.fork`, off Linux, inside a share (a worker's, or the
caller's while its call runs or its deferral is open), or while another
Python thread lives: a fork copies only the calling thread, so a lock that
another thread holds would stay held in the child.
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
    jobs: int  # write end of the pipe the worker reads its jobs from; non-blocking
    outcomes: int  # read end of the pipe it sends their outcomes back on


_workers: dict[int, _Worker] = {}  # share -> the worker that runs it


def _shares(n_jobs: int) -> int:
    if (n_jobs < 2 or _busy or not hasattr(os, "fork") or not sys.platform.startswith("linux")
            or threading.active_count() > 1):
        return 1
    return min(n_jobs, len(os.sched_getaffinity(0)))


def _outcome(fn, args) -> tuple:
    """`fn(*args)` as an outcome: (its result, None), or (None, the exception it raised)."""
    try:
        return fn(*args), None
    except Exception as exc:
        return None, exc


def _write_message(fd: int, payload: bytes, wait=None) -> None:
    """Write one message to `fd`. Each time a non-blocking `fd` is full, call
    `wait()`, which returns once it may have room, or False to give up."""
    parts = [memoryview(_LENGTH.pack(len(payload))), memoryview(payload)]
    while parts:  # one call for both parts while they fit, and no joined copy of them
        try:
            written = os.writev(fd, parts)
        except BlockingIOError:
            if not wait():
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
    get, set_ = _openblas_threads() or (lambda: 1, lambda threads: None)
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _serve(jobs: int, outcomes: int):
    """A worker's life: run each job that arrives on `jobs` and send its
    outcome on `outcomes`, until the pipe ends."""
    global _busy
    _busy = True
    try:
        with _one_blas_thread():
            fn = None
            while (message := _read_message(jobs)) is not None:
                sent, args = pickle.loads(message)
                fn = fn if sent is None else sent  # None: the `fn` of the job before
                outcome = _outcome(fn, args)
                try:
                    payload = pickle.dumps(outcome, _PROTOCOL)
                except Exception as exc:
                    payload = pickle.dumps((None, DeepRefError(f"worker could not send its outcome: {exc!r}")))
                _write_message(outcomes, payload)
        os._exit(0)
    finally:
        os._exit(1)


def _live_worker(share: int) -> _Worker | None:
    """The worker of `share`, forked anew if it has none or its worker died;
    None when no process can be forked."""
    if share in _workers:
        with contextlib.suppress(ChildProcessError):  # reaped by someone else
            if os.waitid(os.P_PID, _workers[share].pid,
                         os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:  # still running
                return _workers[share]
        _discard(share)
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
    _workers[share] = _Worker(pid, jobs_w, outcomes_r)
    return _workers[share]


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


class Deferral:
    """Jobs that run on the workers of some shares while the caller carries
    on; made by `deferral()` for share 1, and by `map_jobs` for its shares."""

    def __init__(self, shares):
        # share -> the (rank, store) of each outcome its worker owes, oldest first
        self._owed = {share: collections.deque() for share in shares}
        self.shares = self._owed.keys()  # the shares whose jobs `send` gives a worker
        self._calls = 0  # jobs submitted so far
        self._error: tuple[int, Exception] | None = None  # (rank, exception) of the first failure

    def submit(self, out: np.ndarray, fn, *args) -> None:
        """Have `fn(*args)` written into `out` (an array of the result's shape)
        by the next `collect()`; `fn` must pickle by name, as for `map_jobs`."""
        self._calls += 1
        self.send(self._calls - 1, 1, functools.partial(out.__setitem__, Ellipsis), fn, args)

    def _failed_before(self, rank: int) -> bool:
        return self._error is not None and self._error[0] < rank

    def run_here(self, rank: int, store, fn, args) -> None:
        """Run `fn(*args)`, ranked `rank`, in the caller and pass its result to
        `store`; not run, as in the plain loop, when a failure ranked before
        it is known."""
        if not self._failed_before(rank):
            self._settle(rank, store, _outcome(fn, args))

    def send(self, rank: int, share: int, store, fn, args) -> None:
        """Send `fn(*args)`, ranked `rank`, to the worker of `share`, forking
        one if it has none; `collect()` passes its result to `store`. It runs
        in the caller when `share` is not one of `shares` or no worker can be
        forked, and not at all when a failure ranked before it is known."""
        if self._failed_before(rank):
            return
        worker = None
        if share in self._owed:
            worker = _workers[share] if share in _workers else _live_worker(share)
        if worker is None:
            pickle.dumps(fn)  # `fn` fails alike with or without a worker
            self.run_here(rank, store, fn, args)
            return
        payload = pickle.dumps((fn, args), _PROTOCOL)
        self._owed[share].append((rank, store))

        def wait() -> bool:
            # the worker may be waiting on a full outcomes pipe, so not reading jobs
            if select.select([worker.outcomes], [worker.jobs], [])[0]:
                self._receive(share)
            return _workers.get(share) is worker

        with contextlib.suppress(BrokenPipeError):  # it died: `_receive` reports it
            _write_message(worker.jobs, payload, wait)

    def _receive(self, share: int) -> None:
        """Settle the oldest outcome the worker of `share` owes; if it sends
        none, reap it and fail that job, losing the others it owed."""
        owed, worker = self._owed[share], _workers[share]
        message = _read_message(worker.outcomes)
        # owed until read: a read cut short (an interrupt) leaves the worker
        # owing, so it is killed and its outcome never read as another's
        rank, store = owed.popleft()
        if message is not None:
            self._settle(rank, store, pickle.loads(message))
            return
        status = _discard(share)
        owed.clear()
        self._settle(rank, store, (None, DeepRefError(
            f"worker process {worker.pid} ended without a result (exit status {status})")))

    def _settle(self, rank: int, store, outcome: tuple) -> None:
        """Store a job's result, or keep its exception if it is the first so
        far in rank order."""
        result, exc = outcome
        if exc is None:
            store(result)
        elif self._error is None or rank < self._error[0]:
            self._error = rank, exc

    def collect(self) -> None:
        """Wait for every job submitted so far and store its result; raise the
        exception of the first failing job in rank order. A worker still
        owing outcomes ranked after it is killed and reaped."""
        while heads := [(owed[0][0], share) for share, owed in self._owed.items() if owed]:
            rank, share = min(heads)
            if self._failed_before(rank):
                break
            self._receive(share)
        self._abandon()
        error, self._error = self._error, None
        if error is not None:
            raise error[1]

    def _abandon(self) -> None:
        """Kill and reap every worker that still owes an outcome."""
        for share, owed in self._owed.items():
            if owed:
                _discard(share)
                owed.clear()


@contextlib.contextmanager
def _deferral(n: int):
    """A `Deferral` over shares 1..n-1, each worker forked now if it has to
    be, up to the first that cannot; the workers still owing outcomes at the
    block's end are killed and reaped."""
    global _busy
    shares = []
    for share in range(1, n):
        if _live_worker(share) is None:  # no process to spare: the rest run in the caller
            break
        shares.append(share)
    deferred = Deferral(shares)
    was_busy, _busy = _busy, _busy or n > 1
    try:
        with _one_blas_thread() if shares else contextlib.nullcontext():
            yield deferred
    finally:
        _busy = was_busy
        deferred._abandon()


class _Unpickles:
    """`fn` as the bytes `map_jobs` pickled it to: it pickles as the call that
    unpickles them, so a message carries `fn` without pickling it again."""

    def __init__(self, pickled: bytes):
        self.pickled = pickled

    def __reduce__(self):
        return pickle.loads, (self.pickled,)


def map_jobs(fn, jobs) -> list:
    """`[fn(job) for job in jobs]`, on one share of the jobs per usable CPU."""
    shipped = _Unpickles(pickle.dumps(fn))  # every call: `fn` fails alike with or without workers
    jobs = list(jobs)
    results = [None] * len(jobs)
    n = _shares(len(jobs))
    with _deferral(n) as deferred:
        # the workers' jobs first, so that they start at once; `fn` goes with
        # a share's first job only, and None, for the `fn` before, with the rest
        for i in range(len(jobs)):
            if i % n in deferred.shares:
                deferred.send(i, i % n, functools.partial(results.__setitem__, i),
                              shipped if i < n else None, (jobs[i],))
        for i in range(len(jobs)):
            if i % n not in deferred.shares:
                deferred.run_here(i, functools.partial(results.__setitem__, i), fn, (jobs[i],))
        deferred.collect()
    return results


def deferral():
    """A `Deferral` for a `with` block. Its jobs run on share 1's worker,
    forked now (while the caller's heap is small: a worker keeps what the
    caller held at the fork), or in the caller where `map_jobs` would run
    them there."""
    return _deferral(_shares(2))
