"""`parallel.map_jobs` gives the plain loop's results and errors on every
usable CPU, and `parallel.deferral()` gives them one job at a time while the
caller carries on; both keep their workers warm across calls and leave no
child process behind (the `usable_cpus` fixture checks that after every
test). Each `fn` is a module-level function or a partial of one, as every
call pickles it."""

import functools
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import deepref
from deepref import codec, parallel
from deepref import generator as generator_mod
from deepref.cli import main
from deepref.codec import SearchConfig, generated, previous, rd_sweep
from deepref.errors import ConfigError, DeepRefError, NonFiniteError
from deepref.flow import SamplePair
from deepref.generator import ModelConfig, build_network, save_weights
from deepref.synthetic import SinusoidTexture, pan_zoom_sequence
from deepref.training import TrainConfig, train
from deepref.video_io import write_y4m

map_jobs = parallel.map_jobs


def counting_forks(monkeypatch) -> list:
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def job_and_list(j):
    return j, [j] * j


def pid_of(j):
    return os.getpid()


def job_and_pid(j):
    return j, os.getpid()


def nested_pids(j):
    return [map_jobs(pid_of, range(3)) for _ in range(2)]


def fail_in(failing, error, j):
    if j in failing:
        raise error(f"job {j}")
    return j


def fail_with_pid(j):
    if j == 1:
        raise NonFiniteError(f"job {j} in process {os.getpid()}")
    return j


def returns_unpicklable(j):
    return lambda: j


def die_in_worker(parent, how, j):
    """Job 1 ends its worker by `how` ("exit" or "sigkill"); never the test process."""
    if j == 1:
        assert os.getpid() != parent, "must die in a worker, never in the test process"
        if how == "exit":
            os._exit(3)
        os.kill(os.getpid(), signal.SIGKILL)
    return j


def die_at_fail_at(parent, dying, failing, j):
    if j == dying:
        assert os.getpid() != parent, "must die in a worker, never in the test process"
        os._exit(1)
    if j == failing:
        raise ConfigError(f"job {j}")
    return j


def fail_at_two_sleep_at_four(j):
    if j == 2:
        raise ConfigError(f"job {j}")
    if j == 4:
        time.sleep(60)
    return j


def here_raise_there_sleep(parent, error, j):
    """Raises `error` in the test process; in a worker, sleeps a minute
    unless killed, then answers "stale"."""
    if os.getpid() == parent:
        raise error(f"job {j}")
    time.sleep(60)
    return "stale", j


def worker_dies_at_one_others_sleep(parent, j):
    if os.getpid() != parent:
        if j == 1:
            os._exit(1)
        time.sleep(60)
    return j


def timed_sleep(parent, data, j):
    """Sleeps 0.4 s in the test process and 0.15 s in a worker; (start, end)."""
    started = time.monotonic()
    time.sleep(0.4 if os.getpid() == parent else 0.15)
    return started, time.monotonic()


class Counted:
    """Counts, in the process that unpickles it, how often that happened."""
    unpickled = 0

    def __getstate__(self):
        return True  # a state, so that unpickling calls `__setstate__`

    def __setstate__(self, state):
        Counted.unpickled += 1


def unpickled_count(counted, j):
    return Counted.unpickled


def dies_at_one_after_a_while(parent, job):
    j, _ = job
    if j == 1 and os.getpid() != parent:
        time.sleep(0.3)
        os._exit(1)
    return j


def stale_after(parent, seconds, j):
    """In a worker: sleeps, then answers ("stale", j); in the test process, j."""
    if os.getpid() == parent:
        return j
    time.sleep(seconds)
    return "stale", j


def blas_threads(j):
    return parallel._openblas_threads()[0]()


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("n_jobs", [0, 1, 2, 3, 5])
def test_results_in_job_order(usable_cpus, cpus, n_jobs):
    usable_cpus(cpus)
    assert map_jobs(job_and_list, range(n_jobs)) == [job_and_list(j) for j in range(n_jobs)]


def test_jobs_dealt_round_robin_one_fork_per_other_share(usable_cpus, monkeypatch):
    usable_cpus(2)
    forks = counting_forks(monkeypatch)
    pids = map_jobs(pid_of, range(5))
    assert len(forks) == 1
    assert pids[0::2] == [os.getpid()] * 3
    assert pids[1] == pids[3] != os.getpid()


def test_second_call_reuses_the_workers_and_forks_nothing(usable_cpus, monkeypatch):
    usable_cpus(3)
    first = map_jobs(pid_of, range(6))
    forks = counting_forks(monkeypatch)
    assert map_jobs(pid_of, range(6)) == first
    assert forks == []
    assert len(set(first)) == 3


def test_worker_killed_between_calls_is_replaced(usable_cpus):
    usable_cpus(3)
    first = map_jobs(job_and_pid, range(6))
    dead = first[1][1]
    os.kill(dead, signal.SIGKILL)
    os.waitid(os.P_PID, dead, os.WEXITED | os.WNOWAIT)  # dead, left for map_jobs to reap
    again = map_jobs(job_and_pid, range(6))
    assert [j for j, _ in again] == list(range(6))
    assert again[1][1] == again[4][1] not in (dead, os.getpid())
    assert again[2][1] == first[2][1]


@pytest.mark.parametrize("error", [ConfigError, KeyboardInterrupt])
def test_call_after_a_failed_or_interrupted_one_gets_its_own_results(usable_cpus, error):
    # the first call's workers would answer ("stale", j) had they been kept
    usable_cpus(3)
    with pytest.raises(error, match="^job 0$"):
        map_jobs(functools.partial(here_raise_there_sleep, os.getpid(), error), range(3))
    assert map_jobs(job_and_list, range(7)) == [job_and_list(j) for j in range(7)]


@pytest.mark.parametrize("unsafe", ["one cpu", "no fork", "not linux", "live thread"])
def test_jobs_run_in_process_where_forking_is_unavailable_or_unsafe(
        usable_cpus, monkeypatch, unsafe):
    usable_cpus(1 if unsafe == "one cpu" else 2)
    if unsafe == "no fork":
        monkeypatch.delattr(os, "fork")
    if unsafe == "not linux":
        monkeypatch.setattr(sys, "platform", "darwin")
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if unsafe == "live thread":
        thread.start()
    try:
        assert map_jobs(pid_of, range(4)) == [os.getpid()] * 4
    finally:
        stop.set()
        if thread.is_alive():
            thread.join()


@pytest.mark.parametrize("data_bytes", [1, 2 * parallel.JOBS_PIPE_BYTES])
def test_worker_jobs_sent_ahead_even_when_fn_overfills_a_jobs_pipe(usable_cpus, data_bytes):
    # jobs 0, 2 run in this process and 1, 3 in the worker; `fn` carries
    # `data`, and only job 1 carries `fn`, so job 3 waits in the pipe and the
    # worker runs it during job 0
    usable_cpus(2)
    data = np.zeros(data_bytes, dtype=np.uint8)
    spans = map_jobs(functools.partial(timed_sleep, os.getpid(), data), range(4))
    assert spans[3][0] < spans[0][1]


def test_worker_unpickles_fn_once_per_call(usable_cpus):
    # jobs 1, 3, 5 run in the worker, each reading how often it unpickled a `Counted`
    usable_cpus(2)
    for call in (1, 2):
        counts = map_jobs(functools.partial(unpickled_count, Counted()), range(6))
        assert counts[1::2] == [call] * 3


def test_share_whose_worker_dies_forks_no_other_within_the_call(usable_cpus, monkeypatch):
    # jobs 0, 2, 4 run in this process and 1, 3, 5 in the worker, which dies
    # at job 1 while this process waits for room in its jobs pipe for job 3;
    # job 5, ranked after that death, is not sent, so no worker is forked for it
    usable_cpus(2)
    map_jobs(pid_of, range(2))  # the worker, forked before forks are counted
    forks = counting_forks(monkeypatch)
    jobs = [(j, np.zeros(2 * parallel.JOBS_PIPE_BYTES, dtype=np.uint8) if j == 3 else None)
            for j in range(6)]
    with pytest.raises(DeepRefError, match="ended without a result"):
        map_jobs(functools.partial(dies_at_one_after_a_while, os.getpid()), jobs)
    assert forks == []


def test_all_forks_failing_leaves_nested_calls_in_process_without_forking(usable_cpus,
                                                                          monkeypatch):
    forks = []

    def fork():
        forks.append(1)
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    usable_cpus(2)
    assert map_jobs(nested_pids, range(2)) == [[[os.getpid()] * 3] * 2] * 2
    assert len(forks) == 1  # the call's, and none by the calls nested in its jobs


@pytest.mark.parametrize("caller", ["map_jobs", "deferral"])
def test_call_interrupted_while_it_reads_an_outcome_leaves_it_unread(usable_cpus, caller):
    # an alarm raises while the caller waits for the worker's outcome of
    # job 1; the worker answers ("stale", 1) a moment later, which the next
    # call must not take for its own job 1
    usable_cpus(2)

    def interrupt(signum, frame):
        raise KeyboardInterrupt("while reading an outcome")

    previous_handler = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 0.3)
    try:
        with pytest.raises(KeyboardInterrupt, match="while reading"):
            if caller == "map_jobs":
                map_jobs(functools.partial(stale_after, os.getpid(), 1.0), range(2))
            else:
                with parallel.deferral() as d:
                    d.submit(np.empty((), dtype=object), stale_after, os.getpid(), 1.0, 1)
                    d.collect()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous_handler)
    assert 1 not in parallel._workers  # killed and reaped while it owed the outcome
    time.sleep(1.0)  # by now a kept worker would have sent its stale outcome
    assert map_jobs(job_and_list, range(7)) == [job_and_list(j) for j in range(7)]


def test_no_nested_fork_inside_a_child(usable_cpus):
    usable_cpus(2)
    inner = map_jobs(nested_pids, range(2))
    # a nested call runs in the process of its share, the caller's included
    assert inner[0] == [[os.getpid()] * 3] * 2
    assert inner[1] == [[inner[1][0][0]] * 3] * 2 and inner[1][0][0] != os.getpid()


def test_shares_that_cannot_be_forked_run_in_this_process(usable_cpus, monkeypatch):
    real_fork = os.fork
    forks = []

    def fork():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    usable_cpus(3)
    pids = map_jobs(job_and_pid, range(7))
    assert len(forks) == 2
    assert [j for j, _ in pids] == list(range(7))
    assert [pid for j, pid in pids if j % 3 != 1] == [os.getpid()] * 5
    assert pids[1][1] == pids[4][1] != os.getpid()


@pytest.mark.skipif(parallel._openblas_threads() is None,
                    reason="numpy's bundled OpenBLAS thread-count functions not found")
def test_openblas_on_one_thread_while_workers_run(usable_cpus):
    get, set_ = parallel._openblas_threads()
    before = get()
    set_(2)
    try:
        usable_cpus(2)
        assert map_jobs(blas_threads, range(4)) == [1] * 4
        assert get() == 2
    finally:
        set_(before)


def test_child_exception_comes_back_with_type_and_message(usable_cpus):
    usable_cpus(2)
    with pytest.raises(NonFiniteError, match=r"^job 1 in process \d+$") as info:
        map_jobs(fail_with_pid, range(4))
    assert str(info.value) != f"job 1 in process {os.getpid()}"


@pytest.mark.parametrize("failing", [{1, 2}, {2, 3}, {3, 5}, {0, 1}])
def test_first_failing_job_in_job_order_is_raised(usable_cpus, failing):
    # jobs 0, 2, 4 run in this process and 1, 3, 5 in the worker
    usable_cpus(2)
    with pytest.raises(ConfigError, match=f"^job {min(failing)}$"):
        map_jobs(functools.partial(fail_in, failing, ConfigError), range(6))


@pytest.mark.parametrize("case, raised", [
    ("child 1 fails at job 1, child 2 dies", "job 1"),
    ("this process fails at job 3, child 2 dies", "ended without a result"),
])
def test_child_that_dies_ranked_at_its_first_job(usable_cpus, case, raised):
    # jobs 0, 3 run in this process, 1, 4 in worker 1 and 2, 5 in worker 2
    usable_cpus(3)
    job = functools.partial(die_at_fail_at, os.getpid(), 2, 1 if case.startswith("child 1") else 3)
    with pytest.raises(ConfigError if raised == "job 1" else DeepRefError, match=raised):
        map_jobs(job, range(6))


def test_dead_child_ranked_at_the_first_job_it_still_owes(usable_cpus):
    # jobs 0, 2, 4 run in this process and 1, 3, 5 in the worker, which sends
    # job 1's result and dies at job 3: the plain loop stops at job 2
    usable_cpus(2)
    with pytest.raises(ConfigError, match="^job 2$"):
        map_jobs(functools.partial(die_at_fail_at, os.getpid(), 3, 2), range(6))


def test_failure_raised_once_every_job_before_it_is_done(usable_cpus):
    # jobs 0, 3 run in this process, 1, 4 in worker 1 and 2, 5 in worker 2:
    # job 2 fails, and job 4, which the plain loop never runs, sleeps a minute
    usable_cpus(3)
    started = time.monotonic()
    with pytest.raises(ConfigError, match="^job 2$"):
        map_jobs(fail_at_two_sleep_at_four, range(6))
    assert time.monotonic() - started < 30


def test_failure_before_every_child_job_raised_without_waiting(usable_cpus):
    usable_cpus(3)
    started = time.monotonic()
    with pytest.raises(ConfigError, match="^job 0$"):
        map_jobs(functools.partial(here_raise_there_sleep, os.getpid(), ConfigError), range(3))
    assert time.monotonic() - started < 30


def test_unpicklable_outcome_becomes_a_deepref_error(usable_cpus):
    usable_cpus(2)
    with pytest.raises(DeepRefError, match="worker could not send its outcome"):
        map_jobs(returns_unpicklable, range(2))


def raised_on_one_and_two_cpus(usable_cpus, monkeypatch, call) -> list:
    """The exception types `call()` raises with 1, then 2 usable CPUs; no fork may happen."""
    forks = counting_forks(monkeypatch)
    raised = []
    for cpus in (1, 2):
        usable_cpus(cpus)
        with pytest.raises(Exception) as info:
            call()
        raised.append(type(info.value))
    assert forks == []
    return raised


def test_fn_that_does_not_pickle_fails_alike_with_or_without_workers(usable_cpus, monkeypatch):
    scale = 3

    def scaled(j):
        return scale * j

    for fn in (lambda j: j, scaled):
        one, two = raised_on_one_and_two_cpus(usable_cpus, monkeypatch, lambda: map_jobs(fn, range(4)))
        assert one is two and issubclass(one, (pickle.PicklingError, AttributeError))


@pytest.mark.parametrize("death", ["exit", "sigkill"])
def test_child_that_dies_without_a_result_raises(usable_cpus, death):
    usable_cpus(2)
    status = 3 if death == "exit" else -signal.SIGKILL
    with pytest.raises(DeepRefError, match=rf"ended without a result \(exit status {status}\)"):
        map_jobs(functools.partial(die_in_worker, os.getpid(), death), range(4))


def test_children_killed_when_the_call_fails(usable_cpus):
    # worker 1 dies at once; worker 2 would sleep for a minute unless killed
    usable_cpus(3)
    started = time.monotonic()
    with pytest.raises(DeepRefError, match="ended without a result"):
        map_jobs(functools.partial(worker_dies_at_one_others_sleep, os.getpid()), range(3))
    assert time.monotonic() - started < 30


def test_interrupt_in_this_process_kills_the_children(usable_cpus):
    usable_cpus(2)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        map_jobs(functools.partial(here_raise_there_sleep, os.getpid(), KeyboardInterrupt), range(2))
    assert time.monotonic() - started < 30


POOL_USER = """
import os, signal, sys
from deepref import parallel
os.sched_getaffinity = lambda pid: {0, 1, 2}
def pid_of(j):
    return os.getpid()
print(*sorted(set(parallel.map_jobs(pid_of, range(3))) - {os.getpid()}), flush=True)
if sys.argv[1] == "killed":
    os.kill(os.getpid(), signal.SIGKILL)
"""


def gone_or_zombie(pid) -> bool:
    """True once `pid` has exited: an orphan stays a zombie until init reaps it."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat[stat.rindex(")") + 2] == "Z"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers run on Linux only")
@pytest.mark.parametrize("end", ["exits", "killed"])
def test_no_worker_outlives_the_process_that_used_them(end):
    env = {**os.environ, "PYTHONPATH": str(Path(deepref.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", POOL_USER, end], env=env, capture_output=True,
                          text=True, timeout=60)
    pids = [int(p) for p in done.stdout.split()]
    assert len(pids) == 2, done.stderr
    if end == "exits":  # reaped by the exit handler before the process ended
        assert done.returncode == 0, done.stderr
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
    else:  # each worker reads end-of-file on its pipe and leaves
        deadline = time.monotonic() + 30
        while not all(gone_or_zombie(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert all(gone_or_zombie(pid) for pid in pids)


def tiny_net():
    return build_network(ModelConfig(head_channels=2, branch_reduce_channels=2,
                                     branch_out_channels=2, trunk_channels=2, seed=5))


@pytest.mark.parametrize("with_net", [False, True])
def test_rd_sweep_points_byte_identical_forked_and_in_process(usable_cpus, monkeypatch,
                                                              with_net):
    tex = SinusoidTexture.random(17)
    frames = [tex.render(48, 48, offset=(0.6 * t, 0.35 * t)) for t in range(3)]
    rule = functools.partial(generated, tiny_net()) if with_net else previous  # crosses the pipe
    search = SearchConfig(search_range=4, block_size=16)
    q_set = [4, 8, 16, 32, 64]
    usable_cpus(1)
    in_process = rd_sweep(frames, rule, search, q_set)
    forks = counting_forks(monkeypatch)
    usable_cpus(2)
    forked = rd_sweep(frames, rule, search, q_set)
    assert len(forks) == 1
    assert np.array([tuple(p) for p in forked]).tobytes() == \
        np.array([tuple(p) for p in in_process]).tobytes()


def test_rd_sweep_rule_that_does_not_pickle_fails_alike_with_or_without_workers(usable_cpus,
                                                                                monkeypatch):
    frames = pan_zoom_sequence(32, 32, 3, velocity=(0.5, 0.25), seed=4)
    one, two = raised_on_one_and_two_cpus(usable_cpus, monkeypatch, lambda: rd_sweep(
        frames, lambda h: [h[-1]], SearchConfig(search_range=2, block_size=16), [8, 16]))
    assert one is two


def test_sweep_command_reports_a_child_error(usable_cpus, monkeypatch, tmp_path, capsys):
    clip = tmp_path / "c.y4m"
    write_y4m(pan_zoom_sequence(32, 32, 2, velocity=(0.5, 0.25), seed=4), clip)
    save_weights(tiny_net(), tmp_path / "w.drpg")
    real_encode = codec.encode_sequence
    parent = os.getpid()

    def encode(frames, refs, cfg, q):
        if q == 16 and os.getpid() != parent:
            raise NonFiniteError("reconstruction of q 16 is not finite")
        return real_encode(frames, refs, cfg, q)

    monkeypatch.setattr(codec, "encode_sequence", encode)
    usable_cpus(2)
    code = main(["sweep", "--input", str(clip), "--weights", str(tmp_path / "w.drpg"),
                 "--q-set", "8,16", "--block-size", "16", "--search-range", "2",
                 "--output", str(tmp_path / "rd.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: reconstruction of q 16 is not finite\n"
    assert not (tmp_path / "rd.csv").exists()


# The deferred form: `deferral()`, `Deferral.submit(out, fn, *args)`, `collect()`.

def square_plus(j, add):
    return j * j + add


def fail_at(failing, error, j):
    if j in failing:
        raise error(f"job {j} in process {os.getpid()}")
    return j


def kill_self_at(parent, j):
    """Job 2 SIGKILLs its worker; never the test process."""
    if j == 2:
        assert os.getpid() != parent, "must die in a worker, never in the test process"
        os.kill(os.getpid(), signal.SIGKILL)
    return j


def sleep_there(parent, seconds):
    if os.getpid() != parent:
        time.sleep(seconds)
    return os.getpid()


def filled(n, j):
    """n float64s of value j: an outcome as large as n * 8 bytes."""
    return np.full(n, float(j))


def deferred_results(n_jobs) -> list:
    with parallel.deferral() as d:
        outs = [np.empty((), dtype=np.int64) for _ in range(n_jobs)]
        for j, out in enumerate(outs):
            d.submit(out, square_plus, j, 3)
        d.collect()
    return [int(out) for out in outs]


def deferred_pids(_) -> list:
    with parallel.deferral() as d:
        outs = [np.empty((), dtype=np.int64) for _ in range(3)]
        for out in outs:
            d.submit(out, pid_of, None)
        d.collect()
    return [int(out) for out in outs]


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("n_jobs", range(6))
def test_deferred_results_in_call_order(usable_cpus, cpus, n_jobs):
    usable_cpus(cpus)
    assert deferred_results(n_jobs) == [j * j + 3 for j in range(n_jobs)]


def test_deferred_jobs_run_on_share_one_worker_and_it_stays_warm(usable_cpus, monkeypatch):
    usable_cpus(3)
    first = deferred_pids(None)
    forks = counting_forks(monkeypatch)
    assert deferred_pids(None) == first
    assert forks == []
    assert len(set(first)) == 1 and first[0] != os.getpid()
    assert map_jobs(pid_of, range(3))[1] == first[0]  # the same worker runs map_jobs' share 1


@pytest.mark.parametrize("unsafe", ["one cpu", "map_jobs share", "live thread"])
def test_deferred_jobs_run_in_the_caller_where_forking_is_unavailable_or_unsafe(
        usable_cpus, monkeypatch, unsafe):
    usable_cpus(1 if unsafe == "one cpu" else 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if unsafe == "live thread":
        thread.start()
    forks = counting_forks(monkeypatch)
    try:
        if unsafe == "map_jobs share":
            here, there = map_jobs(deferred_pids, range(2))
            assert here == [os.getpid()] * 3
            assert there == [there[0]] * 3 and there[0] != os.getpid()
            assert len(forks) == 1  # map_jobs' worker, no other
        else:
            assert deferred_pids(None) == [os.getpid()] * 3
            assert forks == []
    finally:
        stop.set()
        if thread.is_alive():
            thread.join()


@pytest.mark.skipif(parallel._openblas_threads() is None,
                    reason="numpy's bundled OpenBLAS thread-count functions not found")
def test_openblas_on_one_thread_while_a_deferral_is_open(usable_cpus):
    get, set_ = parallel._openblas_threads()
    before = get()
    set_(2)
    try:
        usable_cpus(2)
        with parallel.deferral() as d:
            out = np.empty((), dtype=np.int64)
            d.submit(out, blas_threads, 0)
            d.collect()
            assert (get(), int(out)) == (1, 1)
        assert get() == 2
    finally:
        set_(before)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("failing", [{1, 2}, {2, 4}, {4}, {0, 1, 2, 3, 4}])
def test_deferred_first_failing_job_in_call_order_raised(usable_cpus, cpus, failing):
    usable_cpus(cpus)
    with parallel.deferral() as d:
        outs = [np.empty((), dtype=np.int64) for _ in range(5)]
        for j, out in enumerate(outs):
            d.submit(out, fail_at, failing, NonFiniteError, j)
        with pytest.raises(NonFiniteError, match=rf"^job {min(failing)} in process (\d+)$") as info:
            d.collect()
        assert (info.value.args[0].endswith(str(os.getpid()))) == (cpus == 1)
        assert [int(outs[j]) for j in range(min(failing))] == list(range(min(failing)))
        if cpus == 2:  # a worker that still owes outcomes after the failure is killed and reaped
            assert (1 in parallel._workers) == (failing == {4})
        # the deferral goes on after a failure, on a fresh worker if need be
        d.submit(outs[0], square_plus, 2, 0)
        d.collect()
        assert int(outs[0]) == 4


def test_deferred_fn_that_does_not_pickle_fails_alike_with_or_without_a_worker(usable_cpus):
    raised = []
    for cpus in (1, 2):
        usable_cpus(cpus)
        with pytest.raises(Exception) as info:
            with parallel.deferral() as d:
                d.submit(np.empty(()), lambda: 1)
        raised.append(type(info.value))
    assert raised[0] is raised[1]
    assert issubclass(raised[0], (pickle.PicklingError, AttributeError))


def test_deferred_worker_killed_mid_batch_raises(usable_cpus):
    usable_cpus(2)
    with parallel.deferral() as d:
        outs = [np.empty((), dtype=np.int64) for _ in range(5)]
        for j, out in enumerate(outs):
            d.submit(out, kill_self_at, os.getpid(), j)
        with pytest.raises(DeepRefError, match=rf"ended without a result \(exit status {-signal.SIGKILL}\)"):
            d.collect()
        assert [int(outs[0]), int(outs[1])] == [0, 1]
        assert 1 not in parallel._workers  # reaped
        # the next job forks a new worker
        d.submit(outs[0], pid_of, None)
        d.collect()
        assert int(outs[0]) not in (os.getpid(), 0)


@pytest.mark.parametrize("error", [NonFiniteError, KeyboardInterrupt])
def test_deferral_left_by_a_failure_kills_the_worker_that_owes_outcomes(usable_cpus, error):
    usable_cpus(2)
    started = time.monotonic()
    with pytest.raises(error):
        with parallel.deferral() as d:
            d.submit(np.empty((), dtype=np.int64), sleep_there, os.getpid(), 60)
            raise error("between a send and its read")
    assert time.monotonic() - started < 30
    assert 1 not in parallel._workers  # killed and reaped: the fixture checks that none is left


def test_outcomes_larger_than_a_pipe_buffer_do_not_deadlock(usable_cpus):
    # each job sends 1 MiB and gets 1 MiB back: while the caller writes a job
    # that fills the jobs pipe, the worker may be writing an outcome that
    # fills the outcomes pipe, and each would wait on the other for good
    usable_cpus(2)

    def hung(signum, frame):
        raise TimeoutError("deferred jobs hung")

    previous_handler = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with parallel.deferral() as d:
            big = np.ones(1 << 17)
            outs = [np.empty(1 << 17) for _ in range(6)]
            for j, out in enumerate(outs):
                d.submit(out, filled, big.size, j)
                d.submit(np.empty(()), np.sum, big)  # a 1 MiB job with a small outcome
            d.collect()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous_handler)
    assert all(np.all(out == j) for j, out in enumerate(outs))


def small_training_setup(channels, n_pairs, block):
    model = ModelConfig(head_channels=channels, branch_reduce_channels=channels // 2,
                        branch_out_channels=channels // 2, trunk_channels=channels, seed=0)
    rng = np.random.default_rng(5)
    pairs = [SamplePair(*rng.integers(0, 256, (2, block, block), dtype=np.uint8), (0, 0),
                        (0.0, 0.0)) for _ in range(n_pairs)]
    return model, pairs


def losses_and_weights(net, report):
    return ([e.loss for e in report.epochs],
            [t.tobytes() for p in net.layers.values() for t in (p.weights, p.bias)])


@pytest.mark.parametrize("error", [NonFiniteError, KeyboardInterrupt])
def test_train_left_between_a_send_and_its_read_leaves_no_owed_outcome(usable_cpus, monkeypatch,
                                                                       error):
    model, pairs = small_training_setup(8, 8, 16)
    cfg = TrainConfig(lr0=1.0, epochs=2, batch_size=4)
    usable_cpus(1)
    in_process = losses_and_weights(*train(build_network(model), pairs, cfg))
    usable_cpus(2)
    real = generator_mod.relu_backward
    calls = []

    def fail_in_the_second_backward(x, g):
        # a backward calls it 32 times; the tail's weight gradient is sent
        # before its first call, and read only at the batch's end
        calls.append(1)
        if len(calls) == 33:
            raise error("the caller failed")
        return real(x, g)

    monkeypatch.setattr(generator_mod, "relu_backward", fail_in_the_second_backward)
    with pytest.raises(error, match="the caller failed"):
        train(build_network(model), pairs, cfg)
    assert len(calls) == 33
    assert 1 not in parallel._workers  # killed and reaped while it owed an outcome
    monkeypatch.setattr(generator_mod, "relu_backward", real)
    assert losses_and_weights(*train(build_network(model), pairs, cfg)) == in_process
    assert 1 in parallel._workers


def test_train_at_larger_widths_does_not_deadlock(usable_cpus):
    # 16 channels, 8 blocks of 32x32: each 3x3 job is about 1 MiB, and a
    # batch's outcomes overfill the outcomes pipe while jobs fill the jobs pipe
    model, pairs = small_training_setup(16, 16, 32)
    cfg = TrainConfig(lr0=1.0, epochs=1, batch_size=8)
    usable_cpus(1)
    in_process = losses_and_weights(*train(build_network(model), pairs, cfg))
    usable_cpus(2)

    def hung(signum, frame):
        raise TimeoutError("training hung")

    previous_handler = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        forked = losses_and_weights(*train(build_network(model), pairs, cfg))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous_handler)
    assert forked == in_process
