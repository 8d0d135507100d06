"""`parallel.map_jobs` gives the plain loop's results and errors on every
usable CPU, keeps its workers warm across calls, and leaves no child process
behind (the `usable_cpus` fixture checks that after every test). Each `fn`
is a module-level function or a partial of one, as every call pickles it."""

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
from deepref.cli import main
from deepref.codec import SearchConfig, generated, previous, rd_sweep
from deepref.errors import ConfigError, DeepRefError, NonFiniteError
from deepref.generator import ModelConfig, build_network, save_weights
from deepref.synthetic import SinusoidTexture, pan_zoom_sequence
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


def die_at_two_fail_at(parent, failing, j):
    if j == 2:
        assert os.getpid() != parent, "must die in a worker, never in the test process"
        os._exit(1)
    if j == failing:
        raise ConfigError(f"job {j}")
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
    job = functools.partial(die_at_two_fail_at, os.getpid(), 1 if case.startswith("child 1") else 3)
    with pytest.raises(ConfigError if raised == "job 1" else DeepRefError, match=raised):
        map_jobs(job, range(6))


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
