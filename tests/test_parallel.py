"""`parallel.map_jobs` gives the plain loop's results and errors on every
usable CPU, and leaves no child process behind (the `usable_cpus` fixture
checks that after every test)."""

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from deepref import codec, parallel
from deepref.cli import main
from deepref.codec import SearchConfig, rd_sweep
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


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("n_jobs", [0, 1, 2, 3, 5])
def test_results_in_job_order(usable_cpus, cpus, n_jobs):
    usable_cpus(cpus)
    got = map_jobs(lambda j: (j, [j] * j), range(n_jobs))
    assert got == [(j, [j] * j) for j in range(n_jobs)]


def test_jobs_dealt_round_robin_one_fork_per_other_share(usable_cpus, monkeypatch):
    usable_cpus(2)
    forks = counting_forks(monkeypatch)
    pids = map_jobs(lambda j: os.getpid(), range(5))
    assert len(forks) == 1
    assert pids[0::2] == [os.getpid()] * 3
    assert pids[1] == pids[3] != os.getpid()


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
        assert map_jobs(lambda j: os.getpid(), range(4)) == [os.getpid()] * 4
    finally:
        stop.set()
        if thread.is_alive():
            thread.join()


def test_no_nested_fork_inside_a_child(usable_cpus):
    usable_cpus(2)
    inner = map_jobs(lambda j: map_jobs(lambda k: os.getpid(), range(3)), range(2))
    assert inner[1] == [inner[1][0]] * 3 and inner[1][0] != os.getpid()


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
    pids = map_jobs(lambda j: (j, os.getpid()), range(7))
    assert len(forks) == 2
    assert [j for j, _ in pids] == list(range(7))
    assert [pid for j, pid in pids if j % 3 != 1] == [os.getpid()] * 5
    assert pids[1][1] == pids[4][1] != os.getpid()


def test_child_exception_comes_back_with_type_and_message(usable_cpus):
    usable_cpus(2)

    def job(j):
        if j == 1:
            raise NonFiniteError(f"job {j} in process {os.getpid()}")
        return j

    with pytest.raises(NonFiniteError, match=r"^job 1 in process \d+$") as info:
        map_jobs(job, range(4))
    assert str(info.value) != f"job 1 in process {os.getpid()}"


@pytest.mark.parametrize("failing", [{1, 2}, {2, 3}, {3, 5}, {0, 1}])
def test_first_failing_job_in_job_order_is_raised(usable_cpus, failing):
    # jobs 0, 2, 4 run in this process and 1, 3, 5 in the child
    def job(j):
        if j in failing:
            raise ConfigError(f"job {j}")
        return j

    usable_cpus(2)
    with pytest.raises(ConfigError, match=f"^job {min(failing)}$"):
        map_jobs(job, range(6))


@pytest.mark.parametrize("case, raised", [
    ("child 1 fails at job 1, child 2 dies", "job 1"),
    ("this process fails at job 3, child 2 dies", "ended without a result"),
])
def test_child_that_dies_ranked_at_its_first_job(usable_cpus, case, raised):
    # jobs 0, 3 run in this process, 1, 4 in child 1 and 2, 5 in child 2
    parent = os.getpid()

    def job(j):
        if j == 2:
            assert os.getpid() != parent, "must die in the child, never in the test process"
            os._exit(1)
        if j == (1 if case.startswith("child 1") else 3):
            raise ConfigError(f"job {j}")
        return j

    usable_cpus(3)
    with pytest.raises(ConfigError if raised == "job 1" else DeepRefError, match=raised):
        map_jobs(job, range(6))


def test_failure_before_every_child_job_raised_without_waiting(usable_cpus):
    parent = os.getpid()

    def job(j):
        if os.getpid() == parent:
            raise ConfigError(f"job {j}")
        time.sleep(60)

    usable_cpus(3)
    started = time.monotonic()
    with pytest.raises(ConfigError, match="^job 0$"):
        map_jobs(job, range(3))
    assert time.monotonic() - started < 30


def test_unpicklable_outcome_becomes_a_deepref_error(usable_cpus):
    usable_cpus(2)
    with pytest.raises(DeepRefError, match="worker could not send its outcome"):
        map_jobs(lambda j: (lambda: j), range(2))


@pytest.mark.parametrize("death", ["exit", "sigkill"])
def test_child_that_dies_without_a_result_raises(usable_cpus, death):
    parent = os.getpid()

    def job(j):
        if j == 1:
            assert os.getpid() != parent, "must die in the child, never in the test process"
            if death == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)
        return j

    usable_cpus(2)
    status = 3 if death == "exit" else -signal.SIGKILL
    with pytest.raises(DeepRefError, match=rf"ended without a result \(exit status {status}\)"):
        map_jobs(job, range(4))


def test_children_killed_when_the_call_fails(usable_cpus):
    # child 1 dies at once; child 2 would sleep for a minute unless killed
    parent = os.getpid()

    def job(j):
        if os.getpid() != parent:
            if j == 1:
                os._exit(1)
            time.sleep(60)
        return j

    usable_cpus(3)
    started = time.monotonic()
    with pytest.raises(DeepRefError, match="ended without a result"):
        map_jobs(job, range(3))
    assert time.monotonic() - started < 30


def test_interrupt_in_this_process_kills_the_children(usable_cpus):
    parent = os.getpid()

    def job(j):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    usable_cpus(2)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        map_jobs(job, range(2))
    assert time.monotonic() - started < 30


def tiny_net():
    return build_network(ModelConfig(head_channels=2, branch_reduce_channels=2,
                                     branch_out_channels=2, trunk_channels=2, seed=5))


@pytest.mark.parametrize("with_net", [False, True])
def test_rd_sweep_points_byte_identical_forked_and_in_process(usable_cpus, monkeypatch,
                                                              with_net):
    tex = SinusoidTexture.random(17)
    frames = [tex.render(48, 48, offset=(0.6 * t, 0.35 * t)) for t in range(3)]
    net = tiny_net() if with_net else None
    search = SearchConfig(search_range=4, block_size=16)
    q_set = [4, 8, 16, 32, 64]
    usable_cpus(1)
    in_process = rd_sweep(frames, net, search, q_set)
    forks = counting_forks(monkeypatch)
    usable_cpus(2)
    forked = rd_sweep(frames, net, search, q_set)
    assert len(forks) == 1
    assert np.array([tuple(p) for p in forked]).tobytes() == \
        np.array([tuple(p) for p in in_process]).tobytes()


def test_sweep_command_reports_a_child_error(usable_cpus, monkeypatch, tmp_path, capsys):
    clip = tmp_path / "c.y4m"
    write_y4m(pan_zoom_sequence(32, 32, 2, velocity=(0.5, 0.25), seed=4), clip)
    save_weights(tiny_net(), tmp_path / "w.drpg")
    real_encode = codec.encode_sequence
    parent = os.getpid()

    def encode(frames, net, cfg, q):
        if q == 16 and os.getpid() != parent:
            raise NonFiniteError("reconstruction of q 16 is not finite")
        return real_encode(frames, net, cfg, q)

    monkeypatch.setattr(codec, "encode_sequence", encode)
    usable_cpus(2)
    code = main(["sweep", "--input", str(clip), "--weights", str(tmp_path / "w.drpg"),
                 "--q-set", "8,16", "--block-size", "16", "--search-range", "2",
                 "--output", str(tmp_path / "rd.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: reconstruction of q 16 is not finite\n"
    assert not (tmp_path / "rd.csv").exists()
