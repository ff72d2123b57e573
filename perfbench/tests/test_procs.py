"""Teardown must find processes a stopped server left behind."""

import os
import sys
import time

from perfbench import procs

_LEAVES_A_CHILD = """
import os, sys, time
if os.fork() == 0:
    time.sleep(60)          # the child ignores its parent's fate
    sys.exit(0)
print("serving test on 127.0.0.1:4321", flush=True)
time.sleep(60)              # SIGTERM ends only this process
"""

_CLEAN = """
import time
print("serving test on 127.0.0.1:4322", flush=True)
time.sleep(60)
"""


def _start(tmp_path, name, script):
    return procs.ServerProcess(
        name, [sys.executable, "-c", script], cwd=str(tmp_path),
        env=dict(os.environ), log_path=str(tmp_path / f"{name}.log"),
    )


def _wait_port(server):
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        port = server.poll_port()
        if port is not None:
            return port
        time.sleep(0.01)
    raise AssertionError("no serving line")


def test_a_left_behind_child_is_counted_and_then_removed(tmp_path):
    procs.become_subreaper()
    server = _start(tmp_path, "leaky", _LEAVES_A_CHILD)
    assert _wait_port(server) == 4321
    deadline = time.monotonic() + 10
    while len(server.members()) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert len(server.members()) == 2
    teardown = server.stop(settle=0.2)
    assert teardown.survivors == 1
    assert teardown.survivor_cmdlines and "python" in teardown.survivor_cmdlines[0]
    assert procs.session_members(server.pid) == []


def test_a_clean_stop_reports_no_survivors(tmp_path):
    server = _start(tmp_path, "clean", _CLEAN)
    assert _wait_port(server) == 4322
    teardown = server.stop(settle=0.2)
    assert teardown.survivors == 0
    assert teardown.exit_code is not None
    assert procs.session_members(server.pid) == []


def test_cpu_and_memory_are_read_from_proc():
    me = [os.getpid()]
    assert procs.cpu_seconds(me) > 0
    assert procs.peak_rss_mib(me) > 1
    assert procs.affinity(os.getpid())
