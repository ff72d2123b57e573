"""Server processes: spawn in their own session, observe via /proc, stop.

Every server starts with ``start_new_session=True``, so the server and
everything it forks (cluster workers, the multiprocessing resource
tracker) share one session id equal to the server's pid.  Stopping is
what an operator does — ``SIGTERM`` to the server's pid — and anything
of the session still alive afterwards is a *survivor*: it is counted,
reported, and only then terminated, so the next run starts clean.
"""

from __future__ import annotations

import ctypes
import os
import re
import signal
import subprocess
import time
from dataclasses import dataclass, field
from typing import Optional

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_SERVING = re.compile(r"serving .* on (\S+):(\d+)")
#: ``prctl(PR_SET_CHILD_SUBREAPER)``: orphans of our servers (cluster
#: workers whose acceptor died) become our children, so we can reap them.
_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants so every process we caused is reapable."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # pragma: no cover - non-Linux
        pass


def _stat_fields(pid: int) -> Optional[list[str]]:
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            text = fh.read().decode("ascii", "replace")
    except OSError:
        return None
    # The command name may hold spaces and parentheses: split after it.
    return text.rsplit(")", 1)[1].split()


def session_members(sid: int) -> list[int]:
    """Pids of every live (non-zombie) process in session ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        # fields[0] is the state, fields[3] the session id.
        if fields is not None and int(fields[3]) == sid and fields[0] != "Z":
            members.append(int(entry))
    return sorted(members)


def cpu_seconds(pids: list[int]) -> float:
    """User + system CPU seconds consumed so far by ``pids``."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            # utime and stime are fields 14 and 15 of /proc/<pid>/stat.
            total += int(fields[11]) + int(fields[12])
    return total / _CLK_TCK


def peak_rss_mib(pids: list[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MiB."""
    total_kib = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kib / 1024.0


def cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode("utf-8", "replace").strip()
    except OSError:
        return ""


def affinity(pid: int) -> list[int]:
    try:
        return sorted(os.sched_getaffinity(pid))
    except OSError:
        return []


def host_cpu_times() -> tuple[int, int]:
    """``(steal, total)`` jiffies from the aggregate ``cpu`` line."""
    with open("/proc/stat") as fh:
        values = [int(v) for v in fh.readline().split()[1:]]
    steal = values[7] if len(values) > 7 else 0
    # guest time is already counted in user; count the first 8 fields.
    return steal, sum(values[:8])


def reap(pids: list[int]) -> None:
    """Collect the exit status of any of ``pids`` that became our child.

    Orphans are adopted by :func:`become_subreaper`; specific pids are
    reaped (never ``-1``) so no ``Popen`` object loses its status.
    """
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            pass


@dataclass
class Teardown:
    """What stopping one server left behind."""

    pid: int
    survivors: int
    survivor_cmdlines: list[str] = field(default_factory=list)
    exit_code: Optional[int] = None

    def as_dict(self) -> dict:
        return {
            "pid": self.pid,
            "survivors": self.survivors,
            "survivor_cmdlines": self.survivor_cmdlines,
            "exit_code": self.exit_code,
        }


class ServerProcess:
    """One server launched in a session of its own.

    ``argv`` is the full command; its output goes to ``log_path``, which
    is polled for the ``serving ... on HOST:PORT`` line the service
    prints once it listens.
    """

    def __init__(
        self, name: str, argv: list[str], *, cwd: str, env: dict, log_path: str,
    ) -> None:
        self.name = name
        self.argv = argv
        self.log_path = log_path
        self.port: Optional[int] = None
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=self._log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )

    @property
    def pid(self) -> int:
        return self.proc.pid

    def members(self) -> list[int]:
        """The server and every live process it started."""
        return session_members(self.proc.pid)

    def poll_port(self) -> Optional[int]:
        """The listening port once announced, else ``None``.

        Raises ``RuntimeError`` if the server exited before listening.
        """
        if self.port is not None:
            return self.port
        with open(self.log_path, "rb") as fh:
            match = _SERVING.search(fh.read().decode("utf-8", "replace"))
        if match:
            self.port = int(match.group(2))
            return self.port
        if self.proc.poll() is not None:
            raise RuntimeError(
                f"{self.name} exited with {self.proc.returncode} before "
                f"listening; see {self.log_path}"
            )
        return None

    def stop(self, grace: float = 5.0, settle: float = 0.5) -> Teardown:
        """SIGTERM the server, count survivors of its session, clean up.

        ``settle`` gives children of a cleanly exiting server the time a
        graceful shutdown would take to reap them before they count as
        survivors.
        """
        sid = self.proc.pid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        deadline = time.monotonic() + settle
        survivors = session_members(sid)
        while survivors and time.monotonic() < deadline:
            time.sleep(0.05)
            survivors = session_members(sid)
        result = Teardown(
            pid=sid,
            survivors=len(survivors),
            survivor_cmdlines=[cmdline(pid) for pid in survivors],
            exit_code=self.proc.returncode,
        )
        kill_session(sid, survivors)
        self._log.close()
        return result


def kill_session(sid: int, pids: list[int], grace: float = 2.0) -> None:
    """Terminate ``pids`` (TERM, then KILL) and wait until none is alive.

    TERM first lets the multiprocessing resource tracker — which ignores
    TERM but exits once the workers holding its pipe are gone — unlink
    the shared-memory segments it tracks before the session is gone.
    """
    for pid in pids:
        _signal(pid, signal.SIGTERM)
    deadline = time.monotonic() + grace
    while time.monotonic() < deadline:
        reap(pids)
        if not session_members(sid):
            return
        time.sleep(0.05)
    for pid in session_members(sid):
        _signal(pid, signal.SIGKILL)
    deadline = time.monotonic() + grace
    while session_members(sid) and time.monotonic() < deadline:
        reap(pids)
        time.sleep(0.02)
    reap(pids)


def _signal(pid: int, signum: int) -> None:
    try:
        os.kill(pid, signum)
    except ProcessLookupError:
        pass
