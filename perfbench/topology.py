"""Bring a workload's servers up, time it, and take them down again.

Servers run ``python -m repro.service`` with only the flags that shape
the topology (``--port 0``, ``--data-dir``, ``--follow``, ``--workers``);
every tuning flag keeps its shipped default.  A traced topology starts
the same processes through ``perfbench/launcher.py`` instead.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.service.client import ClusterClient, ServiceClient

from perfbench.procs import ServerProcess, Teardown
from perfbench.workloads import Workload, tenant_names

HOST = "127.0.0.1"
#: Give up on a server that has not become ready in this long.
READY_TIMEOUT = 60.0
_LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")


@dataclass
class Topology:
    """Running servers of one workload; ``servers[0]`` takes the writes."""

    servers: list[ServerProcess]
    data_dir: str
    setup_s: float = 0.0
    spans_paths: list[str] = field(default_factory=list)

    @property
    def primary(self) -> ServerProcess:
        return self.servers[0]

    @property
    def follower(self) -> Optional[ServerProcess]:
        return self.servers[1] if len(self.servers) > 1 else None

    def pids(self) -> list[int]:
        """Every live process of every server's session."""
        return [pid for server in self.servers for pid in server.members()]

    def stop(self) -> list[Teardown]:
        """Stop followers before the leader, then drop the data dirs."""
        teardowns = [server.stop() for server in reversed(self.servers)]
        shutil.rmtree(self.data_dir, ignore_errors=True)
        return teardowns


def _argv(service_args: list[str], spans_path: Optional[str]) -> list[str]:
    if spans_path is None:
        return [sys.executable, "-m", "repro.service", *service_args]
    return [sys.executable, _LAUNCHER, "--spans-out", spans_path, "--", *service_args]


def _env(root: str) -> dict:
    """The environment with the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    paths = [os.path.join(root, "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


async def _wait_port(server: ServerProcess, deadline: float) -> int:
    while True:
        port = server.poll_port()
        if port is not None:
            return port
        if time.monotonic() > deadline:
            raise RuntimeError(f"{server.name} did not listen in time")
        await asyncio.sleep(0.002)


async def start(
    workload: Workload,
    root: str,
    run_dir: str,
    label: str,
    *,
    traced: bool = False,
) -> Topology:
    """Start and await every server of ``workload``; time the set-up.

    The clock runs from the spawn of the first server until every server
    answers ``PING``, the follower is subscribed and tenants exist.
    """
    data_dir = os.path.join(run_dir, f"data-{label}")
    os.makedirs(data_dir)
    env = _env(root)
    topology = Topology([], data_dir)

    def spawn(name: str, args: list[str]) -> ServerProcess:
        spans = os.path.join(run_dir, f"spans-{label}-{name}.json") if traced else None
        if spans:
            topology.spans_paths.append(spans)
        server = ServerProcess(
            name, _argv(["--host", HOST, "--port", "0", *args], spans),
            cwd=run_dir, env=env,
            log_path=os.path.join(run_dir, f"{label}-{name}.log"),
        )
        topology.servers.append(server)
        return server

    deadline = time.monotonic() + READY_TIMEOUT
    started = time.perf_counter()
    try:
        if workload.topology == "replicated":
            leader = spawn("leader", ["--data-dir", os.path.join(data_dir, "leader")])
            leader_port = await _wait_port(leader, deadline)
            follower = spawn("follower", ["--follow", f"{HOST}:{leader_port}"])
            await _wait_port(follower, deadline)
            await _await_subscribed(leader_port, follower.port, deadline)
        elif workload.topology == "single":
            await _await_ping(await _wait_port(spawn("node", []), deadline))
        elif workload.topology == "durable":
            node = spawn("node", ["--data-dir", os.path.join(data_dir, "node")])
            await _await_ping(await _wait_port(node, deadline))
        elif workload.topology == "cluster":
            acceptor = spawn("acceptor", ["--workers", "2"])
            port = await _wait_port(acceptor, deadline)
            async with await ClusterClient.connect(HOST, port) as client:
                for name in tenant_names(workload):
                    await client.tcreate(name)
                await client.ping()
        else:
            raise ValueError(f"unknown topology {workload.topology!r}")
    except BaseException:
        topology.stop()
        raise
    topology.setup_s = time.perf_counter() - started
    return topology


async def _await_ping(port: int) -> None:
    async with await ServiceClient.connect(HOST, port) as client:
        await client.ping()


async def _await_subscribed(leader_port: int, follower_port: int, deadline: float) -> None:
    """Until the leader streams to one follower that reports connected."""
    async with await ServiceClient.connect(HOST, leader_port) as leader, \
            await ServiceClient.connect(HOST, follower_port) as follower:
        await leader.ping()
        await follower.ping()
        while True:
            leader_status = await leader.repl_status()
            follower_status = await follower.repl_status()
            if leader_status.get("replication", {}).get("followers") and (
                follower_status.get("follower", {}).get("connected")
            ):
                return
            if time.monotonic() > deadline:
                raise RuntimeError("follower did not subscribe in time")
            await asyncio.sleep(0.002)
