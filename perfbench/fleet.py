"""Server processes for the benchmark, and what ``/proc`` says about them.

Every server is a real ``repro serve`` (or ``repro route``) process started
from the checkout's ``src/``, so the load generator never shares a GIL with
the code it measures.  :class:`Fleet` starts them, reads the bound port from
the address line ``repro serve`` prints first, and stops them with SIGINT
(the CLI's clean shutdown), waiting for each to end.

CPU time and peak resident memory come from ``/proc/<pid>/stat`` and
``/proc/<pid>/status``, stolen time from ``/proc/stat`` (psutil is not
assumed).
"""

from __future__ import annotations

import os
import platform
import re
import select
import signal
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Tuple

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_ADDRESS = re.compile(r"serving on ([^:\s]+):(\d+)")
START_TIMEOUT = 60.0
STOP_TIMEOUT = 20.0


def cpu_seconds(pid: int) -> float:
    """utime + stime of *pid* (all threads), in seconds."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields after the command name start at field 3 (state), so utime
    # (field 14) and stime (field 15) sit at offsets 11 and 12.
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of *pid*, in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def stolen_seconds(cpu: int) -> float:
    """Time the hypervisor ran something else while *cpu* had work (``steal``
    in ``/proc/stat``), in seconds since boot."""
    label = f"cpu{cpu} "
    with open("/proc/stat", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(label):
                # cpuN user nice system idle iowait irq softirq steal ...
                return int(line.split()[8]) / _CLOCK_TICKS
    return 0.0


def self_cpu_seconds() -> float:
    """CPU time of the load generator process itself (all threads)."""
    times = os.times()
    return times.user + times.system


class Server:
    """One running server process."""

    def __init__(self, name: str, process: subprocess.Popen, host: str, port: int) -> None:
        self.name = name
        self.process = process
        self.address: Tuple[str, int] = (host, port)

    @property
    def pid(self) -> int:
        return self.process.pid


def bench_cpu() -> int:
    """The one CPU the load generator and every server process run on.

    The loop is closed, so the load generator and the servers take turns on
    a request; on one CPU their work runs one after the other, and the
    reference kernel (see :mod:`reference`) run on that CPU between slices
    measures the speed all of it ran at.  Two CPUs would let each drift on
    its own, and every round trip would add a cross-CPU wake-up.  Server
    processes inherit the load generator's CPU mask when they start.
    """
    return sorted(os.sched_getaffinity(0))[-1]


class Fleet:
    """The server processes of one set-up; a context manager that stops them."""

    def __init__(self, root: str) -> None:
        self._root = root
        self._env = dict(os.environ)
        source = os.path.join(root, "src")
        self._env["PYTHONPATH"] = source + (
            os.pathsep + self._env["PYTHONPATH"] if self._env.get("PYTHONPATH") else ""
        )
        self.servers: List[Server] = []

    def start(self, name: str, argv: Sequence[str]) -> Server:
        """Run ``python -m repro.cli <argv>`` and wait for its address line."""
        return self.start_many([(name, argv)])[0]

    def start_many(self, specs: Sequence[Tuple[str, Sequence[str]]]) -> List[Server]:
        """Start several servers at once, then wait for each address line."""
        started = []
        for name, argv in specs:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", *argv],
                cwd=self._root,
                env=self._env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
            )
            # Registered before its address is known, so stop() reaps it
            # even if a sibling fails to come up.
            server = Server(name, process, "", 0)
            self.servers.append(server)
            started.append((server, argv))
        for server, argv in started:
            ready, _, _ = select.select([server.process.stdout], [], [], START_TIMEOUT)
            line = server.process.stdout.readline() if ready else ""
            match = _ADDRESS.search(line)
            if match is None:
                raise RuntimeError(
                    f"{server.name}: no address line from 'repro {argv[0]}' (got {line!r})")
            server.address = (match.group(1), int(match.group(2)))
        return [server for server, _ in started]

    def cpu_seconds(self) -> float:
        return sum(cpu_seconds(server.pid) for server in self.servers)

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(server.pid) for server in self.servers)

    def stop(self) -> None:
        """SIGINT every server (routers first), then wait for each to end."""
        for server in reversed(self.servers):
            if server.process.poll() is None:
                server.process.send_signal(signal.SIGINT)
        for server in reversed(self.servers):
            try:
                server.process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                server.process.kill()
                server.process.wait(timeout=STOP_TIMEOUT)
            if server.process.stdout is not None:
                server.process.stdout.close()
        self.servers = []

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def load_average() -> List[float]:
    return [round(value, 2) for value in os.getloadavg()]


def provenance(root: str, seed: int) -> Dict[str, object]:
    """Host and revision stamp carried by every result."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "revision": _git_describe(root),
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_describe(root: str) -> Optional[str]:
    """``git describe`` of the checkout, or ``"unknown"`` outside a repository."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"  # never let git walk up into a repository around the checkout
    try:
        result = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 and result.stdout.strip() else "unknown"
