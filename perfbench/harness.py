"""Process plumbing shared by every workload.

Everything the benchmark launches goes through :class:`Bench`: one
checkout, one private state directory inside it, and an environment
scrubbed of anything that could leak a warm cache into a "cold" sample
(``HOME`` points into a fresh per-sample directory, ``REPRO_*`` and
``XDG_CACHE_HOME`` are removed).
"""

from __future__ import annotations

import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Iterations of the fixed pure-Python calibration loop (about 0.1 s on
#: a 2-vCPU x86 container).
CALIBRATION_ITERATIONS = 1_000_000


def scrubbed_environ(home: str) -> Dict[str, str]:
    """This process's environment without the variables that change where
    ``repro`` caches (``REPRO_*``, ``XDG_CACHE_HOME``) or what it injects
    (``REPRO_CHAOS``), with ``HOME`` and ``TMPDIR`` moved to ``home``."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "XDG_CACHE_HOME"
    }
    env["HOME"] = home
    env["TMPDIR"] = home
    return env


class BenchError(RuntimeError):
    """A sample could not be taken (launch failure, timeout, bad output)."""


@dataclass
class Launch:
    """One finished child process."""

    seconds: float
    returncode: int
    maxrss_mb: float
    stdout_path: str
    stderr_path: str

    def stdout(self) -> str:
        with open(self.stdout_path, encoding="utf-8") as handle:
            return handle.read()

    def stderr_tail(self, limit: int = 2000) -> str:
        with open(self.stderr_path, encoding="utf-8", errors="replace") as handle:
            return handle.read()[-limit:]


@dataclass
class Bench:
    """One benchmark invocation inside one checkout."""

    root: str
    #: Private directory for cached inputs, results and scratch work.
    state: str
    #: Scratch area of this invocation (removed when it ends).
    work: str
    python: str = sys.executable
    _counter: int = field(default=0, repr=False)

    @property
    def src(self) -> str:
        return os.path.join(self.root, "src")

    def fresh_dir(self, label: str) -> str:
        """A new empty directory under this invocation's work area."""
        self._counter += 1
        path = os.path.join(self.work, f"{self._counter:04d}-{label}")
        os.makedirs(path)
        return path

    def child_env(self, home: str) -> Dict[str, str]:
        env = scrubbed_environ(home)
        env["PYTHONPATH"] = self.src
        return env

    def repro_argv(self, args: Sequence[str]) -> List[str]:
        return [self.python, "-m", "repro.cli", *args]

    def run(self, argv: Sequence[str], label: str, timeout: float = 150.0) -> Launch:
        """Run ``argv`` to completion in a fresh sandbox; time it; read its RSS.

        The peak RSS comes from ``wait4`` on this one child, so it is the
        largest resident set of the child and of every worker it waited
        for, and never mixes in other samples.
        """
        sandbox = self.fresh_dir(label)
        home = os.path.join(sandbox, "home")
        os.makedirs(home)
        out_path = os.path.join(sandbox, "stdout")
        err_path = os.path.join(sandbox, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                list(argv),
                cwd=sandbox,
                env=self.child_env(home),
                stdout=out,
                stderr=err,
                stdin=subprocess.DEVNULL,
            )
            killer = threading.Timer(timeout, _kill, args=(proc,))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # Interrupted (SIGTERM, Ctrl-C): never leave the child behind.
                _kill(proc)
                proc.wait()
                raise
            finally:
                killer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        launch = Launch(
            seconds=seconds,
            returncode=proc.returncode,
            maxrss_mb=usage.ru_maxrss / 1024.0,
            stdout_path=out_path,
            stderr_path=err_path,
        )
        if proc.returncode < 0:
            raise BenchError(
                f"{label}: killed by signal {-proc.returncode} "
                f"(timeout {timeout}s?): {launch.stderr_tail()}"
            )
        return launch


def _kill(proc: subprocess.Popen) -> None:
    try:
        proc.send_signal(signal.SIGKILL)
    except ProcessLookupError:
        pass


def stop_process(proc: subprocess.Popen, grace: float = 20.0) -> Tuple[int, float]:
    """SIGTERM, wait up to ``grace``, then SIGKILL; return (exit code, max RSS MB)."""
    if proc.returncode is None:
        try:
            proc.send_signal(signal.SIGTERM)
        except ProcessLookupError:
            pass
        killer = threading.Timer(grace, _kill, args=(proc,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss / 1024.0
    return proc.returncode, 0.0


def http_json(url: str, timeout: float = 10.0) -> Tuple[int, Any]:
    """GET ``url``; return (status code, decoded JSON body)."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        body = error.read().decode("utf-8", errors="replace")
        try:
            return error.code, json.loads(body)
        except ValueError:
            return error.code, body


# -- noise diagnostics (recorded, never gated) --------------------------------


def calibration_seconds() -> float:
    """Time of a fixed pure-Python loop: a host-speed probe, not a metric."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i
    elapsed = time.perf_counter() - start
    if total < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed


def steal_ticks() -> Optional[int]:
    """Cumulative CPU steal ticks from ``/proc/stat`` (None off Linux)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if len(fields) > 8 and fields[0] == "cpu":
        return int(fields[8])
    return None


def host_facts(root: str) -> Dict[str, Any]:
    return {
        "cpus": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(root),
    }


def git_sha(root: str) -> Optional[str]:
    """HEAD of the checkout when it is a git work tree, else None."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        result = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = result.stdout.strip()
    return sha if result.returncode == 0 and sha else None


class NoiseProbe:
    """Wraps one sample: calibration loop next to it, steal delta across it."""

    def __init__(self) -> None:
        self.calibration = calibration_seconds()
        self._steal = steal_ticks()
        self._start = time.time()

    def finish(self, **extra: Any) -> Dict[str, Any]:
        steal = steal_ticks()
        record = {
            "calibration_s": self.calibration,
            "steal_ticks": (
                steal - self._steal
                if steal is not None and self._steal is not None
                else None
            ),
            "wall_clock": self._start,
        }
        record.update(extra)
        return record


# -- small statistics ----------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def p75(values: Sequence[float]) -> float:
    """Upper quartile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def make_work_dir(state: str) -> str:
    base = os.path.join(state, "work")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=base)
