"""Starting, timing and stopping the processes a workload runs.

Each process is reaped with ``os.wait4``, whose ``ru_maxrss`` on Linux is
the peak resident set of the process *or any descendant it reaped* — so
a grid process's figure includes its pool workers.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from perfbench import loadgen

#: The checkout the benchmark runs in (this file's grandparent).
CHECKOUT = pathlib.Path(__file__).resolve().parent.parent
#: Seconds any one benchmark subprocess may run before it is killed.
CHILD_TIMEOUT = 150.0
#: Seconds a server gets to start answering, and to stop after SIGINT.
SERVER_TIMEOUT = 60.0

_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")


class WorkloadError(RuntimeError):
    """A benchmark subprocess failed."""


@dataclass
class Measured:
    returncode: int
    start: float
    end: float
    maxrss_mb: float


def child_env(cache_dir: pathlib.Path | None = None) -> dict[str, str]:
    """The environment of a program process: the checkout's ``src`` on
    the path, no inherited ``REPRO_*`` settings, and an isolated store."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(CHECKOUT / "src")
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def _reap(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Wait for ``proc`` (killing it after ``timeout``); returns its exit
    code and peak RSS in MB."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024


def run_measured(cmd: list[str], *, env: dict, log: pathlib.Path | None = None,
                 timeout: float = CHILD_TIMEOUT) -> Measured:
    """Run ``cmd`` to completion from the checkout root."""
    with open(log or os.devnull, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=CHECKOUT,
                                stdout=subprocess.DEVNULL, stderr=err)
        code, maxrss = _reap(proc, timeout)
        end = time.perf_counter()
    return Measured(code, start, end, maxrss)


def log_tail(log: pathlib.Path, lines: int = 15) -> str:
    try:
        return "\n".join(log.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def python_cmd(*args: str) -> list[str]:
    return [sys.executable, *args]


def import_seconds() -> float:
    """Fresh-interpreter start plus ``import repro.cli``, spawn to exit."""
    run = run_measured(python_cmd("-c", "import repro.cli"), env=child_env())
    if run.returncode != 0:
        raise WorkloadError("`import repro.cli` failed")
    return run.end - run.start


#: What the host-speed probe runs: imports of numpy and of standard-library
#: modules that ``repro`` loads too, and nothing from the repository.
PROBE = ("import numpy, json, asyncio, http.client, multiprocessing, "
         "concurrent.futures, dataclasses, argparse, statistics, hashlib")


def probe_seconds() -> float:
    """An isolated fresh interpreter running :data:`PROBE`, spawn to exit.

    No change to the program can move this time; a change in the host's
    speed moves it as it moves interpreter start-up, simulation and HTTP.
    """
    run = run_measured(python_cmd("-I", "-c", PROBE), env=dict(os.environ))
    if run.returncode != 0:
        raise WorkloadError("the host-speed probe failed")
    return run.end - run.start


def run_grid(work: pathlib.Path, tag: str, spec: dict, trace: bool = False,
             timeout: float = CHILD_TIMEOUT) -> tuple[Measured, dict]:
    """One grid repetition in a fresh process and an empty cache dir.

    Returns the measured process and the child's report (cells, the
    timestamp of the last store write, spans when traced).
    """
    cache = work / f"cache-{tag}"
    spec_path = work / f"spec-{tag}.json"
    out = work / f"out-{tag}.json"
    log = work / f"log-{tag}.txt"
    cache.mkdir()
    spec_path.write_text(json.dumps(spec))
    cmd = python_cmd("-m", "perfbench.child", "grid", str(out),
                     str(spec_path), *(["--trace"] if trace else []))
    try:
        run = run_measured(cmd, env=child_env(cache), log=log,
                           timeout=timeout)
        if run.returncode != 0:
            raise WorkloadError(f"grid process exited {run.returncode}:\n"
                                f"{log_tail(log)}")
        return run, json.loads(out.read_text())
    finally:
        shutil.rmtree(cache, ignore_errors=True)
        for path in (spec_path, out, log):
            path.unlink(missing_ok=True)


class Server:
    """One ``repro serve`` process on an ephemeral port.

    ``ready`` is the seconds from spawn until ``/healthz`` answered.
    """

    def __init__(self, cmd: list[str], env: dict, log: pathlib.Path):
        self.log = log
        self._log_file = open(log, "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=env, cwd=CHECKOUT,
                                     stdout=subprocess.DEVNULL,
                                     stderr=self._log_file)
        try:
            self.port = self._wait_port()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.ready = time.perf_counter() - start

    def _check_alive(self) -> None:
        if self.proc.poll() is not None:
            raise WorkloadError(f"server exited {self.proc.returncode}:\n"
                                f"{log_tail(self.log)}")

    def _wait_port(self) -> int:
        deadline = time.perf_counter() + SERVER_TIMEOUT
        while time.perf_counter() < deadline:
            match = _LISTENING.search(self.log.read_text(errors="replace"))
            if match:
                return int(match.group(1))
            self._check_alive()
            time.sleep(0.001)
        raise WorkloadError("server did not report its port")

    def _wait_healthy(self) -> None:
        deadline = time.perf_counter() + SERVER_TIMEOUT
        while time.perf_counter() < deadline:
            status, _, _ = loadgen.send(self.port, "/healthz")
            if status == 200:
                return
            self._check_alive()
            time.sleep(0.001)
        raise WorkloadError("server never answered /healthz")

    def stop(self) -> float:
        """SIGINT the server and reap it; returns its peak RSS in MB."""
        try:
            if self.proc.returncode is not None:
                return 0.0
            self.proc.send_signal(signal.SIGINT)
            _, maxrss = _reap(self.proc, SERVER_TIMEOUT)
            return maxrss
        finally:
            self._log_file.close()


def serve_cmd(store: pathlib.Path, spans_out: pathlib.Path | None) -> list[str]:
    """``repro serve`` with program defaults, traced when ``spans_out``."""
    args = ["--port", "0", "--store", str(store)]
    if spans_out is None:
        return python_cmd("-m", "repro", "serve", *args)
    return python_cmd("-m", "perfbench.child", "serve", str(spans_out),
                      "--", *args)
