"""Closed-loop HTTP load generator for ``repro serve``.

One process, ``connections`` threads (at most the host's cores), each
sending its next request only after the previous reply arrived, the way
callers that wait for replies behave.  ``repro serve`` closes every
connection after one response, so each request opens a fresh TCP
connection; its latency runs from before the connect to the last body
byte.  A request that is refused, reset or times out is a failed
outcome with infinite latency, never a dropped sample.
"""

from __future__ import annotations

import http.client
import math
import os
import threading
import time
from dataclasses import dataclass

#: Seconds a single request may take before it counts as failed.
REQUEST_TIMEOUT = 30.0


@dataclass
class Outcome:
    request: object
    start: float
    end: float
    status: int | None
    body: bytes | None
    error: str | None

    @property
    def latency(self) -> float:
        if self.error is not None or self.status != 200:
            return math.inf
        return self.end - self.start


@dataclass
class Batch:
    outcomes: list[Outcome]
    start: float
    end: float
    client_cpu_s: float

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def client_cpu_share(self) -> float:
        """Client CPU seconds per wall second (1.0 = one busy core)."""
        return self.client_cpu_s / self.wall


def default_connections() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def send(port: int, path: str) -> tuple[int | None, bytes | None, str | None]:
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read(), None
    except (OSError, http.client.HTTPException) as exc:
        return None, None, f"{type(exc).__name__}: {exc}"
    finally:
        conn.close()


def run_batch(port: int, requests: list, connections: int) -> Batch:
    """Send ``requests`` (objects with a ``path``) in a closed loop."""
    outcomes: list[Outcome | None] = [None] * len(requests)
    cursor = iter(range(len(requests)))
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            request = requests[index]
            start = time.perf_counter()
            status, body, error = send(port, request.path)
            outcomes[index] = Outcome(request, start, time.perf_counter(),
                                      status, body, error)

    threads = [threading.Thread(target=client)
               for _ in range(max(1, connections))]
    cpu0 = time.process_time()
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = time.perf_counter()
    return Batch(outcomes, start, end, time.process_time() - cpu0)
