"""Open-loop HTTP load from one process over a fixed number of connections.

The schedule -- when each request is due and what it asks for -- is
built up front from a seeded generator, so the offered load does not
depend on how fast the server answers.  Each connection takes the next
request in due order, waits until it is due, and sends it; a request's
latency runs from when it was due, so a stall also counts against the
requests queued behind it.  *Lateness* is how long after the later of
its due time and its connection becoming free a request was actually
sent: the generator's own delay, separate from the server's.
"""

from __future__ import annotations

import hashlib
import http.client
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Request:
    due: float            # seconds after the schedule starts
    path: str
    cold: bool = False    # a never-cached seed
    revalidate: bool = False  # send If-None-Match when an ETag is known


@dataclass
class Sample:
    request: Request
    status: int           # 0 when the connection failed
    latency_ms: float     # done - due
    lateness_ms: float
    body_sha: str | None  # of a 200 body
    sent_etag: bool


def run_schedule(port: int, schedule: list[Request], connections: int, etags: dict) -> list[Sample]:
    """Play ``schedule`` against ``127.0.0.1:port``; one sample per request.

    ``etags`` maps paths to the last ETag seen; it is read for
    revalidating requests and updated from 200 responses.
    """
    samples: list[Sample | None] = [None] * len(schedule)
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def worker() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        free_at = start
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                req = schedule[i]
                due = start + req.due
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                headers = {}
                etag = etags.get(req.path) if req.revalidate else None
                if etag is not None:
                    headers["If-None-Match"] = etag
                try:
                    conn.request("GET", req.path, headers=headers)
                    resp = conn.getresponse()
                    body = resp.read()
                    status = resp.status
                    if status == 200:
                        etags[req.path] = resp.getheader("ETag")
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
                    status, body = 0, b""
                done = time.perf_counter()
                samples[i] = Sample(
                    request=req,
                    status=status,
                    latency_ms=(done - due) * 1e3,
                    lateness_ms=(sent - max(due, free_at)) * 1e3,
                    body_sha=hashlib.sha256(body).hexdigest() if status == 200 else None,
                    sent_etag=etag is not None,
                )
                free_at = done
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return samples  # type: ignore[return-value]


def backlog_grew(samples: list[Sample], limit_ms: float) -> bool:
    """Did requests fall further behind as the step went on?

    True when the median latency of the last tenth of the schedule
    exceeds the latency limit.
    """
    tail = samples[-max(1, len(samples) // 10):]
    lat = sorted(s.latency_ms for s in tail)
    return lat[len(lat) // 2] > limit_ms
