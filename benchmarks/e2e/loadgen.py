"""Load generation for the end-to-end benchmark.

One generator process, one connection, at most two threads:

* **open loop** — the calling thread sends on a fixed schedule of due
  instants (independent users do not wait for each other) while one
  reader thread timestamps responses.  Latency is measured from the
  instant a request was *due*, not from when it was actually written,
  so a stall in the system under test is charged to every request
  that was due during it; how late the generator itself ran is
  reported separately.
* **closed loop** — a single thread keeps a fixed number of requests
  in flight and sends the next one only when a response arrives
  (callers that each wait for their reply).

Everything random comes from a ``numpy`` generator the caller seeds
from ``--seed``; the system under test only ever sees the generated
request lines.  All clocks are ``time.monotonic`` so latencies can be
compared with ``ResponseFuture.resolved_at`` for in-process targets.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Callable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "PipeConnection",
    "closed_loop",
    "open_loop",
    "percentile",
    "poisson_schedule",
    "predict_line",
    "zipf_keys",
]

clock = time.monotonic


def poisson_schedule(rng: np.random.Generator, rate: float, count: int) -> np.ndarray:
    """``count`` due offsets (seconds from phase start) of a Poisson process."""
    return np.cumsum(rng.exponential(1.0 / rate, count))


def zipf_keys(rng: np.random.Generator, keys: np.ndarray, count: int,
              exponent: float = 1.1) -> np.ndarray:
    """``count`` draws from ``keys`` with Zipf(``exponent``) popularity.

    Rank ``r`` (1-based) of a seeded permutation of ``keys`` is drawn
    with probability proportional to ``r ** -exponent``, so a few hot
    entities repeat while the tail still covers the whole key space.
    """
    order = rng.permutation(keys)
    weights = np.arange(1, len(order) + 1, dtype=np.float64) ** -exponent
    return order[rng.choice(len(order), size=count, p=weights / weights.sum())]


def predict_line(request_id: int, keys: Sequence[int], cutoff: int) -> bytes:
    """One ``predict`` request of the JSON-lines serving protocol."""
    return (json.dumps({
        "op": "predict", "id": request_id,
        "entity_keys": [int(k) for k in keys], "cutoff": int(cutoff),
    }) + "\n").encode()


def percentile(values, q: float) -> float:
    """``q``-th percentile (linear interpolation) as a plain float."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class PipeConnection:
    """The single connection to a line server: one write fd, one read fd.

    ``send`` writes a whole request line; ``read_line`` blocks for the
    next response line.  For open-loop phases :meth:`expect` starts the
    reader thread that timestamps ``count`` response lines, and
    :meth:`collect` joins it.  Reads go through ``os.read`` in large
    chunks: every line completed by a chunk gets that chunk's arrival
    time, which is when the generator could first have seen it.
    """

    def __init__(self, write_fd: int, read_fd: int) -> None:
        self._write_fd = write_fd
        self._read_fd = read_fd
        self._buffer = b""
        self._ready: List[Tuple[bytes, float]] = []
        self._thread = None
        self._collected: List[Tuple[bytes, float]] = []

    def send(self, line: bytes) -> None:
        """Write one request line (handles short writes)."""
        view = memoryview(line)
        while view:
            view = view[os.write(self._write_fd, view):]

    def _fill(self) -> None:
        chunk = os.read(self._read_fd, 1 << 16)
        now = clock()
        if not chunk:
            raise EOFError("line server closed its output")
        parts = (self._buffer + chunk).split(b"\n")
        self._buffer = parts.pop()
        self._ready.extend((part, now) for part in parts)

    def read_line(self) -> Tuple[bytes, float]:
        """Next response line and the monotonic time it arrived."""
        while not self._ready:
            self._fill()
        return self._ready.pop(0)

    def expect(self, count: int) -> None:
        """Start the reader thread for ``count`` response lines."""
        self._collected = []

        def reader() -> None:
            try:
                while len(self._collected) < count:
                    if not self._ready:
                        self._fill()
                    take = count - len(self._collected)
                    self._collected.extend(self._ready[:take])
                    del self._ready[:take]
            except (EOFError, OSError):
                pass  # the server went away; the caller sees fewer responses

        self._thread = threading.Thread(target=reader, name="loadgen-reader", daemon=True)
        self._thread.start()

    def collect(self, timeout: float) -> List[Tuple[bytes, float]]:
        """Join the reader; returns the ``(line, arrival)`` pairs it got.

        Fewer pairs than expected means the server fell silent (or
        died) — the caller counts the missing responses as failed.
        """
        self._thread.join(timeout)
        self._thread = None
        return list(self._collected)


def open_loop(send: Callable[[int], None], due: np.ndarray,
              start: float = None) -> Tuple[float, np.ndarray]:
    """Call ``send(i)`` at ``start + due[i]`` for every ``i``, never early.

    The schedule does not slow down when the target does: a late send
    is followed immediately by every request that became due
    meanwhile.  ``start`` defaults to now; two threads that share a
    phase pass the same instant.  Returns ``(start, sent_at)`` in
    monotonic seconds; ``sent_at[i] - (start + due[i])`` is the
    generator's lateness.
    """
    sent_at = np.empty(len(due))
    if start is None:
        start = clock()
    for i, offset in enumerate(due):
        delay = start + offset - clock()
        if delay > 0:
            time.sleep(delay)
        sent_at[i] = clock()
        send(i)
    return start, sent_at


def closed_loop(conn: PipeConnection, lines: Sequence[bytes], in_flight: int) -> "ClosedLoopResult":
    """Drive every line through ``conn`` with ``in_flight`` outstanding.

    One thread: fill the window, then send the next line each time a
    response arrives (responses are in request order).  A connection
    that closes early ends the run; the missing responses are the
    caller's failures.
    """
    sent_at: List[float] = []
    received: List[Tuple[bytes, float]] = []
    max_outstanding = 0
    try:
        while len(received) < len(lines):
            while len(sent_at) < len(lines) and len(sent_at) - len(received) < in_flight:
                sent_at.append(clock())
                conn.send(lines[len(sent_at) - 1])
            max_outstanding = max(max_outstanding, len(sent_at) - len(received))
            received.append(conn.read_line())
    except (EOFError, OSError):
        pass
    return ClosedLoopResult(sent_at, received, max_outstanding)


class ClosedLoopResult:
    """What :func:`closed_loop` measured."""

    def __init__(self, sent_at: List[float], received: List[Tuple[bytes, float]],
                 max_outstanding: int) -> None:
        self.sent_at = sent_at
        self.received = received
        self.max_outstanding = max_outstanding

    @property
    def wall(self) -> float:
        """First send to last response, seconds."""
        return self.received[-1][1] - self.sent_at[0]

    def latencies_ms(self) -> np.ndarray:
        """Send→response time of every request, milliseconds."""
        arrivals = np.array([arrival for _, arrival in self.received])
        return (arrivals - np.array(self.sent_at[:len(arrivals)])) * 1000.0
