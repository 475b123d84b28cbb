"""JSON-lines request/response protocol for ``python -m repro serve``.

One request per input line, one response per output line, responses
**in request order** (so a pipelined client can match positionally or
by the echoed ``id``).  Requests:

::

    {"op": "predict", "entity_keys": [1017, 1044], "cutoff": 1700000000}
    {"op": "rank",    "entity_keys": [1017], "cutoff": 1700000000, "k": 5}
    {"op": "stats"}
    {"op": "stats", "format": "prometheus"}
    {"op": "health"}
    {"op": "ping"}
    {"op": "swap", "version": 3}
    {"op": "compare", "version": 4}
    {"op": "lifecycle"}

Optional fields: ``id`` (any JSON value, echoed back), ``deadline_ms``
(per-request deadline), per-entity ``cutoff`` arrays, and ``route``
(``auto``/``green``/``yellow``/``red``) to force the execution tier;
every predict/rank response reports the tier that answered as
``route`` plus its ``route_cost``.  Responses:

::

    {"id": ..., "status": "ok", "predictions": [0.91, 0.13], "degraded": false}
    {"id": ..., "status": "ok", "rankings": [{"items": [...], "scores": [...]}], ...}
    {"id": ..., "status": "error", "error": "queue_full", "message": "..."}

``stats`` answers the full telemetry snapshot (windowed ``serve.*``
percentiles, the service's event log, sampled request traces) as JSON, or — with
``"format": "prometheus"`` — the whole metrics registry rendered as
Prometheus text format in the ``prometheus`` response field.
``health`` is the cheap probe: degradation state, queue depth, and
the current SLO window.  Predict/rank responses echo the request ID
assigned at ingress as ``request_id`` and the label of the model they
were **admitted under** as ``model_version`` — during a hot swap, a
response's ``model_version`` is the model that actually answered it,
not whatever happens to be live when the line is written.

Lifecycle verbs drive zero-downtime model management on a running
service: ``swap`` hot-swaps to another registry version (warmed off
the hot path; in-flight requests finish on the old model), ``compare``
replays the recently served batches on the live model and on a
challenger version and answers the report (divergence, errors, cost,
route mix) without swapping, and ``lifecycle`` reports the live
version, transition history, and the last compare report.  A verb
executes at its own position in the stream — every earlier line has
been admitted and answered by the old model, and no later line is
parsed until the verb finished — so a piped script gets deterministic
before/after semantics.

Error kinds: ``bad_request``, ``queue_full``, ``deadline_exceeded``,
``closed``, ``internal``.  The loop itself never crashes on a bad
line — malformed JSON is answered with a ``bad_request`` error and the
stream continues.

The loop is **one thread** (see :func:`serve_loop`): a lone request on
an idle server is dispatched at once, and whatever piled up in the
pipe while a batch ran is the next batch — a burst of piped lines
coalesces like concurrent programmatic callers, without a timer.
"""

from __future__ import annotations

import json
import select
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, TextIO, Tuple

import numpy as np

from repro.obs import get_logger
from repro.obs.report import render_prometheus
from repro.serve.batcher import (
    DeadlineExceededError,
    QueueFullError,
    ResponseFuture,
    ServiceClosedError,
)
from repro.serve.service import PredictionService

__all__ = ["GracefulShutdown", "ShutdownLatch", "parse_request", "serve_loop"]

_log = get_logger("serve.protocol")

_OPS = ("predict", "rank", "stats", "health", "ping", "swap", "compare", "lifecycle")


class BadRequestError(ValueError):
    """The request line is malformed; nothing was submitted."""


class GracefulShutdown(Exception):
    """Raised by :class:`ShutdownLatch` out of the loop's blocking read."""


class ShutdownLatch:
    """SIGTERM/SIGINT handler that only ever lands **between turns**.

    Install :meth:`request` with ``signal.signal``.  While the loop is
    blocked for input it raises :class:`GracefulShutdown` out of the
    read (PEP 475 would otherwise resume it); mid-batch or mid-write it
    only latches, and the loop stops once the turn is answered.
    """

    def __init__(self) -> None:
        self.requested = False
        self.waiting = False

    def request(self, signum=None, frame=None) -> None:
        """Ask the loop to stop after everything admitted is answered."""
        self.requested = True
        if self.waiting:
            raise GracefulShutdown()


def parse_request(line) -> Dict[str, Any]:
    """Decode one request line (``str`` or UTF-8 bytes) into a validated dict."""
    try:
        request = json.loads(line)
    except ValueError as err:  # JSONDecodeError, or bytes that are not UTF-8
        raise BadRequestError(f"invalid JSON: {err}") from err
    if not isinstance(request, dict):
        raise BadRequestError("request must be a JSON object")
    op = request.get("op")
    if op not in _OPS:
        raise BadRequestError(f"op must be one of {'|'.join(_OPS)}, got {op!r}")
    if op in ("predict", "rank"):
        keys = request.get("entity_keys")
        if not isinstance(keys, list) or not keys:
            raise BadRequestError("entity_keys must be a non-empty list")
        if "cutoff" not in request:
            raise BadRequestError("cutoff is required")
    if op == "stats":
        fmt = request.get("format", "json")
        if fmt not in ("json", "prometheus"):
            raise BadRequestError(f"stats format must be json|prometheus, got {fmt!r}")
    return request


def _error(request_id, kind: str, message: str) -> Dict[str, Any]:
    return {"id": request_id, "status": "error", "error": kind, "message": message}


def _ok(request_id, /, **fields) -> Dict[str, Any]:
    return {"id": request_id, "status": "ok", **fields}


def _submit(service: PredictionService, request: Dict[str, Any]) -> ResponseFuture:
    keys = np.asarray(request["entity_keys"])
    cutoff = request["cutoff"]
    deadline_ms = request.get("deadline_ms")
    route = request.get("route")
    if request["op"] == "rank":
        return service.rank_async(keys, cutoff, k=request.get("k"),
                                  deadline_ms=deadline_ms, route=route)
    return service.predict_async(keys, cutoff, deadline_ms=deadline_ms, route=route)


def _render(service: PredictionService, request: Dict[str, Any],
            future: ResponseFuture) -> Dict[str, Any]:
    value = future.result(0.0)  # the turn has executed: resolved, or a bug
    # model_version is the slot this request was admitted under — not
    # necessarily the one live at write time (hot swaps happen mid-stream).
    response = _ok(request.get("id"), degraded=service.degraded,
                   request_id=future.request_id, model_version=future.context.label)
    decision = getattr(value, "route", None)
    if decision is not None:
        # The routed tier that answered this request's batch, plus the
        # router's cost accounting for that batch.
        response["route"] = decision["tier"]
        response["route_cost"] = {
            "est_cost_ms": decision["est_cost_ms"],
            "realized_cost_ms": decision["realized_cost_ms"],
        }
    if request["op"] == "rank":
        response["rankings"] = [
            {"items": np.asarray(items).tolist(), "scores": np.asarray(scores).tolist()}
            for items, scores in value
        ]
    else:
        response["predictions"] = np.asarray(value).tolist()
    return response


def _future_error(request_id, err: BaseException) -> Dict[str, Any]:
    if isinstance(err, DeadlineExceededError):
        return _error(request_id, "deadline_exceeded", str(err))
    if isinstance(err, ServiceClosedError):
        return _error(request_id, "closed", str(err))
    return _error(request_id, "internal", f"{type(err).__name__}: {err}")


def _lifecycle_execute(service: PredictionService, request: Dict[str, Any]) -> Dict[str, Any]:
    """Execute a swap/compare/lifecycle verb, returning its response.

    The loop drains everything admitted earlier before calling this
    and parses no later line until it returns — challenger warming
    included — which is the verb's ordering guarantee.
    """
    request_id = request.get("id")
    op = request["op"]
    try:
        version = request.get("version")
        version = int(version) if version is not None else None
        if op == "swap":
            transition = service.swap(
                version=version, reason=request.get("reason", "swap requested over the wire"),
            )
            return _ok(request_id, swapped=transition, live=service.name)
        if op == "compare":
            return _ok(request_id, compare=service.compare(version=version))
        return _ok(request_id, lifecycle=service.lifecycle())
    except (ValueError, RuntimeError) as err:
        return _error(request_id, "bad_request", f"{type(err).__name__}: {err}")
    except Exception as err:  # registry/IO failures must not kill the loop
        return _error(request_id, "internal", f"{type(err).__name__}: {err}")


def _admit(service: PredictionService, line, run_pending: Callable[[], None]):
    """One input line → ``(request, future-or-response)``.

    Predict/rank are only *admitted* here (they execute with the rest
    of the turn).  Every other verb except ``ping`` first drains what
    was admitted before it, so ``stats``/``health`` count every earlier
    request and a lifecycle verb never overtakes one.
    """
    try:
        request = parse_request(line)
    except BadRequestError as err:
        return {}, _error(None, "bad_request", str(err))
    request_id = request.get("id")
    op = request["op"]
    if op == "ping":
        return request, _ok(request_id, pong=True)
    if op in ("predict", "rank"):
        try:
            return request, _submit(service, request)
        except QueueFullError as err:
            return request, _error(request_id, "queue_full", str(err))
        except ServiceClosedError as err:
            return request, _error(request_id, "closed", str(err))
        except (ValueError, KeyError) as err:
            return request, _error(request_id, "bad_request", str(err))
    run_pending()
    if op == "stats" and request.get("format") == "prometheus":
        return request, _ok(request_id, prometheus=render_prometheus())
    if op == "stats":
        return request, _ok(request_id, stats=service.stats())
    if op == "health":
        return request, _ok(request_id, health=service.health())
    return request, _lifecycle_execute(service, request)


def _answer(service: PredictionService, request: Dict[str, Any], payload) -> str:
    """The response line for one entry of an executed turn."""
    if isinstance(payload, ResponseFuture):
        try:
            payload = _render(service, request, payload)
        except Exception as err:
            payload = dict(_future_error(request.get("id"), err),
                           request_id=payload.request_id)
    return json.dumps(payload)


_CHUNK = 1 << 16


def _turns(stdin: TextIO, latch: ShutdownLatch, hold_s: float, full: int) -> Iterator[List]:
    """Block for input, then yield every complete line already there;
    an empty list ends the turn (the caller executes and answers).

    A stream with a binary ``buffer`` (``sys.stdin``, a pipe) is read
    with ``read1`` — one ``read(2)``, whatever it returns; an in-memory
    text stream is all available at once.  After each yield — the
    caller has admitted those lines meanwhile — a turn of fewer than
    ``full`` lines takes what has arrived since, without waiting (with
    the ``max_wait_ms`` cap set, waiting up to ``hold_s`` from the
    turn's start).  So a client that writes a burst line by line gets
    one batch whether this process woke at its first line (client on
    another CPU) or after its last (same CPU).  Ends at EOF or when
    ``latch`` fires.
    """
    raw = getattr(stdin, "buffer", None)
    if raw is None:
        yield stdin.readlines()
        yield []
        return
    tail = b""
    while True:
        latch.waiting = True
        try:
            chunk = b"" if latch.requested else raw.read1(_CHUNK)
        except GracefulShutdown:
            chunk = b""
        finally:
            latch.waiting = False
        if not chunk:
            if latch.requested:
                _log.info("graceful shutdown requested; draining in-flight requests")
            if tail:
                yield [tail]
                yield []
            return
        hold_until = time.monotonic() + hold_s
        taken = 0
        while chunk:
            *lines, tail = (tail + chunk).split(b"\n")
            if lines:
                taken += len(lines)
                yield lines
            chunk = b""
            if taken < full and select.select(
                    [raw], [], [], max(hold_until - time.monotonic(), 0.0))[0]:
                chunk = raw.read1(_CHUNK)  # b"" at EOF; the blocking read sees it again
        yield []


def serve_loop(service: PredictionService, stdin: TextIO, stdout: TextIO,
               shutdown: Optional[ShutdownLatch] = None) -> int:
    """Run the JSON-lines loop until EOF (or ``shutdown`` fires); returns
    requests answered.

    One thread, one turn at a time: take the available lines, admit
    them (and whatever arrived while admitting, up to a full batch),
    execute the queued micro-batches on this thread, write every
    answer in request order, flush once.  The service's worker thread
    never runs while the loop drives.
    """
    latch = shutdown if shutdown is not None else ShutdownLatch()
    hold_s, full = service.config.max_wait_ms / 1000.0, service.config.max_batch_size
    answered = 0
    with service.drive() as run_pending:
        entries: List = []
        for lines in _turns(stdin, latch, hold_s, full):
            if lines:
                entries.extend(_admit(service, line, run_pending)
                               for line in lines if line.strip())
                continue
            run_pending()
            if entries:
                stdout.write("".join(
                    _answer(service, request, payload) + "\n"
                    for request, payload in entries))
                stdout.flush()
                answered += len(entries)
                entries = []
    return answered
