"""The four workloads: set-up, measured phases, output checks.

Every workload walks the path a user runs — ``repro fit`` (a CLI
subprocess), then serving the saved model, then its own main traffic
— so every end-to-end metric is defined on every workload; what
differs is where the time goes (see README.md for the table):

``fit_churn``
    The analyst: fit the churn query at scale 4, then batch-score
    everyone through ``repro serve`` with a few spot checks.
``serve_gnn_point``
    The application: single-entity predicts against the plain GNN on
    an open-loop rate ladder, then closed-loop point and bulk phases.
``serve_routed_mixed``
    The application on a ``--route auto`` model: closed loop, mixed
    request sizes; the router keeps the GNN idle.
``ingest_under_load``
    Writes beside reads, in process (``repro ingest`` and ``repro
    serve`` share no live graph): paced event batches through the
    ``refresh_graph`` barrier under open-loop predicts, then catch-up.

Set-up is the generator's own preparation (dataset for keys and
labels, request schedules, the segment log); it is repeated and the
median reported.  Everything the product does is in a measured phase.
"""

from __future__ import annotations

import gc
import json
import math
import os
import shutil
import threading
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from loadgen import (
    clock,
    closed_loop,
    open_loop,
    percentile,
    poisson_schedule,
    predict_line,
    zipf_keys,
)
from product import DATASET, PRODUCT_SEED, TASK, FitResult, ServeProcess, run_fit

__all__ = ["WORKLOADS", "Tally", "run_workload"]

#: Set-up runs this many times per run; the median is ``setup_s``.
SETUP_REPEATS = 3
#: Rows per bulk request (one in flight).
BULK_ROWS = 256
#: Reference open-loop rate on the ``serve_gnn_point`` ladder.
REFERENCE_RATE = 400
#: A ladder step passes when its p99 is within this limit (ms).
LATENCY_LIMIT_MS = 20.0
#: Request sizes of the routed workload's mix, and their weights.
MIXED_SIZES = (1, 4, 16, 64, 256)
MIXED_WEIGHTS = (0.5, 0.2, 0.15, 0.1, 0.05)
#: Served scores may trail the fit's own test AUROC by at most this.
AUROC_SLACK = 0.03


class Tally:
    """Attempted/failed operations and failed output checks of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.phases: Dict[str, Dict[str, float]] = {}

    def check(self, ok: bool, message: str) -> bool:
        """Record ``message`` as a failed output check unless ``ok``."""
        if not ok and len(self.problems) < 50:
            self.problems.append(message)
        return bool(ok)

    def phase(self, name: str, sent: int, failed: int, **extra: float) -> None:
        """Account one phase: every operation sent, and those that failed."""
        self.attempted += sent
        self.failed += failed
        self.phases[name] = {"sent": sent, "succeeded": sent - failed, "failed": failed, **extra}


# ----------------------------------------------------------------------
# Response checks
# ----------------------------------------------------------------------
#: What :func:`read_response` reports for an admission-control refusal.
REFUSED = "refused (queue_full)"


def read_response(line: bytes, index: int, keys: np.ndarray, tiers: Optional[List[str]]):
    """``(scores, None)`` for a good response line, else ``(None, problem)``."""
    try:
        response = json.loads(line)
    except ValueError:
        return None, "response is not JSON"
    if response.get("error") == "queue_full":
        return None, REFUSED
    if response.get("status") != "ok":
        return None, f"status {response.get('status')!r} ({response.get('error')})"
    if response.get("id") != index:
        return None, f"out of order: id {response.get('id')!r} at position {index}"
    values = np.asarray(response.get("predictions", []), dtype=np.float64)
    if values.shape != (len(keys),):
        return None, f"{values.size} scores for {len(keys)} keys"
    if not (np.isfinite(values).all() and (values >= 0).all() and (values <= 1).all()):
        return None, "score not finite in [0, 1]"
    if tiers is not None and response.get("route") not in tiers:
        return None, f"route {response.get('route')!r} not in {tiers}"
    return values, None


def check_responses(
    tally: Tally, phase: str, requests: Sequence[np.ndarray], received,
    tiers: Optional[List[str]] = None, refusals_ok: bool = False,
) -> List[Optional[np.ndarray]]:
    """Validate one phase's responses; returns scores per request.

    A response is good when it is ``status: ok``, echoes the id of the
    request at its position (responses come back in request order),
    carries one finite score in [0, 1] per requested key and — for a
    routed model — names a ``route`` among the model's tiers.  A
    missing or bad response yields ``None``, counts as failed and
    fails the run's output check; with ``refusals_ok`` (open-loop
    phases) a ``queue_full`` refusal is admission control answering as
    designed and counts as failed only.
    """
    scores: List[Optional[np.ndarray]] = []
    for index, keys in enumerate(requests):
        if index < len(received):
            values, problem = read_response(received[index][0], index, keys, tiers)
        else:
            values, problem = None, "no response"
        if problem is not None and not (refusals_ok and problem == REFUSED):
            tally.check(False, f"{phase}: request {index}: {problem}")
        scores.append(values)
    return scores


def auroc_of(label_by_key: Dict[int, float], requests, scores) -> float:
    """AUROC of served ``scores`` against the label table."""
    from repro.eval.metrics import auroc

    truth, served = [], []
    for keys, values in zip(requests, scores):
        if values is None:
            continue
        truth.extend(label_by_key[int(k)] for k in keys)
        served.extend(values.tolist())
    return float(auroc(np.asarray(truth), np.asarray(served)))


# ----------------------------------------------------------------------
# Set-up shared by every workload
# ----------------------------------------------------------------------
class Inputs:
    """What set-up produced: the generator's view of the data and plan."""

    def __init__(self, scale: float) -> None:
        from repro.datasets import get_dataset
        from repro.pql import PredictiveQueryPlanner, build_label_table, parse

        spec = get_dataset(DATASET)
        self.scale = scale
        self.db = spec.build(scale=scale, seed=PRODUCT_SEED)
        task = spec.task(TASK)
        self.query = task.query
        self.split = spec.split_for(self.db, task, parse(task.query).horizon_seconds)
        self.cutoff = int(self.split.test_cutoff)
        binding = PredictiveQueryPlanner(self.db).plan(task.query)
        labels = build_label_table(self.db, binding, [self.cutoff])
        #: Entities eligible at the test cutoff; requests draw from these.
        self.keys = np.asarray(labels.entity_keys)
        self.label_by_key = {int(k): float(v) for k, v in zip(labels.entity_keys, labels.labels)}
        #: Rows one training epoch visits (labels at every train cutoff).
        self.train_rows = len(build_label_table(self.db, binding, self.split.train_cutoffs))

    def bulk_requests(self, rng: np.random.Generator, rows: int) -> List[np.ndarray]:
        """Whole sweeps of all keys (seeded order), 256 per request."""
        sweeps = max(1, math.ceil(rows / len(self.keys)))
        requests = []
        for _ in range(sweeps):
            order = rng.permutation(self.keys)
            requests.extend(order[i:i + BULK_ROWS] for i in range(0, len(order), BULK_ROWS))
        return requests

    def point_requests(self, rng: np.random.Generator, count: int) -> List[np.ndarray]:
        """Single-key requests, Zipf(1.1) over a seeded permutation."""
        return [np.array([k]) for k in zipf_keys(rng, self.keys, count)]

    def mixed_requests(self, rng: np.random.Generator, count: int) -> List[np.ndarray]:
        """Requests of mixed sizes (the routed workload's mix), uniform keys."""
        sizes = rng.choice(MIXED_SIZES, size=count, p=MIXED_WEIGHTS)
        return [rng.choice(self.keys, size=min(int(n), len(self.keys)), replace=False)
                for n in sizes]

    def lines(self, requests: Sequence[np.ndarray]) -> List[bytes]:
        """Protocol lines for ``requests``; ids are positions."""
        return [predict_line(i, keys, self.cutoff) for i, keys in enumerate(requests)]


def repeat_setup(build: Callable[[], object]):
    """Run ``build`` :data:`SETUP_REPEATS` times; keep the last result.

    Returns ``(result, median_seconds)``.  The inputs are a pure
    function of the seed, so every repetition builds the same thing.
    Afterwards the generator's own objects (database, request lists)
    are frozen out of the garbage collector's scans: a full collection
    over them would stall the sender for tens of milliseconds and be
    charged to the system under test.
    """
    seconds = []
    result = None
    for _ in range(SETUP_REPEATS):
        start = clock()
        result = build()
        seconds.append(clock() - start)
    gc.collect()
    gc.freeze()
    return result, float(np.median(seconds))


# ----------------------------------------------------------------------
# Phases against `repro serve`
# ----------------------------------------------------------------------
def open_loop_phase(
    tally: Tally, name: str, server: ServeProcess, inputs: Inputs,
    requests: Sequence[np.ndarray], due: np.ndarray, tiers=None,
) -> Dict[str, float]:
    """One open-loop step; latency is from each request's due instant."""
    lines = inputs.lines(requests)
    conn = server.conn
    conn.expect(len(lines))
    start, sent_at = open_loop(lambda i: conn.send(lines[i]), due)
    received = conn.collect(timeout=30.0)
    scores = check_responses(tally, name, requests, received, tiers, refusals_ok=True)
    failed = sum(s is None for s in scores)
    arrivals = np.array([arrival for _, arrival in received])
    latency = (arrivals - (start + due[:len(arrivals)])) * 1000.0
    half = len(due) // 2
    # Keeping pace: the second half's completions take no longer than
    # its sends plus one latency limit — no backlog is building.
    keeping_pace = len(arrivals) == len(due) and (
        arrivals[-1] - arrivals[half] <= due[-1] - due[half] + LATENCY_LIMIT_MS / 1000.0
    )
    stats = {
        "samples": len(latency),
        "p50_ms": percentile(latency, 50) if len(latency) else float("inf"),
        "p90_ms": percentile(latency, 90) if len(latency) else float("inf"),
        "p95_ms": percentile(latency, 95) if len(latency) else float("inf"),
        "p99_ms": percentile(latency, 99) if len(latency) else float("inf"),
        "late_p99_ms": percentile((sent_at - (start + due)) * 1000.0, 99),
        "keeping_pace": bool(keeping_pace),
    }
    tally.phase(name, len(lines), failed, **stats)
    return stats


def closed_loop_phase(
    tally: Tally, name: str, server: ServeProcess, inputs: Inputs,
    requests: Sequence[np.ndarray], in_flight: int, tiers=None,
) -> Dict[str, float]:
    """One closed-loop phase of a fixed request list; returns its stats."""
    result = closed_loop(server.conn, inputs.lines(requests), in_flight)
    scores = check_responses(tally, name, requests, result.received, tiers)
    tally.check(
        result.max_outstanding <= in_flight,
        f"{name}: {result.max_outstanding} requests in flight, cap {in_flight}",
    )
    rows = sum(len(keys) for keys in requests)
    latency = result.latencies_ms()
    tally.phase(
        name, len(requests), sum(s is None for s in scores), samples=len(latency), rows=rows,
        rows_per_s=rows / result.wall, requests_per_s=len(requests) / result.wall,
        p50_ms=percentile(latency, 50), p90_ms=percentile(latency, 90),
        p95_ms=percentile(latency, 95), p99_ms=percentile(latency, 99),
    )
    return tally.phases[name]


def fit_phase(tally: Tally, scale: float, model_dir: str, extra=None) -> FitResult:
    """``repro fit --save`` as a subprocess; one attempted operation."""
    try:
        fit = run_fit(scale, model_dir, extra)
    except RuntimeError as err:
        tally.phase("fit", 1, 1)
        tally.check(False, str(err))
        raise
    tally.phase("fit", 1, 0, wall_s=fit.wall_s, test_auroc=fit.test_auroc)
    return fit


class ServeSession:
    """``repro serve`` on the saved model, alive for the workload's traffic.

    Entering starts the server and warms it with one untimed sweep
    and a few point requests, so lazy set-up is done before anything is
    timed.  :meth:`bulk` runs the next third of the bulk sweeps — every
    entity, 256 keys per request, one request in flight; the workload
    calls it before, amid and after its own phases.  :meth:`finish`
    EOFs stdin (the server must drain and exit 0) and reloads the saved
    model in process (payload SHA-256 verified).

    This shared host changes speed every few seconds, so
    ``serve_ready_s`` (exec to the ``ready:`` line) is the median over
    three starts spread through the run: a throwaway one before the
    session, the session's, a throwaway one after.
    """

    BULK_CHUNKS = 3

    def __init__(self, tally: Tally, model_dir: str, inputs: Inputs,
                 bulk: Sequence[np.ndarray], tiers: Optional[List[str]] = None) -> None:
        self.tally, self.model_dir, self.inputs, self.tiers = tally, model_dir, inputs, tiers
        self.server = ServeProcess(model_dir, inputs.scale)
        self._bulk = list(bulk)
        self._lines = inputs.lines(self._bulk)
        bounds = np.linspace(0, len(self._bulk), self.BULK_CHUNKS + 1).astype(int)
        self._chunks = list(zip(bounds[:-1], bounds[1:]))
        self._received: list = []
        self._wall = 0.0

    def _probe_start(self) -> float:
        """Start the server, EOF it at once; returns its ``ready_s``."""
        with ServeProcess(self.model_dir, self.inputs.scale) as probe:
            self.tally.check(probe.close() == 0, "`repro serve` did not exit cleanly on EOF")
        return probe.ready_s

    def __enter__(self) -> "ServeSession":
        self._ready_s = [self._probe_start()]
        self.server.__enter__()
        self._ready_s.append(self.server.ready_s)
        warm = self.inputs.bulk_requests(np.random.default_rng(0), 1)
        warm += [np.array([k]) for k in self.inputs.keys[:32]]
        closed_loop(self.server.conn, self.inputs.lines(warm), 1)
        return self

    def __exit__(self, *exc_info) -> None:
        self.server.__exit__(*exc_info)

    def bulk(self) -> None:
        """The next chunk of bulk sweeps, closed loop, one in flight."""
        first, last = self._chunks.pop(0)
        if last > first:
            result = closed_loop(self.server.conn, self._lines[first:last], 1)
            self._received.extend(result.received)
            self._wall += result.wall

    def finish(self) -> Dict[str, float]:
        """End the session; returns the two metrics taken here."""
        from repro.pql import RoutedPredictiveModel, TrainedPredictiveModel, is_routed_dir

        tally, inputs = self.tally, self.inputs
        while self._chunks:
            self.bulk()
        scores = check_responses(tally, "bulk", self._bulk, self._received, self.tiers)
        rows = sum(len(keys) for keys in self._bulk)
        tally.phase("bulk", len(self._bulk), sum(s is None for s in scores),
                    rows=rows, rows_per_s=rows / self._wall)
        code = self.server.close()
        tally.check(code == 0, f"`repro serve` exited {code}:\n{self.server.log_tail()}")
        self._ready_s.append(self._probe_start())
        routed = is_routed_dir(self.model_dir)
        try:
            loader = RoutedPredictiveModel if routed else TrainedPredictiveModel
            model = loader.load(self.model_dir, inputs.db)
            if routed:
                tally.check(model.available_tiers() == self.tiers,
                            f"reloaded tiers {model.available_tiers()} != fitted {self.tiers}")
        except Exception as err:  # any load failure is a failed check, not a crash
            tally.check(False, f"saved model does not reload: {type(err).__name__}: {err}")
        return {
            "serve_ready_s": float(np.median(self._ready_s)),
            "served_auroc": auroc_of(inputs.label_by_key, self._bulk, scores),
        }


def tails(stats: Dict[str, float]) -> Dict[str, float]:
    """The tail percentiles of a latency phase: printed, never bounded.

    Ten runs of either spread by 5-40% on this host (one stall of the
    machine, or one slow stretch, decides the tail of a 5 s phase).
    """
    return {"predict_p95_ms": stats["p95_ms"], "predict_p99_ms": stats["p99_ms"]}


def fit_metrics(fit: FitResult, setup_s: float) -> Dict[str, float]:
    """The metrics every workload takes from its ``repro fit``."""
    return {
        "setup_s": setup_s,
        "fit_wall_s": fit.wall_s,
        "fit_test_auroc": fit.test_auroc,
        "fit_peak_rss_mb": fit.peak_rss_mb,
    }


# ----------------------------------------------------------------------
# fit_churn
# ----------------------------------------------------------------------
#: Open-loop rate of the analyst's spot checks while batch-scoring.
SPOT_CHECK_RATE = 200


def fit_churn(seconds: float, seed: int, work: str, tally: Tally, smoke: bool):
    """Analyst path: fit at scale 4, batch-score everyone, spot-check."""
    scale = 0.5 if smoke else 4.0

    def build():
        rng = np.random.default_rng(seed)
        inputs = Inputs(scale)
        count = int(SPOT_CHECK_RATE * 0.6 * seconds)
        return inputs, {
            "point": inputs.point_requests(rng, count),
            "due": poisson_schedule(rng, SPOT_CHECK_RATE, count),
            "bulk": inputs.bulk_requests(rng, int(3000 * 0.2 * seconds)),
        }

    (inputs, plan), setup_s = repeat_setup(build)
    model_dir = os.path.join(work, "churn")
    fit = fit_phase(tally, scale, model_dir)
    with ServeSession(tally, model_dir, inputs, plan["bulk"]) as session:
        session.bulk()
        point = open_loop_phase(tally, "point", session.server, inputs,
                                plan["point"], plan["due"])
        served = session.finish()
    metrics = {
        **fit_metrics(fit, setup_s), **served,
        "predict_p50_ms": point["p50_ms"],
        # The trainer's own rate: rows visited over the CLI's training time.
        "sustained_rate_per_s": fit.epochs * inputs.train_rows / fit.train_seconds,
    }
    return metrics, {**tails(point), "loadgen_late_p99_ms": point["late_p99_ms"]}


# ----------------------------------------------------------------------
# serve_gnn_point
# ----------------------------------------------------------------------
LADDER = (200, REFERENCE_RATE, 600, 800)
#: Point requests kept in flight in the closed-loop capacity phase.
POINT_IN_FLIGHT = 32


def serve_gnn_point(seconds: float, seed: int, work: str, tally: Tally, smoke: bool):
    """Application path: point predicts on a rate ladder, then capacity."""
    scale = 0.5 if smoke else 3.0

    def build():
        rng = np.random.default_rng(seed)
        inputs = Inputs(scale)
        steps = {}
        for rate in LADDER:
            share = 0.4 if rate == REFERENCE_RATE else 0.08
            count = int(rate * share * seconds)
            steps[rate] = (inputs.point_requests(rng, count), poisson_schedule(rng, rate, count))
        return inputs, {
            "steps": steps,
            "closed": inputs.point_requests(rng, int(2500 * 0.2 * seconds)),
            "bulk": inputs.bulk_requests(rng, int(3000 * 0.2 * seconds)),
        }

    (inputs, plan), setup_s = repeat_setup(build)
    model_dir = os.path.join(work, "churn")
    fit = fit_phase(tally, scale, model_dir)
    ladder = {}
    with ServeSession(tally, model_dir, inputs, plan["bulk"]) as session:
        session.bulk()
        for rate, (requests, due) in plan["steps"].items():
            ladder[rate] = open_loop_phase(
                tally, f"ladder_{rate}", session.server, inputs, requests, due)
            if rate == REFERENCE_RATE:
                session.bulk()
        closed = closed_loop_phase(tally, "point_closed", session.server, inputs,
                                   plan["closed"], POINT_IN_FLIGHT)
        served = session.finish()
    passing = [
        rate for rate, step in ladder.items()
        if step["p99_ms"] <= LATENCY_LIMIT_MS and step["keeping_pace"]
        and tally.phases[f"ladder_{rate}"]["failed"] == 0
    ]
    metrics = {
        **fit_metrics(fit, setup_s), **served,
        "predict_p50_ms": ladder[REFERENCE_RATE]["p50_ms"],
        "sustained_rate_per_s": closed["requests_per_s"],
    }
    return metrics, {
        **tails(ladder[REFERENCE_RATE]),
        "max_rate_rps": max(passing) if passing else 0,
        "loadgen_late_p99_ms": max(step["late_p99_ms"] for step in ladder.values()),
    }


# ----------------------------------------------------------------------
# serve_routed_mixed
# ----------------------------------------------------------------------
MIXED_IN_FLIGHT = 2


def serve_routed_mixed(seconds: float, seed: int, work: str, tally: Tally, smoke: bool):
    """Application path on a ``--route auto`` model: mixed sizes, closed loop."""
    scale = 0.5 if smoke else 2.0

    def build():
        rng = np.random.default_rng(seed)
        inputs = Inputs(scale)
        return inputs, {
            "mixed": inputs.mixed_requests(rng, int(375 * 0.8 * seconds)),
            "bulk": inputs.bulk_requests(rng, int(60000 * 0.15 * seconds)),
        }

    (inputs, plan), setup_s = repeat_setup(build)
    model_dir = os.path.join(work, "churn_routed")
    fit = fit_phase(tally, scale, model_dir, ["--route", "auto"])
    tiers = fit.tiers
    tally.check("red" in tiers, f"`repro fit --route auto` reported tiers {tiers}")
    with ServeSession(tally, model_dir, inputs, plan["bulk"], tiers) as session:
        session.bulk()
        mixed = closed_loop_phase(tally, "mixed", session.server, inputs,
                                  plan["mixed"], MIXED_IN_FLIGHT, tiers)
        served = session.finish()
    metrics = {
        **fit_metrics(fit, setup_s), **served,
        "predict_p50_ms": mixed["p50_ms"],
        "sustained_rate_per_s": mixed["rows_per_s"],
    }
    return metrics, {**tails(mixed), "mixed_rows_per_s": mixed["rows_per_s"]}


# ----------------------------------------------------------------------
# ingest_under_load
# ----------------------------------------------------------------------
STREAM_TABLES = ("orders", "reviews")
PACED_BATCHES_PER_S = 10
PACED_BATCH_ROWS = 16
PACED_PREDICT_RATE = 200
CATCHUP_BATCH_ROWS = 100


def carve_stream(db, after: int):
    """Split ``db`` into a snapshot and the time-ordered events after it.

    Rows of the event tables stamped later than ``after`` become the
    stream; parents (customers, products) stay whole in the snapshot.
    """
    from repro.ingest import RowEvent
    from repro.relational.database import Database

    base = Database(name=db.name)
    stamped = []
    for table in db:
        if table.name not in STREAM_TABLES:
            base.add_table(table)
            continue
        times = table[table.schema.time_column].values.astype(np.int64)
        late = times > after
        base.add_table(table.filter(~late))
        stamped.extend((int(times[i]), table.name, int(i)) for i in np.flatnonzero(late))
    stamped.sort()
    events = [RowEvent(table=name, values=db[name].row(row)) for _, name, row in stamped]
    return base, events


def ingest_under_load(seconds: float, seed: int, work: str, tally: Tally, smoke: bool):
    """Writes beside reads, in process, through the ``refresh_graph`` barrier."""
    from repro.graph import build_graph
    from repro.graph.cache import graph_fingerprint
    from repro.ingest import DeltaGraphBuilder, IngestPipeline, SegmentLog
    from repro.ingest.refresh import refresh_model
    from repro.pql import TrainedPredictiveModel
    from repro.serve import PredictionService
    from repro.serve.batcher import QueueFullError

    scale = 1.0 if smoke else 6.0
    log_root = os.path.join(work, "log")
    paced_s = 0.9 * seconds

    def build():
        rng = np.random.default_rng(seed)
        inputs = Inputs(scale)
        # The stream starts where the fit froze feature statistics, so
        # the incremental graph can equal a cold rebuild bit for bit.
        base, events = carve_stream(inputs.db, after=min(inputs.split.train_cutoffs))
        shutil.rmtree(log_root, ignore_errors=True)
        log = SegmentLog.create(log_root, base)
        batch_due = poisson_schedule(rng, PACED_BATCHES_PER_S, int(PACED_BATCHES_PER_S * paced_s))
        sizes = rng.integers(PACED_BATCH_ROWS - 4, PACED_BATCH_ROWS + 5, len(batch_due))
        # Stream order: half of the catch-up, the paced batches, the rest.
        first = (len(events) - int(sizes.sum())) // 2
        edges = first + np.concatenate([[0], np.cumsum(sizes)])
        count = int(PACED_PREDICT_RATE * paced_s)

        def catchup(chunk):
            return [chunk[i:i + CATCHUP_BATCH_ROWS] for i in range(0, len(chunk), CATCHUP_BATCH_ROWS)]

        return inputs, base, log, {
            "paced": [events[a:b] for a, b in zip(edges[:-1], edges[1:])],
            "paced_due": batch_due,
            "catchup": [catchup(events[:first]), catchup(events[edges[-1]:])],
            "point": inputs.point_requests(rng, count),
            "due": poisson_schedule(rng, PACED_PREDICT_RATE, count),
            "bulk": inputs.bulk_requests(rng, int(3000 * 0.15 * seconds)),
        }

    (inputs, base, log, plan), setup_s = repeat_setup(build)
    model_dir = os.path.join(work, "churn")
    fit = fit_phase(tally, scale, model_dir, ["--epochs", "3"])
    catchup_wall = 0.0

    def catch_up(batches) -> None:
        """Batches as fast as they go through the barrier, no reads beside."""
        nonlocal catchup_wall
        start = clock()
        for batch in batches:
            ingest(batch)
        catchup_wall += clock() - start

    refused = []
    with ServeSession(tally, model_dir, inputs, plan["bulk"]) as session:
        session.bulk()
        # The live pair: the saved model over the snapshot, behind a
        # default service, fed by the pipeline that owns the segment log.
        model = TrainedPredictiveModel.load(model_dir, base)
        service = PredictionService(model)
        pipeline = IngestPipeline(
            log,
            builder=DeltaGraphBuilder(model.db, graph=model.graph,
                                      stats_cutoff=model.stats_cutoff),
        )

        def ingest(batch) -> None:
            """One batch through the barrier: commit, delta, selective refresh."""
            def apply():
                report = pipeline.process(batch)
                if report.delta is not None:
                    refresh_model(model, report.delta)
                return report

            report = service.refresh_graph(apply)
            refused.append(len(report.rejected) + report.quarantined)

        try:
            service.predict(inputs.keys[:BULK_ROWS], inputs.cutoff)  # lazy set-up done
            catch_up(plan["catchup"][0])

            # Paced phase: an ingest thread on its own schedule, predicts
            # from this thread; both open loop against the one service.
            freshness: List[float] = []
            ingest_errors: List[BaseException] = []
            phase_start = clock() + 0.05

            def paced_ingest() -> None:
                def send(i: int) -> None:
                    ingest(plan["paced"][i])
                    # Visible to the next admitted request from here on.
                    freshness.append((clock() - (phase_start + plan["paced_due"][i])) * 1000.0)

                try:
                    open_loop(send, plan["paced_due"], start=phase_start)
                except Exception as err:  # surfaced by the main thread below
                    ingest_errors.append(err)

            writer = threading.Thread(target=paced_ingest, name="loadgen-ingest")
            writer.start()
            futures: List[object] = [None] * len(plan["point"])

            def send_predict(i: int) -> None:
                try:
                    futures[i] = service.predict_async(plan["point"][i], inputs.cutoff)
                except QueueFullError as err:
                    futures[i] = err

            start, sent_at = open_loop(send_predict, plan["due"], start=phase_start)
            writer.join(timeout=60.0)
            tally.check(not writer.is_alive() and not ingest_errors,
                        f"paced ingest did not finish cleanly: {ingest_errors}")
            latency, failed = [], 0
            for i, future in enumerate(futures):
                try:
                    if isinstance(future, Exception):
                        raise future
                    values = np.asarray(future.result(timeout=30.0))
                    if not (values.shape == (1,) and 0.0 <= values[0] <= 1.0):
                        raise ValueError(f"bad scores {values!r}")
                    latency.append((future.resolved_at - (start + plan["due"][i])) * 1000.0)
                except Exception as err:  # a failed request, whatever the reason
                    tally.check(False, f"paced predict {i}: {type(err).__name__}: {err}")
                    failed += 1
            late_p99 = percentile((sent_at - (start + plan["due"])) * 1000.0, 99)
            tally.phase("paced_predict", len(futures), failed, samples=len(latency),
                        p50_ms=percentile(latency, 50), p90_ms=percentile(latency, 90),
                        p95_ms=percentile(latency, 95), p99_ms=percentile(latency, 99),
                        late_p99_ms=late_p99)
            tally.phase("paced_ingest", len(plan["paced"]), len(plan["paced"]) - len(freshness),
                        samples=len(freshness), freshness_p50_ms=percentile(freshness, 50),
                        freshness_p95_ms=percentile(freshness, 95))

            session.bulk()
            catch_up(plan["catchup"][1])
            catchup_events = sum(len(batch) for part in plan["catchup"] for batch in part)
            tally.phase("catchup", sum(len(part) for part in plan["catchup"]), 0,
                        events=catchup_events, events_per_s=catchup_events / catchup_wall)
            drained = np.asarray(service.predict(inputs.keys, inputs.cutoff))
        finally:
            service.close()
        served = session.finish()

    # The stream drained: nothing was refused, the live graph is the
    # graph a cold build over the replayed log produces, the log holds
    # every row, and the model scores the drained graph as well as
    # `repro serve` scored the full database.
    tally.check(not any(refused) and not pipeline.pending,
                f"{sum(refused)} events rejected or quarantined, {len(pipeline.pending)} pending")
    replayed = SegmentLog.open(log_root).replay()
    cold = build_graph(replayed, stats_cutoff=model.stats_cutoff)
    tally.check(graph_fingerprint(model.graph) == graph_fingerprint(cold),
                "incremental graph differs from a cold rebuild of the replayed log")
    counts = {table.name: table.num_rows for table in replayed}
    expected = {table.name: table.num_rows for table in inputs.db}
    tally.check(counts == expected, f"replayed row counts {counts} != {expected}")
    drained_auroc = auroc_of(inputs.label_by_key, [inputs.keys], [drained])
    tally.check(drained_auroc >= fit.test_auroc - AUROC_SLACK,
                f"AUROC over the drained graph {drained_auroc:.4f} trails the fit's "
                f"{fit.test_auroc:.4f}")

    paced = tally.phases["paced_predict"]
    metrics = {
        **fit_metrics(fit, setup_s), **served,
        "predict_p50_ms": paced["p50_ms"],
        "sustained_rate_per_s": catchup_events / catchup_wall,
    }
    return metrics, {
        **tails(paced),
        "ingest_events_per_s": catchup_events / catchup_wall,
        "freshness_p50_ms": tally.phases["paced_ingest"]["freshness_p50_ms"],
        "freshness_p95_ms": tally.phases["paced_ingest"]["freshness_p95_ms"],
        "loadgen_late_p99_ms": late_p99,
    }


WORKLOADS: Dict[str, Callable] = {
    "fit_churn": fit_churn,
    "serve_gnn_point": serve_gnn_point,
    "serve_routed_mixed": serve_routed_mixed,
    "ingest_under_load": ingest_under_load,
}


def run_workload(name: str, seconds: float, seed: int, work: str, smoke: bool = False):
    """Run one workload; returns ``(metrics, extra, tally)``.

    The served scores must be as good as the fit's own evaluation
    (``served_auroc >= fit_test_auroc - 0.03``); every other output
    check is made where the output is produced.
    """
    tally = Tally()
    metrics, extra = WORKLOADS[name](seconds, seed, work, tally, smoke)
    extra["bulk_rows_per_s"] = tally.phases["bulk"]["rows_per_s"]
    tally.check(
        metrics["served_auroc"] >= metrics["fit_test_auroc"] - AUROC_SLACK,
        f"served AUROC {metrics['served_auroc']:.4f} is more than {AUROC_SLACK} "
        f"below the fit's {metrics['fit_test_auroc']:.4f}",
    )
    return metrics, extra, tally
