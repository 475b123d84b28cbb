"""Online serving: answer predictive queries as a long-lived service.

The paper's promise is declarative ML *end to end* — and the end is
not a training log, it is an answered prediction request.  This
package turns a trained :class:`~repro.pql.planner.PredictiveModel`
into an in-process prediction service:

* :mod:`repro.serve.registry` — a versioned, **transactional** model
  registry on disk (``<root>/<name>/v<N>/`` saved-model directories
  plus a checksummed index committed atomically), with crash recovery
  and ``fsck`` — a publish killed at any point leaves the registry
  consistent;
* :mod:`repro.serve.batcher` — a **micro-batching scheduler**: a
  bounded request queue whose single executor coalesces whatever
  compatible requests piled up while the last batch ran (up to
  ``max_batch_size`` rows), executes them as one model call, and
  resolves responses strictly in submission order;
* :mod:`repro.serve.service` — :class:`PredictionService`, the
  programmatic API: admission control (queue-depth fast-reject),
  per-request deadlines, serve-time graceful degradation (a forced
  route one rung down the model's GREEN < YELLOW < RED tier ladder,
  :mod:`repro.pql.router`) when the model path raises or breaks its
  latency budget, **zero-downtime hot swap** between registry
  versions, and warm subgraph / item-embedding caches shared across
  requests;
* :mod:`repro.serve.canary` — :class:`CanaryController`, shadowing a
  fraction of live traffic to a challenger model and auto-promoting
  on sustained parity / rolling back on regression;
* :mod:`repro.serve.protocol` — the JSON-lines request/response
  encoding behind ``python -m repro serve``, including the ``swap`` /
  ``canary`` / ``lifecycle`` management verbs.

Everything is instrumented through :mod:`repro.obs` under ``serve.*``
(request/reject/expiry counters, queue-wait and execute latency
histograms, batch-size distribution) and those instruments are reset
per service instance, so one model version's numbers never leak into
the next's.  With telemetry enabled (the default) the latency
histograms are **sliding windows** with streaming p50/p95/p99, every
request carries a request ID through micro-batch coalescing, a
configurable fraction retain full per-request span trees, and an SLO
monitor records provenance events (which requests tripped the
degradation ladder and why) — see
:mod:`repro.obs.telemetry` and docs/observability.md.
"""

from repro.serve.batcher import (
    DeadlineExceededError,
    MicroBatcher,
    QueueFullError,
    ResponseFuture,
    ServiceClosedError,
)
from repro.serve.canary import CanaryConfig, CanaryController
from repro.serve.protocol import (
    GracefulShutdown,
    ShutdownLatch,
    parse_request,
    serve_loop,
)
from repro.serve.registry import ModelRegistry, RegistryError, RegistryVersionError
from repro.serve.service import PredictionService, ServeConfig

__all__ = [
    "CanaryConfig",
    "CanaryController",
    "DeadlineExceededError",
    "GracefulShutdown",
    "ShutdownLatch",
    "MicroBatcher",
    "ModelRegistry",
    "PredictionService",
    "QueueFullError",
    "RegistryError",
    "RegistryVersionError",
    "ResponseFuture",
    "ServeConfig",
    "ServiceClosedError",
    "parse_request",
    "serve_loop",
]
