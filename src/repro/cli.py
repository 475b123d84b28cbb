"""Command-line interface.

::

    python -m repro tasks
        List the bundled datasets and their registered predictive-query
        tasks.

    python -m repro fit --dataset ecommerce --task churn [--epochs 15]
        Generate the dataset, compile + train the task's registered PQL
        query, and print test metrics.  ``--save DIR`` persists the
        trained model.

    python -m repro query --dataset forum "PREDICT COUNT(posts) > 0 FOR EACH users.id ASSUMING HORIZON 14 DAYS"
        Fit an arbitrary PQL query against a generated dataset.

    python -m repro sql --dataset ecommerce "SELECT COUNT(*) FROM orders"
        Run a SQL SELECT against a generated dataset and print rows.

    python -m repro serve --model artifacts/churn
        Serve a saved model over a JSON-lines request loop (stdin →
        stdout) with micro-batching, admission control, and per-request
        deadlines.  The database is the snapshot the artifact carries;
        ``--dataset/--scale/--seed`` only regenerate one for artifacts
        saved before snapshots existed and are ignored otherwise.
        ``--registry ROOT --model-name NAME`` loads from a
        versioned model registry instead and unlocks the lifecycle
        verbs (``swap``/``compare``/``lifecycle``); see
        docs/serving.md.  SIGTERM/SIGINT drain in-flight requests
        and exit 0.  Live telemetry (``--trace-sample-rate``,
        ``--telemetry-window-s``, ``--slo-p99-ms``, ``--stats-json``)
        is documented in docs/observability.md.

    python -m repro registry {list,fsck,publish} --registry ROOT ...
        Inspect a model registry, verify/repair its consistency
        (``fsck`` exits 1 when it had to quarantine or repair), or
        publish a saved model directory as the next version.

    python -m repro ingest --log-root LOG --drop-dir DROP [--follow]
        Stream row events from a CSV drop directory into a crash-safe
        segment log with incremental graph maintenance
        (``--init-from SNAPSHOT`` creates the log from a database
        snapshot directory; ``--compact`` merges segments back into a
        new base; ``--out-of-order``, ``--stats-cutoff``,
        ``--poll-interval``, ``--max-polls`` tune the stream); see
        docs/ingest.md.

    python -m repro stats SNAPSHOT.json [--format text|json|prometheus]
        Render a serving telemetry snapshot (written by ``repro serve
        --stats-json``) as a human table, raw JSON, or Prometheus text
        format.

Routing flags (``fit`` / ``query``; see docs/performance.md):

* ``--route {auto,green,yellow,red}`` also fits and calibrates the
  cheap tiers of the model's ladder (GREEN = calibrated activity
  baseline, YELLOW = GBDT on auto features, RED = full GNN) and routes
  each prediction to the cheapest tier whose validation quality
  clears ``--quality-floor`` (a fraction of the best tier's); without
  it the ladder is uncalibrated and answers from the GNN.  ``serve``
  accepts the same flags as its default tier for any saved model.

Observability flags (``fit`` / ``query``):

* ``--profile`` prints an EXPLAIN ANALYZE-style stage tree — wall time
  per compile stage plus sampler/trainer counters.
* ``--trace-json PATH`` writes the full span tree and metrics as JSON.
* ``-v`` / ``-vv`` raise log verbosity to INFO / DEBUG (all
  subcommands, including ``sql``).

Fault-tolerance flags (``fit`` / ``query``; see docs/robustness.md):

* ``--checkpoint-dir DIR`` checkpoints training every epoch; with
  ``--resume``, a restarted run — killed, or failed with an error —
  continues bit-identically from the last committed epoch (and a
  checkpoint another fit wrote is refused).
* ``--fallback`` degrades a failed GNN train stage to the router's
  YELLOW tier (GBDT), then GREEN, instead of failing the run.
* The ``REPRO_FAULTS`` environment variable (e.g.
  ``trainer.step@3:raise``) arms the deterministic fault injector.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import obs
from repro.datasets import REGISTRY, get_dataset
from repro.eval.splits import make_temporal_split
from repro.obs import trace as obs_trace
from repro.pql import PlannerConfig, PredictiveQueryPlanner, parse
from repro.pql.router import ROUTES, RouterConfig
from repro.relational.sql import execute_sql
from repro.resilience import FaultInjector, ResilienceConfig, install as install_injector

__all__ = ["main"]

_log = obs.get_logger("cli")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Databases as graphs: predictive queries for declarative ML",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_verbosity(p):
        p.add_argument(
            "-v", "--verbose", action="count", default=0,
            help="-v for INFO logging, -vv for DEBUG",
        )

    tasks = sub.add_parser("tasks", help="list datasets and their tasks")
    add_verbosity(tasks)

    def add_common(p):
        p.add_argument("--dataset", required=True, choices=sorted(REGISTRY))
        p.add_argument("--scale", type=float, default=1.0, help="dataset size multiplier")
        p.add_argument("--seed", type=int, default=0)
        # Model flags default to None: an unset flag keeps PlannerConfig's default.
        p.add_argument("--epochs", type=int)
        p.add_argument("--layers", type=int)
        p.add_argument("--hidden", type=int)
        p.add_argument("--conv", choices=["sage", "gat"])
        p.add_argument(
            "--infer-batch-size", type=int, default=None, metavar="N",
            help="micro-batch size for no-grad eval/predict; defaults to "
                 "the training batch size",
        )
        p.add_argument(
            "--route", choices=ROUTES, default=None,
            help="fit and calibrate every tier and execute predictions on "
                 "this one (auto = cheapest tier clearing the quality "
                 "floor); unset answers from the GNN",
        )
        p.add_argument(
            "--quality-floor", type=float, default=None, metavar="F",
            help="routing quality floor as a fraction of the best tier's "
                 f"validation quality (default {RouterConfig.quality_floor}); "
                 "implies --route auto",
        )
        p.add_argument(
            "--profile", action="store_true",
            help="print an EXPLAIN ANALYZE-style stage tree after the run",
        )
        p.add_argument(
            "--trace-json", metavar="PATH",
            help="write the span tree + metrics as JSON to PATH",
        )
        p.add_argument(
            "--checkpoint-dir", metavar="DIR",
            help="checkpoint training state to DIR every epoch",
        )
        p.add_argument(
            "--resume", action="store_true",
            help="resume training from the latest checkpoint in --checkpoint-dir",
        )
        p.add_argument(
            "--fallback", action="store_true",
            help="degrade a failed GNN train stage to the YELLOW (GBDT) "
                 "tier, then GREEN, instead of failing",
        )
        add_verbosity(p)

    fit = sub.add_parser("fit", help="train a registered benchmark task")
    add_common(fit)
    fit.add_argument("--task", required=True, help="task name from `repro tasks`")
    fit.add_argument("--save", help="directory to persist the trained model")

    query = sub.add_parser("query", help="train an arbitrary PQL query")
    add_common(query)
    query.add_argument("pql", help="the PQL query string")
    query.add_argument("--train-cutoffs", type=int, help="training snapshots")

    sql = sub.add_parser("sql", help="run a SQL SELECT against a generated dataset")
    sql.add_argument("--dataset", required=True, choices=sorted(REGISTRY))
    sql.add_argument("--scale", type=float, default=1.0)
    sql.add_argument("--seed", type=int, default=0)
    sql.add_argument("statement", help="the SELECT statement")
    sql.add_argument("--max-rows", type=int, default=20)
    add_verbosity(sql)

    serve = sub.add_parser(
        "serve", help="serve a saved model over a JSON-lines stdin/stdout loop"
    )
    serve.add_argument(
        "--dataset", default=None, choices=sorted(REGISTRY),
        help="regenerate this dataset (at --scale/--seed) for an artifact saved "
             "without a data snapshot; ignored when the artifact carries one",
    )
    serve.add_argument("--scale", type=float, default=1.0, help="dataset size multiplier")
    serve.add_argument("--seed", type=int, default=0)
    source = serve.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", metavar="DIR", help="saved-model directory (`fit --save`)")
    source.add_argument("--registry", metavar="ROOT", help="model-registry root directory")
    serve.add_argument(
        "--model-name", metavar="NAME",
        help="registry model name (required with --registry)",
    )
    serve.add_argument(
        "--model-version", type=int, default=None, metavar="N",
        help="registry version to serve; default: latest",
    )
    serve.add_argument(
        "--max-batch-size", type=int, default=64, metavar="N",
        help="most entity rows coalesced into one model call",
    )
    serve.add_argument(
        "--max-wait-ms", type=float, default=0.0, metavar="MS",
        help="optional cap on holding a non-full batch for company "
             "(0 = dispatch at once; batches form from what piles up meanwhile)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=256, metavar="N",
        help="pending-request ceiling; submissions beyond it fast-reject",
    )
    serve.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="default per-request deadline; unset = requests never expire",
    )
    serve.add_argument(
        "--latency-budget-ms", type=float, default=None, metavar="MS",
        help="per-batch model latency budget; repeated breaches degrade "
             "one rung down the tier ladder",
    )
    serve.add_argument(
        "--no-fallback", action="store_true",
        help="fail requests instead of degrading when the model path breaks",
    )
    serve.add_argument(
        "--warmup", type=int, default=0, metavar="N",
        help="pay first-call costs (and prime LIST item embeddings) with "
             "N entities before accepting traffic",
    )
    serve.add_argument(
        "--route", choices=ROUTES, default="auto",
        help="default execution tier (requests may override per line; "
             "auto on a model fitted without --route answers from the GNN)",
    )
    serve.add_argument(
        "--quality-floor", type=float, default=None, metavar="F",
        help="override the fit-time quality floor of every model served "
             "(fraction of the best tier's validation quality)",
    )
    serve.add_argument(
        "--trace-sample-rate", type=float, default=0.0, metavar="RATE",
        help="fraction of requests whose full span tree is retained "
             "(head sampling, deterministic; 0 disables tracing)",
    )
    serve.add_argument(
        "--telemetry-window-s", type=float, default=60.0, metavar="S",
        help="sliding window for serve.* latency percentiles and SLO budgets",
    )
    serve.add_argument(
        "--slo-p99-ms", type=float, default=None, metavar="MS",
        help="window p99 latency target; breaches record SLO events",
    )
    serve.add_argument(
        "--stats-json", metavar="PATH",
        help="write the final telemetry snapshot (stats + health + full "
             "metrics registry) to PATH on shutdown; render it with "
             "`repro stats PATH`",
    )
    add_verbosity(serve)

    registry_cmd = sub.add_parser(
        "registry", help="inspect and manage a versioned model registry"
    )
    registry_sub = registry_cmd.add_subparsers(dest="registry_command", required=True)

    def add_registry_common(p):
        p.add_argument("--registry", required=True, metavar="ROOT",
                       help="model-registry root directory")
        p.add_argument("--model-name", default=None, metavar="NAME",
                       help="restrict to one registered model")
        add_verbosity(p)

    reg_list = registry_sub.add_parser("list", help="list models and versions")
    add_registry_common(reg_list)
    reg_fsck = registry_sub.add_parser(
        "fsck", help="verify (and repair) registry consistency"
    )
    add_registry_common(reg_fsck)
    reg_fsck.add_argument(
        "--no-checksums", action="store_true",
        help="structural recovery only; skip per-version checksum verification",
    )
    reg_publish = registry_sub.add_parser(
        "publish", help="publish a saved model directory as the next version"
    )
    reg_publish.add_argument("--registry", required=True, metavar="ROOT",
                             help="model-registry root directory")
    reg_publish.add_argument("--model-name", required=True, metavar="NAME",
                             help="registry model name to publish under")
    reg_publish.add_argument("--model", required=True, metavar="DIR",
                             help="saved-model directory (`fit --save`)")
    add_verbosity(reg_publish)

    ingest = sub.add_parser(
        "ingest", help="stream row events from a CSV drop directory into a "
                       "crash-safe segment log with incremental graph maintenance"
    )
    ingest.add_argument(
        "--log-root", required=True, metavar="DIR",
        help="segment-log directory (created with --init-from, reopened otherwise)",
    )
    ingest.add_argument(
        "--init-from", metavar="SNAPSHOT", default=None,
        help="initialize a new log from a database snapshot directory "
             "(CSV + schema, as written by save_database); errors if the "
             "log already exists",
    )
    ingest.add_argument(
        "--drop-dir", metavar="DIR", default=None,
        help="drop directory to poll for <table>*.csv event files "
             "(processed files are renamed *.ingested)",
    )
    ingest.add_argument(
        "--out-of-order", choices=["reject", "reorder"], default="reject",
        help="policy for events older than the committed watermark: reject "
             "them, or reorder within the batch first (default: reject)",
    )
    ingest.add_argument(
        "--stats-cutoff", type=int, default=None, metavar="TS",
        help="feature-statistics cutoff timestamp (freeze normalization "
             "stats at this event time; required for bit-identical "
             "incremental feature encoding)",
    )
    ingest.add_argument(
        "--follow", action="store_true",
        help="keep polling the drop directory instead of exiting after one pass",
    )
    ingest.add_argument(
        "--poll-interval", type=float, default=2.0, metavar="SECONDS",
        help="sleep between polls with --follow (default: 2.0)",
    )
    ingest.add_argument(
        "--max-polls", type=int, default=0, metavar="N",
        help="with --follow, stop after N polls (0 = until interrupted)",
    )
    ingest.add_argument(
        "--compact", action="store_true",
        help="compact the log (merge segments into a new base snapshot) "
             "after processing",
    )
    add_verbosity(ingest)

    stats = sub.add_parser(
        "stats", help="render a serving telemetry snapshot (from `repro "
                      "serve --stats-json` or a captured stats response)"
    )
    stats.add_argument("snapshot", help="path to the snapshot JSON file")
    stats.add_argument(
        "--format", choices=["text", "json", "prometheus"], default="text",
        help="rendering: human table, raw JSON, or Prometheus text format",
    )
    add_verbosity(stats)
    return parser


def _cmd_tasks() -> int:
    for name, spec in REGISTRY.items():
        print(f"{name}:")
        for task in spec.tasks:
            print(f"  {task.name:<14} [{task.kind}, metric={task.metric}]")
            print(f"    {task.query}")
    return 0


def _planner_config(args: argparse.Namespace) -> PlannerConfig:
    """``PlannerConfig()`` with the model flags that were given."""
    flags = {
        "hidden_dim": args.hidden,
        "num_layers": args.layers,
        "epochs": args.epochs,
        "conv_type": args.conv,
        "infer_batch_size": args.infer_batch_size,
    }
    return PlannerConfig(seed=args.seed, **{k: v for k, v in flags.items() if v is not None})


def _resilience_config(args: argparse.Namespace) -> Optional[ResilienceConfig]:
    """A ResilienceConfig when any fault-tolerance flag is set, else None."""
    if not (args.checkpoint_dir or args.resume or args.fallback):
        return None
    if args.resume and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir")
    return ResilienceConfig(
        checkpoint_dir=args.checkpoint_dir, resume=args.resume, fallback=args.fallback
    )


def _router_config(args: argparse.Namespace):
    """A RouterConfig when --route/--quality-floor ask for one, else None."""
    if args.route is None and args.quality_floor is None:
        return None
    kwargs = {"route": args.route or "auto"}
    if args.quality_floor is not None:
        kwargs["quality_floor"] = args.quality_floor
    return RouterConfig(**kwargs)


def _build_dataset(args: argparse.Namespace):
    spec = get_dataset(args.dataset)
    _log.info(
        "generating dataset", extra={"dataset": args.dataset, "scale": args.scale, "seed": args.seed},
    )
    with obs_trace.span("cli.dataset_build") as span:
        db = spec.build(scale=args.scale, seed=args.seed)
        rows = sum(t.num_rows for t in db)
        span.add_counter("dataset.rows", rows)
    db.source = "generated"
    _log.info("dataset ready", extra={"dataset": args.dataset, "rows": rows})
    return spec, db


def _fit_and_report(
    db, query_text: str, num_train_cutoffs: Optional[int], args, save: Optional[str]
) -> int:
    span = db.time_span()
    horizon = parse(query_text).horizon_seconds
    cutoffs = {} if num_train_cutoffs is None else {"num_train_cutoffs": num_train_cutoffs}
    split = make_temporal_split(span[0], span[1], horizon, **cutoffs)
    print(f"query: {query_text}")
    print(
        f"split: {len(split.train_cutoffs)} train cutoffs, "
        f"val@{split.val_cutoff}, test@{split.test_cutoff}"
    )
    config = _planner_config(args)
    planner = PredictiveQueryPlanner(db, config, resilience=_resilience_config(args))
    _log.info("fit started", extra={"epochs": config.epochs, "layers": config.num_layers})
    model = planner.fit(query_text, split, router=_router_config(args))
    if model.quality:
        router, per_row = model.router, model.cost.per_row_ms()
        print(f"routing: default route {router.route}, quality floor {router.quality_floor:.2f}")
        for tier in model.available_tiers():
            print(f"  {tier:<7} quality {model.quality[tier]:.4f}  ~{per_row[tier]:.4f} ms/row")
    if model.degraded_reason is not None:
        print(
            f"WARNING: degraded from gnn to "
            f"{model.available_tiers()[-1]} ({model.degraded_reason})"
        )
    trainer = model.node_trainer or model.link_trainer
    history = trainer.history if trainer is not None else None
    if history is not None and history.epoch_seconds:
        resumed = (
            f" (resumed from epoch {history.resumed_from_epoch})"
            if history.resumed_from_epoch else ""
        )
        print(
            f"trained {len(history.epoch_seconds)} epochs in "
            f"{history.total_seconds:.2f}s "
            f"({history.examples_per_sec[-1]:.0f} examples/sec last epoch)"
            + resumed
        )
    print("test metrics:")
    for name, value in model.evaluate(split.test_cutoff).items():
        print(f"  {name:<20} {value:.4f}")
    if save:
        model.save(save)
        print(f"model saved to {save}")
    return 0


def _run_traced(args: argparse.Namespace, run) -> int:
    """Run ``run()`` under trace collection when --profile/--trace-json ask for it."""
    profiling = bool(args.profile or args.trace_json)
    if not profiling:
        return run()
    registry = obs.get_registry()
    registry.reset()
    with obs.collect() as trace:
        code = run()
    _publish_trainer_metrics(registry, trace)
    if args.profile:
        print()
        print(obs.render_trace(trace, registry))
    if args.trace_json:
        obs.write_trace_json(args.trace_json, trace, registry)
        print(f"trace written to {args.trace_json}")
    return code


def _publish_trainer_metrics(registry, trace) -> None:
    """Summarize span counters into the metrics registry for export."""
    train_span = trace.find("planner.train")
    if train_span is None:
        return
    totals = {}
    for span in trace.iter_spans():
        for name, value in span.counters.items():
            totals[name] = totals.get(name, 0.0) + value
    epochs = totals.get("train.epochs", 0.0)
    seconds = totals.get("train.seconds", 0.0)
    if epochs:
        registry.gauge("train.epochs").set(epochs)
        registry.gauge("train.mean_epoch_seconds").set(seconds / epochs)
    if seconds > 0:
        registry.gauge("train.examples_per_sec").set(totals.get("train.examples", 0.0) / seconds)
    # (plan-cache counters hit the registry directly at the point of
    # use; only span-local counters are summarized here.)
    for name in (
        "sampler.nodes_sampled",
        "sampler.edges_sampled",
        "sampler.fanout_truncations",
    ):
        if name in totals:
            registry.counter(name).inc(totals[name])


def _cmd_fit(args: argparse.Namespace) -> int:
    task = get_dataset(args.dataset).task(args.task)
    _, db = _build_dataset(args)
    print(f"dataset {args.dataset} (scale {args.scale}): " + ", ".join(
        f"{t.name}={t.num_rows}" for t in db
    ))
    return _fit_and_report(db, task.query, task.num_train_cutoffs, args, args.save)


def _cmd_query(args: argparse.Namespace) -> int:
    _, db = _build_dataset(args)
    return _fit_and_report(db, args.pql, args.train_cutoffs, args, None)


def _cmd_sql(args: argparse.Namespace) -> int:
    _, db = _build_dataset(args)
    result = execute_sql(db, args.statement)
    print("  ".join(result.column_names))
    for i, row in enumerate(result.iter_rows()):
        if i >= args.max_rows:
            print(f"... ({result.num_rows - args.max_rows} more rows)")
            break
        print("  ".join(str(row[name]) for name in result.column_names))
    return 0


def _open_service(args: argparse.Namespace, config):
    """The service ``repro serve`` runs, over the data snapshot its
    artifact carries.  Only an artifact saved before snapshots existed
    falls back to regenerating ``--dataset``."""
    from repro.pql import NoSnapshotError, PredictiveModel
    from repro.serve import ModelRegistry, PredictionService

    registry = ModelRegistry(args.registry) if args.registry else None

    def open_over(db):
        if registry is not None:
            return PredictionService.from_registry(
                registry, args.model_name, db, version=args.model_version, config=config,
            )
        return PredictionService(PredictiveModel.load(args.model, db), config=config,
                                 name=args.model)

    try:
        return open_over(None)
    except NoSnapshotError as err:
        if args.dataset is None:
            raise NoSnapshotError(
                f"{err}: add --dataset NAME, with the --scale and --seed it was "
                f"fitted at, to regenerate it (or save the model again)"
            ) from None
        _, db = _build_dataset(args)
        return open_over(db)


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.obs.report import render_data_summary, stats_document
    from repro.pql import NoSnapshotError
    from repro.resilience import CorruptModelError
    from repro.serve import RegistryError, ServeConfig, serve_loop

    if args.registry and not args.model_name:
        raise SystemExit("--registry requires --model-name")
    if not 0.0 <= args.trace_sample_rate <= 1.0:
        raise SystemExit("--trace-sample-rate must be in [0, 1]")
    config = ServeConfig(
        max_batch_size=args.max_batch_size,
        max_wait_ms=args.max_wait_ms,
        max_queue_depth=args.queue_depth,
        default_deadline_ms=args.deadline_ms,
        latency_budget_ms=args.latency_budget_ms,
        fallback=not args.no_fallback,
        route=args.route,
        quality_floor=args.quality_floor,
        telemetry_window_s=args.telemetry_window_s,
        trace_sample_rate=args.trace_sample_rate,
        slo_p99_ms=args.slo_p99_ms,
    )
    try:
        service = _open_service(args, config)
    except (OSError, json.JSONDecodeError, CorruptModelError, NoSnapshotError,
            RegistryError) as err:
        # A missing, corrupt or unservable artifact is an operator error:
        # one line, exit 2, before anything else is built.
        print(f"repro serve: cannot load {args.model or args.registry}: {err}",
              file=sys.stderr)
        return 2
    if args.warmup:
        warmed = service.warmup(args.warmup)
        _log.info("model warmed", extra={"entities": warmed})
    # SIGTERM/SIGINT land between turns of the single-threaded loop: out
    # of the blocking stdin read, or — mid-batch — once everything already
    # admitted is answered.  Then the stats snapshot flushes and the
    # process exits 0.
    import signal

    from repro.serve import ShutdownLatch

    shutdown = ShutdownLatch()
    previous_handlers = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        previous_handlers[sig] = signal.signal(sig, shutdown.request)
    # The ready line goes to stderr: stdout carries only protocol
    # responses, and subprocess clients wait on this line before
    # sending their first request.
    print(
        f"ready: {service.name} ({service.model.task_type.value}) "
        f"{render_data_summary(service.model.data_summary())}",
        file=sys.stderr, flush=True,
    )
    try:
        answered = serve_loop(service, sys.stdin, sys.stdout, shutdown)
    finally:
        for sig, handler in previous_handlers.items():
            signal.signal(sig, handler)
        if args.stats_json:
            with open(args.stats_json, "w", encoding="utf-8") as handle:
                json.dump(stats_document(service), handle, indent=2)
                handle.write("\n")
            print(f"telemetry snapshot written to {args.stats_json}",
                  file=sys.stderr, flush=True)
        service.close()
    if shutdown.requested:
        print("drained and shut down gracefully", file=sys.stderr, flush=True)
    print(f"served {answered} requests", file=sys.stderr, flush=True)
    return 0


def _cmd_registry(args: argparse.Namespace) -> int:
    import json

    from repro.serve import ModelRegistry, RegistryError

    try:
        registry = ModelRegistry(args.registry)
        if args.registry_command == "publish":
            version = registry.publish_dir(args.model, args.model_name)
            print(f"published {args.model} as {args.model_name} v{version}")
            return 0
        if args.registry_command == "fsck":
            report = registry.fsck(
                name=args.model_name, verify_checksums=not args.no_checksums
            )
            print(json.dumps(report, indent=2))
            return 0 if report["clean"] else 1
        # list
        names = [args.model_name] if args.model_name else registry.names()
        if not names:
            print(f"registry {args.registry} has no published models")
            return 0
        for name in names:
            latest = None
            versions = registry.versions(name)
            if versions:
                latest = registry.latest(name)
            print(f"{name}: latest=v{latest}" if latest is not None
                  else f"{name}: no published versions")
            for version in versions:
                entry = registry.describe(name, version)
                marker = "*" if version == latest else " "
                print(
                    f"  {marker} v{version}  {entry.get('task_type', '?'):<12} "
                    f"sha {entry['manifest_sha256'][:12]}  {entry.get('query', '')}"
                )
        return 0
    except RegistryError as err:
        print(f"registry error: {err}", file=sys.stderr)
        return 1


def _cmd_ingest(args: argparse.Namespace) -> int:
    import json
    import os
    import time

    from repro.graph.cache import graph_fingerprint
    from repro.ingest import CSVDropSource, IngestPipeline, SegmentLog
    from repro.relational.csvio import load_database

    root = args.log_root
    if args.init_from is not None:
        if os.path.exists(os.path.join(root, "MANIFEST.json")):
            print(f"ingest error: log already exists at {root!r}; "
                  f"drop --init-from to reopen it", file=sys.stderr)
            return 1
        log = SegmentLog.create(root, load_database(args.init_from))
        print(f"initialized segment log at {root} (base {log.base_name})")
    else:
        try:
            log = SegmentLog.open(root)
        except FileNotFoundError:
            print(f"ingest error: no segment log at {root!r}; "
                  f"use --init-from SNAPSHOT to create one", file=sys.stderr)
            return 1

    pipeline = IngestPipeline(
        log, stats_cutoff=args.stats_cutoff, out_of_order=args.out_of_order
    )
    source = None
    if args.drop_dir is not None:
        schemas = {table.name: table.schema for table in pipeline.db}
        source = CSVDropSource(args.drop_dir, schemas)

    polls = 0
    try:
        while True:
            events = source.poll() if source is not None else []
            if events:
                report = pipeline.process(events)
                print(json.dumps(report.summary()))
            polls += 1
            if not args.follow:
                break
            if args.max_polls and polls >= args.max_polls:
                break
            time.sleep(args.poll_interval)
    except KeyboardInterrupt:
        pass

    if args.compact:
        base = pipeline.compact()
        print(f"compacted into {base}")
    summary = {
        "watermark": pipeline.watermark,
        "segments": len(log.segments),
        "base": log.base_name,
        "graph_fingerprint": graph_fingerprint(pipeline.graph),
        "quarantined_pending": len(pipeline.pending),
    }
    print(json.dumps(summary))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.obs.report import render_prometheus, render_stats_text

    with open(args.snapshot, encoding="utf-8") as handle:
        document = json.load(handle)
    if args.format == "json":
        print(json.dumps(document, indent=2))
    elif args.format == "prometheus":
        print(render_prometheus(document.get("metrics", {})), end="")
    else:
        print(render_stats_text(document))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    obs.configure_logging(getattr(args, "verbose", 0))
    injector = FaultInjector.from_env()
    if injector is not None:
        install_injector(injector)
        _log.warning(
            "fault injection armed", extra={"specs": [str(s) for s in injector.specs]},
        )
    if args.command == "tasks":
        return _cmd_tasks()
    if args.command == "fit":
        return _run_traced(args, lambda: _cmd_fit(args))
    if args.command == "query":
        return _run_traced(args, lambda: _cmd_query(args))
    if args.command == "sql":
        return _cmd_sql(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "registry":
        return _cmd_registry(args)
    if args.command == "ingest":
        return _cmd_ingest(args)
    if args.command == "stats":
        return _cmd_stats(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
