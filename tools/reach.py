#!/usr/bin/env python
"""Product reach: which ``src/repro`` functions no product path calls.

The driver runs every product path a user has — each CLI verb and the
variants that take their own code (plain, routed, link, GAT and
regression fits, ``--profile``, checkpoint kill + ``--resume``,
``--fallback`` under an injected fault, PQL ``WHERE``, all eight wire
verbs on plain, routed, link, registry and legacy models, registry
publish/list/fsck, ``stats`` in every format, ingest with
``--init-from``, a new categorical value and ``--compact``), the
scripts under ``examples/``, the paper-evidence command and the
``benchmarks/e2e`` smoke run — as subprocesses at small scale.  Each
Python process they start imports a ``sitecustomize`` hook that
installs ``sys.setprofile``/``threading.setprofile`` and records the
``(file, co_firstlineno)`` of every code object under ``src/repro``
it enters.  Every ``def`` under ``src/repro`` that no run entered is
*unreached*.

An unreached function stays only with a reason: the ``REASONS`` table
maps a ``path:qualname`` to why the code is kept (a fault path a
run cannot reach, a legacy reader, a test oracle, a public contract).
The report lists the unreached functions by file with line totals
(a function nested in an unreached one is counted with it), and the
exit code is 1 when any of them has no reason.

Stdlib only.  About 2.5 minutes on a 2-CPU host, in a fresh
temporary directory::

    PYTHONPATH=src python tools/reach.py
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PACKAGE = SRC / "repro"

#: ``path:qualname`` (path relative to ``src/repro``) -> why an
#: unreached function stays.  Each entry names one function, so a new
#: unreached method of a listed class needs a reason of its own.
_ACCESSOR = ("accessor or transform only the tests call; the next candidate "
             "for deletion (ROADMAP item 16)")
_ABSTRACT = "abstract hook: every subclass overrides it"
_ERROR = "error path: raised to an in-process caller on invalid input"
_REPR = "debugging aid, called by no product output"
_FAULT = "fault injection for in-process callers (resilience tests)"
_GUARD = "numeric guard: runs only on a non-finite loss or gradient"
_HISTOGRAM = "plain histogram instrument: benchmarks/bench_serving.py records through it"
_SOURCE = ("ingest source for an embedding process (docs/architecture.md); "
           "the CLI reads CSV drops")
_NO_GRAD = ("backward of an op the shipped models run only under no_grad; kept so "
            "the op stays differentiable (gradchecked in tests/test_nn_tensor.py)")
REASONS: Dict[str, str] = {
    # -- fault and recovery paths a driver run cannot take without breaking it --
    "resilience/faults.py:get_injector": _FAULT,
    "resilience/faults.py:uninstall": _FAULT,
    "resilience/faults.py:injected.__init__": _FAULT,
    "resilience/faults.py:injected.__enter__": _FAULT,
    "resilience/faults.py:injected.__exit__": _FAULT,
    "resilience/guards.py:DivergenceError.__init__": _GUARD,
    "resilience/guards.py:DivergenceGuard.record_recovery": _GUARD,
    "gnn/trainer.py:_Diverged.__init__": _GUARD,
    "serve/protocol.py:ShutdownLatch.request": "SIGTERM handler of repro serve (graceful drain, tests/test_serving.py)",
    # -- error paths --
    "ingest/events.py:EventValidationError.__init__": _ERROR + " (the pipeline screens and counts rejects)",
    "ingest/events.py:UnresolvedReferenceError.__init__": _ERROR + " (the pipeline quarantines instead)",
    "nn/tensor.py:Tensor._item_error": _ERROR + ": item() of a multi-element tensor",
    # -- abstract hooks --
    "baselines/trees.py:_Boosting._base_score": _ABSTRACT,
    "baselines/trees.py:_Boosting._grad_hess": _ABSTRACT,
    "baselines/trees.py:_Boosting._loss": _ABSTRACT,
    "nn/module.py:Module.forward": _ABSTRACT,
    "nn/optim.py:Optimizer.step": _ABSTRACT,
    # -- autograd --
    "nn/tensor.py:Tensor.__matmul__.<locals>.backward": _NO_GRAD,
    "nn/tensor.py:Tensor.sigmoid.<locals>.backward": _NO_GRAD,
    "nn/tensor.py:Tensor.transpose.<locals>.backward": _NO_GRAD,
    "nn/tensor.py:Tensor.slice_rows": "ROADMAP item 17's per-hop trimming builds on it",
    # -- library surfaces a product path does not drive --
    "baselines/linear.py:LogisticRegression.predict": "estimator API: hard labels beside predict_proba, which the product reads",
    "baselines/trees.py:GradientBoostingClassifier.predict": "estimator API: hard labels beside predict_proba, which the product reads",
    "baselines/trees.py:DecisionTreeRegressor.fit": "standalone tree: tests/oracles.py's LoopTreeGrower subclasses it; boosting grows through fit_binned",
    "baselines/trees.py:DecisionTreeRegressor.predict": "standalone tree: tests/oracles.py's LoopTreeGrower subclasses it; boosting grows through fit_binned",
    "baselines/trees.py:DecisionTreeRegressor.num_leaves": "standalone tree: tests/oracles.py's LoopTreeGrower subclasses it; boosting grows through fit_binned",
    "ingest/sources.py:InProcessSource.__init__": _SOURCE,
    "ingest/sources.py:InProcessSource.emit": _SOURCE,
    "ingest/sources.py:InProcessSource.emit_event": _SOURCE,
    "ingest/sources.py:InProcessSource.__len__": _SOURCE,
    "ingest/sources.py:InProcessSource.poll": _SOURCE,
    "pql/planner.py:PredictiveModel.materialize": "documented library API (docs/pql_reference.md): predictions as a table",
    "pql/ast.py:Condition.__str__": "query text of a saved model with WHERE conditions; no registered task has one",
    "gnn/trainer.py:LinkTaskTrainer.reconcile": "refresh_model on a LIST model; the paths that refresh hold churn models",
    "serve/registry.py:ModelRegistry.publish": "in-process publish of a fitted model (bench_serving, docs/serving.md); the CLI publishes a directory",
    "serve/service.py:PredictionService.rank": "in-process serving API (docs/serving.md); repro serve drives the batcher",
    "serve/service.py:PredictionService.swap_model": "in-process serving API (docs/serving.md); repro serve drives the batcher",
    "serve/service.py:PredictionService.restore": "in-process serving API (docs/serving.md); repro serve drives the batcher",
    "obs/metrics.py:Histogram.observe": _HISTOGRAM,
    "obs/metrics.py:Histogram.observe_many": _HISTOGRAM,
    "obs/metrics.py:Histogram.count": _HISTOGRAM,
    "obs/metrics.py:Histogram._snapshot": _HISTOGRAM,
    "obs/metrics.py:Histogram.summary": _HISTOGRAM,
    "obs/metrics.py:Histogram.to_dict": _HISTOGRAM,
    "obs/metrics.py:MetricsRegistry.histogram": _HISTOGRAM,
    "relational/database.py:Database.snapshot": "public contract: a score at t is a function of snapshot(t) (ROADMAP item 23)",
    # -- accessors and transforms only the tests call --
    "gnn/models.py:HeteroGNN.num_layers": _ACCESSOR,
    "graph/sampler.py:NeighborSampler.num_hops": _ACCESSOR,
    "graph/sampler.py:SampledSubgraph.add_node": "builds subgraphs for the loop-sampler oracle (tests/oracles.py)",
    "graph/hetero.py:HeteroGraph.num_edges": _ACCESSOR,
    "ingest/segments.py:SegmentLog.watermark": _ACCESSOR,
    "resilience/checkpoint.py:CheckpointManager.meta": _ACCESSOR,
    "serve/batcher.py:ResponseFuture.done": _ACCESSOR,
    "serve/service.py:PredictionService.version": _ACCESSOR,
    "nn/module.py:Module.zero_grad": _ACCESSOR,
    "nn/tensor.py:Tensor.detach": _ACCESSOR,
    "nn/optim.py:FlatParamSpace.layout_manifest": _ACCESSOR,
    "nn/optim.py:Optimizer.layout_manifest": _ACCESSOR,
    "obs/metrics.py:WindowedHistogram.count": _ACCESSOR,
    "obs/metrics.py:MetricsRegistry.names": _ACCESSOR,
    "obs/metrics.py:MetricsRegistry.__contains__": _ACCESSOR,
    "obs/metrics.py:reset_registry": "benchmarks/bench_serving.py resets the registry between its modes",
    "obs/trace.py:current_span": _ACCESSOR,
    "relational/algebra.py:select": _ACCESSOR,
    "relational/column.py:Column.empty": _ACCESSOR,
    "relational/column.py:Column.full": _ACCESSOR,
    "relational/column.py:Column.__iter__": _ACCESSOR,
    "relational/column.py:Column.__eq__": _ACCESSOR,
    "relational/column.py:Column.isin": _ACCESSOR,
    "relational/column.py:Column.unique": _ACCESSOR,
    "relational/column.py:Column.sum": _ACCESSOR,
    "relational/column.py:Column.mean": _ACCESSOR,
    "relational/database.py:Database.table_names": _ACCESSOR,
    "relational/database.py:Database.schemas": _ACCESSOR,
    "relational/schema.py:TableSchema.renamed": _ACCESSOR,
    "relational/table.py:Table.empty": _ACCESSOR,
    "relational/table.py:Table.column": _ACCESSOR,
    "relational/table.py:Table.__eq__": _ACCESSOR,
    "relational/table.py:Table.project": _ACCESSOR,
    "relational/table.py:Table.with_column": _ACCESSOR,
    "relational/table.py:Table.renamed": _ACCESSOR,
    # -- debugging aids --
    "graph/hetero.py:HeteroGraph.__repr__": _REPR,
    "nn/tensor.py:Tensor.__repr__": _REPR,
    "obs/trace.py:Span.__repr__": _REPR,
    "pql/tokens.py:Token.__repr__": _REPR,
    "relational/column.py:Column.__repr__": _REPR,
    "relational/database.py:Database.__repr__": _REPR,
    "relational/table.py:Table.__repr__": _REPR,
}


class Function(NamedTuple):
    """One ``def`` under ``src/repro``."""

    path: str       # relative to src/repro
    qualname: str
    first: int      # co_firstlineno: the first decorator's line, else the def's
    lines: int      # first .. end_lineno, decorators included
    parent: Optional[Tuple[str, int]]  # key of the enclosing function, if any

    @property
    def key(self) -> Tuple[str, int]:
        """What the hook records for it: ``(path, co_firstlineno)``."""
        return (self.path, self.first)


def inventory(package: Path = PACKAGE) -> Dict[Tuple[str, int], Function]:
    """Every function and method under ``package``, keyed like the trace."""
    found: Dict[Tuple[str, int], Function] = {}
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node: ast.AST, prefix: str, parent: Optional[Tuple[str, int]]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", parent)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    fn = Function(rel, prefix + child.name, first,
                                  child.end_lineno - first + 1, parent)
                    found[fn.key] = fn
                    visit(child, f"{prefix}{child.name}.<locals>.", fn.key)
                else:
                    visit(child, prefix, parent)

        visit(tree, "", None)
    return found


def reason_for(fn: Function, reasons: Dict[str, str] = REASONS) -> Optional[str]:
    """The ``REASONS`` entry for ``path:qualname``, if any."""
    return reasons.get(f"{fn.path}:{fn.qualname}")


def stale_reasons(functions: Sequence[Function], reasons: Dict[str, str] = REASONS) -> List[str]:
    """``REASONS`` names that are none of ``functions``."""
    names = {f"{fn.path}:{fn.qualname}" for fn in functions}
    return [name for name in reasons if name not in names]


_HOOK = '''\
"""Record every src/repro code object this process enters (tools/reach.py)."""
import os, sys, threading

_ROOT = os.environ["REACH_PACKAGE"]
_SEEN = set()
_OUT = open(os.path.join(os.environ["REACH_OUT"], "%d.txt" % os.getpid()), "a", buffering=1)


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code not in _SEEN:
            _SEEN.add(code)
            if code.co_filename.startswith(_ROOT):
                _OUT.write("%s:%d\\n" % (code.co_filename, code.co_firstlineno))


sys.setprofile(_profile)
threading.setprofile(_profile)
'''


class Driver:
    """Runs product paths under the hook; collects what they entered."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.hits = work / "hits"
        self.hits.mkdir(parents=True)
        hook = work / "hook"
        hook.mkdir()
        (hook / "sitecustomize.py").write_text(_HOOK)
        self.env = dict(os.environ)
        for name in ("REPRO_FAULTS", "REPRO_FAULTS_SEED"):
            self.env.pop(name, None)
        extra = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(hook), str(SRC)] + ([extra] if extra else []))
        self.env["REACH_PACKAGE"] = str(PACKAGE) + os.sep
        self.env["REACH_OUT"] = str(self.hits)
        self.failures: List[str] = []

    def run(self, label: str, argv: Sequence[str], *, stdin: str = "",
            expect: int = 0, env: Optional[Dict[str, str]] = None) -> str:
        """Run ``argv`` under the hook and return its stdout: a full command
        when it starts with this interpreter, else ``repro`` arguments."""
        command = list(argv)
        if command[0] != sys.executable:
            command = [sys.executable, "-m", "repro"] + command
        started = time.perf_counter()
        proc = subprocess.run(
            command, input=stdin, capture_output=True, text=True, cwd=REPO_ROOT,
            env={**self.env, **(env or {})},
        )
        took = time.perf_counter() - started
        ok = proc.returncode == expect
        print(f"  {'ok ' if ok else 'BAD'} {took:6.1f}s  {label}", flush=True)
        if not ok:
            self.failures.append(
                f"{label}: exit {proc.returncode}, expected {expect}\n{proc.stderr[-2000:]}")
        return proc.stdout

    def reached(self) -> Set[Tuple[str, int]]:
        """``(path relative to src/repro, co_firstlineno)`` of every entry."""
        prefix = str(PACKAGE) + os.sep
        keys = set()
        for hits in self.hits.glob("*.txt"):
            for line in hits.read_text().splitlines():
                filename, _, lineno = line.rpartition(":")
                if filename.startswith(prefix) and lineno.isdigit():
                    keys.add((Path(filename[len(prefix):]).as_posix(), int(lineno)))
        return keys


_FIT = ["--scale", "0.3", "--epochs", "2", "--layers", "1", "--hidden", "8"]
_CUTOFF = 4102444800


def _requests(*, rank: bool, registry: bool) -> str:
    lines = [
        {"id": 1, "op": "ping"},
        {"id": 2, "op": "predict", "entity_keys": [1, 2, 3], "cutoff": _CUTOFF},
        {"id": 3, "op": "rank", "entity_keys": [1, 2], "cutoff": _CUTOFF, "k": 3},
        {"id": 4, "op": "predict", "entity_keys": [1], "cutoff": _CUTOFF, "route": "green"},
        {"id": 5, "op": "stats"},
        {"id": 6, "op": "stats", "format": "prometheus"},
        {"id": 7, "op": "health"},
        {"id": 8, "op": "lifecycle"},
        {"id": 9, "op": "bogus"},
    ]
    if not rank:
        lines[2]["op"] = "predict"
        del lines[2]["k"]
    if registry:
        lines += [{"id": 10, "op": "compare", "version": 1},
                  {"id": 11, "op": "swap", "version": 1}]
    return "".join(json.dumps(line) + "\n" for line in lines)


def drive_cli(d: Driver) -> None:
    """Every verb and the fit/serve/ingest variants that take their own code."""
    w = d.work
    d.run("tasks", ["tasks"])
    d.run("fit churn --profile --trace-json -v",
          ["fit", "--dataset", "ecommerce", "--task", "churn", *_FIT, "--save", str(w / "plain"),
           "--profile", "--trace-json", str(w / "trace.json"), "-v"])
    d.run("fit churn --route auto", ["fit", "--dataset", "ecommerce", "--task", "churn",
                                     *_FIT, "--route", "auto", "--save", str(w / "routed")])
    d.run("fit churn --quality-floor", ["fit", "--dataset", "ecommerce", "--task", "churn",
                                        *_FIT, "--quality-floor", "0.9", "--infer-batch-size", "16"])
    d.run("fit spend (regression) --route auto",
          ["fit", "--dataset", "ecommerce", "--task", "spend", *_FIT, "--route", "auto"])
    d.run("fit next_product (link)", ["fit", "--dataset", "ecommerce", "--task", "next_product",
                                      *_FIT, "--save", str(w / "link")])
    d.run("fit next_product --route auto", ["fit", "--dataset", "ecommerce", "--task",
                                            "next_product", *_FIT, "--route", "auto",
                                            "--save", str(w / "link_routed")])
    d.run("fit forum --conv gat", ["fit", "--dataset", "forum", "--task", "engagement",
                                   *_FIT, "--conv", "gat"])
    d.run("fit clinical", ["fit", "--dataset", "clinical", "--task", "readmission", *_FIT])
    ckpt = ["fit", "--dataset", "ecommerce", "--task", "churn", "--scale", "0.3",
            "--epochs", "3", "--layers", "1", "--hidden", "8", "--checkpoint-dir", str(w / "ckpt")]
    d.run("fit killed at epoch 1", ckpt, expect=1,
          env={"REPRO_FAULTS": "trainer.epoch@1:kill", "REPRO_FAULTS_SEED": "0"})
    d.run("fit --resume", ckpt + ["--resume"])
    d.run("fit --fallback under a raised fault",
          ["fit", "--dataset", "ecommerce", "--task", "churn", *_FIT, "--fallback",
           "--save", str(w / "degraded")],
          env={"REPRO_FAULTS": "trainer.step%1.0:raise", "REPRO_FAULTS_SEED": "0"})
    d.run("fit next_product --fallback under a raised fault",
          ["fit", "--dataset", "ecommerce", "--task", "next_product", *_FIT, "--fallback"],
          env={"REPRO_FAULTS": "trainer.step%1.0:raise", "REPRO_FAULTS_SEED": "0"})
    d.run("query with WHERE filters",
          ["query", "--dataset", "ecommerce", *_FIT, "--profile",
           "PREDICT COUNT(orders WHERE amount > 100) > 0 FOR EACH customers.id "
           "WHERE region = 'eu' ASSUMING HORIZON 30 DAYS"])
    d.run("query with an AGE filter",
          ["query", "--dataset", "forum", *_FIT, "--train-cutoffs", "2",
           "PREDICT COUNT(votes) FOR EACH posts.id WHERE AGE < 14 DAYS "
           "ASSUMING HORIZON 14 DAYS"])
    for statement in ("SELECT region, COUNT(*) AS n FROM customers GROUP BY region",
                      "SELECT DISTINCT region AS r FROM customers WHERE age > 30 AND region != 'x'",
                      "SELECT id, age FROM customers WHERE age < 60 AND age >= 18"):
        d.run("sql", ["sql", "--dataset", "ecommerce", "--scale", "0.3", statement])

    for name, rank in (("plain", False), ("routed", False), ("link", True),
                       ("link_routed", True), ("degraded", False)):
        d.run(f"serve {name}", ["serve", "--model", str(w / name), "--warmup", "2",
                                "--stats-json", str(w / f"{name}.stats.json"),
                                "--trace-sample-rate", "1", "--slo-p99-ms", "50",
                                "--latency-budget-ms", "1000", "--deadline-ms", "60000"],
              stdin=_requests(rank=rank, registry=False))
    d.run("serve routed, its model path raising",
          ["serve", "--model", str(w / "routed"), "--route", "red"],
          stdin=_requests(rank=False, registry=False),
          env={"REPRO_FAULTS": "service.execute%1.0:raise", "REPRO_FAULTS_SEED": "0"})
    d.run("serve routed past its request deadline",
          ["serve", "--model", str(w / "routed"), "--route", "red", "--deadline-ms", "0.000001"],
          stdin=_requests(rank=False, registry=False))
    d.run("serve routed over a latency budget",
          ["serve", "--model", str(w / "routed"), "--route", "red", "--latency-budget-ms", "0.001"],
          stdin=_requests(rank=False, registry=False) * 3)
    for legacy in sorted((REPO_ROOT / "tests" / "fixtures").glob("legacy_*")):
        d.run(f"serve {legacy.name}",
              ["serve", "--model", str(legacy), "--dataset", "ecommerce", "--scale", "0.2"],
              stdin=_requests(rank="link" in legacy.name, registry=False))

    reg = str(w / "registry")
    for _ in range(2):
        d.run("registry publish", ["registry", "publish", "--registry", reg,
                                   "--model-name", "churn", "--model", str(w / "plain")])
    d.run("registry publish killed before its commit",
          ["registry", "publish", "--registry", reg, "--model-name", "churn",
           "--model", str(w / "plain")], expect=1,
          env={"REPRO_FAULTS": "registry.index.commit@1:kill", "REPRO_FAULTS_SEED": "0"})
    d.run("registry list", ["registry", "list", "--registry", reg])
    d.run("registry fsck", ["registry", "fsck", "--registry", reg])
    d.run("serve --registry (compare, swap)",
          ["serve", "--registry", reg, "--model-name", "churn", "--model-version", "2"],
          stdin=_requests(rank=False, registry=True))
    for fmt in ("text", "json", "prometheus"):
        d.run(f"stats --format {fmt}", ["stats", str(w / "plain.stats.json"), "--format", fmt])
    drive_ingest(d)


def drive_ingest(d: Driver) -> None:
    """Drop files with rows, a new customer with an unseen region, a malformed
    row, an invalid event and an order for an unknown customer; then compaction."""
    w = d.work
    snap, drop, log = w / "snapshot", w / "drop", w / "log"
    drop.mkdir()
    end = d.run("save a snapshot", [sys.executable, "-c", f"""
from repro.datasets import get_dataset
from repro.relational.csvio import save_database
db = get_dataset("ecommerce").build(scale=0.3, seed=0)
save_database(db, {str(snap)!r})
end = db.time_span()[1]
customers, orders = db["customers"], db["orders"]
new = customers.row(len(customers) - 1)
new.update(id=10**6, region="atlantis", signup_ts=end + 60)
order = orders.row(len(orders) - 1)
order.update(id=10**6, customer_id=10**6, ts=end + 3600)
orphan = dict(order, id=10**6 + 1, customer_id=10**7)
invalid = dict(new, id=10**6 + 2, age="not-a-number")
for name, table, rows in (("customers", customers, [new, invalid]), ("orders", orders, [order, orphan])):
    cols = [c.name for c in table.schema.columns]
    with open({str(drop)!r} + "/" + name + "-new.csv", "w") as fh:
        fh.write(",".join(cols) + "\\n")
        for row in rows:
            fh.write(",".join("" if row[c] is None else str(row[c]) for c in cols) + "\\n")
        fh.write("1,2\\n")
print(end)
"""])
    d.run("ingest --init-from --drop-dir --stats-cutoff",
          ["ingest", "--log-root", str(log), "--init-from", str(snap), "--drop-dir", str(drop),
           "--stats-cutoff", end.strip() or "0"])
    d.run("ingest --follow --compact",
          ["ingest", "--log-root", str(log), "--drop-dir", str(drop), "--follow",
           "--max-polls", "1", "--poll-interval", "0", "--compact"])


def drive_examples(d: Driver) -> None:
    """The scripts under ``examples/``."""
    for script in sorted((REPO_ROOT / "examples").glob("*.py")):
        d.run(f"examples/{script.name}", [sys.executable, str(script)])


def drive_evidence(d: Driver) -> None:
    """The paper-evidence command and the ``benchmarks/e2e`` smoke run."""
    d.run("evidence command", [
        sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider", "benchmarks",
        "--ignore=benchmarks/e2e", "--ignore=benchmarks/bench_serving.py",
        "--ignore=benchmarks/bench_routing.py", "--ignore=benchmarks/bench_ingest.py",
        "--benchmark-disable"], env={"OPENBLAS_NUM_THREADS": "1"})
    for trace in ("0", "1"):
        d.run(f"benchmarks/e2e smoke --trace {trace}",
              [sys.executable, "benchmarks/e2e/run.py", "--smoke", "--trace", trace,
               "--out", str(d.work / f"e2e-{trace}.json")])


def report(functions: Dict[Tuple[str, int], Function], reached: Set[Tuple[str, int]]) -> Tuple[List[Function], List[Function]]:
    """Print unreached functions by file; return (all unreached, those without a reason)."""
    unreached = {key: fn for key, fn in functions.items() if key not in reached}
    # A function nested in an unreached one is counted with its parent.
    top = [fn for fn in unreached.values() if fn.parent not in unreached]
    by_file: Dict[str, List[Function]] = {}
    for fn in sorted(top, key=lambda f: (f.path, f.first)):
        by_file.setdefault(fn.path, []).append(fn)
    missing: List[Function] = []
    print(f"\nunreached: {len(top)} functions, {sum(f.lines for f in top)} lines "
          f"(of {len(functions)} functions, {len(reached & set(functions))} reached)")
    for path, fns in by_file.items():
        print(f"\n{path}  ({len(fns)} functions, {sum(f.lines for f in fns)} lines)")
        for fn in fns:
            why = reason_for(fn)
            if why is None:
                missing.append(fn)
            print(f"  {fn.first:5d} {fn.lines:4d}  {fn.qualname}  "
                  f"{'-- ' + why if why else '** NO REASON **'}")
    return top, missing


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the driver, print the report; exit 1 on an unreached function with no reason."""
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    work = Path(tempfile.mkdtemp(prefix="reach-"))
    try:
        d = Driver(work)
        print("product paths:")
        drive_cli(d)
        drive_examples(d)
        drive_evidence(d)
        functions = inventory()
        top, missing = report(functions, d.reached())
        stale = stale_reasons(top)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for pattern in stale:
        print(f"note: REASONS entry {pattern!r} names no unreached function")
    for failure in d.failures:
        print(f"PROBLEM: a product path failed: {failure}")
    if missing:
        print(f"PROBLEM: {len(missing)} unreached functions have no reason "
              f"(marked ** NO REASON ** above)")
    return 1 if (missing or d.failures) else 0


if __name__ == "__main__":
    sys.exit(main())
