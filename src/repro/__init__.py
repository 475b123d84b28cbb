"""repro — Databases as graphs: predictive queries for declarative ML.

A from-scratch reproduction of the PODS 2023 keynote vision (Jure
Leskovec, "Databases as Graphs: Predictive Queries for Declarative
Machine Learning"), later realized as RelBench / Relational Deep
Learning.

The sixty-second tour::

    from repro.datasets import make_ecommerce
    from repro.eval import make_temporal_split
    from repro.pql import PredictiveQueryPlanner

    db = make_ecommerce()                           # a relational database
    span = db.time_span()
    split = make_temporal_split(span[0], span[1], horizon_seconds=30 * 86400)

    planner = PredictiveQueryPlanner(db)
    model = planner.fit(
        "PREDICT COUNT(orders) > 0 FOR EACH customers.id "
        "ASSUMING HORIZON 30 DAYS",
        split,
    )
    print(model.evaluate(split.test_cutoff))        # {'auroc': ..., ...}

Sub-packages:

======================  ====================================================
``repro.relational``    typed column store, schemas, relational algebra
``repro.pql``           the Predictive Query Language and its compiler
``repro.graph``         DB→heterogeneous-temporal-graph compiler + sampler
``repro.nn``            numpy autograd, layers, losses, optimizers
``repro.gnn``           heterogeneous GNNs and trainers
``repro.baselines``     manual features, GBDT, linear models, heuristics
``repro.datasets``      synthetic relational datasets with planted signal
``repro.eval``          metrics and temporal splits
======================  ====================================================
"""

__version__ = "1.0.0"

import os as _os

# Every matmul here is (rows x hidden) @ (hidden x hidden) with hidden ~32:
# too small for OpenBLAS's thread fan-out to pay, and waking its idle
# worker thread costs ~40 ms a call on a shared 2-vCPU host (a 1 s stall
# in the first training batches of one `repro fit` in three).  The
# variable only takes effect when set before numpy loads, so
# ``repro._blas`` also pins numpy's bundled OpenBLAS through its own
# entry point, whatever the import order.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from repro._blas import BLAS as _BLAS  # noqa: E402,F401 — pins on import
from repro.relational import Database, Table, TableSchema, ColumnSpec, ForeignKey, DType
from repro.pql import PlannerConfig, PredictiveQueryPlanner, parse
from repro.eval import make_temporal_split

__all__ = [
    "Database",
    "Table",
    "TableSchema",
    "ColumnSpec",
    "ForeignKey",
    "DType",
    "PredictiveQueryPlanner",
    "PlannerConfig",
    "parse",
    "make_temporal_split",
    "__version__",
]
