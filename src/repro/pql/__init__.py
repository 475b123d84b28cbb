"""PQL — the Predictive Query Language.

The paper's thesis is that ML over a relational database should be
*declarative*: the analyst states **what** to predict; the system
compiles labels, graph, model, and training loop.  PQL is that surface:

.. code-block:: sql

    PREDICT COUNT(orders) > 0
    FOR EACH customers.id
    ASSUMING HORIZON 30 DAYS

    PREDICT SUM(orders.amount WHERE orders.amount > 10)
    FOR EACH customers.id
    ASSUMING HORIZON 90 DAYS

    PREDICT LIST(orders.product_id)
    FOR EACH customers.id
    ASSUMING HORIZON 7 DAYS

* a comparison target (``> 0``) makes the task **binary
  classification**;
* a bare aggregate makes it **regression**;
* ``LIST(child.fk)`` makes it **link prediction** (which related
  entities will appear in the window).

Modules: :mod:`repro.pql.tokens` (lexer), :mod:`repro.pql.ast`,
:mod:`repro.pql.parser`, :mod:`repro.pql.validate` (schema checking +
task typing), :mod:`repro.pql.labeler` (window-aggregate label
computation over DB snapshots), :mod:`repro.pql.planner` (the
query → trained-model compiler and :class:`PredictiveModel`, the one
model it compiles to), and :mod:`repro.pql.router` (the model's
GREEN/YELLOW/RED tier ladder and routing policy).
"""

from repro.pql.ast import (
    Aggregate,
    Comparison,
    Condition,
    ListTarget,
    PredictiveQuery,
    TaskType,
)
from repro.pql.parser import PQLSyntaxError, parse
from repro.pql.validate import PQLValidationError, validate
from repro.pql.labeler import LabelTable, build_label_table
from repro.pql.planner import (
    NoSnapshotError,
    PlannerConfig,
    PredictiveModel,
    PredictiveQueryPlanner,
    RoutedPredictiveModel,
    TrainedPredictiveModel,
    is_routed_dir,
)
from repro.pql.explain import explain_relations
from repro.pql.router import RouteDecision, RouterConfig

__all__ = [
    "Aggregate",
    "Comparison",
    "Condition",
    "ListTarget",
    "PredictiveQuery",
    "TaskType",
    "parse",
    "PQLSyntaxError",
    "validate",
    "PQLValidationError",
    "LabelTable",
    "build_label_table",
    "PlannerConfig",
    "PredictiveQueryPlanner",
    "PredictiveModel",
    "TrainedPredictiveModel",
    "RoutedPredictiveModel",
    "is_routed_dir",
    "explain_relations",
    "RouterConfig",
    "RouteDecision",
    "NoSnapshotError",
]
