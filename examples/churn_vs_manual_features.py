"""Churn prediction: the declarative pipeline vs an analyst's pipeline.

Side-by-side comparison on the same task and the same temporal split:

* **Declarative**: one PQL string into the planner; zero feature code.
* **Manual**: the classic workflow — hand-written windowed aggregates
  flattening the schema into one table, then a gradient-boosted model.

The point of the paper is that the left column of this script is ~5
lines and the right column is the 300-line feature module it calls.

Run:  python examples/churn_vs_manual_features.py
"""

import numpy as np

from repro.baselines import FeatureBuilder, GradientBoostingClassifier, LogisticRegression
from repro.datasets import make_ecommerce
from repro.eval import auroc, average_precision, make_temporal_split
from repro.pql import PredictiveQueryPlanner, build_label_table

DAY = 86400
QUERY = "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS"


def main() -> None:
    db = make_ecommerce(num_customers=300, seed=0)
    start, end = db.time_span()
    split = make_temporal_split(start, end, horizon_seconds=30 * DAY, num_train_cutoffs=3)

    # ---- declarative: the whole ML pipeline is the query --------------
    planner = PredictiveQueryPlanner(db)
    model = planner.fit(QUERY, split)
    gnn_metrics = model.evaluate(split.test_cutoff)

    # ---- manual: labels, features, model, all hand-assembled ----------
    binding = planner.plan(QUERY)
    train = build_label_table(db, binding, split.train_cutoffs)
    test = build_label_table(db, binding, [split.test_cutoff])

    builder = FeatureBuilder(db, "customers")
    print(f"Manual pipeline engineered {builder.num_features} features, e.g.:")
    for name in builder.feature_names[:8]:
        print(f"  - {name}")
    x_train = builder.build(train.entity_keys, train.cutoffs)
    x_test = builder.build(test.entity_keys, test.cutoffs)

    gbdt = GradientBoostingClassifier(num_rounds=150, learning_rate=0.1, max_depth=4)
    gbdt.fit(x_train, train.labels)
    gbdt_scores = gbdt.predict_proba(x_test)

    logistic = LogisticRegression(alpha=1.0)
    logistic.fit(x_train, train.labels)
    lr_scores = logistic.predict_proba(x_test)

    print(f"\n{'model':<28}{'AUROC':>8}{'AP':>8}")
    print("-" * 44)
    print(f"{'PQL + GNN (declarative)':<28}{gnn_metrics['auroc']:>8.3f}{gnn_metrics['average_precision']:>8.3f}")
    print(f"{'manual features + GBDT':<28}{auroc(test.labels, gbdt_scores):>8.3f}"
          f"{average_precision(test.labels, gbdt_scores):>8.3f}")
    print(f"{'manual features + logistic':<28}{auroc(test.labels, lr_scores):>8.3f}"
          f"{average_precision(test.labels, lr_scores):>8.3f}")
    print(f"{'base rate':<28}{0.5:>8.3f}{test.positive_rate:>8.3f}")


if __name__ == "__main__":
    main()
