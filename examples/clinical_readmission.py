"""Clinical readmission: a task where the signal is two hops away.

In the clinical dataset the chronic condition that drives readmission
is never stored on the patient row — it is only visible as diagnosis
codes attached to past visits (patient → visits → diagnoses).  A model
restricted to the patient's own columns (age, sex) cannot see it; the
GNN reads it through message passing, with no feature engineering.

The script also demonstrates a regression query on the same database
and persisting the database to CSV for inspection.

Run:  python examples/clinical_readmission.py
"""

import os
import tempfile

from repro.baselines import FeatureBuilder, GradientBoostingClassifier
from repro.datasets import make_clinical
from repro.eval import auroc, make_temporal_split
from repro.pql import PredictiveQueryPlanner, build_label_table
from repro.relational import save_database

DAY = 86400
READMIT = "PREDICT COUNT(visits) > 0 FOR EACH patients.id ASSUMING HORIZON 60 DAYS"
VISITS = "PREDICT COUNT(visits) FOR EACH patients.id ASSUMING HORIZON 90 DAYS"


def main() -> None:
    db = make_clinical(num_patients=250, seed=0)
    start, end = db.time_span()
    split = make_temporal_split(start, end, horizon_seconds=60 * DAY, num_train_cutoffs=3)

    planner = PredictiveQueryPlanner(db)

    print(f"Query: {READMIT}")
    model = planner.fit(READMIT, split)
    metrics = model.evaluate(split.test_cutoff)
    print(f"  PQL-GNN (2 hops)            AUROC = {metrics['auroc']:.3f}")

    # Baseline restricted to the patient's own columns (no history).
    binding = planner.plan(READMIT)
    train = build_label_table(db, binding, split.train_cutoffs)
    test = build_label_table(db, binding, [split.test_cutoff])
    own_only = FeatureBuilder(db, "patients", windows_days=(), include_two_hop=False)
    # Keep only the entity's own columns — drop even the 1-hop counts.
    own_columns = [i for i, name in enumerate(own_only.feature_names) if name.startswith("own.")]
    x_train = own_only.build(train.entity_keys, train.cutoffs)[:, own_columns]
    x_test = own_only.build(test.entity_keys, test.cutoffs)[:, own_columns]
    gbdt = GradientBoostingClassifier(num_rounds=100, learning_rate=0.1)
    gbdt.fit(x_train, train.labels)
    print(f"  GBDT on patient columns     AUROC = {auroc(test.labels, gbdt.predict_proba(x_test)):.3f}")
    print("  (age/sex alone cannot see the chronic codes two hops away)")

    print(f"\nQuery: {VISITS}")
    regression = planner.fit(VISITS, split)
    reg_metrics = regression.evaluate(split.test_cutoff)
    print(f"  PQL-GNN MAE  = {reg_metrics['mae']:.3f} visits")
    print(f"  PQL-GNN RMSE = {reg_metrics['rmse']:.3f} visits")

    out_dir = os.path.join(tempfile.gettempdir(), "repro_clinical_csv")
    save_database(db, out_dir)
    print(f"\nDatabase exported to {out_dir}/ ({len(db)} CSV files + schema.json)")


if __name__ == "__main__":
    main()
