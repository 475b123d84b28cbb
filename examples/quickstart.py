"""Quickstart: one declarative query, end to end.

Builds the synthetic e-commerce database, writes a single PQL query —
"will this customer order again within 30 days?" — and lets the
planner do everything else: labels, graph, model, training, metrics.

Run:  python examples/quickstart.py
"""

from repro.datasets import make_ecommerce
from repro.eval import make_temporal_split
from repro.pql import PredictiveQueryPlanner

DAY = 86400


def main() -> None:
    print("Building the e-commerce database ...")
    db = make_ecommerce(num_customers=300, seed=0)
    for table in db:
        print(f"  {table.name:<10} {table.num_rows:>6} rows  columns={table.column_names}")

    start, end = db.time_span()
    split = make_temporal_split(start, end, horizon_seconds=30 * DAY, num_train_cutoffs=3)
    print(f"\nTemporal split: train@{list(split.train_cutoffs)} val@{split.val_cutoff} test@{split.test_cutoff}")

    query = "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS"
    print(f"\nQuery: {query}")

    planner = PredictiveQueryPlanner(db)
    model = planner.fit(query, split)

    print("\nTest metrics (future cutoff, never seen in training):")
    for name, value in model.evaluate(split.test_cutoff).items():
        print(f"  {name:<20} {value:.4f}")

    some_customers = db["customers"]["id"].values[:5]
    probabilities = model.predict(some_customers, split.test_cutoff)
    print("\nPer-customer predictions at the test cutoff:")
    for key, prob in zip(some_customers.tolist(), probabilities.tolist()):
        print(f"  customer {key}: P(orders within 30d) = {prob:.3f}")


if __name__ == "__main__":
    main()
