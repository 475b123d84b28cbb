"""Product recommendation with a LIST predictive query.

``PREDICT LIST(orders.product_id) FOR EACH customers.id`` compiles into
a two-tower retrieval model: a temporal GNN embeds the customer from
their purchase neighborhood as of the cutoff, an item tower embeds
every product, and ranking is one dot product against the catalogue.

Compared against popularity ranking and BPR matrix factorization.

Run:  python examples/product_recommendation.py
"""

import numpy as np

from repro.baselines import BPRMatrixFactorization, PopularityRanker
from repro.datasets import make_ecommerce
from repro.eval import hit_rate_at_k, make_temporal_split, mrr
from repro.graph.builder import node_index_for_keys
from repro.pql import PlannerConfig, PredictiveQueryPlanner, build_label_table

DAY = 86400
QUERY = "PREDICT LIST(orders.product_id) FOR EACH customers.id ASSUMING HORIZON 30 DAYS"
K = 10


def ranking_metrics(scores, labels, item_key_to_col, num_items):
    """MRR / Hit@K given a (queries, items) score matrix."""
    score_lists, relevance = [], []
    for i, item_keys in enumerate(labels.item_keys):
        mask = np.zeros(num_items, dtype=bool)
        for key in np.asarray(item_keys).tolist():
            mask[item_key_to_col[key]] = True
        score_lists.append(scores[i])
        relevance.append(mask)
    return mrr(score_lists, relevance), hit_rate_at_k(score_lists, relevance, K)


def main() -> None:
    db = make_ecommerce(num_customers=300, seed=0)
    start, end = db.time_span()
    split = make_temporal_split(start, end, horizon_seconds=30 * DAY, num_train_cutoffs=2)

    planner = PredictiveQueryPlanner(db, PlannerConfig(epochs=10))
    model = planner.fit(QUERY, split)
    gnn_metrics = model.evaluate(split.test_cutoff, k=K)

    # ---- baselines -----------------------------------------------------
    binding = planner.plan(QUERY)
    train = build_label_table(db, binding, split.train_cutoffs)
    test = build_label_table(db, binding, [split.test_cutoff])
    with_items = [i for i, items in enumerate(test.item_keys) if len(items) > 0]
    test = test.subset(np.asarray(with_items))

    product_keys = db["products"]["id"].values
    num_items = len(product_keys)
    key_to_col = {key: i for i, key in enumerate(product_keys.tolist())}
    customer_keys = db["customers"]["id"].values
    user_to_row = {key: i for i, key in enumerate(customer_keys.tolist())}

    train_users, train_items = [], []
    for key, items in zip(train.entity_keys.tolist(), train.item_keys):
        for item in np.asarray(items).tolist():
            train_users.append(user_to_row[key])
            train_items.append(key_to_col[item])
    train_users = np.asarray(train_users)
    train_items = np.asarray(train_items)

    popularity = PopularityRanker(num_items).fit(train_items)
    pop_scores = popularity.score_all(len(test))
    pop_mrr, pop_hit = ranking_metrics(pop_scores, test, key_to_col, num_items)

    mf = BPRMatrixFactorization(len(customer_keys), num_items, dim=16, epochs=15, seed=0)
    mf.fit(train_users, train_items)
    mf_scores = mf.score_all(np.asarray([user_to_row[k] for k in test.entity_keys.tolist()]))
    mf_mrr, mf_hit = ranking_metrics(mf_scores, test, key_to_col, num_items)

    print(f"Evaluated {int(gnn_metrics['num_queries'])} customers with >=1 future purchase.\n")
    print(f"{'model':<26}{'MRR':>8}{'Hit@10':>9}")
    print("-" * 43)
    print(f"{'PQL two-tower GNN':<26}{gnn_metrics['mrr']:>8.3f}{gnn_metrics[f'hit_rate@{K}']:>9.3f}")
    print(f"{'matrix factorization':<26}{mf_mrr:>8.3f}{mf_hit:>9.3f}")
    print(f"{'popularity':<26}{pop_mrr:>8.3f}{pop_hit:>9.3f}")

    # Show actual recommendations for one customer.
    customer = test.entity_keys[0]
    (top_keys, top_scores) = model.rank_items(np.array([customer]), split.test_cutoff, k=5)[0]
    print(f"\nTop-5 recommendations for customer {customer}:")
    categories = dict(zip(db["products"]["id"].to_list(), db["products"]["category"].to_list()))
    for key, score in zip(top_keys.tolist(), top_scores.tolist()):
        print(f"  product {key:>4} ({categories[key]}): score {score:+.3f}")


if __name__ == "__main__":
    main()
