"""Every ``PlannerConfig`` field is read or refused, for every query kind.

The declarative claim is that a query compiles to what its
configuration names.  A field that the manifest records but the fit
never reads describes a model the artifact does not contain (a LIST
query once ignored ``aggregation``, ``shared_weights``,
``degree_features`` and ``conv_type``).  So, at tiny scale, each
field moved off the base value must either change the fitted bytes —
the network's weights and its test-cutoff evaluation — or raise a
``ValueError`` that names the field and the query kind.  A new field
fails here until it is given an alternative value below.
"""

import dataclasses
import hashlib
import json
from functools import lru_cache

import numpy as np
import pytest

from repro.datasets import make_ecommerce
from repro.pql import PlannerConfig, PredictiveQueryPlanner
from tests.conftest import make_split

QUERIES = {
    "binary": "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS",
    "regression": "PREDICT SUM(orders.amount) FOR EACH customers.id ASSUMING HORIZON 30 DAYS",
    "link": "PREDICT LIST(orders.product_id) FOR EACH customers.id ASSUMING HORIZON 30 DAYS",
}
#: ``fanouts=[2]`` truncates neighbourhoods, so a draw depends on its
#: batch and ``infer_batch_size`` reaches the evaluated scores.
BASE = dict(hidden_dim=8, num_layers=1, fanouts=[2], epochs=2, batch_size=32, seed=0)
#: One value per field, away from ``BASE`` and the defaults.
ALTERNATIVES = {
    "hidden_dim": 12,
    "num_layers": 2,
    "fanouts": [3],
    "aggregation": "sum",
    "shared_weights": True,
    "conv_type": "gat",
    "epochs": 1,
    "batch_size": 16,
    "seed": 1,
    "time_respecting": False,
    "degree_features": False,
    "max_train_rows": 10,
    "infer_batch_size": 7,
}


@lru_cache(maxsize=1)
def _db_and_split():
    db = make_ecommerce(num_customers=40, num_products=12, seed=0)
    return db, make_split(db, horizon_days=30)


@lru_cache(maxsize=None)
def fitted_bytes(kind: str, field: str = "") -> str:
    """sha256 of the fitted weights and the test-cutoff evaluation."""
    db, split = _db_and_split()
    config = PlannerConfig(**{**BASE, **({field: ALTERNATIVES[field]} if field else {})})
    model = PredictiveQueryPlanner(db, config).fit(QUERIES[kind], split)
    trainer = model.node_trainer or model.link_trainer
    digest = hashlib.sha256()
    for name, array in sorted(trainer.model.state_dict().items()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(json.dumps(model.evaluate(split.test_cutoff), sort_keys=True).encode())
    return digest.hexdigest()


def test_every_field_has_an_alternative():
    fields = {field.name for field in dataclasses.fields(PlannerConfig)}
    assert set(ALTERNATIVES) == fields
    for field, value in ALTERNATIVES.items():
        assert value != BASE.get(field, getattr(PlannerConfig(), field)), field


@pytest.mark.parametrize("kind", sorted(QUERIES))
@pytest.mark.parametrize("field", sorted(ALTERNATIVES))
def test_a_field_changes_the_fit_or_is_refused(field, kind):
    try:
        moved = fitted_bytes(kind, field)
    except ValueError as err:
        assert field in str(err) and kind in str(err), err
        return
    assert moved != fitted_bytes(kind), f"{kind} fit ignores PlannerConfig.{field}"
