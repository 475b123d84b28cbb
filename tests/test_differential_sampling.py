"""Differential tests: the sampler against the loop oracle it replaced.

One sampler (:class:`repro.graph.NeighborSampler`, vectorized kernels)
is the only sampling path; ``tests/oracles.py`` keeps the per-node loop
sampler it replaced as the reference.  This suite pins down their
relationship:

* **temporal validity** holds for the sampler and the oracle;
* **distribution equivalence**: the sampler's without-replacement draws
  select each neighbor with the same frequency as the reference's;
* **bit-identity**: two sampler instances with one seed draw identical
  subgraphs at every batch size, in any batch order.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import NeighborSampler, build_graph
from repro.pql import PredictiveQueryPlanner
from tests.conftest import (
    assert_subgraphs_identical,
    shop_db,
    subgraph_instances,
    tiny_planner_config,
)
from tests.oracles import LoopNeighborSampler, count_before

ECOM_QUERY = "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS"

#: "vectorized" is the product sampler, "reference" the loop oracle.
IMPLS = ("reference", "vectorized")


def build_impl(graph, impl="vectorized", fanouts=(3, 3), rng_seed=0):
    if impl == "reference":
        return LoopNeighborSampler(graph, list(fanouts), np.random.default_rng(rng_seed))
    return NeighborSampler(graph, list(fanouts), seed=rng_seed)


# ----------------------------------------------------------------------
# Temporal validity, sampler and oracle
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    seed_time=st.integers(0, 600),
    other_time=st.none() | st.integers(0, 600),
    fanout=st.integers(1, 6),
    rng_seed=st.integers(0, 50),
)
def test_property_no_path_sees_the_future(seed_time, other_time, fanout, rng_seed):
    """``other_time=None`` is a single-cutoff batch, else customer 1 gets its own.

    Nothing newer than an instance's context time is reachable, and the
    sampler reaches exactly the nodes and degrees the oracle does
    whenever the fanout leaves nothing to chance.
    """
    g = build_graph(shop_db())
    seed_ids = np.array([0, 1])
    seed_times = np.array([seed_time, seed_time if other_time is None else other_time])
    subs = {}
    for impl in IMPLS:
        sampler = build_impl(g, impl, fanouts=(fanout, fanout), rng_seed=rng_seed)
        sub = subs[impl] = sampler.sample("customers", seed_ids, seed_times)
        for node_type in sub.node_types:
            node_times = g.node_times(node_type)[sub.node_orig(node_type)]
            assert (node_times <= sub.node_ctx_time(node_type)).all()
    for impl, sub in subs.items():
        seed_degrees = sub.node_degrees("customers")[sub.seed_locals]
        for j, edge_type in enumerate(g.edge_types_into("customers")):
            assert seed_degrees[:, j].tolist() == [
                count_before(g, edge_type, i, t) for i, t in zip(seed_ids, seed_times)
            ], impl
    if fanout >= 3:  # no shop node has more than 3 neighbors under one edge type
        assert subgraph_instances(subs["vectorized"]) == subgraph_instances(subs["reference"])


# ----------------------------------------------------------------------
# Distribution equivalence of without-replacement draws
# ----------------------------------------------------------------------
class TestDistributionEquivalence:
    def neighbor_frequencies(self, impl, draws=400):
        """How often each of customer 0's three orders is picked at fanout 2."""
        g = build_graph(shop_db())
        counts = {}
        for base_seed in range(draws):
            sampler = build_impl(g, impl, fanouts=(2,), rng_seed=base_seed)
            sub = sampler.sample("customers", np.array([0]), np.array([10**9]))
            for orig in sub.node_orig("orders").tolist():
                counts[orig] = counts.get(orig, 0) + 1
        return counts

    @pytest.mark.parametrize("impl", IMPLS)
    def test_each_neighbor_uniformly_likely(self, impl):
        # 2 of 3 orders per draw -> expected count = draws * 2/3 ≈ 267.
        # sigma = sqrt(400 * 2/3 * 1/3) ≈ 9.4; allow ±5 sigma.
        counts = self.neighbor_frequencies(impl)
        assert set(counts) == {0, 1, 4}  # customer 0's orders
        for value in counts.values():
            assert abs(value - 400 * 2 / 3) < 50

    def test_reference_and_unique_mode_distributions_agree(self):
        ref = self.neighbor_frequencies("reference")
        uni = self.neighbor_frequencies("vectorized")
        assert set(ref) == set(uni)
        for orig in ref:
            assert abs(ref[orig] - uni[orig]) < 70  # both near 267


# ----------------------------------------------------------------------
# Subgraph-level bit-identity across instances and batch orders
# ----------------------------------------------------------------------
class TestSubgraphBitIdentity:
    @pytest.mark.parametrize("batch_size", [1, 16, 256])
    def test_identity_holds_at_every_batch_size(self, small_ecommerce_db, batch_size):
        """One seed, a few, and more than there are entities (repeated
        seeds, two cutoffs): the interner takes a different shortcut
        for each.  A second instance walking the batches in reverse
        draws the same subgraphs, and with the fanout above every degree
        the loop oracle reaches the same instances."""
        g = build_graph(small_ecommerce_db)
        span = small_ecommerce_db.time_span()
        rng = np.random.default_rng(batch_size)
        ids = rng.integers(0, g.num_nodes("customers"), size=3 * batch_size)
        times = rng.choice([(span[0] + span[1]) // 2, span[1]], size=3 * batch_size)
        batches = [np.arange(i * batch_size, (i + 1) * batch_size) for i in range(3)]

        forward, backward = build_impl(g), build_impl(g)
        drawn = [forward.sample("customers", ids[batch], times[batch]) for batch in batches]
        for batch, first in reversed(list(zip(batches, drawn))):
            assert_subgraphs_identical(
                first, backward.sample("customers", ids[batch], times[batch])
            )
        exhaustive = {impl: build_impl(g, impl, fanouts=(10**6, 10**6)) for impl in IMPLS}
        for batch in batches:
            product, oracle = (
                exhaustive[impl].sample("customers", ids[batch], times[batch])
                for impl in ("vectorized", "reference")
            )
            assert subgraph_instances(product) == subgraph_instances(oracle)


def fit_once(db, split, query, **overrides):
    config = tiny_planner_config(epochs=2, **overrides)
    return PredictiveQueryPlanner(db, config).fit(query, split)


class TestBatchedPrediction:
    """predict()/rank_items() accept per-entity cutoff vectors."""

    @pytest.fixture(scope="class")
    def model(self, small_ecommerce_db, small_ecommerce_split):
        return fit_once(small_ecommerce_db, small_ecommerce_split, ECOM_QUERY)

    def test_uniform_vector_cutoff_matches_scalar(
        self, model, small_ecommerce_db, small_ecommerce_split
    ):
        keys = small_ecommerce_db["customers"]["id"].values[:6]
        cutoff = small_ecommerce_split.test_cutoff
        scalar = model.predict(keys, cutoff)
        batched = model.predict(keys, np.full(6, cutoff, dtype=np.int64))
        np.testing.assert_array_equal(batched, scalar)

    def test_mixed_cutoffs_are_deterministic(
        self, model, small_ecommerce_db, small_ecommerce_split
    ):
        keys = small_ecommerce_db["customers"]["id"].values[:6]
        cutoff = small_ecommerce_split.test_cutoff
        cutoffs = np.array([cutoff - 86400 * i for i in range(6)])
        first = model.predict(keys, cutoffs)
        second = model.predict(keys, cutoffs)
        assert first.shape == (6,)
        np.testing.assert_array_equal(first, second)

    def test_cutoff_shape_mismatch_rejected(
        self, model, small_ecommerce_db, small_ecommerce_split
    ):
        keys = small_ecommerce_db["customers"]["id"].values[:4]
        with pytest.raises(ValueError):
            model.predict(keys, np.array([1, 2]))
