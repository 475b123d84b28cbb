"""Tests for the deterministic sampling contract and the graph fingerprint.

The contract (see ``repro.graph.sampler``): a batch's subgraph is a pure
function of its content digest and the graph, so a re-sampled batch is
bit-identical to the first draw and batch order never matters.
"""

import numpy as np

from repro.graph import NeighborSampler, build_graph
from repro.graph.cache import graph_fingerprint
from repro.graph.hetero import TIME_MIN
from tests.conftest import assert_subgraphs_identical, shop_db


def make_sampler(graph, fanouts=(4, 4), seed=0, time_respecting=True):
    return NeighborSampler(
        graph, fanouts=list(fanouts), seed=seed, time_respecting=time_respecting
    )


class TestGraphFingerprint:
    def test_stable_across_rebuilds(self):
        g1 = build_graph(shop_db())
        g2 = build_graph(shop_db())
        assert graph_fingerprint(g1) == graph_fingerprint(g2)

    def test_memoized_on_instance(self):
        # Computed on demand, memoized per graph version: a second ask
        # hashes nothing, an append makes the next ask hash again.
        g = build_graph(shop_db())
        first = graph_fingerprint(g)
        assert g._fingerprint == (g.version, first)
        g._edges = None  # any re-hash would now raise
        assert graph_fingerprint(g) == first

    def test_recomputed_after_the_graph_grows(self):
        g = build_graph(shop_db())
        first = graph_fingerprint(g)
        g.grow_node_type("customers", np.array([TIME_MIN]), keys=np.array([30]))
        assert graph_fingerprint(g) != first
        assert g._fingerprint[0] == g.version == 1

    def test_sensitive_to_content(self):
        from repro.datasets import make_ecommerce

        g_shop = build_graph(shop_db())
        g_ecom = build_graph(make_ecommerce(num_customers=20, num_products=5, seed=0))
        g_ecom2 = build_graph(make_ecommerce(num_customers=20, num_products=5, seed=1))
        assert graph_fingerprint(g_shop) != graph_fingerprint(g_ecom)
        assert graph_fingerprint(g_ecom) != graph_fingerprint(g_ecom2)


#: (seed type, ids, times, base seed, the seed the parent commit derived)
#: for fanouts (4, 4), time-respecting.
PINNED_SEEDS = [
    ("customers", [1], [500], 7, 7159962616173719153),
    ("customers", [0, 1], [400, 400], 0, 14719165160539945783),
    ("products", [2, 0, 1], [300, 10**9, 450], 11, 5543108369514645591),
]


class TestBatchKey:
    def graph(self):
        return build_graph(shop_db())

    def test_key_depends_on_batch_content(self):
        sampler = make_sampler(self.graph())
        ids = np.array([0, 1])
        times = np.array([400, 400])
        base = sampler.batch_digest("customers", ids, times)
        assert sampler.batch_digest("customers", ids, times) == base
        assert sampler.batch_digest("customers", ids[::-1].copy(), times) != base
        assert sampler.batch_digest("customers", ids, times + 1) != base
        assert sampler.batch_digest("products", ids, times) != base

    def test_key_depends_on_sampler_config(self):
        g = self.graph()
        ids, times = np.array([0, 1]), np.array([400, 400])
        samplers = (
            make_sampler(g),
            make_sampler(g, seed=1),
            make_sampler(g, fanouts=(2, 2)),
            make_sampler(g, time_respecting=False),
        )
        assert len({s.batch_digest("customers", ids, times) for s in samplers}) == 4

    def test_rng_seed_matches_key_digest_half(self, monkeypatch):
        g = self.graph()
        grown = self.graph()
        grown.grow_node_type("customers", np.array([TIME_MIN]), keys=np.array([30]))
        seeded = []
        real_default_rng = np.random.default_rng
        monkeypatch.setattr(
            np.random, "default_rng", lambda seed: seeded.append(seed) or real_default_rng(seed)
        )
        for seed_type, ids, times, base_seed, pinned in PINNED_SEEDS:
            sampler = make_sampler(g, seed=base_seed)
            ids, times = np.array(ids), np.array(times)
            key = sampler.batch_digest(seed_type, ids, times)
            # The derivation is frozen: these are the seeds the previous
            # versions (composite fingerprint + digest key, then the
            # re-seeding wrapper) drew from, so models and predictions
            # reproduce across the change.
            sampler.sample(seed_type, ids, times)
            assert seeded.pop() == pinned
            # The digest is 16 bytes of batch content alone — the graph
            # is not part of it — and the RNG seed is its first half.
            assert len(key) == 16
            assert int.from_bytes(key[:8], "little") == pinned
            assert make_sampler(grown, seed=base_seed).batch_digest(seed_type, ids, times) == key


class TestSamplerPurity:
    def graph(self):
        return build_graph(shop_db())

    def test_sampler_holds_no_generator(self):
        assert not hasattr(make_sampler(self.graph()), "rng")

    def test_repeated_batch_is_bit_identical(self):
        sampler = make_sampler(self.graph(), fanouts=(2, 2))
        ids, times = np.array([0, 1]), np.array([10**9, 10**9])
        a = sampler.sample("customers", ids, times)
        b = sampler.sample("customers", ids, times)
        assert a is not b
        assert_subgraphs_identical(a, b)

    def test_batch_order_is_irrelevant(self):
        g = self.graph()
        ids_a, times_a = np.array([0]), np.array([10**9])
        ids_b, times_b = np.array([1]), np.array([10**9])
        sub_a_first = make_sampler(g, fanouts=(2, 2)).sample("customers", ids_a, times_a)
        two = make_sampler(g, fanouts=(2, 2))
        two.sample("customers", ids_b, times_b)  # interleave another batch
        assert_subgraphs_identical(sub_a_first, two.sample("customers", ids_a, times_a))

    def test_a_different_seed_draws_differently(self):
        # Customer 0 has three orders; at fanout 2 some seed picks another pair.
        g = self.graph()
        ids, times = np.array([0]), np.array([10**9])
        picks = {
            tuple(make_sampler(g, fanouts=(2,), seed=seed)
                  .sample("customers", ids, times).node_orig("orders").tolist())
            for seed in range(16)
        }
        assert len(picks) > 1
