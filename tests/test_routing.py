"""Cost-based query routing: tier ladder, plan-cache and digest keys, serving.

Three layers of coverage:

* **Decision logic** — :meth:`PredictiveModel.decide` unit-tested
  on a hand-built model skeleton (no training), so quality-floor and
  forced-route behavior are pinned down exactly.
* **Cache keys** — the plan cache and the sampler's batch digest must
  share what they can (identical query text, identical batches) and
  distinguish what they must (different horizons, different cutoffs)
  across all three dataset generators.
* **Integration** — a tiny routed churn model: forced routes are
  bit-identical to calling the tier directly, routes propagate through
  a coalesced serving micro-batch, and a service's quality-floor
  override holds for every model it serves.  (Persistence round-trips
  of every model kind live in ``test_artifact_data.py``.)
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.datasets import make_clinical, make_ecommerce, make_forum
from repro.eval.metrics import auroc
from repro.obs import get_registry
from repro.pql import PredictiveModel, PredictiveQueryPlanner, RouterConfig, build_label_table
from repro.pql.router import CostModel, GreenTier, YellowTier
from repro.serve import ModelRegistry, PredictionService, ServeConfig
from tests.conftest import make_split, tiny_planner_config

CHURN_QUERY = "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS"

GENERATORS = {
    "ecommerce": (
        lambda: make_ecommerce(num_customers=60, num_products=20, seed=0),
        "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON {days} DAYS",
        "customers",
    ),
    "forum": (
        lambda: make_forum(num_users=40, seed=0),
        "PREDICT COUNT(posts) > 0 FOR EACH users.id ASSUMING HORIZON {days} DAYS",
        "users",
    ),
    "clinical": (
        lambda: make_clinical(num_patients=50, seed=0),
        "PREDICT COUNT(visits) > 0 FOR EACH patients.id ASSUMING HORIZON {days} DAYS",
        "patients",
    ),
}


@pytest.fixture(scope="module")
def routed_model(small_ecommerce_db, small_ecommerce_split):
    planner = PredictiveQueryPlanner(
        small_ecommerce_db, tiny_planner_config()
    )
    return planner.fit(CHURN_QUERY, small_ecommerce_split, router=RouterConfig())


def entity_keys(model, count):
    return model.graph.node_keys[model.binding.query.entity_table][:count]


# ----------------------------------------------------------------------
# Decision logic on a hand-built skeleton (no training)
# ----------------------------------------------------------------------
def make_skeleton(quality, per_row_ms, quality_floor=0.98, route="auto"):
    """A PredictiveModel with hand-set tiers/costs and a stand-in GNN."""
    model = PredictiveModel.__new__(PredictiveModel)
    model.green = object()
    model.yellow = object()
    model.node_trainer, model.link_trainer = object(), None
    model.degraded_reason = None
    model.quality = dict(quality)
    model.cost = CostModel(per_row_ms)
    model.router = RouterConfig(route=route, quality_floor=quality_floor)
    model.last_route = None
    model._red_calls = 1  # warm: no cold surcharge in these unit tests
    model._lock = threading.Lock()
    return model


class TestDecide:
    QUALITY = {"green": 0.70, "yellow": 0.95, "red": 0.96}
    COSTS = {"green": 0.01, "yellow": 0.05, "red": 1.0}

    def test_auto_picks_cheapest_above_floor(self):
        model = make_skeleton(self.QUALITY, self.COSTS, quality_floor=0.98)
        decision = model.decide(8)
        # floor = 0.98 * 0.96 = 0.9408: green is out, yellow is the
        # cheapest survivor.
        assert decision.tier == "yellow"
        assert not decision.forced
        green = next(e for e in decision.estimates if e.tier == "green")
        assert not green.eligible and green.reason == "below quality floor"

    def test_zero_floor_admits_the_cheapest_tier(self):
        model = make_skeleton(self.QUALITY, self.COSTS, quality_floor=0.0)
        assert model.decide(8).tier == "green"

    def test_floor_of_one_requires_the_best_tier(self):
        model = make_skeleton(self.QUALITY, self.COSTS, quality_floor=1.0)
        assert model.decide(8).tier == "red"

    def test_forced_route_overrides_cost(self):
        model = make_skeleton(self.QUALITY, self.COSTS, quality_floor=0.0)
        decision = model.decide(8, route="red")
        assert decision.tier == "red" and decision.forced
        assert decision.reason == "forced"

    def test_invalid_route_rejected(self):
        model = make_skeleton(self.QUALITY, self.COSTS)
        with pytest.raises(ValueError, match="auto|green|yellow|red"):
            model.decide(8, route="purple")

    def test_forced_unavailable_tier_rejected(self):
        model = make_skeleton(self.QUALITY, self.COSTS)
        model.yellow = None
        with pytest.raises(ValueError, match="unavailable"):
            model.decide(8, route="yellow")

    def test_degraded_red_is_not_a_tier(self):
        model = make_skeleton(self.QUALITY, self.COSTS, quality_floor=1.0)
        model.node_trainer, model.degraded_reason = None, "InjectedFault: boom"
        assert model.available_tiers() == ["green", "yellow"]
        decision = model.decide(8)
        assert decision.tier == "yellow"
        assert decision.reason.endswith("no red: InjectedFault: boom")
        with pytest.raises(ValueError, match="unavailable"):
            model.decide(8, route="red")

    def test_uncalibrated_auto_answers_from_the_top_tier(self):
        # A plain fit's ladder: green under the GNN, nothing calibrated.
        model = make_skeleton({}, {})
        model.yellow = None
        decision = model.decide(1)
        assert decision.tier == "red" and not decision.forced
        assert decision.reason == "top tier of an uncalibrated ladder"
        # ...and a degraded one: its top tier is the rung it fell to.
        model.node_trainer, model.degraded_reason = None, "boom"
        assert model.decide(1).tier == "green"
        model.yellow = object()
        assert model.decide(1).tier == "yellow"
        # Forcing still reaches every tier the ladder has.
        assert model.decide(1, route="green").tier == "green"

    def test_quality_floor_argument_overrides_the_policy(self):
        model = make_skeleton(self.QUALITY, self.COSTS, quality_floor=0.98)
        assert model.decide(8, quality_floor=0.0).tier == "green"
        assert model.decide(8).tier == "yellow"
        assert model.router.quality_floor == 0.98

    def test_estimates_scale_with_rows(self):
        model = make_skeleton(self.QUALITY, self.COSTS)
        small = model.decide(1, route="yellow").est_cost_ms
        large = model.decide(64, route="yellow").est_cost_ms
        assert large > small

    def test_cost_observe_is_overhead_aware_and_clamped(self):
        cost = CostModel({"yellow": 1.0}, overhead_ms={"yellow": 5.0})
        # A 16-row call at 21ms is 1.0 ms/row after the 5ms overhead:
        # the estimate must not drift.
        cost.observe("yellow", 16, 21.0)
        assert cost.per_row_ms()["yellow"] == pytest.approx(1.0)
        # A wild outlier moves the estimate but is clamped to 2x.
        cost.observe("yellow", 16, 1000.0)
        assert cost.per_row_ms()["yellow"] <= 2.0


# ----------------------------------------------------------------------
# Cache keys: share what they can, distinguish what they must
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(GENERATORS))
class TestCacheKeys:
    def test_plan_cache_shares_identical_text_only(self, name):
        build, template, _ = GENERATORS[name]
        planner = PredictiveQueryPlanner(build(), tiny_planner_config())
        hits = get_registry().counter("planner.plan_cache.hits")
        before = hits.value
        first = planner.plan(template.format(days=7))
        again = planner.plan(template.format(days=7))
        assert again is first  # same text -> the cached binding itself
        assert hits.value == before + 1
        other = planner.plan(template.format(days=14))
        # Same entity/task but a different horizon is a different
        # prediction problem: it must NOT reuse the binding.
        assert other is not first
        assert other.query.horizon_seconds != first.query.horizon_seconds

    def test_subgraph_keys_distinguish_cutoffs_not_repeats(self, name):
        build, _, entity = GENERATORS[name]
        db = build()
        from repro.graph import build_graph

        config = tiny_planner_config()
        sampler = config.make_sampler(build_graph(db))
        seeds = np.arange(4, dtype=np.int64)
        t0, t1 = db.time_span()
        early = np.full(4, t0 + (t1 - t0) // 2, dtype=np.int64)
        late = np.full(4, t1, dtype=np.int64)

        repeat = sampler.batch_digest(entity, seeds, early)
        assert sampler.batch_digest(entity, seeds, early) == repeat
        assert sampler.batch_digest(entity, seeds, late) != repeat
        assert sampler.batch_digest(entity, seeds[::-1].copy(), early) != repeat


# ----------------------------------------------------------------------
# Integration on a fitted routed model
# ----------------------------------------------------------------------
class TestRoutedModel:
    def test_fit_records_quality_and_costs_per_tier(self, routed_model):
        for tier in ("green", "yellow", "red"):
            assert 0.0 <= routed_model.quality[tier] <= 1.0
            assert routed_model.cost.per_row_ms()[tier] > 0.0

    def test_raw_gnn_quality_is_the_unblended_gnn_on_validation(
        self, routed_model, small_ecommerce_split
    ):
        val = build_label_table(
            routed_model.db, routed_model.binding, [small_ecommerce_split.val_cutoff])
        assert len(val) <= RouterConfig().max_calibration_rows  # calibrated on all of it
        plain = PredictiveModel(
            routed_model.db, routed_model.binding, routed_model.graph, routed_model.config,
            node_trainer=routed_model.node_trainer,
        )
        unblended = plain.predict(val.entity_keys, val.cutoffs)
        assert routed_model.raw_gnn_quality == pytest.approx(auroc(val.labels, unblended), abs=1e-3)
        assert routed_model.blend_alpha in (0.25, 0.5, 0.75, 1.0)

    def test_forced_routes_are_bit_identical_to_direct_tier_calls(self, routed_model):
        keys = entity_keys(routed_model, 12)
        cutoff = routed_model.db.time_span()[1]
        cutoffs = np.full(len(keys), cutoff, dtype=np.int64)
        direct = {
            "green": routed_model.green.predict(keys, cutoffs),
            "yellow": routed_model.yellow.predict(keys, cutoffs),
            "red": routed_model._red_predict(keys, cutoffs),
        }
        for tier, expected in direct.items():
            routed = routed_model.predict(keys, cutoff, route=tier)
            np.testing.assert_array_equal(routed, expected)
            assert routed_model.last_route.tier == tier
            assert routed_model.last_route.forced

    def test_auto_route_records_decision_and_realized_cost(self, routed_model):
        keys = entity_keys(routed_model, 8)
        cutoff = routed_model.db.time_span()[1]
        routed_model.predict(keys, cutoff)
        decision = routed_model.last_route
        assert decision.tier in ("green", "yellow", "red")
        assert decision.rows == 8 and not decision.forced
        assert decision.est_cost_ms > 0.0
        assert decision.realized_cost_ms > 0.0
        assert len(decision.estimates) == 3

    def test_quality_floor_zero_routes_to_green(self, routed_model):
        keys = entity_keys(routed_model, 8)
        cutoff = routed_model.db.time_span()[1]
        saved = routed_model.router.quality_floor
        try:
            routed_model.router.quality_floor = 0.0
            routed_model.predict(keys, cutoff)
            assert routed_model.last_route.tier == "green"
        finally:
            routed_model.router.quality_floor = saved

    def test_tiers_accept_state_dicts_from_before_yellow_owned_green(
        self, routed_model, small_ecommerce_db
    ):
        # What the previous version pickled: green without the graph
        # handle it now keeps, yellow with its green tier stripped.
        green_state = dict(routed_model.green.__getstate__(), _heuristic=None)
        yellow_state = dict(
            routed_model.yellow.__getstate__(), _db=None, _green=None, _builder=None, _blocks={}
        )
        del yellow_state["green"]
        green, yellow = GreenTier.__new__(GreenTier), YellowTier.__new__(YellowTier)
        green.__dict__.update(green_state)  # as pickle restores either class
        yellow.__dict__.update(yellow_state)
        assert yellow.green is None
        yellow.green = green  # what PredictiveModel.load does for such a file
        yellow.bind(small_ecommerce_db, routed_model.graph)
        keys = entity_keys(routed_model, 10)
        cutoffs = np.full(len(keys), routed_model.db.time_span()[1], dtype=np.int64)
        np.testing.assert_array_equal(
            green.predict(keys, cutoffs), routed_model.green.predict(keys, cutoffs)
        )
        np.testing.assert_array_equal(
            yellow.predict(keys, cutoffs), routed_model.yellow.predict(keys, cutoffs)
        )


# ----------------------------------------------------------------------
# Serving: route propagation through a coalesced micro-batch
# ----------------------------------------------------------------------
class TestServeRoutePropagation:
    def test_route_propagates_through_coalesced_batch(self, routed_model):
        config = ServeConfig(max_batch_size=64, max_wait_ms=100.0, route="auto")
        cutoff = routed_model.db.time_span()[1]
        with PredictionService(routed_model, config) as service:
            service.reset_metrics()
            futures = [
                service.predict_async(entity_keys(routed_model, 16)[i * 4:(i + 1) * 4], cutoff)
                for i in range(4)
            ]
            results = [f.result(timeout=10.0) for f in futures]
        decisions = [getattr(r, "route", None) for r in results]
        assert all(d is not None for d in decisions)
        # One model call served all four requests: every slice reports
        # the full coalesced batch and the same tier.
        assert {d["rows"] for d in decisions} == {16}
        assert len({d["tier"] for d in decisions}) == 1
        tier = decisions[0]["tier"]
        assert decisions[0]["est_cost_ms"] > 0.0
        assert decisions[0]["realized_cost_ms"] > 0.0
        counters = get_registry().counter(f"serve.route.{tier}")
        assert counters.value >= 1

    def test_forced_route_requests_never_coalesce_across_tiers(self, routed_model):
        config = ServeConfig(max_batch_size=64, max_wait_ms=60.0)
        cutoff = routed_model.db.time_span()[1]
        keys = entity_keys(routed_model, 4)
        with PredictionService(routed_model, config) as service:
            green = service.predict_async(keys, cutoff, route="green")
            yellow = service.predict_async(keys, cutoff, route="yellow")
            g, y = green.result(timeout=10.0), yellow.result(timeout=10.0)
        assert g.route["tier"] == "green" and g.route["rows"] == 4
        assert y.route["tier"] == "yellow" and y.route["rows"] == 4
        np.testing.assert_array_equal(
            g, routed_model.predict(keys, cutoff, route="green")
        )

    def test_per_request_route_matches_direct_model_call(self, routed_model):
        cutoff = routed_model.db.time_span()[1]
        keys = entity_keys(routed_model, 6)
        with PredictionService(routed_model, ServeConfig(route="yellow")) as service:
            served = service.predict(keys, cutoff)
        np.testing.assert_array_equal(
            served, routed_model.predict(keys, cutoff, route="yellow")
        )


# ----------------------------------------------------------------------
# Serving: degradation is a forced route down the same ladder
# ----------------------------------------------------------------------
class TestServeDegradation:
    def test_failing_red_descends_rung_by_rung_with_route_records(
        self, routed_model, monkeypatch
    ):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        cutoff = routed_model.db.time_span()[1]
        keys = entity_keys(routed_model, 6)
        expected = {
            tier: routed_model.predict(keys, cutoff, route=tier) for tier in ("green", "yellow")
        }
        monkeypatch.setattr(routed_model, "_red_predict", boom)
        with PredictionService(routed_model, ServeConfig(route="red")) as service:
            served = service.predict(keys, cutoff)
            assert service.degraded
            assert served.route["tier"] == "yellow" and served.route["forced"]
            assert served.route["reason"].startswith("degraded: model path failed")
            np.testing.assert_array_equal(served, expected["yellow"])
            # A request's own route does not climb back above the trusted rung.
            assert service.predict(keys, cutoff, route="red").route["tier"] == "yellow"

            monkeypatch.setattr(routed_model.yellow, "predict", boom)
            served = service.predict(keys, cutoff)
            assert served.route["tier"] == "green"
            assert served.route["reason"].startswith("degraded: yellow rung failed")
            np.testing.assert_array_equal(served, expected["green"])
            stats = service.stats()
            assert stats["metrics"]["serve.fallbacks"]["value"] == 2
            assert stats["metrics"]["serve.degraded_batches"]["value"] == 3

            # Green is the bottom: its own errors reach the caller.
            monkeypatch.setattr(routed_model.green, "predict", boom)
            with pytest.raises(RuntimeError, match="boom"):
                service.predict(keys, cutoff)
            assert service.stats()["metrics"]["serve.fallbacks"]["value"] == 2

            monkeypatch.undo()
            service.restore()
            assert not service.degraded
            healthy = service.predict(keys, cutoff)
            assert healthy.route["tier"] == "red" and healthy.route["reason"] == "forced"


# ----------------------------------------------------------------------
# Serving: the quality-floor override holds for every model served
# ----------------------------------------------------------------------
class TestServeQualityFloor:
    def test_override_survives_swap_swap_by_version_and_compare(
        self, routed_model, small_ecommerce_db, tmp_path
    ):
        directory = str(tmp_path / "routed")
        routed_model.save(directory)
        registry = ModelRegistry(str(tmp_path / "registry"))
        registry.publish_dir(directory, "churn")
        cutoff = routed_model.db.time_span()[1]
        key = entity_keys(routed_model, 1)
        config = ServeConfig(quality_floor=0.0)
        service = PredictionService.from_registry(registry, "churn", small_ecommerce_db,
                                                  config=config)
        fitted_floor = routed_model.router.quality_floor

        def served_tier():
            assert service.stats()["router"]["quality_floor"] == 0.0
            return service.predict(key, cutoff).route["tier"]

        try:
            assert served_tier() == "green"
            # Without the override, a 1-row request takes yellow.
            assert service.model.decide(1).tier == "yellow"
            # The service applies the floor per call; no model changed.
            assert service.model.router.quality_floor == fitted_floor
            service.swap_model(PredictiveModel.load(directory, small_ecommerce_db))
            assert served_tier() == "green"
            service.swap(version=1)
            assert served_tier() == "green"
            # The compared challenger answers the replayed 1-row batches
            # under the same override, on a freshly loaded model.
            report = service.compare(version=1)
            assert report["batches"] == report["rows"] == 3
            assert report["routes"]["challenger"] == {"green": 3}
            assert report["errors"] == 0 and report["mean_divergence"] == 0.0
            assert service.model.router.quality_floor == fitted_floor
        finally:
            service.close()
