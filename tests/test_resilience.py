"""Fault-tolerance tests: injection, checkpoints, retries, degradation.

The deterministic fault injector drives every scenario: a NaN loss mid
epoch, a process kill between checkpoint and commit, a GNN train stage
that always fails.  Each recovery path must produce the exact outcome
the resilience layer promises — bit-identical resume, intact previous
saves, a degraded model with recorded provenance.
"""

import json
import logging
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.eval.metrics import auroc, average_precision, brier_score, expected_calibration_error
from repro.pql import PredictiveQueryPlanner, RouterConfig
from repro.pql.planner import PredictiveModel
from repro.resilience import (
    CheckpointManager,
    CorruptCheckpointError,
    CorruptModelError,
    Deadline,
    DivergenceError,
    DivergenceGuard,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    ResilienceConfig,
    RetryPolicy,
    SimulatedCrash,
    StageFailedError,
    StageTimeoutError,
    atomic_write_bytes,
    fault_point,
    injected,
    run_stage,
    uninstall,
)
from tests.conftest import tiny_planner_config as fast_config

BINARY_QUERY = "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS"
FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def no_leaked_injector():
    yield
    uninstall()


@pytest.fixture()
def propagating_logs(monkeypatch):
    # An earlier test may have called configure_logging, which turns off
    # propagation from the "repro" logger — caplog needs it on.
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)


@pytest.fixture(scope="module")
def db(small_ecommerce_db):
    return small_ecommerce_db


@pytest.fixture(scope="module")
def split(small_ecommerce_split):
    return small_ecommerce_split


# ----------------------------------------------------------------------
# Fault injector
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_parse_at_call(self):
        spec = FaultSpec.parse("trainer.epoch@2:kill")
        assert (spec.site, spec.at_call, spec.action) == ("trainer.epoch", 2, "kill")
        assert spec.probability is None

    def test_parse_probability(self):
        spec = FaultSpec.parse("sampler.sample%0.25:raise")
        assert (spec.site, spec.probability, spec.action) == ("sampler.sample", 0.25, "raise")

    def test_roundtrips_through_str(self):
        for text in ("a.b@3:raise", "x%0.5:nan"):
            assert str(FaultSpec.parse(text)) == text

    @pytest.mark.parametrize(
        "bad", ["nosite", "site@0:raise", "site@1:explode", "site%2:raise", "site:raise"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            FaultSpec.parse(bad)


class TestFaultInjector:
    def test_fires_on_exact_call(self):
        with injected("site.a@3:raise") as inj:
            fault_point("site.a")
            fault_point("site.a")
            with pytest.raises(InjectedFault) as err:
                fault_point("site.a")
            assert err.value.call_index == 3
            fault_point("site.a")  # only the 3rd call fires
            assert inj.calls_to("site.a") == 4
            assert inj.fired == [("site.a", 3, "raise")]

    def test_kill_raises_simulated_crash(self):
        with injected("site.b@1:kill"):
            with pytest.raises(SimulatedCrash):
                fault_point("site.b")

    def test_probability_schedule_is_seeded(self):
        def firing_pattern(seed):
            inj = FaultInjector.from_specs("s%0.5:raise", seed=seed)
            return [inj.check("s") is not None for _ in range(50)]

        assert firing_pattern(7) == firing_pattern(7)
        assert firing_pattern(7) != firing_pattern(8)

    def test_from_env(self):
        env = {"REPRO_FAULTS": "a@1:raise, b%0.1:kill", "REPRO_FAULTS_SEED": "3"}
        inj = FaultInjector.from_env(env)
        assert {s.site for s in inj.specs} == {"a", "b"}
        assert FaultInjector.from_env({}) is None

    def test_uninstalled_injector_is_noop(self):
        fault_point("anything")  # must not raise

    def test_nested_install_rejected(self):
        with injected("x@1:raise"):
            with pytest.raises(RuntimeError):
                with injected("y@1:raise"):
                    pass


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------
class TestCheckpointManager:
    def arrays(self):
        return {"w": np.arange(6, dtype=np.float64).reshape(2, 3)}

    def test_roundtrip(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path))
        mgr.save("train", self.arrays(), {"epoch": 3, "loss": 0.5})
        arrays, meta = mgr.load("train")
        np.testing.assert_array_equal(arrays["w"], self.arrays()["w"])
        assert meta == {"epoch": 3, "loss": 0.5}

    def test_save_bumps_counter_and_removes_stale_payload(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path))
        first = mgr.save("train", self.arrays(), {"epoch": 0})
        second = mgr.save("train", self.arrays(), {"epoch": 1})
        assert first != second
        assert not os.path.exists(first)
        assert mgr.meta("train") == {"epoch": 1}

    def test_missing_slot_raises_keyerror(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path))
        assert not mgr.has("train")
        with pytest.raises(KeyError):
            mgr.load("train")

    def test_corrupted_payload_detected(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path))
        path = mgr.save("train", self.arrays(), {"epoch": 0})
        with open(path, "ab") as handle:
            handle.write(b"bitrot")
        with pytest.raises(CorruptCheckpointError):
            mgr.load("train")

    def test_missing_payload_detected(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path))
        path = mgr.save("train", self.arrays(), {"epoch": 0})
        os.unlink(path)
        with pytest.raises(CorruptCheckpointError):
            mgr.load("train")

    def test_atomic_writer_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "payload.bin"
        atomic_write_bytes(str(target), b"hello")
        assert target.read_bytes() == b"hello"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["payload.bin"]


# ----------------------------------------------------------------------
# Retry + deadlines
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_schedule_is_seeded_and_bounded(self):
        a = RetryPolicy(max_retries=3, base_delay=0.1, max_delay=0.35, seed=5)
        b = RetryPolicy(max_retries=3, base_delay=0.1, max_delay=0.35, seed=5)
        delays_a = [a.delay(i) for i in range(4)]
        delays_b = [b.delay(i) for i in range(4)]
        assert delays_a == delays_b
        # Jitter only inflates: base <= delay <= base * (1 + jitter).
        for i, delay in enumerate(delays_a):
            base = min(0.35, 0.1 * 2**i)
            assert base <= delay <= base * 1.5 + 1e-12

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)


class TestRunStage:
    def policy(self):
        return RetryPolicy(max_retries=2, base_delay=0.0, seed=0, sleep=lambda s: None)

    def test_retries_transient_errors_then_succeeds(self):
        attempts = []

        def flaky(deadline, attempt):
            attempts.append(attempt)
            if attempt < 2:
                raise InjectedFault("s", attempt)
            return "done"

        assert run_stage("label", flaky, policy=self.policy()) == "done"
        assert attempts == [0, 1, 2]

    def test_exhaustion_wraps_cause(self):
        def always_fails(deadline, attempt):
            raise InjectedFault("s", attempt)

        with pytest.raises(StageFailedError) as err:
            run_stage("label", always_fails, policy=self.policy())
        assert err.value.stage == "label"
        assert err.value.attempts == 3
        assert isinstance(err.value.cause, InjectedFault)

    def test_programming_errors_not_retried(self):
        calls = []

        def buggy(deadline, attempt):
            calls.append(attempt)
            raise KeyError("bug")

        with pytest.raises(KeyError):
            run_stage("label", buggy, policy=self.policy())
        assert calls == [0]

    def test_timeout_not_retried(self):
        calls = []

        def slow(deadline, attempt):
            calls.append(attempt)
            deadline._start -= 10.0  # pretend 10s already elapsed
            deadline.check()

        with pytest.raises(StageTimeoutError):
            run_stage("train", slow, policy=self.policy(), budget_seconds=0.5)
        assert calls == [0]

    def test_completed_overrun_is_recorded_not_failed(self):
        def sluggish(deadline, attempt):
            deadline._start -= 10.0
            return "finished"  # never called deadline.check()

        assert run_stage("evaluate", sluggish, budget_seconds=0.5) == "finished"


class TestDeadline:
    def test_unbudgeted_never_expires(self):
        deadline = Deadline(None, stage="train")
        assert deadline.remaining == float("inf")
        deadline.check()

    def test_expiry(self):
        deadline = Deadline(5.0, stage="train")
        deadline._start -= 10.0
        assert deadline.expired
        with pytest.raises(StageTimeoutError) as err:
            deadline.check("trainer.step")
        assert err.value.stage == "train"


# ----------------------------------------------------------------------
# Divergence guard
# ----------------------------------------------------------------------
class TestDivergenceGuard:
    def test_detects_nonfinite_loss_and_exploding_norm(self):
        guard = DivergenceGuard(grad_norm_limit=100.0)
        assert guard.check_loss(1.5) is None
        assert guard.check_loss(float("nan")) == "non-finite loss"
        assert guard.check_loss(float("inf")) == "non-finite loss"
        assert guard.check_grad_norm(99.0) is None
        assert guard.check_grad_norm(101.0) == "exploding gradient norm"
        assert guard.check_grad_norm(float("nan")) == "non-finite gradient norm"

    def test_recovery_budget(self):
        guard = DivergenceGuard(max_recoveries=2)
        guard.record_recovery("non-finite loss", epoch=1, value=float("nan"))
        guard.record_recovery("non-finite loss", epoch=1, value=float("nan"))
        with pytest.raises(DivergenceError) as err:
            guard.record_recovery("non-finite loss", epoch=1, value=float("nan"))
        assert err.value.recoveries == 2


# ----------------------------------------------------------------------
# Trainer integration: divergence recovery and NaN handling
# ----------------------------------------------------------------------
class TestTrainerDivergence:
    def test_single_nan_loss_recovers_and_finishes(self, db, split):
        planner = PredictiveQueryPlanner(db, fast_config())
        with injected("trainer.loss@2:nan"):
            model = planner.fit(BINARY_QUERY, split)
        history = model.node_trainer.history
        assert history.divergence_recoveries == 1
        assert len(history.train_loss) > 0
        assert all(np.isfinite(history.train_loss))

    def test_persistent_nan_exhausts_recoveries(self, db, split):
        planner = PredictiveQueryPlanner(
            db, fast_config(),
            resilience=ResilienceConfig(divergence_recoveries=1),
        )
        with injected("trainer.loss%1.0:nan"):
            with pytest.raises(DivergenceError):
                planner.fit(BINARY_QUERY, split)

    def test_nan_val_loss_counts_as_no_improvement(
        self, db, split, monkeypatch, caplog, propagating_logs
    ):
        from repro.gnn.trainer import NodeTaskTrainer

        calls = {"n": 0}
        real = NodeTaskTrainer._evaluate_loss

        def nan_first(self, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                return float("nan")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(NodeTaskTrainer, "_evaluate_loss", nan_first)
        planner = PredictiveQueryPlanner(db, fast_config(epochs=2, patience=10))
        with caplog.at_level("WARNING", logger="repro.gnn.trainer"):
            model = planner.fit(BINARY_QUERY, split)
        history = model.node_trainer.history
        assert np.isnan(history.val_loss[0])
        assert history.best_epoch == 1  # NaN epoch must never become "best"
        assert any("NaN" in record.message for record in caplog.records)


# ----------------------------------------------------------------------
# Kill + resume
# ----------------------------------------------------------------------
class TestKillAndResume:
    def test_resume_matches_uninterrupted_run(self, db, split, tmp_path):
        # Ground truth: the same config, never interrupted, no checkpoints.
        baseline = PredictiveQueryPlanner(db, fast_config()).fit(BINARY_QUERY, split)
        base_hist = baseline.node_trainer.history

        # Interrupted run: killed right after epoch 2's checkpoint commits.
        ckpt_dir = str(tmp_path / "ckpt")
        resil = ResilienceConfig(checkpoint_dir=ckpt_dir)
        with injected("trainer.epoch@2:kill"):
            with pytest.raises(SimulatedCrash):
                PredictiveQueryPlanner(db, fast_config(), resilience=resil).fit(
                    BINARY_QUERY, split
                )

        # Resume: picks up at epoch 2 and must replay the rest bit-identically.
        resumed = PredictiveQueryPlanner(
            db, fast_config(),
            resilience=ResilienceConfig(checkpoint_dir=ckpt_dir, resume=True),
        ).fit(BINARY_QUERY, split)
        res_hist = resumed.node_trainer.history

        assert res_hist.resumed_from_epoch == 2
        assert res_hist.train_loss == base_hist.train_loss
        assert res_hist.val_loss == base_hist.val_loss
        assert res_hist.best_epoch == base_hist.best_epoch
        base_state = baseline.node_trainer.model.state_dict()
        res_state = resumed.node_trainer.model.state_dict()
        assert sorted(base_state) == sorted(res_state)
        for name in base_state:
            np.testing.assert_array_equal(base_state[name], res_state[name])
        keys = db["customers"]["id"].values[:20]
        np.testing.assert_array_equal(
            baseline.predict(keys, split.test_cutoff),
            resumed.predict(keys, split.test_cutoff),
        )

    def test_checkpoint_with_a_sampler_generator_is_refused(self, db, split, tmp_path):
        """A checkpoint from when the sampler owned a generator carries
        one RNG state more than the trainer exposes; resuming from it
        must fail loudly instead of mis-assigning states."""
        ckpt_dir = str(tmp_path / "ckpt")
        with injected("trainer.epoch@2:kill"):
            with pytest.raises(SimulatedCrash):
                PredictiveQueryPlanner(
                    db, fast_config(), resilience=ResilienceConfig(checkpoint_dir=ckpt_dir)
                ).fit(BINARY_QUERY, split)
        manager = CheckpointManager(ckpt_dir)
        arrays, meta = manager.load("train")
        assert len(meta["rng_states"]) == 1  # the trainer's own; the sampler holds none
        meta["rng_states"].append(np.random.default_rng(1).bit_generator.state)
        manager.save("train", arrays, meta)
        with pytest.raises(ValueError, match="RNG states"):
            PredictiveQueryPlanner(
                db, fast_config(),
                resilience=ResilienceConfig(checkpoint_dir=ckpt_dir, resume=True),
            ).fit(BINARY_QUERY, split)

    def test_transient_fault_retry_resumes_from_checkpoint(self, db, split, tmp_path):
        # A retryable fault mid-training: the train stage's second attempt
        # must resume from the checkpoint instead of starting over.
        resil = ResilienceConfig(
            checkpoint_dir=str(tmp_path / "ckpt"),
            max_retries=1,
            retry_base_delay=0.0,
        )
        planner = PredictiveQueryPlanner(db, fast_config(), resilience=resil)
        # The step site is only reached on training batches, so call 7
        # lands in an epoch after at least one checkpoint has committed.
        with injected("trainer.step@7:raise"):
            model = planner.fit(BINARY_QUERY, split)
        history = model.node_trainer.history
        assert history.resumed_from_epoch > 0
        assert len(history.train_loss) == fast_config().epochs


# ----------------------------------------------------------------------
# Degradation ladder
# ----------------------------------------------------------------------
class TestDegradation:
    def degraded_model(self, db, split, extra_faults="", **resil_overrides):
        options = dict(fallback=True, max_retries=0)
        options.update(resil_overrides)
        planner = PredictiveQueryPlanner(
            db, fast_config(), resilience=ResilienceConfig(**options)
        )
        specs = "trainer.step%1.0:raise"
        if extra_faults:
            specs += "," + extra_faults
        with injected(specs):
            return planner.fit(BINARY_QUERY, split)

    def test_gnn_failure_degrades_to_gbdt(self, db, split):
        model = self.degraded_model(db, split)
        assert model.available_tiers() == ["green", "yellow"]  # red is absent
        assert "StageFailedError" in model.degraded_reason
        assert model.node_trainer is None
        keys = db["customers"]["id"].values[:10]
        preds = model.predict(keys, split.test_cutoff)
        assert preds.shape == (10,)
        assert np.all((preds >= 0) & (preds <= 1))
        metrics = model.evaluate(split.test_cutoff)
        assert metrics["auroc"] > 0.5  # features still carry real signal

    def test_gbdt_failure_degrades_to_heuristic(self, db, split):
        model = self.degraded_model(db, split, extra_faults="fallback.gbdt@1:raise")
        assert model.available_tiers() == ["green"]
        keys = db["customers"]["id"].values[:20]
        preds = model.predict(keys, split.test_cutoff)
        assert np.all((preds >= 0) & (preds <= 1))
        # Calibrated activity: the score is a function of the count alone.
        counts = model.green.activity(keys, np.full(len(keys), split.test_cutoff))
        assert len(set(zip(counts.tolist(), preds.tolist()))) == len(set(counts.tolist()))

    def test_no_fallback_raises(self, db, split):
        planner = PredictiveQueryPlanner(
            db, fast_config(), resilience=ResilienceConfig(fallback=False)
        )
        with injected("trainer.step%1.0:raise"):
            with pytest.raises(StageFailedError):
                planner.fit(BINARY_QUERY, split)

    def test_degraded_model_from_an_earlier_version_asks_for_a_refit(
        self, db, split, tmp_path
    ):
        # The layout degraded models had before they saved tiers.pkl:
        # one pickled rung in fallback.pkl, named by fallback_kind.
        target = str(tmp_path / "model")
        shutil.copytree(FIXTURES / "legacy_degraded_model", target)
        manifest_path = os.path.join(target, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        for kind in ("gbdt", "heuristic", "popularity"):
            manifest["fallback_kind"] = kind
            with open(manifest_path, "w") as handle:
                json.dump(manifest, handle)
            with pytest.raises(CorruptModelError, match="earlier version — re-fit"):
                PredictiveModel.load(target, db)

    def test_degraded_predict_builds_features_once(self, db, split, monkeypatch):
        from repro.baselines.features import FeatureBuilder

        built = []
        real_init = FeatureBuilder.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(FeatureBuilder, "__init__", counting_init)
        model = self.degraded_model(db, split)
        assert len(built) == 1  # at bind
        keys = db["customers"]["id"].values[:4]
        for _ in range(20):
            model.predict(keys, split.test_cutoff)
        assert len(built) == 1

    def test_fit_routed_reuses_the_degraded_rungs(self, db, split):
        planner = PredictiveQueryPlanner(
            db, fast_config(), resilience=ResilienceConfig(fallback=True)
        )
        with injected("trainer.step%1.0:raise"), obs.collect() as trace:
            routed = planner.fit(BINARY_QUERY, split, router=RouterConfig())
        assert routed.available_tiers() == ["green", "yellow"]
        # The one GBDT fit is the fallback's, and says what it grew.
        assert trace.find("router.fit_yellow") is None
        counters = trace.find("planner.fallback").counters
        trees = routed.yellow.estimator.trees_
        assert counters["yellow.trees"] == len(trees) <= counters["yellow.rounds"] <= 100
        assert counters["yellow.nodes"] == sum(len(tree.nodes) for tree in trees)
        assert counters["yellow.train_rows"] > 0 and counters["yellow.features"] > 0
        assert routed.green is routed.yellow.green
        assert set(routed.quality) == {"green", "yellow"}
        assert "StageFailedError" in routed.degraded_reason
        keys = db["customers"]["id"].values[:6]
        np.testing.assert_array_equal(
            routed.predict(keys, split.test_cutoff, route="yellow"),
            routed.yellow.predict(keys, np.full(len(keys), split.test_cutoff)),
        )

    def test_list_query_degrades_to_popularity(self, db, split):
        planner = PredictiveQueryPlanner(
            db, fast_config(), resilience=ResilienceConfig(fallback=True)
        )
        with injected("trainer.step%1.0:raise"):
            model = planner.fit(
                "PREDICT LIST(orders.product_id) FOR EACH customers.id "
                "ASSUMING HORIZON 30 DAYS",
                split,
            )
        assert model.available_tiers() == ["green"]
        results = model.rank_items(db["customers"]["id"].values[:3], split.test_cutoff, k=5)
        assert len(results) == 3
        metrics = model.evaluate(split.test_cutoff, k=5)
        assert metrics["num_queries"] > 0


# ----------------------------------------------------------------------
# Atomic model persistence
# ----------------------------------------------------------------------
class TestAtomicSave:
    @pytest.fixture(scope="class")
    def model(self, db, split):
        return PredictiveQueryPlanner(db, fast_config(epochs=2)).fit(BINARY_QUERY, split)

    def test_manifest_carries_weights_checksum(self, model, tmp_path):
        target = str(tmp_path / "model")
        model.save(target)
        with open(os.path.join(target, "manifest.json")) as handle:
            manifest = json.load(handle)
        assert len(manifest["weights_sha256"]) == 64
        assert not os.path.exists(target + ".tmp")
        assert not os.path.exists(target + ".old")

    def test_crash_during_save_preserves_previous_model(self, model, db, split, tmp_path):
        target = str(tmp_path / "model")
        model.save(target)
        keys = db["customers"]["id"].values[:10]
        expected = PredictiveModel.load(target, db).predict(keys, split.test_cutoff)
        snapshot_sha = PredictiveModel.verify_data(target)
        # Second save — over a database that has changed since — dies
        # after staging, before the directory swap.
        grown = PredictiveModel.load(target)
        grown.db.add_table(grown.db["products"].head(3), replace=True)
        with injected("planner.save@1:kill"):
            with pytest.raises(SimulatedCrash):
                grown.save(target)
        reloaded = PredictiveModel.load(target, db)
        np.testing.assert_array_equal(
            reloaded.predict(keys, split.test_cutoff), expected
        )
        # The previous artifact's own snapshot survived with it.
        assert PredictiveModel.verify_data(target) == snapshot_sha
        np.testing.assert_array_equal(
            PredictiveModel.load(target).predict(keys, split.test_cutoff), expected
        )

    def test_corrupted_weights_raise_corrupt_model_error(self, model, db, tmp_path):
        target = str(tmp_path / "model")
        model.save(target)
        with open(os.path.join(target, "weights.npz"), "ab") as handle:
            handle.write(b"flipped bits")
        with pytest.raises(CorruptModelError):
            PredictiveModel.load(target, db)

    def test_missing_weights_raise_corrupt_model_error(self, model, db, tmp_path):
        target = str(tmp_path / "model")
        model.save(target)
        os.unlink(os.path.join(target, "weights.npz"))
        with pytest.raises(CorruptModelError):
            PredictiveModel.load(target, db)


# ----------------------------------------------------------------------
# Metric NaN guards
# ----------------------------------------------------------------------
class TestMetricNaNGuards:
    def test_rank_metrics_refuse_nonfinite_scores(self):
        y = np.array([0.0, 1.0, 0.0, 1.0])
        scores = np.array([0.1, 0.9, float("nan"), 0.8])
        assert np.isnan(auroc(y, scores))
        assert np.isnan(average_precision(y, scores))
        assert np.isnan(brier_score(y, scores))
        assert np.isnan(expected_calibration_error(y, scores))

    def test_finite_scores_unaffected(self):
        y = np.array([0.0, 1.0, 0.0, 1.0])
        scores = np.array([0.1, 0.9, 0.2, 0.8])
        assert auroc(y, scores) == 1.0
        assert average_precision(y, scores) == 1.0

    def test_warning_logged(self, caplog, propagating_logs):
        with caplog.at_level("WARNING", logger="repro.eval.metrics"):
            auroc(np.array([0.0, 1.0]), np.array([float("inf"), 0.5]))
        assert any("non-finite" in record.message for record in caplog.records)
