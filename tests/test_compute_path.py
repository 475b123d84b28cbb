"""Tests for the compute path: fused kernels, flat optimizers, compute
dtype threading, vectorized categorical encoding, and the batched
no-grad inference surface.

The op-by-op compositions the fused kernels replaced and the
per-parameter optimizer loops the flat steps replaced are defined here
as oracles (``unfused_*``, ``LoopAdam``)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.gnn import (
    GraphMetadata,
    HeteroGNN,
    LinkTaskTrainer,
    NodeTaskTrainer,
    TrainConfig,
    TwoTowerModel,
)
from repro.gnn.trainer import _ResilientLoop
from repro.graph import NeighborSampler, build_graph
from repro.graph.encoders import (
    _MAX_VOCAB,
    _OVERFLOW_BUCKETS,
    _encode_categorical,
    _stable_hash,
)
from repro.nn import Tensor, functional as F, no_grad
from repro.nn.layers import MLP, Linear
from repro.nn.module import Parameter
from repro.nn.optim import Adam, AdamW
from repro.nn.tensor import as_dtype
from repro.relational import (
    ColumnSpec,
    Database,
    DType,
    ForeignKey,
    Table,
    TableSchema,
)
from tests.gradcheck import check_gradients
from tests.oracles import clip_grad_norm


# ======================================================================
# Fused kernels
# ======================================================================
def unfused_addmm(x, weight, bias=None):
    out = x @ weight
    return out + bias if bias is not None else out


def unfused_linear_relu(x, weight, bias=None):
    return unfused_addmm(x, weight, bias).relu()


def unfused_bce_with_logits(logits, targets, pos_weight=None):
    targets = np.asarray(targets, dtype=logits.data.dtype)
    per_example = logits.softplus() - logits * Tensor(targets)
    if pos_weight is not None:
        weights = np.where(targets > 0.5, float(pos_weight), 1.0).astype(logits.data.dtype)
        per_example = per_example * Tensor(weights)
    return per_example


#: fused? -> namespace with linear_relu / bce_with_logits
KERNELS = {
    True: F,
    False: SimpleNamespace(
        linear_relu=unfused_linear_relu,
        bce_with_logits=unfused_bce_with_logits,
    ),
}


class TestFusedKernelGradients:
    """Finite-difference checks for every fused kernel, in float64."""

    def setup_method(self):
        rng = np.random.default_rng(3)
        self.x = rng.normal(size=(5, 4))
        self.w = rng.normal(size=(4, 6))
        self.b = rng.normal(size=6)

    def test_addmm_input_grad(self):
        w, b = Tensor(self.w), Tensor(self.b)
        check_gradients(lambda t: F.addmm(t, w, b).sum(), self.x)

    def test_addmm_weight_grad(self):
        x, b = Tensor(self.x), Tensor(self.b)
        check_gradients(lambda t: F.addmm(x, t, b).sum(), self.w)

    def test_addmm_bias_grad(self):
        x, w = Tensor(self.x), Tensor(self.w)
        check_gradients(lambda t: F.addmm(x, w, t).sum(), self.b)

    def test_linear_relu_grads(self):
        # Keep pre-activations away from the ReLU kink so central
        # differences are valid.
        w, b = Tensor(self.w), Tensor(self.b)
        pre = self.x @ self.w + self.b
        assert np.abs(pre).min() > 1e-3
        check_gradients(lambda t: F.linear_relu(t, w, b).sum(), self.x)
        x = Tensor(self.x)
        check_gradients(lambda t: F.linear_relu(x, t, b).sum(), self.w)
        check_gradients(lambda t: F.linear_relu(x, w, t).sum(), self.b)

    def test_bce_with_logits_grad(self):
        targets = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        logits = np.random.default_rng(5).normal(size=5)
        check_gradients(lambda t: F.bce_with_logits(t, targets).mean(), logits)

    def test_bce_with_logits_pos_weight_grad(self):
        targets = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        logits = np.random.default_rng(6).normal(size=5)
        check_gradients(
            lambda t: F.bce_with_logits(t, targets, pos_weight=3.0).mean(), logits
        )

    def test_unfused_fallback_gradchecks(self):
        # The oracle compositions must pass the same checks, and so
        # must the kernels' own fall-back for inputs that are not 2-D.
        w, b = Tensor(self.w), Tensor(self.b)
        check_gradients(lambda t: unfused_addmm(t, w, b).sum(), self.x)
        check_gradients(lambda t: unfused_linear_relu(t, w, b).sum(), self.x)
        bce_targets = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        bce_logits = np.random.default_rng(5).normal(size=5)
        check_gradients(
            lambda t: unfused_bce_with_logits(t, bce_targets, pos_weight=2.0).mean(),
            bce_logits,
        )
        stacked = np.random.default_rng(6).normal(size=(2, 5, 4))
        check_gradients(lambda t: F.addmm(t, w, b).sum(), stacked)
        check_gradients(lambda t: F.linear_relu(t, w, b).sum(), stacked)


class TestFusedVsUnfused:
    """Fused and unfused paths agree in float64, and the float32 fast
    path tracks the float64 reference to float32 precision."""

    def _forward_backward(self, fused, dtype):
        rng = np.random.default_rng(11)
        x_data = rng.normal(size=(6, 5))
        w_data = rng.normal(size=(5, 7))
        b_data = rng.normal(size=7)
        targets = rng.integers(0, 2, size=(6, 7)).astype(np.float64)
        kernels = KERNELS[fused]
        x = Tensor(x_data, requires_grad=True, dtype=dtype)
        w = Tensor(w_data, requires_grad=True, dtype=dtype)
        b = Tensor(b_data, requires_grad=True, dtype=dtype)
        hidden = kernels.linear_relu(x, w, b)
        loss = kernels.bce_with_logits(hidden, targets).mean()
        loss.backward()
        return loss.data.copy(), x.grad.copy(), w.grad.copy(), b.grad.copy()

    def test_float64_equivalence(self):
        fused = self._forward_backward(True, "float64")
        unfused = self._forward_backward(False, "float64")
        for got, want in zip(fused, unfused):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_float32_tracks_float64(self):
        fast = self._forward_backward(True, "float32")
        reference = self._forward_backward(False, "float64")
        assert all(arr.dtype == np.float32 for arr in fast)
        for got, want in zip(fast, reference):
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    def test_bce_fused_matches_unfused(self):
        logits_data = np.random.default_rng(12).normal(size=8)
        targets = (np.arange(8) % 2).astype(float)
        results = []
        for fused in (True, False):
            logits = Tensor(logits_data, requires_grad=True)
            KERNELS[fused].bce_with_logits(logits, targets, pos_weight=2.0).mean().backward()
            results.append((logits.grad.copy(),))
        np.testing.assert_allclose(results[0][0], results[1][0], rtol=1e-12, atol=1e-12)


# ======================================================================
# Flat-buffer optimizers
# ======================================================================
def _make_params(seed=0):
    rng = np.random.default_rng(seed)
    shapes = [(4, 3), (3,), (2, 2, 2), (5,)]
    return [Parameter(rng.normal(size=shape)) for shape in shapes]


def _random_grads(params, seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=param.data.shape) for param in params]


class LoopAdam:
    """Per-parameter Adam/AdamW loop: the oracle for the flat steps."""

    def __init__(self, parameters, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0,
                 decoupled=False):
        self.parameters, self.lr = list(parameters), lr
        (self.beta1, self.beta2), self.eps = betas, eps
        self.weight_decay, self.decoupled = weight_decay, decoupled
        self._m, self._v, self._t = {}, {}, 0

    def gather_and_clip(self, max_norm):
        return clip_grad_norm(self.parameters, max_norm)

    def step(self):
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for i, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay and self.decoupled:
                param.data -= self.lr * self.weight_decay * param.data
            elif self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m = self._m.get(i)
            v = self._v.get(i)
            if m is None:
                m = np.zeros_like(param.data)
                v = np.zeros_like(param.data)
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * grad**2
            self._m[i], self._v[i] = m, v
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class TestFlatOptimizerEquivalence:
    """Flat-buffer updates must be bit-identical to the per-parameter
    oracle loops in float64, including missing grads and clipping."""

    def _run(self, make_opt, steps=5, missing_index=2, clip=None):
        params = _make_params()
        optimizer = make_opt(params)
        for step in range(steps):
            grads = _random_grads(params, seed=100 + step)
            for i, param in enumerate(params):
                # Simulate a parameter skipped by backward on odd steps
                # (e.g. an edge type absent from the sampled subgraph).
                if i == missing_index and step % 2 == 1:
                    param.grad = None
                else:
                    param.grad = grads[i].copy()
            if clip is not None:
                optimizer.gather_and_clip(clip)
            optimizer.step()
        return [param.data.copy() for param in params]

    @pytest.mark.parametrize(
        "flat_cls,loop_cls,kwargs",
        [
            (Adam, LoopAdam, dict(lr=0.01)),
            (Adam, LoopAdam, dict(lr=0.01, weight_decay=0.02)),
            (AdamW, lambda p, **kw: LoopAdam(p, decoupled=True, **kw),
             dict(lr=0.01, weight_decay=0.02)),
        ],
        ids=["adam", "adam-wd", "adamw"],
    )
    def test_bit_identical_to_reference(self, flat_cls, loop_cls, kwargs):
        flat = self._run(lambda p: flat_cls(p, **kwargs))
        reference = self._run(lambda p: loop_cls(p, **kwargs))
        for got, want in zip(flat, reference):
            assert np.array_equal(got, want), "flat update diverged from reference"

    def test_bit_identical_with_clipping(self):
        flat = self._run(lambda p: Adam(p, lr=0.01), clip=0.5)
        reference = self._run(lambda p: LoopAdam(p, lr=0.01), clip=0.5)
        for got, want in zip(flat, reference):
            assert np.array_equal(got, want)

    def test_gather_and_clip_returns_norm_and_scales(self):
        params = _make_params()
        reference = _make_params()
        grads = _random_grads(params, seed=7)
        for param, ref, grad in zip(params, reference, grads):
            param.grad = grad.copy()
            ref.grad = grad.copy()
        optimizer = Adam(params, lr=0.01)
        norm = optimizer.gather_and_clip(0.1)
        expected_norm = clip_grad_norm(reference, 0.1)
        assert norm == pytest.approx(expected_norm, rel=1e-12)
        assert norm > 0.1  # clipping activated

    def test_layout_manifest_covers_every_parameter(self):
        params = _make_params()
        optimizer = Adam(params, lr=0.01)
        manifest = optimizer.layout_manifest()
        assert [entry["index"] for entry in manifest] == list(range(len(params)))
        for entry, param in zip(manifest, params):
            assert tuple(entry["shape"]) == param.data.shape
            assert entry["size"] == param.data.size
            assert entry["dtype"] == str(param.data.dtype)

    def test_data_rebound_to_flat_views(self):
        params = _make_params()
        values = [param.data.copy() for param in params]
        optimizer = Adam(params, lr=0.01)
        for param, value in zip(params, values):
            np.testing.assert_array_equal(param.data, value)
            assert param.data.base is not None  # a view into the flat buffer
        assert optimizer is not None

    def test_moment_roundtrip_through_properties(self):
        # The resilience layer snapshots/restores moments as
        # {param_index: array} dicts; flat storage must honor that.
        params = _make_params()
        optimizer = Adam(params, lr=0.01)
        for param in params:
            param.grad = np.ones_like(param.data)
        optimizer.step()
        snapshot_m = {i: m.copy() for i, m in optimizer._m.items()}
        snapshot_v = {i: v.copy() for i, v in optimizer._v.items()}
        snapshot_t = optimizer._t
        for param in params:
            param.grad = 2.0 * np.ones_like(param.data)
        optimizer.step()
        optimizer._m = snapshot_m
        optimizer._v = snapshot_v
        optimizer._t = snapshot_t
        for i, moment in optimizer._m.items():
            np.testing.assert_array_equal(moment, snapshot_m[i])
        for i, moment in optimizer._v.items():
            np.testing.assert_array_equal(moment, snapshot_v[i])

    def test_state_dict_semantics_preserved_after_flat_rebind(self):
        # In-place loads through the flat views must update the buffer.
        params = _make_params()
        Adam(params, lr=0.01)
        replacement = np.full(params[0].data.shape, 3.5)
        params[0].data[...] = replacement
        np.testing.assert_array_equal(params[0].data, replacement)


# ======================================================================
# Compute dtype threading
# ======================================================================
class TestComputeDtype:
    def test_as_dtype_accepts_floats_rejects_others(self):
        assert as_dtype(None) == np.dtype(np.float64)
        assert as_dtype("float32") == np.dtype(np.float32)
        assert as_dtype(np.float64) == np.dtype(np.float64)
        with pytest.raises(ValueError):
            as_dtype(np.int64)

    def test_scalar_ops_preserve_float32(self):
        t = Tensor(np.ones(3), dtype="float32")
        assert (t * 2.0).data.dtype == np.float32
        assert (t + 1).data.dtype == np.float32
        assert t.relu().data.dtype == np.float32
        assert t.sigmoid().data.dtype == np.float32

    def test_linear_float32_end_to_end(self):
        layer = Linear(4, 3, np.random.default_rng(0), dtype="float32")
        assert layer.weight.data.dtype == np.float32
        x = Tensor(np.random.default_rng(1).normal(size=(5, 4)), dtype="float32")
        out = layer(x)
        assert out.data.dtype == np.float32
        out.sum().backward()
        assert layer.weight.grad.dtype == np.float32

    def test_mlp_float64_default_unchanged(self):
        mlp = MLP([4, 8, 2], np.random.default_rng(0))
        assert all(p.data.dtype == np.float64 for p in mlp.parameters())

    def test_gnn_models_thread_dtype(self):
        graph = build_graph(_tiny_db())
        metadata = GraphMetadata.from_graph(graph)
        rng = np.random.default_rng(0)
        model = HeteroGNN(metadata, hidden_dim=8, out_dim=1, num_layers=1,
                          rng=rng, dtype="float32")
        assert all(p.data.dtype == np.float32 for p in model.parameters())
        sampler = NeighborSampler(graph, fanouts=[4], seed=1)
        subgraph = sampler.sample(
            "customers", np.array([0, 1]), np.array([900, 900], dtype=np.int64)
        )
        out = model(subgraph, graph)
        assert out.data.dtype == np.float32
        query = HeteroGNN(metadata, hidden_dim=8, out_dim=8, num_layers=0, rng=rng,
                          dtype="float32")
        tower = TwoTowerModel(query, metadata, item_type="customers", num_items=4, rng=rng)
        assert all(p.data.dtype == np.float32 for p in tower.parameters())


# ======================================================================
# Vectorized categorical encoding
# ======================================================================
def _reference_encode(name, values, null_mask, fit_mask):
    """The original per-row loop, kept as the behavioral pin."""
    usable = fit_mask & ~null_mask
    seen = sorted({str(v) for v in values[usable]})
    hash_all = len(seen) > _MAX_VOCAB
    if hash_all:
        vocabulary, base = {}, _MAX_VOCAB
    else:
        vocabulary = {value: i for i, value in enumerate(seen)}
        base = len(seen)
    null_code = base
    overflow_start = base + 1
    codes = np.empty(len(values), dtype=np.int64)
    for i, raw in enumerate(values):
        if null_mask[i]:
            codes[i] = null_code
        else:
            text = str(raw)
            if not hash_all:
                code = vocabulary.get(text)
                codes[i] = (
                    code if code is not None
                    else overflow_start + _stable_hash(text) % _OVERFLOW_BUCKETS
                )
            else:
                codes[i] = _stable_hash(text) % _MAX_VOCAB
    return codes, overflow_start + _OVERFLOW_BUCKETS, vocabulary


class TestCategoricalEncoding:
    def test_stable_hash_pinned_values(self):
        # These values are part of the on-disk model contract: changing
        # them silently reassigns hash buckets of saved vocabularies.
        assert _stable_hash("") == 2166136261
        assert _stable_hash("a") == 3826002220
        assert _stable_hash("apparel") == 891191494
        assert _stable_hash("électronique") == 479004176
        assert _stable_hash("item-123") == 1757433023

    def _compare(self, values, null_mask, fit_mask):
        values = np.asarray(values, dtype=object)
        encoding = _encode_categorical("col", values, null_mask, fit_mask)
        ref_codes, ref_card, ref_vocab = _reference_encode(
            "col", values, null_mask, fit_mask
        )
        np.testing.assert_array_equal(encoding.codes, ref_codes)
        assert encoding.cardinality == ref_card
        assert encoding.vocabulary == ref_vocab

    def test_small_vocabulary_with_unseen_and_nulls(self):
        values = ["red", "blue", "red", "green", "violet", "blue", "??"]
        null_mask = np.array([False, False, False, False, False, True, False])
        # 'green', 'violet', '??' fall outside the fit window.
        fit_mask = np.array([True, True, True, False, False, True, False])
        self._compare(values, null_mask, fit_mask)

    def test_hash_everything_above_vocab_cap(self):
        values = [f"value-{i}" for i in range(_MAX_VOCAB + 50)]
        null_mask = np.zeros(len(values), dtype=bool)
        null_mask[7] = True
        fit_mask = np.ones(len(values), dtype=bool)
        self._compare(values, null_mask, fit_mask)

    def test_empty_fit_window_codes_stay_inside_cardinality(self):
        # Every value arrives after the fit window: all are unseen and
        # hash into the overflow buckets, never past the cardinality.
        values = ["red", "blue", "green", "red"]
        null_mask = np.array([False, False, True, False])
        fit_mask = np.zeros(4, dtype=bool)
        self._compare(values, null_mask, fit_mask)
        encoding = _encode_categorical(
            "col", np.asarray(values, dtype=object), null_mask, fit_mask)
        assert encoding.vocabulary == {}
        assert encoding.codes.max() < encoding.cardinality == 1 + _OVERFLOW_BUCKETS

    def test_all_null_column(self):
        values = ["x", "y", "z"]
        null_mask = np.ones(3, dtype=bool)
        fit_mask = np.ones(3, dtype=bool)
        self._compare(values, null_mask, fit_mask)

    def test_hash_cache_is_transparent(self):
        _stable_hash.cache_clear()
        first = _stable_hash("repeat-me")
        second = _stable_hash("repeat-me")
        assert first == second
        assert _stable_hash.cache_info().hits >= 1


# ======================================================================
# Batched no-grad inference
# ======================================================================
def _tiny_db(num_customers=16, orders_per_heavy=4, rng_seed=0):
    """Small shop database: even-id customers have many orders."""
    rng = np.random.default_rng(rng_seed)
    customers = Table.from_dict(
        TableSchema(
            "customers",
            [ColumnSpec("id", DType.INT64), ColumnSpec("age", DType.FLOAT64)],
            primary_key="id",
        ),
        {
            "id": list(range(num_customers)),
            "age": rng.normal(40, 10, num_customers).tolist(),
        },
    )
    order_rows = {"id": [], "customer_id": [], "amount": [], "ts": []}
    oid = 0
    for cid in range(num_customers):
        for _ in range(orders_per_heavy if cid % 2 == 0 else 1):
            order_rows["id"].append(oid)
            order_rows["customer_id"].append(cid)
            order_rows["amount"].append(float(rng.uniform(1, 20)))
            order_rows["ts"].append(int(rng.integers(0, 1000)))
            oid += 1
    orders = Table.from_dict(
        TableSchema(
            "orders",
            [
                ColumnSpec("id", DType.INT64),
                ColumnSpec("customer_id", DType.INT64),
                ColumnSpec("amount", DType.FLOAT64),
                ColumnSpec("ts", DType.TIMESTAMP),
            ],
            primary_key="id",
            foreign_keys=[ForeignKey("customer_id", "customers", "id")],
            time_column="ts",
        ),
        order_rows,
    )
    db = Database("shop")
    db.add_table(customers)
    db.add_table(orders)
    return db


def _node_trainer(infer_batch_size=None, epochs=2):
    graph = build_graph(_tiny_db())
    metadata = GraphMetadata.from_graph(graph)
    model = HeteroGNN(metadata, hidden_dim=8, out_dim=1, num_layers=1,
                      rng=np.random.default_rng(0))
    sampler = NeighborSampler(graph, fanouts=[4], seed=1)
    config = TrainConfig(epochs=epochs, batch_size=8, patience=10,
                         infer_batch_size=infer_batch_size)
    return NodeTaskTrainer(model, graph, sampler, "binary", config=config), graph


class TestBatchedInference:
    def test_effective_infer_batch_size_defaults_to_batch_size(self):
        config = TrainConfig(batch_size=32)
        assert config.effective_infer_batch_size == 32
        config = TrainConfig(batch_size=32, infer_batch_size=512)
        assert config.effective_infer_batch_size == 512

    def test_predict_is_idempotent_and_rng_neutral(self):
        trainer, graph = _node_trainer()
        ids = np.arange(16, dtype=np.int64)
        times = np.full(16, 900, dtype=np.int64)
        labels = (ids % 2 == 0).astype(float)
        trainer.fit("customers", ids, times, labels)
        rng_state = trainer._rng.bit_generator.state
        first = trainer.predict("customers", ids, times)
        second = trainer.predict("customers", ids, times)
        np.testing.assert_array_equal(first, second)
        # Inference must not consume training RNG draws (save/load and
        # resume parity depend on it).
        assert trainer._rng.bit_generator.state == rng_state

    def test_predict_with_explicit_infer_batch_size(self):
        trainer, graph = _node_trainer(infer_batch_size=4)
        ids = np.arange(16, dtype=np.int64)
        times = np.full(16, 900, dtype=np.int64)
        labels = (ids % 2 == 0).astype(float)
        trainer.fit("customers", ids, times, labels)
        preds = trainer.predict("customers", ids, times)
        assert preds.shape == (16,)
        assert np.all((preds >= 0) & (preds <= 1))

    def test_no_grad_forward_builds_no_graph(self):
        trainer, graph = _node_trainer(epochs=1)
        subgraph = trainer.sampler.sample(
            "customers", np.arange(4, dtype=np.int64), np.full(4, 900, dtype=np.int64)
        )
        with no_grad():
            out = trainer.model(subgraph, graph)
        assert not out.requires_grad
        assert out._parents == ()

    def test_evaluate_loss_batches_match_single_batch(self):
        trainer, _ = _node_trainer(epochs=1)
        ids = np.arange(16, dtype=np.int64)
        times = np.full(16, 900, dtype=np.int64)
        labels = (ids % 2 == 0).astype(float)
        whole = _ResilientLoop(trainer)._val_loss("customers", ids, times, labels)
        assert np.isfinite(whole)


class TestItemEmbeddingCache:
    def _link_trainer(self):
        graph = build_graph(_tiny_db())
        metadata = GraphMetadata.from_graph(graph)
        rng = np.random.default_rng(0)
        query = HeteroGNN(metadata, hidden_dim=8, out_dim=8, num_layers=0, rng=rng)
        model = TwoTowerModel(query, metadata, item_type="customers",
                              num_items=graph.num_nodes("customers"), rng=rng)
        sampler = NeighborSampler(graph, fanouts=[4], seed=1)
        config = TrainConfig(epochs=1, batch_size=8)
        return LinkTaskTrainer(model, graph, sampler, config=config), graph

    def test_item_embeddings_memoized_across_calls(self):
        trainer, _ = self._link_trainer()
        item_ids = np.arange(8, dtype=np.int64)
        first = trainer._cached_item_embeddings(item_ids)
        second = trainer._cached_item_embeddings(item_ids)
        assert first is second
        third = trainer._cached_item_embeddings(np.arange(4, dtype=np.int64))
        assert third is not first

    def test_fit_invalidates_item_cache(self):
        trainer, _ = self._link_trainer()
        item_ids = np.arange(8, dtype=np.int64)
        trainer._cached_item_embeddings(item_ids)
        ids = np.arange(16, dtype=np.int64)
        times = np.full(16, 900, dtype=np.int64)
        positives = (ids + 1) % 16
        trainer.fit("customers", ids, times, positives)
        assert trainer._item_embed_cache is None

    def test_score_against_items_rng_neutral(self):
        trainer, _ = self._link_trainer()
        ids = np.arange(8, dtype=np.int64)
        times = np.full(8, 900, dtype=np.int64)
        rng_state = trainer._rng.bit_generator.state
        scores = trainer.score_against_items(
            "customers", ids, times, np.arange(8, dtype=np.int64)
        )
        assert scores.shape == (8, 8)
        assert trainer._rng.bit_generator.state == rng_state
