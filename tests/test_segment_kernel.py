"""The segment kernel against its ``ufunc.at`` oracle.

``repro.nn.segment.SegmentPlan`` groups slots by segment length and
reduces each length densely; ``tests/oracles.py`` keeps the
``np.add.at`` / ``np.maximum.at`` scatters it replaced.  Both add a
slot's rows in index order, so results must be *equal*, not close —
``np.array_equal`` everywhere (which, like the kernel's contract,
does not tell ``-0.0`` from ``0.0``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gnn import GraphMetadata, HeteroGATConv, HeteroSAGEConv
from repro.gnn.scatter import scatter_max, scatter_mean, scatter_sum, segment_softmax
from repro.graph import NeighborSampler, build_graph
from repro.nn import Tensor
from tests.gradcheck import check_gradients
from repro.nn.segment import SegmentPlan
from tests.conftest import shop_db
from tests.oracles import (
    at_max,
    at_scatter_max,
    at_scatter_mean,
    at_scatter_sum,
    at_sum,
    at_take,
)

BASE = SegmentPlan.BASE_CASE_ROWS


@st.composite
def scatter_cases(draw):
    """(index, num_targets, values): sizes on both sides of the base
    case, unsorted/sorted, empty slots, one heavy slot, ``d = 1``."""
    num_targets = draw(st.integers(1, 40))
    num_rows = draw(st.sampled_from([0, 1, 7, BASE, BASE + 1, 150, 400]))
    width = draw(st.sampled_from([1, 2, 5, 32]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    shape = draw(st.sampled_from(["uniform", "sorted", "heavy", "sparse"]))
    if shape == "heavy":  # one slot takes (almost) every row: the src side
        index = np.where(rng.random(num_rows) < 0.9, num_targets - 1, rng.integers(0, num_targets, num_rows))
    elif shape == "sparse":  # most slots empty
        index = rng.choice(rng.integers(0, num_targets, 3), size=num_rows)
    else:
        index = rng.integers(0, num_targets, num_rows)
    if shape == "sorted":
        index = np.sort(index)
    values = rng.standard_normal((num_rows, width)).astype(dtype)
    if draw(st.booleans()):  # ties and exact zeros for max
        values = np.round(values)
    return index.astype(np.int64), num_targets, values


@settings(max_examples=300, deadline=None)
@given(scatter_cases())
def test_plan_kernel_equals_ufunc_at(case):
    index, num_targets, values = case
    plan = SegmentPlan(index, num_targets)
    for _ in range(2):  # second round reuses the built layout
        assert np.array_equal(plan.sum(values), at_sum(values, index, num_targets))
        assert np.array_equal(plan.max(values), at_max(values, index, num_targets))
    assert plan.sum(values).dtype == values.dtype
    assert np.array_equal(plan.counts, np.bincount(index, minlength=num_targets))


@settings(max_examples=100, deadline=None)
@given(scatter_cases(), st.sampled_from(["sum", "mean", "max"]))
def test_scatter_ops_equal_their_oracles_forward_and_backward(case, name):
    index, num_targets, values = case
    new_op = {"sum": scatter_sum, "mean": scatter_mean, "max": scatter_max}[name]
    old_op = {"sum": at_scatter_sum, "mean": at_scatter_mean, "max": at_scatter_max}[name]
    weights = np.arange(num_targets * values.shape[1], dtype=values.dtype).reshape(num_targets, -1)
    grads = []
    for op, arg in ((new_op, SegmentPlan(index, num_targets)), (new_op, index), (old_op, index)):
        messages = Tensor(values.copy(), requires_grad=True)
        out = op(messages, arg, num_targets)
        (out * Tensor(weights)).sum().backward()
        grads.append((out.data, messages.grad))
    for data, grad in grads[:2]:
        assert np.array_equal(data, grads[2][0])
        assert np.array_equal(grad, grads[2][1])


@settings(max_examples=100, deadline=None)
@given(scatter_cases())
def test_take_backward_equals_ufunc_at(case):
    index, num_targets, values = case
    table = np.random.default_rng(0).standard_normal((num_targets, 3)).astype(values.dtype)
    upstream = np.resize(values, (len(index), 3))
    grads = []
    for take, arg in (
        (Tensor.take, SegmentPlan(index, num_targets)), (Tensor.take, index), (at_take, index),
    ):
        source = Tensor(table.copy(), requires_grad=True)
        (take(source, arg) * Tensor(upstream)).sum().backward()
        grads.append(np.zeros_like(table) if source.grad is None else source.grad)
    assert np.array_equal(grads[0], grads[2]) and np.array_equal(grads[1], grads[2])


def test_take_of_a_vector_and_of_negative_indices():
    source = Tensor(np.arange(5.0), requires_grad=True)
    index = np.tile(np.array([-1, 0, 4, -5]), BASE)  # above the base case
    source.take(index).sum().backward()
    assert source.grad.tolist() == [2.0 * BASE, 0.0, 0.0, 0.0, 2.0 * BASE]


class TestPlanContract:
    def test_range_is_checked_once_when_the_plan_is_built(self):
        with pytest.raises(IndexError):
            SegmentPlan(np.array([0, 3]), 3)
        with pytest.raises(IndexError):
            SegmentPlan(np.array([-1]), 3)
        with pytest.raises(ValueError):
            SegmentPlan(np.zeros((2, 2), dtype=np.int64), 3)

    def test_shape_and_slot_count_are_checked_per_call(self):
        plan = SegmentPlan(np.array([0, 1, 1]), 2)
        with pytest.raises(ValueError, match="must match number of messages"):
            scatter_sum(Tensor(np.ones((2, 4))), plan, 2)
        with pytest.raises(ValueError, match="slots"):
            scatter_sum(Tensor(np.ones((3, 4))), plan, 5)
        with pytest.raises(ValueError, match="rows"):
            Tensor(np.ones((3, 4))).take(plan)

    def test_all_negative_zero_segment_compares_equal(self):
        """The one place the two may differ bitwise (a dense reduce may
        start from its first row, ``ufunc.at`` starts from ``+0.0``)."""
        index = np.zeros(BASE + 1, dtype=np.int64)
        values = np.full((BASE + 1, 2), -0.0, dtype=np.float32)
        assert np.array_equal(SegmentPlan(index, 1).sum(values), at_sum(values, index, 1))

    def test_segment_softmax_matches_a_dense_softmax(self):
        rng = np.random.default_rng(3)
        index = np.sort(rng.integers(0, 9, 200))
        scores = rng.standard_normal((200, 1))
        alpha = segment_softmax(Tensor(scores), index, 9).data
        for slot in np.unique(index):
            rows = index == slot
            expected = np.exp(scores[rows] - scores[rows].max())
            np.testing.assert_allclose(alpha[rows], expected / expected.sum(), rtol=1e-12)


class TestSubgraphPlans:
    """Plans are derived from a subgraph's edge arrays: built once,
    shared, and never part of what is shipped, compared or stored."""

    def subgraph(self):
        sampler = NeighborSampler(build_graph(shop_db()), [3, 3], seed=0)
        return sampler.sample("customers", np.array([0, 1]), np.array([10**9, 400]))

    def test_built_once_and_consistent_with_the_edge_arrays(self):
        sub = self.subgraph()
        for edge_type in sub.edge_types:
            src_plan, dst_plan = sub.edge_plans(edge_type)
            assert sub.edge_plans(edge_type)[0] is src_plan
            src, dst = sub.edges_for(edge_type)
            assert np.array_equal(src_plan.index, src) and np.array_equal(dst_plan.index, dst)
            assert src_plan.num_segments == sub.num_nodes(edge_type.src)
            assert dst_plan.num_segments == sub.num_nodes(edge_type.dst)

    def test_knockout_and_new_edges_drop_the_plans_they_outdate(self):
        from repro.pql.explain import _knock_out

        graph = build_graph(shop_db())
        sub = self.subgraph()
        edge_type = sub.edge_types[0]
        stale = sub.edge_plans(edge_type)
        degrees_before = sub.node_degrees(edge_type.dst).copy()
        _knock_out(sub, edge_type, graph)
        assert edge_type not in sub.edge_types and edge_type not in sub._plans
        # degrees are no part of a plan: the knockout's zeroed channel is what the model reads
        channel = graph.edge_types_into(edge_type.dst).index(edge_type)
        assert not sub.node_degrees(edge_type.dst)[:, channel].any() and degrees_before[:, channel].any()
        sub.add_edges(edge_type, [0], [0])
        fresh = sub.edge_plans(edge_type)
        assert fresh[0] is not stale[0] and len(fresh[0]) == 1


class TestConvGradcheck:
    """float64 finite differences through both conv layers, on a
    subgraph whose edge types sit on both sides of the base case."""

    @pytest.fixture(scope="class")
    def setting(self):
        graph = build_graph(shop_db())
        sampler = NeighborSampler(graph, [3, 3], seed=0)
        seeds = np.tile(np.array([0, 1]), 16)
        times = np.repeat(np.arange(400, 1200, 50), 2)  # 16 contexts: >64 edges per relation
        subgraph = sampler.sample("customers", seeds, times)
        assert max(len(subgraph.edges_for(et)[0]) for et in subgraph.edge_types) > BASE
        return graph, subgraph

    @pytest.mark.parametrize("kind", ["sage-mean", "sage-sum", "sage-max", "gat"])
    def test_gradients_match_finite_differences(self, setting, kind):
        graph, subgraph = setting
        metadata = GraphMetadata.from_graph(graph)
        rng = np.random.default_rng(1)
        if kind == "gat":
            conv = HeteroGATConv(metadata.node_types, metadata.edge_types, 3, rng, dtype="float64")
        else:
            conv = HeteroSAGEConv(
                metadata.node_types, metadata.edge_types, 3, rng,
                aggregation=kind.split("-")[1], dtype="float64",
            )
        sizes = {t: subgraph.num_nodes(t) for t in subgraph.node_types}
        offsets = np.cumsum([0] + list(sizes.values()))
        mix = rng.standard_normal((sizes["customers"], 3))

        def build(flat: Tensor) -> Tensor:
            hidden = {
                t: flat.slice_rows(int(a), int(b))
                for t, a, b in zip(sizes, offsets[:-1], offsets[1:])
            }
            out = conv(hidden, subgraph)
            return (out["customers"] * Tensor(mix)).sum() + (out["orders"] * out["orders"]).sum()

        check_gradients(build, rng.standard_normal((offsets[-1], 3)) + 0.1, atol=1e-5)
