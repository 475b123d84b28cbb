"""Time-valid counts against their scalar oracle.

``_EdgeStore.count_before`` answers every requested ``(dst, cutoff)``
row of a call with one vectorised bisection over search keys it builds
once per store; ``tests/oracles.py:segment_count_before`` is the
per-row binary search over one destination's segment that it replaced
(GREEN's activity and popularity, YELLOW's stacked activity column).
Counts are integers, so they must be *equal*, row for row — through
empty segments, edges tied with the cutoff, static (``TIME_MIN``)
edges, a ``grow_node_type`` that pads ``indptr`` after the keys were
built, and the new store an ``append_edges`` merge makes.  GREEN's
LIST ranking, one popularity count per distinct cutoff and one sort
per call, is byte-equal to its per-row loop (``loop_green_rank``).
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.graph import build_graph
from repro.graph.hetero import TIME_MIN, EdgeType, HeteroGraph
from tests.conftest import shop_db
from tests.oracles import count_before, loop_green_rank, loop_popularity, segment_count_before

#: Few distinct times, so edges tie with each other and with cutoffs.
_TIMES = st.sampled_from([TIME_MIN, 0, 1, 2, 5])
#: Cutoffs before the first edge, on every edge time, between them and
#: after the last.
_CUTOFFS = st.sampled_from([TIME_MIN, -1, 0, 1, 2, 3, 5, 6, 10**12])


def assert_counts_match_the_oracle(store, requests) -> None:
    dst = np.array([d for d, _ in requests], dtype=np.int64)
    cutoffs = np.array([c for _, c in requests], dtype=np.int64)
    counts = store.count_before(dst, cutoffs)
    assert counts.dtype == np.int64 and counts.shape == (len(requests),)
    assert counts.tolist() == [segment_count_before(store, d, c) for d, c in requests]


@st.composite
def _count_cases(draw):
    """(destinations, destinations grown later, base edges, delta edges,
    requests); an edge is ``(src, dst, time)``, a request ``(dst, cutoff)``."""
    num_dst = draw(st.integers(1, 6))
    grown = draw(st.integers(0, 3))
    edge = lambda dsts: st.tuples(st.integers(0, 4), st.integers(0, dsts - 1), _TIMES)
    base = draw(st.lists(edge(num_dst), max_size=24))
    delta = draw(st.lists(edge(num_dst + grown), max_size=24))
    request = st.tuples(st.integers(0, num_dst + grown - 1), _CUTOFFS)
    return num_dst, grown, base, delta, draw(st.lists(request, max_size=12))


@settings(max_examples=300, deadline=None)
@given(_count_cases())
# An empty request, on an empty store.
@example((1, 0, [], [], []))
# One destination asked at every kind of cutoff in one call.
@example((2, 1, [(0, 0, 1), (1, 0, 2), (2, 0, 2), (3, 0, TIME_MIN), (4, 1, 5)],
          [(0, 0, 2), (1, 2, 0)],
          [(0, TIME_MIN), (0, -1), (0, 2), (0, 1), (0, 10**12), (1, 4), (2, 2), (0, 2)]))
# Only static edges.
@example((2, 0, [(0, 0, TIME_MIN), (1, 0, TIME_MIN)], [(2, 1, TIME_MIN)],
          [(0, TIME_MIN), (1, TIME_MIN), (0, 0), (1, 10**12)]))
def test_counts_equal_the_segment_search(case):
    """On the built store, after ``grow_node_type`` padded it in place
    (the keys survive), and on the store a delta merge made."""
    num_dst, grown, base, delta, requests = case
    graph = HeteroGraph()
    graph.add_node_type("src", 5)
    graph.add_node_type("dst", num_dst)
    edge_type = EdgeType("src", "rel", "dst")
    src, dst, times = np.array(base, dtype=np.int64).reshape(-1, 3).T
    graph.add_edge_type(edge_type, src, dst, times)
    assert_counts_match_the_oracle(
        graph._edges[edge_type], [(d, c) for d, c in requests if d < num_dst])
    graph.grow_node_type("dst", np.zeros(grown, dtype=np.int64))
    assert_counts_match_the_oracle(graph._edges[edge_type], requests)
    if delta:
        d_src, d_dst, d_times = np.array(delta, dtype=np.int64).T
        graph.append_edges(edge_type, d_src, d_dst, d_times)
    assert_counts_match_the_oracle(graph._edges[edge_type], requests)


def test_graph_counts_every_node_at_every_cutoff_in_one_call():
    graph = build_graph(shop_db())
    for edge_type in graph.edge_types:
        nodes = np.arange(graph.num_nodes(edge_type.dst))
        cutoffs = np.array([TIME_MIN, 0, 100, 150, 200, 250, 400, 10**12])
        dst, at = np.repeat(nodes, len(cutoffs)), np.tile(cutoffs, len(nodes))
        assert graph.count_before(edge_type, dst, at).tolist() == [
            count_before(graph, edge_type, d, c) for d, c in zip(dst.tolist(), at.tolist())
        ]


def test_green_ranks_a_batch_as_its_per_row_loop_does():
    from repro.pql.router import GreenTier

    db = shop_db()
    graph = build_graph(db)
    green = GreenTier("customers", "link", item_table="products").bind(db, graph)
    # Repeated, unsorted and out-of-range cutoffs, so rows share and tie.
    cutoffs = np.array([400, TIME_MIN, 150, 400, 10**12, 0, 150, 250], dtype=np.int64)
    keys = np.zeros(len(cutoffs), dtype=np.int64)  # rank reads no entity key
    for k in (1, 2, 50):
        got, want = green.rank(keys, cutoffs, k), loop_green_rank(green, cutoffs, k)
        assert len(got) == len(want) == len(cutoffs)
        for (items, scores), (want_items, want_scores) in zip(got, want):
            assert items.dtype == want_items.dtype and items.tolist() == want_items.tolist()
            assert scores.dtype == want_scores.dtype and scores.tobytes() == want_scores.tobytes()
    item_ids = np.array([2, 0, 1, 0], dtype=np.int64)
    scores = green.score_against_items("customers", keys, cutoffs, item_ids)
    assert scores.dtype == np.float64 and scores.shape == (len(cutoffs), len(item_ids))
    want = np.stack([loop_popularity(green, c)[item_ids] for c in cutoffs.tolist()])
    assert scores.tobytes() == want.tobytes()
    assert green.rank(keys[:0], cutoffs[:0], 3) == []
