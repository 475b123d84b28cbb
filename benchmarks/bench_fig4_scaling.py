"""Figure 4 — systems scaling: graph compilation and sampling vs DB size.

Builds the e-commerce database at four scales and times (a) the
DB→graph compiler and (b) neighbor-sampling throughput.  Expected
shape: near-linear growth of build time in total rows; per-seed
sampling cost roughly flat (it depends on fanout, not graph size).
"""

import time

import numpy as np
import pytest

from harness import fmt, print_table
from repro.datasets import make_ecommerce
from repro.graph import NeighborSampler, build_graph

SCALES = [0.25, 0.5, 1.0, 2.0]


def _time_sampler(graph, span_end, repeats=2):
    sampler = NeighborSampler(graph, fanouts=[8, 8], seed=0)
    num_seeds = min(graph.num_nodes("customers"), 200)
    seeds = np.arange(num_seeds)
    times = np.full(num_seeds, span_end, dtype=np.int64)
    sampler.sample("customers", seeds[:10], times[:10])  # warm caches
    start = time.perf_counter()
    for _ in range(repeats):
        sampler.sample("customers", seeds, times)
    return 1e6 * (time.perf_counter() - start) / (repeats * num_seeds)


@pytest.fixture(scope="module")
def results():
    rows = []
    for scale in SCALES:
        db = make_ecommerce(num_customers=int(300 * scale), num_products=int(120 * scale), seed=0)
        total_rows = sum(table.num_rows for table in db)
        start = time.perf_counter()
        graph = build_graph(db)
        build_seconds = time.perf_counter() - start
        span = db.time_span()
        rows.append(
            {
                "scale": scale,
                "rows": total_rows,
                "edges": graph.total_edges(),
                "build_s": build_seconds,
                "sample_us": _time_sampler(graph, span[1]),
            }
        )
    return rows


def test_fig4_scaling(results, benchmark):
    print_table(
        "Figure 4: DB→graph build and sampling cost vs database size",
        ["scale", "rows", "edges", "build (s)", "sample (µs/seed)"],
        [
            [
                f"{r['scale']:.2f}x",
                str(r["rows"]),
                str(r["edges"]),
                fmt(r["build_s"], 4),
                fmt(r["sample_us"], 1),
            ]
            for r in results
        ],
    )
    # Build time grows sub-quadratically: 8x rows should cost < 32x time.
    small, large = results[0], results[-1]
    row_ratio = large["rows"] / small["rows"]
    time_ratio = large["build_s"] / max(small["build_s"], 1e-9)
    assert time_ratio < 4 * row_ratio

    db = make_ecommerce(num_customers=300, seed=0)
    benchmark(lambda: build_graph(db, encode_features=False))
