"""The DB→graph compiler: rows become nodes, foreign keys become edges.

This is the paper's central construction.  For a database ``db``:

* every table ``T`` becomes a node type ``T`` with one node per row
  (node index = row position, original primary key kept for lookups);
* every foreign key ``T.c -> R.pk`` becomes an edge type
  ``(T, c, R)`` plus its reverse ``(R, rev_c, T)``;
* every edge inherits the timestamp of the *referencing* (child) row,
  so a time-respecting walk can never traverse an edge that did not
  exist at seed time;
* feature columns are encoded via
  :func:`repro.graph.encoders.encode_table_features` with statistics
  fitted at or before ``stats_cutoff``.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.graph.encoders import encode_table_features
from repro.graph.hetero import EdgeType, HeteroGraph, TIME_MIN
from repro.relational.database import Database

__all__ = ["build_graph", "node_index_for_keys"]


def build_graph(
    db: Database,
    stats_cutoff: Optional[int] = None,
    encode_features: bool = True,
) -> HeteroGraph:
    """Compile ``db`` into a :class:`~repro.graph.hetero.HeteroGraph`.

    Parameters
    ----------
    db:
        The relational database (should pass ``db.validate()``).
    stats_cutoff:
        Timestamp bounding the rows used to fit feature-normalization
        statistics and categorical vocabularies.  Pass the training
        cutoff to keep the pipeline leak-free end-to-end.
    encode_features:
        Set false to skip feature encoding (cheaper for pure
        graph-topology benchmarks).
    """
    graph = HeteroGraph()
    key_to_index: Dict[str, Dict[object, int]] = {}

    for table in db:
        time_col = table.schema.time_column
        times = None
        if time_col is not None:
            raw = table[time_col]
            times = np.where(raw.null_mask(), TIME_MIN, raw.values.astype(np.int64))
        graph.add_node_type(table.name, table.num_rows, times=times)
        pk = table.schema.primary_key
        if pk is not None:
            keys = table[pk].values
            graph.node_keys[table.name] = keys
            key_to_index[table.name] = {key: i for i, key in enumerate(keys.tolist())}
        if encode_features:
            graph.features[table.name] = encode_table_features(table, stats_cutoff=stats_cutoff)

    for table in db:
        child_times = None
        if table.schema.time_column is not None:
            raw = table[table.schema.time_column]
            child_times = np.where(raw.null_mask(), TIME_MIN, raw.values.astype(np.int64))
        for fk in table.schema.foreign_keys:
            mapping = key_to_index.get(fk.ref_table)
            if mapping is None:
                raise ValueError(
                    f"foreign key {table.name}.{fk.column} references table "
                    f"{fk.ref_table!r} which has no primary key"
                )
            column = table[fk.column]
            valid = ~column.null_mask()
            child_rows = np.flatnonzero(valid)
            parent_rows = np.fromiter(
                (mapping[key] for key in column.values[child_rows].tolist()),
                dtype=np.int64,
                count=len(child_rows),
            )
            edge_times = (
                child_times[child_rows]
                if child_times is not None
                else np.full(len(child_rows), TIME_MIN, dtype=np.int64)
            )
            forward = EdgeType(table.name, fk.column, fk.ref_table)
            graph.add_edge_type(forward, child_rows, parent_rows, times=edge_times)
            graph.add_edge_type(forward.reverse(), parent_rows, child_rows, times=edge_times)

    return graph


def node_index_for_keys(graph: HeteroGraph, node_type: str, keys: np.ndarray) -> np.ndarray:
    """Map primary-key values to node indices for ``node_type``.

    Raises ``KeyError`` if any key is unknown.
    """
    mapping = graph.key_index(node_type)
    keys = np.asarray(keys).tolist()
    try:  # one C-level pass: no Python frame per key
        return np.fromiter(map(mapping.__getitem__, keys), dtype=np.int64, count=len(keys))
    except KeyError as unknown:
        raise KeyError(f"unknown {node_type} key: {unknown.args[0]!r}") from None
