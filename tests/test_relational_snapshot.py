"""The binary columnar snapshot round-trips a database exactly.

Property: for any database — every ``DType``, null masks, NaN floats,
empty tables, empty and non-ASCII strings, no tables at all —
``read_snapshot(write_snapshot(db))`` equals ``db`` column for column,
bit for bit, and compiles to the same graph.
"""

from __future__ import annotations

import hashlib
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import build_graph
from repro.graph.cache import graph_fingerprint
from repro.relational import (
    Column,
    ColumnSpec,
    Database,
    DType,
    ForeignKey,
    Table,
    TableSchema,
    read_snapshot,
    write_snapshot,
)
from tests.conftest import shop_db

INT64 = st.integers(-(2 ** 63), 2 ** 63 - 1)
#: numpy's fixed-width unicode cannot hold a trailing NUL (the writer
#: refuses it, see test_trailing_nul_is_refused); everything else goes.
TEXT = st.text(st.characters(codec="utf-8", exclude_characters="\x00"), max_size=12)
VALUES = {
    DType.INT64: INT64,
    DType.FLOAT64: st.floats(allow_nan=True, allow_infinity=True),
    DType.BOOL: st.booleans(),
    DType.STRING: TEXT,
    DType.TIMESTAMP: INT64,
}


@st.composite
def columns(draw, dtype: DType, rows: int) -> Column:
    cells = draw(st.lists(st.none() | VALUES[dtype], min_size=rows, max_size=rows))
    return Column(cells, dtype)


@st.composite
def databases(draw) -> Database:
    """A parent table, a child table pointing at it (nullable foreign
    key, time column), each with extra columns of drawn dtypes — or no
    tables at all."""
    db = Database(draw(TEXT))
    if draw(st.booleans()):
        return db
    parent_keys = draw(st.lists(INT64, unique=True, max_size=5))
    child_rows = draw(st.integers(0, 6))
    refs = (
        draw(st.lists(st.none() | st.sampled_from(parent_keys),
                      min_size=child_rows, max_size=child_rows))
        if parent_keys else [None] * child_rows
    )
    layout = [
        ("parent", len(parent_keys),
         {"id": Column(np.asarray(parent_keys, dtype=np.int64), DType.INT64)}, {}),
        ("child", child_rows,
         {"parent_id": Column(refs, DType.INT64),
          "at": draw(columns(DType.TIMESTAMP, child_rows))},
         {"foreign_keys": [ForeignKey("parent_id", "parent", "id")], "time_column": "at"}),
    ]
    for name, rows, fixed, keys in layout:
        extra = draw(st.lists(st.sampled_from(list(DType)), max_size=5))
        cols = dict(fixed)
        for i, dtype in enumerate(extra):
            cols[f"c{i}"] = draw(columns(dtype, rows))
        schema = TableSchema(
            name, [ColumnSpec(col, cols[col].dtype) for col in cols],
            primary_key="id" if "id" in cols else None, **keys,
        )
        db.add_table(Table(schema, cols))
    return db


def assert_columns_identical(a: Column, b: Column) -> None:
    assert a.dtype == b.dtype
    assert a.values.dtype == b.values.dtype
    if a.dtype == DType.STRING:
        assert a.values.tolist() == b.values.tolist()
        assert all(type(text) is str for text in b.values.tolist())
    else:
        assert a.values.tobytes() == b.values.tobytes()  # bit for bit: NaN, -0.0
    assert (a.mask is None) == (b.mask is None)
    if a.mask is not None:
        assert b.mask.dtype == np.bool_
        np.testing.assert_array_equal(a.mask, b.mask)


def assert_databases_identical(a: Database, b: Database) -> None:
    assert a.name == b.name
    assert [t.schema.to_dict() for t in a] == [t.schema.to_dict() for t in b]
    for table in a:
        for name in table.column_names:
            assert_columns_identical(table[name], b[table.name][name])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the encoders, on inf and 2**63-scale values
@settings(max_examples=60, deadline=None)
@given(db=databases())
def test_round_trip_is_exact(db, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("snap") / "data.npz")
    write_snapshot(db, path)
    loaded = read_snapshot(path)
    assert_databases_identical(db, loaded)
    before, after = build_graph(db), build_graph(loaded)
    assert graph_fingerprint(before) == graph_fingerprint(after)
    for node_type, features in before.features.items():
        loaded_features = after.features[node_type]
        np.testing.assert_array_equal(features.numeric, loaded_features.numeric)
        assert features.numeric_names == loaded_features.numeric_names
        for cat, loaded_cat in zip(features.categorical, loaded_features.categorical, strict=True):
            np.testing.assert_array_equal(cat.codes, loaded_cat.codes)
            assert cat.vocabulary == loaded_cat.vocabulary


def test_equal_databases_write_identical_bytes(tmp_path):
    first, second = str(tmp_path / "a.npz"), str(tmp_path / "b.npz")
    write_snapshot(shop_db(), first)
    write_snapshot(shop_db(), second)
    with open(first, "rb") as a, open(second, "rb") as b:
        assert hashlib.sha256(a.read()).digest() == hashlib.sha256(b.read()).digest()


def test_no_member_needs_pickle(tmp_path):
    path = str(tmp_path / "data.npz")
    write_snapshot(shop_db(), path)
    with np.load(path, allow_pickle=False) as archive:
        assert all(archive[key].dtype != object for key in archive.files)
    with zipfile.ZipFile(path) as archive:
        assert all(info.compress_type == zipfile.ZIP_STORED for info in archive.infolist())


def test_trailing_nul_is_refused(tmp_path):
    db = Database("nul")
    schema = TableSchema("t", [ColumnSpec("s", DType.STRING)])
    db.add_table(Table(schema, {"s": Column(["inner\x00ok", "ends\x00"], DType.STRING)}))
    with pytest.raises(ValueError, match="NUL"):
        write_snapshot(db, str(tmp_path / "data.npz"))


def test_stored_dtype_must_match_the_schema(tmp_path):
    path = str(tmp_path / "data.npz")
    write_snapshot(shop_db(), path)
    with np.load(path) as archive:
        members = {key: archive[key] for key in archive.files}
    members["t0.c0.values"] = members["t0.c0.values"].astype(np.int32)
    np.savez(path, **members)
    with pytest.raises(ValueError, match="stored as int32"):
        read_snapshot(path)
