"""Unit tests for tables, schemas, and the database container."""

import numpy as np
import pytest

from repro.relational import (
    Column,
    ColumnSpec,
    Database,
    DType,
    ForeignKey,
    Table,
    TableSchema,
)
from repro.relational.database import IntegrityError


def users_schema():
    return TableSchema(
        name="users",
        columns=[
            ColumnSpec("id", DType.INT64),
            ColumnSpec("age", DType.FLOAT64),
            ColumnSpec("signup_ts", DType.TIMESTAMP),
        ],
        primary_key="id",
        time_column="signup_ts",
    )


def orders_schema():
    return TableSchema(
        name="orders",
        columns=[
            ColumnSpec("id", DType.INT64),
            ColumnSpec("user_id", DType.INT64),
            ColumnSpec("amount", DType.FLOAT64),
            ColumnSpec("ts", DType.TIMESTAMP),
        ],
        primary_key="id",
        foreign_keys=[ForeignKey("user_id", "users", "id")],
        time_column="ts",
    )


def make_users():
    return Table.from_dict(
        users_schema(),
        {"id": [1, 2, 3], "age": [30.0, None, 41.0], "signup_ts": [10, 20, 30]},
    )


def make_orders():
    return Table.from_dict(
        orders_schema(),
        {
            "id": [100, 101, 102, 103],
            "user_id": [1, 1, 2, 3],
            "amount": [5.0, 7.0, 2.0, 9.0],
            "ts": [15, 25, 35, 45],
        },
    )


class TestSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            TableSchema("t", [ColumnSpec("a", DType.INT64), ColumnSpec("a", DType.INT64)])

    def test_missing_primary_key_rejected(self):
        with pytest.raises(ValueError):
            TableSchema("t", [ColumnSpec("a", DType.INT64)], primary_key="b")

    def test_missing_fk_column_rejected(self):
        with pytest.raises(ValueError):
            TableSchema(
                "t",
                [ColumnSpec("a", DType.INT64)],
                foreign_keys=[ForeignKey("b", "x", "id")],
            )

    def test_time_column_must_be_timestamp(self):
        with pytest.raises(ValueError):
            TableSchema("t", [ColumnSpec("ts", DType.INT64)], time_column="ts")

    def test_feature_columns_excludes_keys_and_time(self):
        assert orders_schema().feature_columns == ["amount"]

    def test_roundtrip_dict(self):
        schema = orders_schema()
        assert TableSchema.from_dict(schema.to_dict()) == schema

    def test_foreign_key_for(self):
        schema = orders_schema()
        assert schema.foreign_key_for("user_id").ref_table == "users"
        assert schema.foreign_key_for("amount") is None


class TestTable:
    def test_basic_accessors(self):
        table = make_users()
        assert table.num_rows == 3
        assert table.column_names == ["id", "age", "signup_ts"]
        assert table.row(1) == {"id": 2, "age": None, "signup_ts": 20}

    def test_schema_mismatch_raises(self):
        with pytest.raises(ValueError):
            Table(users_schema(), {"id": Column([1], DType.INT64)})

    def test_dtype_mismatch_raises(self):
        schema = TableSchema("t", [ColumnSpec("a", DType.INT64)])
        with pytest.raises(TypeError):
            Table(schema, {"a": Column([1.0], DType.FLOAT64)})

    def test_ragged_lengths_raise(self):
        schema = TableSchema("t", [ColumnSpec("a", DType.INT64), ColumnSpec("b", DType.INT64)])
        with pytest.raises(ValueError):
            Table(schema, {"a": Column([1], DType.INT64), "b": Column([1, 2], DType.INT64)})

    def test_take_filter_head(self):
        table = make_orders()
        assert table.take(np.array([3, 0])).column("id").to_list() == [103, 100]
        assert table.filter(table["amount"].greater_than(6.0)).num_rows == 2
        assert table.head(2).num_rows == 2

    def test_sort_by(self):
        table = make_orders().sort_by("amount", ascending=False)
        assert table["amount"].to_list() == [9.0, 7.0, 5.0, 2.0]

    def test_sort_by_places_nulls_last(self):
        table = make_users().sort_by("age")
        assert table["age"].to_list() == [30.0, 41.0, None]

    def test_append(self):
        table = make_users()
        doubled = table.append(table)
        assert doubled.num_rows == 6

    def test_project(self):
        projected = make_orders().project(["user_id", "amount"])
        assert projected.column_names == ["user_id", "amount"]
        assert projected.schema.primary_key is None
        assert len(projected.schema.foreign_keys) == 1

    def test_project_unknown_column(self):
        with pytest.raises(KeyError):
            make_orders().project(["nope"])

    def test_with_column(self):
        table = make_users().with_column("flag", Column([1, 0, 1], DType.INT64))
        assert table["flag"].to_list() == [1, 0, 1]
        assert table.schema.has_column("flag")

    def test_with_column_length_mismatch(self):
        with pytest.raises(ValueError):
            make_users().with_column("flag", Column([1], DType.INT64))

    def test_iter_rows(self):
        rows = list(make_users().iter_rows())
        assert rows[0]["id"] == 1
        assert len(rows) == 3

    def test_equality(self):
        assert make_users() == make_users()
        assert make_users() != make_orders()


class TestDatabase:
    def make_db(self):
        db = Database("shop")
        db.add_table(make_users())
        db.add_table(make_orders())
        return db

    def test_validate_ok(self):
        self.make_db().validate()

    def test_duplicate_table_rejected(self):
        db = self.make_db()
        with pytest.raises(ValueError):
            db.add_table(make_users())
        db.add_table(make_users(), replace=True)

    def test_missing_table_lookup(self):
        with pytest.raises(KeyError):
            self.make_db()["ghosts"]

    def test_duplicate_pk_detected(self):
        db = Database()
        table = Table.from_dict(
            users_schema(), {"id": [1, 1], "age": [1.0, 2.0], "signup_ts": [1, 2]}
        )
        db.add_table(table)
        with pytest.raises(IntegrityError):
            db.validate()

    def test_null_pk_detected(self):
        db = Database()
        table = Table.from_dict(
            users_schema(), {"id": [1, None], "age": [1.0, 2.0], "signup_ts": [1, 2]}
        )
        db.add_table(table)
        with pytest.raises(IntegrityError):
            db.validate()

    def test_dangling_fk_detected(self):
        db = Database()
        db.add_table(make_users())
        bad_orders = Table.from_dict(
            orders_schema(),
            {"id": [1], "user_id": [999], "amount": [1.0], "ts": [1]},
        )
        db.add_table(bad_orders)
        with pytest.raises(IntegrityError):
            db.validate()

    def test_null_fk_allowed(self):
        db = Database()
        db.add_table(make_users())
        orders = Table.from_dict(
            orders_schema(),
            {"id": [1], "user_id": [None], "amount": [1.0], "ts": [1]},
        )
        db.add_table(orders)
        db.validate()

    def test_fk_to_missing_table(self):
        db = Database()
        db.add_table(make_orders())
        with pytest.raises(IntegrityError):
            db.validate()

    def test_time_span(self):
        assert self.make_db().time_span() == (10, 45)

    def test_snapshot_filters_temporal_rows(self):
        snap = self.make_db().snapshot(25)
        assert snap["orders"].num_rows == 2
        assert snap["users"].num_rows == 2  # signup_ts 10, 20

    def test_snapshot_keeps_static_tables(self):
        db = Database()
        static_schema = TableSchema("dims", [ColumnSpec("id", DType.INT64)], primary_key="id")
        db.add_table(Table.from_dict(static_schema, {"id": [1, 2]}))
        assert db.snapshot(0)["dims"].num_rows == 2

