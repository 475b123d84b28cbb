"""CSV persistence roundtrip tests."""

import logging

import numpy as np
import pytest

from repro.datasets import get_dataset
from repro.relational import (
    ColumnSpec,
    Database,
    DType,
    ForeignKey,
    Table,
    TableSchema,
    load_database,
    save_database,
)
from repro.relational.csvio import _save_table
from tests.oracles import rowwise_save_table


def sample_db():
    db = Database("sample")
    db.add_table(
        Table.from_dict(
            TableSchema(
                "users",
                [
                    ColumnSpec("id", DType.INT64),
                    ColumnSpec("name", DType.STRING),
                    ColumnSpec("score", DType.FLOAT64),
                    ColumnSpec("active", DType.BOOL),
                    ColumnSpec("ts", DType.TIMESTAMP),
                ],
                primary_key="id",
                time_column="ts",
            ),
            {
                "id": [1, 2, 3],
                "name": ["ann", "bob, jr.", "li \"quote\""],
                "score": [1.5, None, -2.25],
                "active": [True, False, None],
                "ts": [100, 200, 300],
            },
        )
    )
    db.add_table(
        Table.from_dict(
            TableSchema(
                "events",
                [
                    ColumnSpec("id", DType.INT64),
                    ColumnSpec("user_id", DType.INT64),
                    ColumnSpec("ts", DType.TIMESTAMP),
                ],
                primary_key="id",
                foreign_keys=[ForeignKey("user_id", "users", "id")],
                time_column="ts",
            ),
            {"id": [10], "user_id": [None], "ts": [150]},
        )
    )
    return db


class TestCSVRoundtrip:
    def test_roundtrip_values(self, tmp_path):
        db = sample_db()
        save_database(db, str(tmp_path / "out"))
        loaded = load_database(str(tmp_path / "out"))
        assert loaded.name == "sample"
        assert loaded.table_names == db.table_names
        for table in db:
            reloaded = loaded[table.name]
            for i in range(table.num_rows):
                assert reloaded.row(i) == table.row(i)

    def test_roundtrip_schema(self, tmp_path):
        db = sample_db()
        save_database(db, str(tmp_path / "out"))
        loaded = load_database(str(tmp_path / "out"))
        assert loaded["events"].schema.foreign_keys == db["events"].schema.foreign_keys
        assert loaded["users"].schema.time_column == "ts"
        assert loaded["users"].schema.primary_key == "id"

    def test_special_characters_survive(self, tmp_path):
        db = sample_db()
        save_database(db, str(tmp_path / "out"))
        loaded = load_database(str(tmp_path / "out"))
        assert loaded["users"]["name"].to_list() == ["ann", "bob, jr.", 'li "quote"']

    def test_header_mismatch_detected(self, tmp_path):
        db = sample_db()
        save_database(db, str(tmp_path / "out"))
        csv_path = tmp_path / "out" / "events.csv"
        text = csv_path.read_text().replace("user_id", "uzer_id")
        csv_path.write_text(text)
        with pytest.raises(ValueError):
            load_database(str(tmp_path / "out"))

    def test_empty_table_roundtrip(self, tmp_path):
        db = Database("empty")
        schema = TableSchema("t", [ColumnSpec("a", DType.FLOAT64)])
        db.add_table(Table.empty(schema))
        save_database(db, str(tmp_path / "out"))
        loaded = load_database(str(tmp_path / "out"))
        assert loaded["t"].num_rows == 0

    def test_generated_dataset_roundtrip(self, tmp_path):
        from repro.datasets import make_ecommerce

        db = make_ecommerce(num_customers=30, num_products=10, seed=1)
        save_database(db, str(tmp_path / "shop"))
        loaded = load_database(str(tmp_path / "shop"))
        loaded.validate()
        assert loaded["orders"].num_rows == db["orders"].num_rows
        assert loaded["orders"] == db["orders"]


@pytest.mark.parametrize("cell, expected", [
    ("9007199254740993", 9007199254740993),   # 2**53 + 1: no float detour
    ("9223372036854775807", 2 ** 63 - 1),
    ("3.0", 3),
    ("1e3", 1000),
    ("3.7", None),                            # non-integral: rejected
    ("nan", None),
])
def test_integer_cells_parse_exactly(tmp_path, cell, expected):
    from repro.relational.csvio import MalformedRowError

    directory = tmp_path / "out"
    save_database(sample_db(), str(directory))
    csv_path = directory / "users.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0].endswith(",ts")
    lines[1] = lines[1].rsplit(",", 1)[0] + "," + cell
    csv_path.write_text("\n".join(lines) + "\n")
    if expected is None:
        with pytest.raises(MalformedRowError) as err:
            load_database(str(directory))
        assert (err.value.row_number, err.value.column) == (2, "ts")
    else:
        assert int(load_database(str(directory))["users"]["ts"].values[0]) == expected


class TestLenientLoading:
    """Malformed rows: strict mode pinpoints them, lenient quarantines them."""

    def corrupted_dir(self, tmp_path):
        db = sample_db()
        directory = tmp_path / "out"
        save_database(db, str(directory))
        csv_path = directory / "users.csv"
        lines = csv_path.read_text().splitlines()
        # Row 3 (file line 4): unparseable float. Also append a short row.
        lines[3] = lines[3].replace("-2.25", "not-a-float")
        lines.append("9,extra")
        csv_path.write_text("\n".join(lines) + "\n")
        return directory

    def test_strict_default_names_table_row_and_column(self, tmp_path):
        from repro.relational.csvio import MalformedRowError

        directory = self.corrupted_dir(tmp_path)
        with pytest.raises(MalformedRowError) as err:
            load_database(str(directory))
        assert err.value.table == "users"
        assert err.value.row_number == 4
        assert err.value.column == "score"
        assert "lenient" in str(err.value)

    def test_short_row_detected_strict(self, tmp_path):
        db = sample_db()
        directory = tmp_path / "out"
        save_database(db, str(directory))
        csv_path = directory / "events.csv"
        csv_path.write_text(csv_path.read_text() + "7,1\n")
        from repro.relational.csvio import MalformedRowError

        with pytest.raises(MalformedRowError) as err:
            load_database(str(directory))
        assert err.value.table == "events"
        assert err.value.column is None

    def test_lenient_quarantines_and_keeps_good_rows(self, tmp_path, caplog, monkeypatch):
        # An earlier test may have called configure_logging, which turns
        # off propagation from the "repro" logger — caplog needs it on.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        directory = self.corrupted_dir(tmp_path)
        with caplog.at_level("WARNING", logger="repro.relational.csvio"):
            loaded = load_database(str(directory), lenient=True)
        users = loaded["users"]
        assert users.num_rows == 2  # 3 originals minus the corrupt row
        assert users["id"].to_list() == [1, 2]
        record = next(r for r in caplog.records if "quarantined" in r.message)
        assert getattr(record, "table") == "users"
        assert getattr(record, "quarantined") == 2  # bad float + short row

    def test_lenient_counts_into_metrics(self, tmp_path):
        from repro.obs import get_registry

        registry = get_registry()
        registry.reset()
        load_database(str(self.corrupted_dir(tmp_path)), lenient=True)
        assert registry.counter("csv.quarantined_rows").value == 2

    def test_lenient_on_clean_data_is_identical(self, tmp_path):
        db = sample_db()
        save_database(db, str(tmp_path / "out"))
        strict = load_database(str(tmp_path / "out"))
        lenient = load_database(str(tmp_path / "out"), lenient=True)
        for table in strict:
            assert lenient[table.name] == table


class TestColumnWiseWriter:
    """``save_database`` serialises a column at a time; the cell-by-cell
    writer it replaced (``tests/oracles.py``) is the byte-level oracle."""

    @staticmethod
    def edge_table():
        schema = TableSchema(
            "edges",
            [
                ColumnSpec("i", DType.INT64),
                ColumnSpec("f", DType.FLOAT64),
                ColumnSpec("s", DType.STRING),
                ColumnSpec("b", DType.BOOL),
                ColumnSpec("t", DType.TIMESTAMP),
            ],
        )
        return Table.from_dict(
            schema,
            {
                "i": [0, -1, 2**62, -(2**63), None, 7],
                "f": [-0.0, 1e-300, None, 1.0 / 3.0, 1e300, 5e-324],
                "s": ["a,b", 'say "hi"', "two\nlines", None, "", "trailing\r\n"],
                "b": [True, None, False, True, False, None],
                "t": [None, 0, 2**53 + 1, -86400, 1700000000, 1],
            },
        )

    def write_both(self, table, tmp_path):
        ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
        _save_table(table, str(ours))
        rowwise_save_table(table, str(theirs))
        return ours.read_bytes(), theirs.read_bytes()

    def test_nulls_signed_zero_extremes_and_quoting_match_the_oracle(self, tmp_path):
        ours, theirs = self.write_both(self.edge_table(), tmp_path)
        assert ours == theirs
        assert b"-0.0" in ours and b"1e-300" in ours and b'"two\nlines"' in ours

    def test_empty_and_generated_tables_match_the_oracle(self, tmp_path):
        for table in (Table.empty(self.edge_table().schema), *get_dataset("forum").build(scale=0.2)):
            ours, theirs = self.write_both(table, tmp_path)
            assert ours == theirs
