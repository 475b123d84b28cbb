"""Tests for PQL validation and label computation."""

import numpy as np
import pytest

from repro.pql import (
    PQLValidationError,
    TaskType,
    build_label_table,
    parse,
    validate,
)
from repro.relational import (
    ColumnSpec,
    Database,
    DType,
    ForeignKey,
    Table,
    TableSchema,
)

DAY = 86400


def shop_db():
    customers = Table.from_dict(
        TableSchema(
            "customers",
            [
                ColumnSpec("id", DType.INT64),
                ColumnSpec("region", DType.STRING),
                ColumnSpec("signup_ts", DType.TIMESTAMP),
            ],
            primary_key="id",
            time_column="signup_ts",
        ),
        {
            "id": [1, 2, 3],
            "region": ["eu", "us", "eu"],
            "signup_ts": [0, 0, 50 * DAY],
        },
    )
    products = Table.from_dict(
        TableSchema(
            "products",
            [ColumnSpec("id", DType.INT64), ColumnSpec("price", DType.FLOAT64)],
            primary_key="id",
        ),
        {"id": [7, 8], "price": [5.0, 9.0]},
    )
    orders = Table.from_dict(
        TableSchema(
            "orders",
            [
                ColumnSpec("id", DType.INT64),
                ColumnSpec("customer_id", DType.INT64),
                ColumnSpec("product_id", DType.INT64),
                ColumnSpec("amount", DType.FLOAT64),
                ColumnSpec("returned", DType.BOOL),
                ColumnSpec("ts", DType.TIMESTAMP),
            ],
            primary_key="id",
            foreign_keys=[
                ForeignKey("customer_id", "customers", "id"),
                ForeignKey("product_id", "products", "id"),
            ],
            time_column="ts",
        ),
        {
            "id": [100, 101, 102, 103],
            "customer_id": [1, 1, 2, 1],
            "product_id": [7, 8, 7, 8],
            "amount": [10.0, 20.0, 5.0, None],
            "returned": [False, True, False, False],
            "ts": [5 * DAY, 15 * DAY, 15 * DAY, 40 * DAY],
        },
    )
    db = Database("shop")
    db.add_table(customers)
    db.add_table(products)
    db.add_table(orders)
    db.validate()
    return db


def q(text):
    return parse(text)


class TestValidate:
    def test_valid_binary(self):
        binding = validate(
            q("PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS"),
            shop_db(),
        )
        assert binding.task_type == TaskType.BINARY
        assert binding.entity_fk.column == "customer_id"

    def test_valid_link(self):
        binding = validate(
            q("PREDICT LIST(orders.product_id) FOR EACH customers.id ASSUMING HORIZON 30 DAYS"),
            shop_db(),
        )
        assert binding.item_table == "products"

    def test_unknown_entity_table(self):
        with pytest.raises(PQLValidationError):
            validate(q("PREDICT COUNT(orders) > 0 FOR EACH ghosts.id ASSUMING HORIZON 1 DAYS"), shop_db())

    def test_wrong_entity_key(self):
        with pytest.raises(PQLValidationError):
            validate(
                q("PREDICT COUNT(orders) > 0 FOR EACH customers.region ASSUMING HORIZON 1 DAYS"),
                shop_db(),
            )

    def test_unknown_target_table(self):
        with pytest.raises(PQLValidationError):
            validate(q("PREDICT COUNT(ghosts) > 0 FOR EACH customers.id ASSUMING HORIZON 1 DAYS"), shop_db())

    def test_target_without_time_column(self):
        with pytest.raises(PQLValidationError) as err:
            validate(q("PREDICT COUNT(products) > 0 FOR EACH customers.id ASSUMING HORIZON 1 DAYS"), shop_db())
        assert "time column" in str(err.value)

    def test_target_without_fk_to_entity(self):
        # customers has no foreign key to products.
        with pytest.raises(PQLValidationError):
            validate(
                q("PREDICT COUNT(customers) > 0 FOR EACH products.id ASSUMING HORIZON 1 DAYS"),
                shop_db(),
            )
        # orders does have an FK to products — that one is fine:
        validate(q("PREDICT LIST(orders.customer_id) FOR EACH products.id ASSUMING HORIZON 1 DAYS"), shop_db())

    def test_sum_over_string_column(self):
        db = Database("t")
        db.add_table(
            Table.from_dict(
                TableSchema("users", [ColumnSpec("id", DType.INT64)], primary_key="id"),
                {"id": [1]},
            )
        )
        db.add_table(
            Table.from_dict(
                TableSchema(
                    "notes",
                    [
                        ColumnSpec("id", DType.INT64),
                        ColumnSpec("user_id", DType.INT64),
                        ColumnSpec("text", DType.STRING),
                        ColumnSpec("ts", DType.TIMESTAMP),
                    ],
                    primary_key="id",
                    foreign_keys=[ForeignKey("user_id", "users", "id")],
                    time_column="ts",
                ),
                {"id": [1], "user_id": [1], "text": ["hi"], "ts": [1]},
            )
        )
        with pytest.raises(PQLValidationError):
            validate(q("PREDICT SUM(notes.text) FOR EACH users.id ASSUMING HORIZON 1 DAYS"), db)

    def test_numeric_condition_with_string_literal(self):
        with pytest.raises(PQLValidationError):
            validate(
                q("PREDICT COUNT(orders WHERE amount = 'x') > 0 FOR EACH customers.id ASSUMING HORIZON 1 DAYS"),
                shop_db(),
            )

    def test_list_column_must_be_fk(self):
        with pytest.raises(PQLValidationError):
            validate(q("PREDICT LIST(orders.amount) FOR EACH customers.id ASSUMING HORIZON 1 DAYS"), shop_db())

    def test_condition_unknown_column(self):
        with pytest.raises(PQLValidationError):
            validate(
                q("PREDICT COUNT(orders WHERE ghost > 1) > 0 FOR EACH customers.id ASSUMING HORIZON 1 DAYS"),
                shop_db(),
            )

    def test_string_condition_requires_equality(self):
        with pytest.raises(PQLValidationError):
            validate(
                q("PREDICT COUNT(orders) > 0 FOR EACH customers.id WHERE region > 'a' ASSUMING HORIZON 1 DAYS"),
                shop_db(),
            )

    def test_bool_condition_literal(self):
        validate(
            q("PREDICT COUNT(orders WHERE returned = TRUE) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS"),
            shop_db(),
        )
        with pytest.raises(PQLValidationError):
            validate(
                q("PREDICT COUNT(orders WHERE returned = 1) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS"),
                shop_db(),
            )


class TestLabeler:
    def binding(self, text):
        db = shop_db()
        return db, validate(q(text), db)

    def test_binary_count_labels(self):
        db, binding = self.binding(
            "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS"
        )
        # Cutoff day 0: window (0, 30d]; orders at 5d,15d,15d.
        table = build_label_table(db, binding, [0])
        by_key = dict(zip(table.entity_keys.tolist(), table.labels.tolist()))
        # Customer 3 signs up at day 50 -> not eligible at cutoff 0.
        assert set(by_key) == {1, 2}
        assert by_key[1] == 1.0 and by_key[2] == 1.0

    def test_window_excludes_past_and_far_future(self):
        db, binding = self.binding(
            "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 10 DAYS"
        )
        # Cutoff day 20: window (20d, 30d] contains no orders (next is 40d).
        table = build_label_table(db, binding, [20 * DAY])
        assert table.labels.sum() == 0.0

    def test_window_boundaries_half_open(self):
        db, binding = self.binding(
            "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 10 DAYS"
        )
        # Cutoff exactly at an order's ts: order at 5d NOT included for cutoff 5d
        table = build_label_table(db, binding, [5 * DAY])
        by_key = dict(zip(table.entity_keys.tolist(), table.labels.tolist()))
        assert by_key[1] == 1.0  # 15d order inside (5d, 15d]
        # order at 15d IS included at cutoff 5d+10d boundary (inclusive end)
        table2 = build_label_table(db, binding, [5 * DAY + 1])
        by_key2 = dict(zip(table2.entity_keys.tolist(), table2.labels.tolist()))
        assert by_key2[2] == 1.0

    def test_sum_regression_labels(self):
        db, binding = self.binding(
            "PREDICT SUM(orders.amount) FOR EACH customers.id ASSUMING HORIZON 30 DAYS"
        )
        table = build_label_table(db, binding, [0])
        by_key = dict(zip(table.entity_keys.tolist(), table.labels.tolist()))
        assert by_key[1] == 30.0  # 10 + 20
        assert by_key[2] == 5.0

    def test_sum_skips_null_values(self):
        db, binding = self.binding(
            "PREDICT SUM(orders.amount) FOR EACH customers.id ASSUMING HORIZON 60 DAYS"
        )
        table = build_label_table(db, binding, [0])
        by_key = dict(zip(table.entity_keys.tolist(), table.labels.tolist()))
        assert by_key[1] == 30.0  # the 40d order has null amount

    def test_avg_empty_window_rows_dropped(self):
        db, binding = self.binding(
            "PREDICT AVG(orders.amount) FOR EACH customers.id ASSUMING HORIZON 30 DAYS"
        )
        table = build_label_table(db, binding, [0])
        # Customer 2 has exactly one order (amount 5) -> avg 5; customer 1 avg 15.
        by_key = dict(zip(table.entity_keys.tolist(), table.labels.tolist()))
        assert by_key == {1: 15.0, 2: 5.0}
        # At cutoff 60d no orders follow: all rows dropped.
        empty = build_label_table(db, binding, [60 * DAY])
        assert len(empty) == 0

    def test_target_conditions_filter_facts(self):
        db, binding = self.binding(
            "PREDICT COUNT(orders WHERE amount >= 20) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS"
        )
        table = build_label_table(db, binding, [0])
        by_key = dict(zip(table.entity_keys.tolist(), table.labels.tolist()))
        assert by_key == {1: 1.0, 2: 0.0}

    def test_entity_conditions_filter_entities(self):
        db, binding = self.binding(
            "PREDICT COUNT(orders) > 0 FOR EACH customers.id WHERE region = 'eu' ASSUMING HORIZON 30 DAYS"
        )
        table = build_label_table(db, binding, [0])
        assert set(table.entity_keys.tolist()) == {1}

    def test_entity_created_later_becomes_eligible(self):
        db, binding = self.binding(
            "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS"
        )
        table = build_label_table(db, binding, [55 * DAY])
        assert 3 in table.entity_keys.tolist()

    def test_multiple_cutoffs_stack(self):
        db, binding = self.binding(
            "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 10 DAYS"
        )
        table = build_label_table(db, binding, [0, 10 * DAY])
        assert len(table) == 4  # 2 eligible entities x 2 cutoffs
        assert set(table.cutoffs.tolist()) == {0, 10 * DAY}

    def test_link_labels(self):
        db, binding = self.binding(
            "PREDICT LIST(orders.product_id) FOR EACH customers.id ASSUMING HORIZON 30 DAYS"
        )
        table = build_label_table(db, binding, [0])
        assert table.task_type == TaskType.LINK
        by_key = dict(zip(table.entity_keys.tolist(), [set(x.tolist()) for x in table.item_keys]))
        assert by_key[1] == {7, 8}
        assert by_key[2] == {7}

    def test_positive_rate(self):
        db, binding = self.binding(
            "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS"
        )
        table = build_label_table(db, binding, [0])
        assert table.positive_rate == 1.0

    def test_subset(self):
        db, binding = self.binding(
            "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS"
        )
        table = build_label_table(db, binding, [0])
        sub = table.subset(np.array([0]))
        assert len(sub) == 1

    def test_exists_aggregate(self):
        db, binding = self.binding(
            "PREDICT EXISTS(orders) = 1 FOR EACH customers.id ASSUMING HORIZON 30 DAYS"
        )
        table = build_label_table(db, binding, [0])
        assert set(table.labels.tolist()) == {1.0}

    def test_count_distinct_aggregate(self):
        db, binding = self.binding(
            "PREDICT COUNT_DISTINCT(orders.product_id) FOR EACH customers.id ASSUMING HORIZON 30 DAYS"
        )
        table = build_label_table(db, binding, [0])
        by_key = dict(zip(table.entity_keys.tolist(), table.labels.tolist()))
        assert by_key == {1: 2.0, 2: 1.0}


class TestAgeFilterSemantics:
    def test_age_filter_limits_entities(self):
        db = shop_db()
        binding = validate(
            q(
                "PREDICT COUNT(orders) > 0 FOR EACH customers.id "
                "WHERE AGE < 10 DAYS ASSUMING HORIZON 30 DAYS"
            ),
            db,
        )
        # At cutoff 55d only customer 3 (signed up day 50) is < 10 days old.
        table = build_label_table(db, binding, [55 * DAY])
        assert set(table.entity_keys.tolist()) == {3}

    def test_age_filter_requires_temporal_entity(self):
        db = shop_db()
        with pytest.raises(PQLValidationError):
            validate(
                q(
                    "PREDICT LIST(orders.customer_id) FOR EACH products.id "
                    "WHERE AGE < 10 DAYS ASSUMING HORIZON 30 DAYS"
                ),
                db,
            )


def forum_like_db():
    """users <- posts <- votes chain for VIA tests."""
    users = Table.from_dict(
        TableSchema("users", [ColumnSpec("id", DType.INT64)], primary_key="id"),
        {"id": [1, 2]},
    )
    posts = Table.from_dict(
        TableSchema(
            "posts",
            [
                ColumnSpec("id", DType.INT64),
                ColumnSpec("user_id", DType.INT64),
                ColumnSpec("ts", DType.TIMESTAMP),
            ],
            primary_key="id",
            foreign_keys=[ForeignKey("user_id", "users", "id")],
            time_column="ts",
        ),
        {"id": [10, 11, 12], "user_id": [1, 1, 2], "ts": [0, 0, 0]},
    )
    votes = Table.from_dict(
        TableSchema(
            "votes",
            [
                ColumnSpec("id", DType.INT64),
                ColumnSpec("post_id", DType.INT64),
                ColumnSpec("weight", DType.FLOAT64),
                ColumnSpec("ts", DType.TIMESTAMP),
            ],
            primary_key="id",
            foreign_keys=[ForeignKey("post_id", "posts", "id")],
            time_column="ts",
        ),
        {
            "id": [100, 101, 102, 103],
            "post_id": [10, 10, 11, 12],
            "weight": [1.0, 2.0, 3.0, 4.0],
            "ts": [5 * DAY, 15 * DAY, 5 * DAY, 5 * DAY],
        },
    )
    db = Database("forumlike")
    db.add_table(users)
    db.add_table(posts)
    db.add_table(votes)
    db.validate()
    return db


class TestViaAggregates:
    def test_parse_via(self):
        query = q("PREDICT COUNT(votes VIA posts) FOR EACH users.id ASSUMING HORIZON 10 DAYS")
        assert query.target.via == "posts"
        assert parse(str(query)) == query

    def test_via_with_column(self):
        query = q(
            "PREDICT SUM(votes.weight VIA posts) FOR EACH users.id ASSUMING HORIZON 10 DAYS"
        )
        assert query.target.via == "posts"
        assert query.target.column == "weight"

    def test_via_rejected_for_list(self):
        from repro.pql import PQLSyntaxError

        with pytest.raises(PQLSyntaxError):
            q("PREDICT LIST(votes.post_id VIA posts) FOR EACH users.id ASSUMING HORIZON 1 DAYS")

    def test_via_validation_binds_both_hops(self):
        db = forum_like_db()
        binding = validate(
            q("PREDICT COUNT(votes VIA posts) FOR EACH users.id ASSUMING HORIZON 10 DAYS"), db
        )
        assert binding.via_fk.column == "post_id"
        assert binding.entity_fk.column == "user_id"
        assert binding.via_schema.name == "posts"

    def test_via_unknown_table(self):
        db = forum_like_db()
        with pytest.raises(PQLValidationError):
            validate(
                q("PREDICT COUNT(votes VIA ghosts) FOR EACH users.id ASSUMING HORIZON 10 DAYS"),
                db,
            )

    def test_via_requires_fk_chain(self):
        db = forum_like_db()
        with pytest.raises(PQLValidationError):
            # users has no FK to posts (wrong direction for hop 2 start).
            validate(
                q("PREDICT COUNT(posts VIA votes) FOR EACH users.id ASSUMING HORIZON 10 DAYS"),
                db,
            )

    def test_via_count_labels(self):
        db = forum_like_db()
        binding = validate(
            q("PREDICT COUNT(votes VIA posts) FOR EACH users.id ASSUMING HORIZON 10 DAYS"), db
        )
        table = build_label_table(db, binding, [0])
        by_key = dict(zip(table.entity_keys.tolist(), table.labels.tolist()))
        # Window (0, 10d]: votes 100 (post 10, user 1), 102 (post 11, user 1), 103 (post 12, user 2).
        assert by_key == {1: 2.0, 2: 1.0}

    def test_via_sum_labels(self):
        db = forum_like_db()
        binding = validate(
            q("PREDICT SUM(votes.weight VIA posts) FOR EACH users.id ASSUMING HORIZON 20 DAYS"),
            db,
        )
        table = build_label_table(db, binding, [0])
        by_key = dict(zip(table.entity_keys.tolist(), table.labels.tolist()))
        assert by_key == {1: 6.0, 2: 4.0}  # user1: 1+2+3, user2: 4

    def test_via_binary_task(self):
        db = forum_like_db()
        binding = validate(
            q("PREDICT COUNT(votes VIA posts) > 1 FOR EACH users.id ASSUMING HORIZON 10 DAYS"),
            db,
        )
        table = build_label_table(db, binding, [0])
        by_key = dict(zip(table.entity_keys.tolist(), table.labels.tolist()))
        assert by_key == {1: 1.0, 2: 0.0}
