"""Direct tests for LinkTaskTrainer (two-tower BPR training)."""

import numpy as np
import pytest

from repro.gnn import GraphMetadata, HeteroGNN, LinkTaskTrainer, TrainConfig, TwoTowerModel
from repro.graph import NeighborSampler, build_graph
from repro.relational import (
    ColumnSpec,
    Database,
    DType,
    ForeignKey,
    Table,
    TableSchema,
)


def block_db(num_users=24, num_items=10, events_per_user=10, seed=0):
    """Users 0..11 interact with items 0..4; users 12..23 with items 5..9."""
    rng = np.random.default_rng(seed)
    rows = {"id": [], "user_id": [], "item_id": [], "ts": []}
    eid = 0
    for user in range(num_users):
        pool = range(5) if user < num_users // 2 else range(5, 10)
        for _ in range(events_per_user):
            rows["id"].append(eid)
            rows["user_id"].append(user)
            rows["item_id"].append(int(rng.choice(list(pool))))
            rows["ts"].append(int(rng.integers(0, 1000)))
            eid += 1
    db = Database("blocks")
    db.add_table(
        Table.from_dict(
            TableSchema("users", [ColumnSpec("id", DType.INT64)], primary_key="id"),
            {"id": list(range(num_users))},
        )
    )
    db.add_table(
        Table.from_dict(
            TableSchema(
                "items",
                [ColumnSpec("id", DType.INT64), ColumnSpec("category", DType.STRING)],
                primary_key="id",
            ),
            # Item categories align with the user blocks, so a 2-hop
            # query tower (user -> events -> items) can read preference.
            {
                "id": list(range(num_items)),
                "category": ["a" if i < num_items // 2 else "b" for i in range(num_items)],
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
                    ColumnSpec("item_id", DType.INT64),
                    ColumnSpec("ts", DType.TIMESTAMP),
                ],
                primary_key="id",
                foreign_keys=[
                    ForeignKey("user_id", "users", "id"),
                    ForeignKey("item_id", "items", "id"),
                ],
                time_column="ts",
            ),
            rows,
        )
    )
    return db


def make_trainer(db, epochs=10, seed=0):
    graph = build_graph(db)
    metadata = GraphMetadata.from_graph(graph)
    rng = np.random.default_rng(seed)
    model = TwoTowerModel(
        HeteroGNN(metadata, hidden_dim=12, out_dim=12, num_layers=2, rng=rng),
        metadata,
        item_type="items",
        num_items=graph.num_nodes("items"),
        rng=rng,
    )
    sampler = NeighborSampler(graph, fanouts=[6, 6], seed=seed + 1)
    trainer = LinkTaskTrainer(
        model,
        graph,
        sampler,
        config=TrainConfig(epochs=epochs, batch_size=64, lr=0.02, patience=epochs, seed=seed),
        num_negatives=3,
    )
    return graph, trainer


class TestLinkTaskTrainer:
    def test_learns_block_preference(self):
        db = block_db()
        # BPR on this symmetric block problem plateaus for ~15 epochs
        # before breaking symmetry; give it room.
        graph, trainer = make_trainer(db, epochs=25)
        events = db["events"]
        users = np.asarray(events["user_id"].to_list())
        items = np.asarray(events["item_id"].to_list())
        times = np.full(len(users), 2000, dtype=np.int64)
        trainer.fit("users", users, times, items)
        scores = trainer.score_against_items(
            "users", np.array([0, 20]), np.array([2000, 2000]), np.arange(10)
        )
        # User 0 prefers items 0-4; user 20 prefers 5-9.
        assert scores[0, :5].mean() > scores[0, 5:].mean()
        assert scores[1, 5:].mean() > scores[1, :5].mean()

    def test_validation_early_stopping(self):
        db = block_db()
        graph, trainer = make_trainer(db, epochs=30)
        trainer.config.patience = 2
        events = db["events"]
        users = np.asarray(events["user_id"].to_list())
        items = np.asarray(events["item_id"].to_list())
        times = np.full(len(users), 2000, dtype=np.int64)
        split = len(users) // 2
        history = trainer.fit(
            "users",
            users[:split],
            times[:split],
            items[:split],
            val_query_ids=users[split:],
            val_query_times=times[split:],
            val_pos_item_ids=items[split:],
        )
        assert history.best_epoch >= 0
        assert len(history.val_loss) <= 30

    def test_train_loss_decreases(self):
        db = block_db()
        graph, trainer = make_trainer(db, epochs=8)
        events = db["events"]
        users = np.asarray(events["user_id"].to_list())
        items = np.asarray(events["item_id"].to_list())
        times = np.full(len(users), 2000, dtype=np.int64)
        history = trainer.fit("users", users, times, items)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_score_shape_and_determinism(self):
        db = block_db()
        graph, trainer = make_trainer(db, epochs=1)
        events = db["events"]
        users = np.asarray(events["user_id"].to_list())[:20]
        items = np.asarray(events["item_id"].to_list())[:20]
        times = np.full(20, 2000, dtype=np.int64)
        trainer.fit("users", users, times, items)
        a = trainer.score_against_items("users", np.arange(4), np.full(4, 2000), np.arange(10))
        b = trainer.score_against_items("users", np.arange(4), np.full(4, 2000), np.arange(10))
        assert a.shape == (4, 10)
        np.testing.assert_allclose(a, b)

    def test_empty_queries(self):
        db = block_db()
        graph, trainer = make_trainer(db, epochs=1)
        empty = np.empty(0, dtype=np.int64)
        scores = trainer.score_against_items("users", empty, empty, np.arange(10))
        assert scores.shape == (0, 10)
