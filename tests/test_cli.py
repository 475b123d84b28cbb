"""Tests for the command-line interface."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.datasets import get_dataset
from repro.pql import PlannerConfig, PredictiveModel


class TestTasks:
    def test_lists_all_datasets(self, capsys):
        assert main(["tasks"]) == 0
        out = capsys.readouterr().out
        for dataset in ("ecommerce", "forum", "clinical"):
            assert f"{dataset}:" in out
        assert "PREDICT COUNT(orders) > 0" in out


class TestSQL:
    def test_simple_select(self, capsys):
        code = main(
            ["sql", "--dataset", "ecommerce", "--scale", "0.1", "SELECT COUNT(*) AS n FROM orders"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "n"
        assert float(out.splitlines()[1]) > 0

    def test_max_rows_truncates(self, capsys):
        main(
            [
                "sql",
                "--dataset",
                "ecommerce",
                "--scale",
                "0.1",
                "--max-rows",
                "2",
                "SELECT id FROM orders",
            ]
        )
        out = capsys.readouterr().out
        assert "more rows" in out


class TestFit:
    def test_fit_registered_task(self, capsys, tmp_path):
        code = main(
            [
                "fit",
                "--dataset",
                "ecommerce",
                "--task",
                "churn",
                "--scale",
                "0.2",
                "--epochs",
                "2",
                "--layers",
                "1",
                "--hidden",
                "8",
                "--save",
                str(tmp_path / "model"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "auroc" in out
        assert "model saved" in out
        assert (tmp_path / "model" / "manifest.json").exists()

    def test_unknown_task_raises(self):
        with pytest.raises(KeyError):
            main(["fit", "--dataset", "ecommerce", "--task", "nope", "--epochs", "1"])


class TestQuery:
    def test_arbitrary_query(self, capsys):
        code = main(
            [
                "query",
                "--dataset",
                "ecommerce",
                "--scale",
                "0.2",
                "--epochs",
                "1",
                "--layers",
                "1",
                "--hidden",
                "8",
                "PREDICT EXISTS(orders) = 1 FOR EACH customers.id ASSUMING HORIZON 30 DAYS",
            ]
        )
        assert code == 0
        assert "auroc" in capsys.readouterr().out

    def test_bad_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["explode"])


QUERY = "PREDICT EXISTS(orders) = 1 FOR EACH customers.id ASSUMING HORIZON 30 DAYS"
LEGACY_FIXTURE = Path(__file__).parent / "fixtures" / "legacy_model"


@pytest.mark.parametrize("flag, field", [
    ("--num-workers", "num_workers"),
    ("--cache-size", "cache_size"),
    ("--prefetch-batches", "prefetch_batches"),
])
def test_retired_sampling_knobs_are_refused_not_ignored(flag, field, capsys):
    """The flags and config fields are gone — argparse and the dataclass
    say so — while an artifact whose manifest still carries the keys loads."""
    for argv in (
        ["fit", "--dataset", "ecommerce", "--task", "churn", flag, "1"],
        ["query", "--dataset", "ecommerce", flag, "1", QUERY],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    with pytest.raises(TypeError):
        PlannerConfig(**{field: 1})
    assert field in json.loads((LEGACY_FIXTURE / "manifest.json").read_text())["config"]
    db = get_dataset("ecommerce").build(scale=0.2, seed=0)
    assert not hasattr(PredictiveModel.load(str(LEGACY_FIXTURE), db).config, field)
