"""Tests for the command-line interface."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.cli import _build_parser, _planner_config, main
from repro.datasets import get_dataset
from repro.pql import PlannerConfig, PredictiveModel
from repro.serve import ServeConfig


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


#: PlannerConfig fields no product path set, each with a value a caller
#: might have tried; the loop keeps one literal for the optimizer ones
#: (TrainConfig, LinkTaskTrainer) and none for the other three.
RETIRED_FIT_KNOBS = {
    "dropout": 0.1, "time_encoding": "fourier", "auto_pos_weight": True, "lr": 0.01,
    "weight_decay": 0.0, "clip_norm": 1.0, "num_negatives": 8, "patience": 4,
}


@pytest.mark.parametrize("field, value", sorted(RETIRED_FIT_KNOBS.items()))
def test_retired_fit_knobs_are_refused_not_ignored(field, value):
    with pytest.raises(TypeError):
        PlannerConfig(**{field: value})
    assert field in json.loads((LEGACY_FIXTURE / "manifest.json").read_text())["config"]


def test_a_manifest_with_retired_fit_knobs_still_loads():
    db = get_dataset("ecommerce").build(scale=0.2, seed=0)
    config = PredictiveModel.load(str(LEGACY_FIXTURE), db).config
    assert not any(hasattr(config, field) for field in RETIRED_FIT_KNOBS)


def test_planner_config_has_at_most_13_fields():
    assert len(dataclasses.fields(PlannerConfig)) <= 13


@pytest.mark.parametrize("argv", [
    ["fit", "--dataset", "ecommerce", "--task", "churn"],
    ["query", "--dataset", "ecommerce", QUERY],
], ids=["fit", "query"])
def test_no_model_flags_fit_exactly_the_default_config(argv):
    """The CLI restates no default: without model flags it trains
    ``PlannerConfig()``, which is also the configuration the end-to-end
    benchmark spells out; a given flag overrides just its field."""
    parser = _build_parser()
    assert _planner_config(parser.parse_args(argv)) == PlannerConfig()
    assert PlannerConfig(hidden_dim=32, num_layers=2, epochs=15, seed=0) == PlannerConfig()
    flagged = parser.parse_args(argv + ["--epochs", "3", "--conv", "gat", "--seed", "2"])
    assert _planner_config(flagged) == PlannerConfig(epochs=3, conv_type="gat", seed=2)


@pytest.mark.parametrize("flag, value", [("--max-retries", "3"), ("--stage-timeout", "train=600")])
def test_retired_retry_flags_are_refused(flag, value, capsys):
    """A failed fit recovers through --checkpoint-dir/--resume only: the
    stage retry and deadline flags are gone, not ignored."""
    for argv in (
        ["fit", "--dataset", "ecommerce", "--task", "churn", flag, value],
        ["query", "--dataset", "ecommerce", flag, value, QUERY],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_fit_help_lists_at_most_18_long_flags(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["fit", "--help"])
    assert exit_info.value.code == 0
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
    assert len(flags) <= 18, sorted(flags)


def test_serve_help_lists_at_most_22_long_flags(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["serve", "--help"])
    assert exit_info.value.code == 0
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
    assert len(flags) <= 22, sorted(flags)
    assert "--no-telemetry" not in flags
    assert not flags & {"--canary-fraction", "--promote-after", "--rollback-on"}


def test_serve_config_has_at_most_13_fields():
    assert len(dataclasses.fields(ServeConfig)) <= 13
