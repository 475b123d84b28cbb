"""Documentation is executable: every fenced python block runs verbatim.

Extracts the ```python blocks from the user-facing docs and executes
them exactly as written — no edits, no mocking — so a snippet that
rots (renamed API, changed signature, impossible data) fails CI
instead of failing the first reader who pastes it.

Covered sources:

* ``docs/tutorial.md``       — all blocks, run sequentially in one
  shared namespace (the tutorial is one program told in steps);
* ``README.md``              — the quickstart and streaming-ingest
  blocks, each standalone;
* ``docs/serving.md``        — all blocks, run sequentially in one
  shared namespace (quickstart, then the hot-swap + compare lifecycle
  walkthrough that continues it);
* ``docs/observability.md``  — all blocks (spans, metrics, serving
  telemetry, logging), run sequentially in one shared namespace;
* ``docs/performance.md``    — the cost-routing EXPLAIN ANALYZE
  walkthrough (fit the tier ladder, route a call, read the decision);
* ``docs/ingest.md``         — the streaming walkthrough (snapshot →
  stream a day → query before/after → compact), run sequentially in
  one shared namespace;
* ``docs/robustness.md``     — the resilience snippet (a checkpointed
  fit, then its resume), at the small scale it is written for.

Blocks that write files do so relative to the current directory, so
every test runs chdir'd into a tmp dir.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
MIN_SNIPPETS = 24  # acceptance floor: at least this many snippets execute

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def python_blocks(relative_path: str) -> List[str]:
    """Every fenced python block in a repo document, in order."""
    text = (REPO_ROOT / relative_path).read_text()
    blocks = _FENCE.findall(text)
    assert blocks, f"no ```python blocks found in {relative_path}"
    return blocks


def run_blocks(relative_path: str, blocks: List[str]) -> None:
    """Execute blocks sequentially in one namespace, as a reader would."""
    namespace: dict = {}
    for index, block in enumerate(blocks):
        code = compile(block, f"{relative_path}[block {index}]", "exec")
        exec(code, namespace)  # noqa: S102 - executing our own docs is the point


def test_tutorial_runs_end_to_end(tmp_path, monkeypatch):
    """The tutorial's blocks compose into one working program."""
    monkeypatch.chdir(tmp_path)
    blocks = python_blocks("docs/tutorial.md")
    assert len(blocks) >= 5, "tutorial lost its worked example"
    run_blocks("docs/tutorial.md", blocks)
    # Block 6 persists the model relative to the working directory.
    assert (tmp_path / "artifacts" / "churn_model" / "manifest.json").exists()


def test_readme_quickstart_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    blocks = python_blocks("README.md")
    run_blocks("README.md", blocks[:1])


def test_readme_streaming_quickstart_runs(tmp_path, monkeypatch):
    """The ingest quickstart is standalone: snapshot → event → delta."""
    monkeypatch.chdir(tmp_path)
    blocks = python_blocks("README.md")
    assert len(blocks) >= 2, "README lost its streaming quickstart"
    run_blocks("README.md", blocks[1:2])
    assert (tmp_path / "ingest_log" / "MANIFEST.json").exists()


def test_serving_walkthrough_runs(tmp_path, monkeypatch):
    """Quickstart + hot-swap + compare blocks compose into one program."""
    monkeypatch.chdir(tmp_path)
    blocks = python_blocks("docs/serving.md")
    assert len(blocks) >= 3, "serving guide lost its lifecycle walkthrough"
    run_blocks("docs/serving.md", blocks)
    # The quickstart publishes v1, the lifecycle walkthrough v2.
    assert (tmp_path / "models" / "churn" / "v1" / "manifest.json").exists()
    assert (tmp_path / "models" / "churn" / "v2" / "manifest.json").exists()
    assert (tmp_path / "models" / "churn" / "index.json").exists()


def test_observability_snippets_run(tmp_path, monkeypatch):
    """Span, metrics, serving-telemetry, and logging examples all run."""
    monkeypatch.chdir(tmp_path)
    blocks = python_blocks("docs/observability.md")
    assert len(blocks) >= 4, "observability guide lost its examples"
    run_blocks("docs/observability.md", blocks)


def test_performance_routing_snippet_runs(tmp_path, monkeypatch):
    """The routing EXPLAIN ANALYZE example fits, routes, and explains."""
    monkeypatch.chdir(tmp_path)
    blocks = python_blocks("docs/performance.md")
    assert len(blocks) >= 1, "performance guide lost its routing example"
    run_blocks("docs/performance.md", blocks)


def test_ingest_walkthrough_runs(tmp_path, monkeypatch):
    """Snapshot → stream → query before/after → compact, end to end."""
    monkeypatch.chdir(tmp_path)
    blocks = python_blocks("docs/ingest.md")
    assert len(blocks) >= 7, "ingest guide lost its streaming walkthrough"
    run_blocks("docs/ingest.md", blocks)
    # Block 2 creates the durable log; block 7 compacts it in place.
    assert (tmp_path / "ingest_log" / "MANIFEST.json").exists()
    assert (tmp_path / "ingest_log" / "base-001").exists()


def test_robustness_snippet_runs(tmp_path, monkeypatch):
    """A checkpointed fit with fallback on, then its resume, as documented."""
    monkeypatch.chdir(tmp_path)
    blocks = python_blocks("docs/robustness.md")
    assert len(blocks) >= 1, "robustness guide lost its resilience example"
    run_blocks("docs/robustness.md", blocks)
    assert (tmp_path / "ckpt" / "checkpoint.json").exists()


def test_snippet_floor():
    """≥MIN_SNIPPETS snippets are exercised verbatim across the docs."""
    total = (
        len(python_blocks("docs/tutorial.md"))
        + len(python_blocks("README.md")[:2])
        + len(python_blocks("docs/serving.md"))
        + len(python_blocks("docs/observability.md"))
        + len(python_blocks("docs/performance.md"))
        + len(python_blocks("docs/ingest.md"))
        + len(python_blocks("docs/robustness.md"))
    )
    assert total >= MIN_SNIPPETS, f"only {total} doc snippets are executed"


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
