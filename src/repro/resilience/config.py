"""The planner-facing fault-tolerance policy object."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.resilience.retry import RetryPolicy

__all__ = ["ResilienceConfig"]


@dataclass
class ResilienceConfig:
    """Fault-tolerance policy for one compiled pipeline.

    Everything defaults to "off": no checkpoints, no retries, no
    budgets, no fallback — identical behavior to a planner without a
    resilience config.
    """

    #: Directory for epoch checkpoints (and resume state); None = off.
    checkpoint_dir: Optional[str] = None
    #: Checkpoint every N epochs.
    checkpoint_every: int = 1
    #: Resume training from the latest checkpoint when one exists.
    resume: bool = False
    #: Transient-error retries per pipeline stage.
    max_retries: int = 0
    #: Base delay for exponential backoff between retries (seconds).
    retry_base_delay: float = 0.05
    #: Per-stage wall-clock budgets, e.g. ``{"train": 600.0}``.  Keys:
    #: ``label``, ``graph_build``, ``train``, ``evaluate``.
    stage_timeouts: Dict[str, float] = field(default_factory=dict)
    #: Degrade a failed GNN stage down the tier ladder (YELLOW, then
    #: GREEN) instead of failing the whole fit.
    fallback: bool = False
    #: Divergence recoveries (restore + halve LR) before giving up.
    divergence_recoveries: int = 2
    #: LR multiplier applied on each divergence recovery.
    lr_backoff: float = 0.5
    #: Pre-clip gradient norms above this count as divergence.
    grad_norm_limit: float = 1e6
    #: Seed for retry jitter.
    seed: int = 0

    def timeout_for(self, stage: str) -> Optional[float]:
        """The configured budget for ``stage`` (None = unbudgeted)."""
        return self.stage_timeouts.get(stage)

    def retry_policy(self) -> RetryPolicy:
        """A fresh seeded retry policy for one stage."""
        return RetryPolicy(
            max_retries=self.max_retries,
            base_delay=self.retry_base_delay,
            seed=self.seed,
        )
