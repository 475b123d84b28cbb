"""The planner-facing fault-tolerance policy object."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ResilienceConfig"]


@dataclass
class ResilienceConfig:
    """Fault-tolerance policy for one fit.

    Everything defaults to "off": no checkpoints, no fallback — identical
    behavior to a planner without a resilience config.  The epoch
    checkpoint is a fit's one recovery path: a run that fails (killed,
    or raising) is re-run with ``resume`` on the same directory.
    """

    #: Directory for epoch checkpoints (and resume state); None = off.
    checkpoint_dir: Optional[str] = None
    #: Resume training from the latest checkpoint when one exists.
    resume: bool = False
    #: Degrade a failed GNN stage down the tier ladder (YELLOW, then
    #: GREEN) instead of failing the whole fit.
    fallback: bool = False
    #: Divergence recoveries (restore + LR backoff) before giving up.
    divergence_recoveries: int = 2
