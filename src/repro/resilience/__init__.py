"""Fault-tolerant pipeline execution.

The declarative promise — write a predictive query, get a trained
model — only survives production if the compiled pipeline survives
production's failures.  This package supplies the machinery, all
dependency-free and off by default:

* :mod:`repro.resilience.checkpoint` — atomic, checksummed snapshots
  (temp file + fsync + rename; SHA-256 manifest) used for epoch
  checkpoints and model save/load;
* :mod:`repro.resilience.guards` — NaN/inf-loss and exploding-gradient
  detection with restore-and-halve-LR recovery;
* :mod:`repro.resilience.faults` — a seeded fault injector that makes
  every recovery path above deterministic to test.

:class:`ResilienceConfig` is the single knob surface: the planner
takes one and hands it to the trainer's ``fit``.  A failed fit has one
recovery path, the epoch checkpoint: re-run it with ``resume``.  What a
failed GNN stage degrades *to* is not defined here: with ``fallback``
on, the planner descends the router's tier ladder (YELLOW, then GREEN
— :mod:`repro.pql.router`).
"""

from __future__ import annotations

from repro.resilience.checkpoint import (
    CheckpointManager,
    CorruptCheckpointError,
    CorruptModelError,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_npz,
    sha256_file,
)
from repro.resilience.config import ResilienceConfig
from repro.resilience.faults import (
    FaultInjector,
    FaultSpec,
    InjectedFault,
    SimulatedCrash,
    corrupt_value,
    fault_file,
    fault_point,
    get_injector,
    injected,
    install,
    uninstall,
)
from repro.resilience.guards import DivergenceError, DivergenceGuard

__all__ = [
    "CheckpointManager",
    "CorruptCheckpointError",
    "CorruptModelError",
    "DivergenceError",
    "DivergenceGuard",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "ResilienceConfig",
    "SimulatedCrash",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_npz",
    "corrupt_value",
    "fault_file",
    "fault_point",
    "get_injector",
    "injected",
    "install",
    "sha256_file",
    "uninstall",
]
