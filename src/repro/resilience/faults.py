"""Deterministic fault injection for resilience testing.

Production pipelines meet faults that unit tests rarely reproduce:
a sampler that dies mid-epoch, a process killed between checkpoint and
commit, a CSV reader fed a truncated file.  The :class:`FaultInjector`
raises those faults *on purpose*, at named sites, on a schedule that is
a pure function of its specs and seed — so every recovery path in
:mod:`repro.resilience` is exercised in CI without flaky sleeps or
real ``kill -9``.

A *site* is a string naming an instrumented point in the pipeline
(``trainer.step``, ``trainer.epoch``, ``planner.save``, ``csv.load``,
``sampler.sample``, ``fallback.gbdt``, …).  Instrumented code calls
:func:`fault_point` which is a no-op unless an injector is installed.

Spec grammar (one spec per fault, comma-separated in the
``REPRO_FAULTS`` environment variable)::

    site@N:action      fire on the N-th call to the site (1-based)
    site%P:action      fire each call with probability P (seeded)

Actions:

* ``raise`` — raise :class:`InjectedFault`, a *transient* error that
  ``--fallback`` degrades on and a ``--resume`` re-run recovers from;
* ``kill``  — raise :class:`SimulatedCrash`, modelling a hard process
  death: a fit never catches it;
* ``nan``   — corrupt a value instead of raising; only sites that call
  :func:`corrupt_value` honor it (e.g. ``trainer.loss``);
* ``delay`` — sleep ``REPRO_FAULTS_DELAY_MS`` milliseconds (default
  50) at the site instead of raising.  This widens crash windows so an
  external supervisor can land a *real* ``kill -9`` inside a specific
  stage (the SIGKILL-mid-publish chaos test does exactly that);
* ``corrupt`` — flip bytes in a file; only sites that call
  :func:`fault_file` honor it (e.g. the registry's publish stages).

Injection is **off by default**: no injector installed means every
fault point costs one global read and a ``None`` check.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

__all__ = [
    "InjectedFault",
    "SimulatedCrash",
    "FaultSpec",
    "FaultInjector",
    "fault_point",
    "fault_file",
    "corrupt_value",
    "get_injector",
    "install",
    "uninstall",
    "injected",
]

_ACTIONS = ("raise", "kill", "nan", "delay", "corrupt")
_ENV_VAR = "REPRO_FAULTS"
_DEFAULT_DELAY_MS = 50.0


class InjectedFault(RuntimeError):
    """A deliberately injected *transient* fault."""

    def __init__(self, site: str, call_index: int) -> None:
        super().__init__(f"injected fault at site {site!r} (call #{call_index})")
        self.site = site
        self.call_index = call_index


class SimulatedCrash(RuntimeError):
    """A deliberately injected hard crash, modelling a process death."""

    def __init__(self, site: str, call_index: int) -> None:
        super().__init__(f"simulated crash at site {site!r} (call #{call_index})")
        self.site = site
        self.call_index = call_index


@dataclass
class FaultSpec:
    """One scheduled fault: where, when, and what kind."""

    site: str
    action: str
    #: Fire on exactly this 1-based call number (mutually exclusive
    #: with ``probability``).
    at_call: Optional[int] = None
    #: Fire on each call with this probability (seeded draws).
    probability: Optional[float] = None

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"fault action must be one of {_ACTIONS}, got {self.action!r}")
        if (self.at_call is None) == (self.probability is None):
            raise ValueError("exactly one of at_call / probability is required")
        if self.at_call is not None and self.at_call < 1:
            raise ValueError("at_call is 1-based and must be >= 1")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse ``site@N:action`` or ``site%P:action``."""
        try:
            location, action = text.rsplit(":", 1)
        except ValueError:
            raise ValueError(f"malformed fault spec {text!r}: missing ':action'") from None
        action = action.strip()
        location = location.strip()
        if "@" in location:
            site, _, when = location.rpartition("@")
            return cls(site=site, action=action, at_call=int(when))
        if "%" in location:
            site, _, prob = location.rpartition("%")
            return cls(site=site, action=action, probability=float(prob))
        raise ValueError(f"malformed fault spec {text!r}: need 'site@N' or 'site%%P'")

    def __str__(self) -> str:
        if self.at_call is not None:
            return f"{self.site}@{self.at_call}:{self.action}"
        return f"{self.site}%{self.probability}:{self.action}"


@dataclass
class _SiteState:
    specs: List[FaultSpec] = field(default_factory=list)
    calls: int = 0


class FaultInjector:
    """Seeded scheduler deciding which fault-point calls fail.

    The decision sequence is fully determined by (specs, seed, call
    order), so a test that kills training at epoch 2 kills it at epoch
    2 every time, on every machine.
    """

    def __init__(
        self, specs: List[FaultSpec], seed: int = 0,
        delay_ms: float = _DEFAULT_DELAY_MS,
    ) -> None:
        self.specs = list(specs)
        self._sites: Dict[str, _SiteState] = {}
        for spec in self.specs:
            self._sites.setdefault(spec.site, _SiteState()).specs.append(spec)
        self._rng = np.random.default_rng(seed)
        #: How long a ``delay`` action sleeps at its site.
        self.delay_ms = float(delay_ms)
        #: (site, call_index, action) triples of every fired fault.
        self.fired: List[tuple] = []

    @classmethod
    def from_specs(
        cls, text: str, seed: int = 0, delay_ms: float = _DEFAULT_DELAY_MS,
    ) -> "FaultInjector":
        """Build from a comma-separated spec string."""
        specs = [FaultSpec.parse(part) for part in text.split(",") if part.strip()]
        return cls(specs, seed=seed, delay_ms=delay_ms)

    @classmethod
    def from_env(cls, environ=None) -> Optional["FaultInjector"]:
        """Build from ``REPRO_FAULTS`` (``REPRO_FAULTS_SEED``); None if unset."""
        environ = os.environ if environ is None else environ
        text = environ.get(_ENV_VAR, "").strip()
        if not text:
            return None
        seed = int(environ.get(f"{_ENV_VAR}_SEED", "0"))
        delay_ms = float(environ.get(f"{_ENV_VAR}_DELAY_MS", str(_DEFAULT_DELAY_MS)))
        return cls.from_specs(text, seed=seed, delay_ms=delay_ms)

    def check(self, site: str) -> Optional[str]:
        """Count one call to ``site``; return the action to apply, or None."""
        state = self._sites.get(site)
        if state is None:
            return None
        state.calls += 1
        for spec in state.specs:
            if spec.at_call is not None:
                if state.calls == spec.at_call:
                    self.fired.append((site, state.calls, spec.action))
                    return spec.action
            elif self._rng.random() < spec.probability:
                self.fired.append((site, state.calls, spec.action))
                return spec.action
        return None

    def calls_to(self, site: str) -> int:
        """How many times ``site`` has been reached."""
        state = self._sites.get(site)
        return state.calls if state is not None else 0


#: The process-global injector; ``None`` means injection is off.
_injector: Optional[FaultInjector] = None


def get_injector() -> Optional[FaultInjector]:
    """The installed injector, or None."""
    return _injector


def install(injector: Optional[FaultInjector]) -> None:
    """Install (or, with None, remove) the process-global injector."""
    global _injector
    _injector = injector


def uninstall() -> None:
    """Remove the process-global injector."""
    install(None)


def _apply(site: str, injector: FaultInjector, action: Optional[str]) -> None:
    if action == "raise":
        raise InjectedFault(site, injector.calls_to(site))
    if action == "kill":
        raise SimulatedCrash(site, injector.calls_to(site))
    if action == "delay":
        time.sleep(injector.delay_ms / 1000.0)


def fault_point(site: str) -> None:
    """Raise (or delay) here if the installed injector schedules a fault.

    ``nan``/``corrupt`` actions are ignored at plain fault points —
    they only make sense at value sites (:func:`corrupt_value`) and
    file sites (:func:`fault_file`).
    """
    injector = _injector
    if injector is None:
        return
    _apply(site, injector, injector.check(site))


def corrupt_value(site: str, value: float) -> float:
    """Return ``value``, or NaN when a ``nan`` fault fires at ``site``.

    ``raise``/``kill``/``delay`` actions at value sites apply as usual.
    """
    injector = _injector
    if injector is None:
        return value
    action = injector.check(site)
    if action == "nan":
        return float("nan")
    _apply(site, injector, action)
    return value


def fault_file(site: str, path: str) -> None:
    """Raise, delay, or corrupt the file at ``path`` when a fault fires.

    A ``corrupt`` action flips the file's first byte and appends
    garbage, modelling torn writes and bit rot; integrity machinery
    downstream (checksums, fsck) must catch it.  Missing files are
    corrupted by creation — a corrupt site must never mask itself.
    """
    injector = _injector
    if injector is None:
        return
    action = injector.check(site)
    if action == "corrupt":
        try:
            with open(path, "r+b") as handle:
                first = handle.read(1)
                if first:
                    handle.seek(0)
                    handle.write(bytes([first[0] ^ 0xFF]))
                handle.seek(0, os.SEEK_END)
                handle.write(b"\x00corrupted-by-fault-injection")
        except FileNotFoundError:
            with open(path, "wb") as handle:
                handle.write(b"\x00corrupted-by-fault-injection")
        return
    _apply(site, injector, action)


class injected:
    """``with injected("trainer.epoch@2:kill"):`` — scoped installation."""

    def __init__(
        self, specs: str, seed: int = 0, delay_ms: float = _DEFAULT_DELAY_MS,
    ) -> None:
        self._injector = FaultInjector.from_specs(specs, seed=seed, delay_ms=delay_ms)

    def __enter__(self) -> FaultInjector:
        if _injector is not None:
            raise RuntimeError("a fault injector is already installed")
        install(self._injector)
        return self._injector

    def __exit__(self, exc_type, exc, tb) -> bool:
        uninstall()
        return False
