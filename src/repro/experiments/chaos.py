"""Deterministic fault injection for the sweep scheduler.

The fault-tolerance layer (per-cell timeouts, retry/backoff, crash
re-dispatch — :mod:`repro.experiments.scheduler`) is only trustworthy if
every failure mode is *exercised*, not asserted in prose.  This module
is the test-only chaos hook that makes that possible: a
:class:`ChaosSpec` names one cell of a sweep and an injury —

* ``raise``     — the cell raises :class:`ChaosError`;
* ``hang``      — the cell sleeps ``hang_s`` seconds (past any timeout);
* ``kill``      — the worker dies mid-cell (``os._exit`` in a process
  worker, so the pool breaks exactly like a real worker crash;
  simulated via :class:`WorkerKilled` on the serial backend, where
  there is no worker to kill);
* ``interrupt`` — the cell raises :class:`KeyboardInterrupt` (a
  deterministic Ctrl-C for the graceful-interrupt path).

Injection is **attempt-gated**: the injury fires only for the first
``attempts`` attempts of the cell, then heals — so a retried cell runs
clean and the whole scenario is reproducible, seed-preserving and
timing-free.  The injury fires at a chosen ``stage``: ``"start"``
(before the cell body) or ``"finish"`` (after the body computed its
result, before it returns).

Wiring: ``SweepEngine(chaos=...)`` accepts a :class:`ChaosSpec` or its
token string; with no explicit spec the engine reads the
:data:`CHAOS_ENV` environment variable (``REPRO_CHAOS="2:kill"``), which
is how the CI chaos-smoke job injures a stock CLI invocation.  Tokens
look like ``"<cell-index>:<mode>"`` with optional ``key=value`` parts::

    REPRO_CHAOS="1:raise"
    REPRO_CHAOS="0:hang:hang_s=3"
    REPRO_CHAOS="2:kill:attempts=2:stage=finish"
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, Union

__all__ = [
    "CHAOS_ENV",
    "CHAOS_MODES",
    "CHAOS_STAGES",
    "ChaosError",
    "ChaosSpec",
    "WorkerKilled",
    "maybe_inject",
    "resolve_chaos",
]

#: environment variable the engine reads when no explicit spec is given
CHAOS_ENV = "REPRO_CHAOS"

CHAOS_MODES = ("raise", "hang", "kill", "interrupt")
CHAOS_STAGES = ("start", "finish")

#: process-worker exit status for ``kill`` injections (any non-zero
#: status breaks the pool; a recognizable one helps post-mortems)
KILL_EXIT_STATUS = 70


class ChaosError(RuntimeError):
    """The injected ``raise``-mode failure."""


class WorkerKilled(RuntimeError):
    """Simulated worker death on backends with nothing to kill.

    Serial cells raise this for ``kill`` injections; the
    scheduler classifies it as a crash (``kind="crash"``), the same
    bucket a real :class:`BrokenProcessPool` lands in — so the crash
    handling path is testable on every backend.
    """


@dataclass(frozen=True)
class ChaosSpec:
    """One deterministic injury: which cell, what, when.

    Attributes:
        cell_index: Plan index of the cell to injure.
        mode: One of :data:`CHAOS_MODES`.
        attempts: Injure the first N attempts of the cell, then heal
            (retried cells run clean — deterministic recovery).
        hang_s: How long a ``hang`` sleeps (must exceed the sweep's
            ``cell_timeout`` to be observable).
        stage: ``"start"`` (before the cell body) or ``"finish"``
            (after the body, before its result returns).
    """

    cell_index: int
    mode: str
    attempts: int = 1
    hang_s: float = 30.0
    stage: str = "start"

    def __post_init__(self):
        if self.mode not in CHAOS_MODES:
            raise ValueError(
                f"chaos mode must be one of {CHAOS_MODES}, got {self.mode!r}"
            )
        if self.stage not in CHAOS_STAGES:
            raise ValueError(
                f"chaos stage must be one of {CHAOS_STAGES}, "
                f"got {self.stage!r}"
            )
        if self.cell_index < 0:
            raise ValueError(f"chaos cell_index must be >= 0, got {self.cell_index}")
        if self.attempts < 1:
            raise ValueError(f"chaos attempts must be >= 1, got {self.attempts}")

    def fires(self, index: int, attempt: int, stage: str) -> bool:
        """Whether this spec injures attempt ``attempt`` of cell
        ``index`` at ``stage`` (attempts are 0-based)."""
        return (
            index == self.cell_index
            and attempt < self.attempts
            and stage == self.stage
        )

    def inject(self, process_worker: bool = False) -> None:
        """Perform the injury (see the module docstring for modes)."""
        if self.mode == "raise":
            raise ChaosError(
                f"chaos: injected failure in cell {self.cell_index}"
            )
        if self.mode == "interrupt":
            raise KeyboardInterrupt(
                f"chaos: injected interrupt in cell {self.cell_index}"
            )
        if self.mode == "hang":
            time.sleep(self.hang_s)
            return
        # mode == "kill"
        if process_worker:
            # a real worker death: skips atexit/finally, breaks the pool
            os._exit(KILL_EXIT_STATUS)
        raise WorkerKilled(
            f"chaos: injected worker death in cell {self.cell_index}"
        )

    # -- token form (env var / process-pool payload) -----------------------
    def token(self) -> str:
        """The spec as its ``index:mode[:key=value]...`` token;
        :meth:`from_token` inverts it exactly."""
        parts = [str(self.cell_index), self.mode]
        if self.attempts != 1:
            parts.append(f"attempts={self.attempts}")
        if self.hang_s != 30.0:
            parts.append(f"hang_s={self.hang_s}")
        if self.stage != "start":
            parts.append(f"stage={self.stage}")
        return ":".join(parts)

    @classmethod
    def from_token(cls, token: str) -> "ChaosSpec":
        """Parse an ``index:mode[:key=value]...`` token."""
        parts = [part.strip() for part in token.split(":")]
        if len(parts) < 2 or not parts[0] or not parts[1]:
            raise ValueError(
                f"chaos token must look like 'index:mode[:key=value]...', "
                f"got {token!r}"
            )
        try:
            index = int(parts[0])
        except ValueError:
            raise ValueError(
                f"chaos cell index must be an integer, got {parts[0]!r}"
            ) from None
        fields = {"cell_index": index, "mode": parts[1]}
        casts = {"attempts": int, "hang_s": float, "stage": str}
        for part in parts[2:]:
            key, sep, value = part.partition("=")
            if not sep or key not in casts:
                raise ValueError(
                    f"chaos token option {part!r} — expected one of "
                    f"{sorted(casts)} as key=value"
                )
            fields[key] = casts[key](value)
        return cls(**fields)

    @classmethod
    def from_env(cls) -> Optional["ChaosSpec"]:
        """The spec named by :data:`CHAOS_ENV`, or ``None`` when unset."""
        token = os.environ.get(CHAOS_ENV, "").strip()
        return cls.from_token(token) if token else None


def resolve_chaos(
    chaos: Union["ChaosSpec", str, None]
) -> Optional[ChaosSpec]:
    """Normalize an engine ``chaos`` argument: a spec passes through, a
    token string parses, ``None`` falls back to the environment."""
    if chaos is None:
        return ChaosSpec.from_env()
    if isinstance(chaos, str):
        return ChaosSpec.from_token(chaos)
    return chaos


def maybe_inject(
    chaos: Optional[ChaosSpec],
    index: int,
    attempt: int,
    stage: str,
    process_worker: bool = False,
) -> None:
    """Fire ``chaos`` if it targets this (cell, attempt, stage); the
    no-chaos fast path is a single ``None`` check."""
    if chaos is not None and chaos.fires(index, attempt, stage):
        chaos.inject(process_worker=process_worker)
