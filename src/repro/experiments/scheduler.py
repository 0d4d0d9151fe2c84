"""Fault-tolerant cell scheduler: one submit/complete contract over
inline and process execution.

A cell runs either inline (:class:`SerialBackend`) or in a worker
process (:class:`ProcessBackend`).  Both sit behind one scheduler over
an :class:`ExecutorBackend` interface plus a fault-tolerance layer, so
one cell exception, one killed worker or one hung cell never costs the
sweep its finished work:

* **out-of-order completion** — every finished cell is handed to the
  ``on_complete`` callback the moment it completes (the engine persists
  it to the resume ledger right there), so a later abort or interrupt
  never loses finished work;
* **per-cell timeouts** (``cell_timeout`` seconds of wall clock):
  a hung process cell is reclaimed by killing and rebuilding the pool
  (innocent in-flight cells are re-dispatched **without** being charged
  an attempt — on a timeout the culprit is known).  The serial backend
  runs cells inline and cannot preempt, so the engine refuses a
  ``cell_timeout`` there;
* **bounded retry with exponential backoff** — a failed, timed-out or
  crashed attempt is re-dispatched up to ``retries`` times after a
  deterministic ``backoff_base * 2**attempt`` delay.  Cells are pure
  functions of their spec (all randomness comes from named seed
  streams), so a retried cell reproduces bit-identically;
* **crash recovery** — a dead worker breaks the whole
  :class:`ProcessPoolExecutor`; the scheduler rebuilds the pool and
  re-dispatches exactly the cells that were in flight (completed cells
  are never re-run).  The culprit is unknowable on a pool break, so
  every victim is charged one attempt — with ``retries >= 1`` the
  innocent majority recovers transparently;
* **graceful degradation** (``on_error="continue"``) — a cell that
  exhausts its attempts becomes a structured :class:`CellFailure`
  record instead of poisoning the sweep; ``"abort"`` (the default)
  re-raises the cell's original exception after finished cells have
  been persisted;
* **graceful interrupt** — Ctrl-C (in the scheduler loop or surfacing
  from a cell) stops dispatching, tears the backend down without
  waiting on hung work, and raises :class:`SweepInterrupted` carrying
  the finished-cell count, so frontends can print a ``--resume`` hint
  and exit 130.

Every failure mode is exercised by the deterministic fault-injection
harness in :mod:`repro.experiments.chaos` — see
``tests/test_scheduler_faults.py`` and the CI ``chaos-smoke`` job.
"""

from __future__ import annotations

import heapq
import multiprocessing
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.experiments.chaos import WorkerKilled
from repro.utils.logging import get_logger

logger = get_logger("experiments.scheduler")

__all__ = [
    "ON_ERROR_MODES",
    "CellFailure",
    "CellScheduler",
    "CellTimeout",
    "EngineConfigError",
    "ExecutorBackend",
    "ProcessBackend",
    "SerialBackend",
    "SweepInterrupted",
    "backoff_delay",
]

#: failure policies: ``abort`` re-raises (legacy fail-fast, minus the
#: lost work), ``continue`` records a :class:`CellFailure` and moves on
ON_ERROR_MODES = ("abort", "continue")

#: how long one ``wait()`` blocks before deadlines/backoffs are checked
_TICK_S = 0.05


class CellTimeout(RuntimeError):
    """A cell exceeded its per-cell wall-clock budget."""


class EngineConfigError(ValueError):
    """Engine knobs that cannot run together, refused before any cell
    starts (the CLI reports it as a usage error, exit status 2)."""


class SweepInterrupted(RuntimeError):
    """Ctrl-C during a sweep, after finished cells were persisted.

    Attributes:
        finished: Cells already completed (and, with a cache dir,
            persisted to the resume ledger) when the interrupt landed.
        total: Cells the sweep was asked to run.
        plan_name: Filled in by the engine before re-raising.
    """

    def __init__(self, finished: int, total: int, plan_name: str = "") -> None:
        self.finished = finished
        self.total = total
        self.plan_name = plan_name
        super().__init__()

    def __str__(self) -> str:
        plan = f" of {self.plan_name!r}" if self.plan_name else ""
        return (
            f"interrupted{plan}: {self.finished}/{self.total} cells "
            f"finished"
        )


def backoff_delay(backoff_base: float, attempt: int) -> float:
    """Deterministic delay before re-dispatching attempt ``attempt + 1``
    (exponential in the 0-based failed-attempt index)."""
    return backoff_base * (2.0 ** attempt)


@dataclass
class CellFailure:
    """One cell that exhausted its attempts, as data.

    Attributes:
        index: The cell's position in the plan.
        kind: ``"exception"`` (the cell raised), ``"timeout"`` (exceeded
            ``cell_timeout``), or ``"crash"`` (its worker died).
        error_type / message: The final attempt's exception, stringly.
        attempts: Total attempts spent (1 = no retries configured/left).
        elapsed_s: Wall clock from first dispatch to the final failure.
        spec: The cell's :class:`ScenarioSpec` (attached by the engine;
            the scheduler itself is spec-agnostic).
    """

    index: int
    kind: str
    error_type: str
    message: str
    attempts: int
    elapsed_s: float
    spec: Optional[object] = None

    def describe(self) -> str:
        """One human-readable line for logs and CLI stderr."""
        what = f"cell {self.index}"
        if self.spec is not None:
            spec = self.spec
            what = (
                f"cell {self.index} ({spec.framework}/"
                f"{spec.attack or 'clean'} eps={spec.epsilon})"
            )
        return (
            f"{what} {self.kind} after {self.attempts} attempt(s) "
            f"[{self.elapsed_s:.1f}s]: {self.error_type}: {self.message}"
        )

    def to_json_dict(self) -> Dict:
        spec = None
        if self.spec is not None:
            spec = asdict(self.spec)
            spec["framework_kwargs"] = list(
                map(list, spec["framework_kwargs"])
            )
        return {
            "index": self.index,
            "kind": self.kind,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "elapsed_s": self.elapsed_s,
            "spec": spec,
        }


# -- executor backends -----------------------------------------------------


class ExecutorBackend:
    """The scheduler's submit/wait contract; one subclass per executor.

    ``preemption`` declares what the backend can do about a cell that
    must be taken off its worker (timeout): ``"none"`` (serial — cells
    run inline, nothing to preempt) or ``"restart"`` (processes — kill
    the pool, rebuild, re-dispatch the innocents).
    """

    name = "serial"
    preemption = "none"

    def start(self) -> None:
        """Bring the backend up (idempotent per scheduler run)."""

    def capacity(self) -> int:
        """How many cells may be in flight at once."""
        return 1

    def submit(self, index: int, attempt: int) -> Future:
        raise NotImplementedError

    def wait(
        self, futures: Set[Future], timeout: Optional[float]
    ) -> Set[Future]:
        """Block until one future completes (or ``timeout``); returns
        the done set."""
        done, _ = wait(futures, timeout=timeout, return_when=FIRST_COMPLETED)
        return done

    def restart(self) -> None:
        """Tear down and rebuild after a crash or a hung worker
        (``preemption="restart"``)."""
        raise NotImplementedError

    def shutdown(self, graceful: bool = True) -> None:
        """Release the backend; never blocks on hung or dead workers."""


class SerialBackend(ExecutorBackend):
    """Inline execution: ``submit`` runs the cell and returns a resolved
    future, so the scheduler's retry/failure/interrupt handling is
    exercised identically to the pooled backends.  No preemption —
    a timeout cannot fire while the cell holds the only thread."""

    name = "serial"
    preemption = "none"

    def __init__(self, run: Callable[[int, int], object]) -> None:
        self._run = run

    def submit(self, index: int, attempt: int) -> Future:
        future: Future = Future()
        try:
            future.set_result(self._run(index, attempt))
        # repro: allow[REP302] propagated via future.set_exception, re-raised from future.result()
        except BaseException as error:  # KeyboardInterrupt rides the
            future.set_exception(error)  # same rails as pool workers
        return future

    def wait(
        self, futures: Set[Future], timeout: Optional[float] = None
    ) -> Set[Future]:
        return set(futures)  # submit() already resolved them


def _pool_context() -> multiprocessing.context.BaseContext:
    """``fork`` where the platform offers it (workers inherit the loaded
    package and warm caches for free); the platform default elsewhere —
    the worker entry point is a plain importable function either way."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class ProcessBackend(ExecutorBackend):
    """A :class:`ProcessPoolExecutor` of cells.

    ``entry`` is a module-level (picklable) worker function and
    ``payload`` builds its JSON-native argument per (cell, attempt).
    A dead worker breaks the whole pool; :meth:`restart` kills every
    worker process and rebuilds, which is also how a hung cell is
    preempted (``preemption="restart"``).
    """

    name = "process"
    preemption = "restart"

    def __init__(
        self,
        entry: Callable,
        payload: Callable[[int, int], Dict],
        workers: int,
    ) -> None:
        self._entry = entry
        self._payload = payload
        self._workers = workers
        self._pool: Optional[ProcessPoolExecutor] = None

    def start(self) -> None:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self._workers, mp_context=_pool_context()
            )

    def capacity(self) -> int:
        return self._workers

    def submit(self, index: int, attempt: int) -> Future:
        return self._pool.submit(self._entry, self._payload(index, attempt))

    def restart(self) -> None:
        self._kill()
        self.start()

    def _kill(self) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for process in list(getattr(pool, "_processes", {}).values()):
            if process.is_alive():
                process.terminate()
        pool.shutdown(wait=False, cancel_futures=True)

    def shutdown(self, graceful: bool = True) -> None:
        if self._pool is None:
            return
        if graceful:
            self._pool.shutdown(wait=True)
            self._pool = None
        else:
            self._kill()


# -- the scheduler ---------------------------------------------------------


class CellScheduler:
    """Drives pending cell indices through a backend, fault-tolerantly.

    Args:
        backend: The executor to dispatch on (started/stopped here).
        cell_timeout: Per-cell wall-clock budget in seconds, or ``None``
            (enforced on backends that can preempt — process).
        retries: Re-dispatches allowed per cell after a failed, timed
            out or crashed attempt (0 = fail on first injury).
        on_error: ``"abort"`` re-raises the final error, ``"continue"``
            records a :class:`CellFailure` and keeps going.
        backoff_base: First-retry delay; doubles per further attempt.
        on_complete: Called as ``on_complete(index, outcome)`` the
            moment each cell finishes — in the scheduler's own thread,
            so callbacks may persist without locking.

    After :meth:`run`: ``results`` maps finished indices to their
    outcomes, ``failures`` maps failed indices to records, and
    ``retried`` / ``timed_out`` count re-dispatch and timeout events.
    """

    def __init__(
        self,
        backend: ExecutorBackend,
        cell_timeout: Optional[float] = None,
        retries: int = 0,
        on_error: str = "abort",
        backoff_base: float = 0.5,
        on_complete: Optional[Callable[[int, object], None]] = None,
    ) -> None:
        if on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}"
            )
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if cell_timeout is not None and cell_timeout <= 0:
            raise ValueError(
                f"cell_timeout must be positive, got {cell_timeout}"
            )
        self.backend = backend
        self.cell_timeout = cell_timeout
        self.retries = retries
        self.on_error = on_error
        self.backoff_base = backoff_base
        self.on_complete = on_complete
        self.results: Dict[int, object] = {}
        self.failures: Dict[int, CellFailure] = {}
        self.retried = 0
        self.timed_out = 0

    # -- main loop ---------------------------------------------------------
    def run(self, indices: Iterable[int]) -> None:
        """Execute every index; returns when all finished or failed.

        Raises the final cell error under ``on_error="abort"``, and
        :class:`SweepInterrupted` on Ctrl-C — in both cases after every
        already-finished cell went through ``on_complete``.
        """
        self._pending = deque(indices)
        self._attempts: Dict[int, int] = {i: 0 for i in self._pending}
        self._first_start: Dict[int, float] = {}
        self._retry_heap: List[Tuple[float, int, int]] = []
        in_flight: Dict[Future, Tuple[int, int, float]] = {}
        total = len(self._attempts)
        graceful = True
        self.backend.start()
        try:
            while self._pending or in_flight or self._retry_heap:
                now = time.monotonic()
                while self._retry_heap and self._retry_heap[0][0] <= now:
                    _, _, index = heapq.heappop(self._retry_heap)
                    self._pending.append(index)
                self._dispatch(in_flight)
                if not in_flight:
                    # nothing running: only backoff timers remain
                    due = self._retry_heap[0][0] - time.monotonic()
                    if due > 0:
                        time.sleep(min(due, _TICK_S))
                    continue
                done = self.backend.wait(
                    set(in_flight), timeout=self._wait_timeout()
                )
                crashed = False
                for future in done:
                    index, attempt, _ = in_flight.pop(future)
                    try:
                        outcome = future.result()
                    except KeyboardInterrupt:
                        raise
                    except BrokenExecutor as error:
                        crashed = True
                        self._fail(index, attempt, "crash", error)
                    except WorkerKilled as error:
                        # simulated single-worker death (serial)
                        self._fail(index, attempt, "crash", error)
                    # repro: allow[REP302] failure policy: recorded as CellFailure, re-raised under on_error="abort"
                    except Exception as error:
                        self._fail(index, attempt, "exception", error)
                    else:
                        self.results[index] = outcome
                        if self.on_complete is not None:
                            self.on_complete(index, outcome)
                if crashed:
                    # the dead worker broke the whole pool: every other
                    # in-flight cell died with it — charge each one
                    # attempt, rebuild the pool, retry what has budget
                    victims = list(in_flight.values())
                    in_flight.clear()
                    for index, attempt, _ in victims:
                        self._fail(
                            index,
                            attempt,
                            "crash",
                            BrokenExecutor(
                                "worker process died; pool rebuilt"
                            ),
                        )
                    self.backend.restart()
                    continue
                self._expire(in_flight)
        except KeyboardInterrupt:
            graceful = False
            raise SweepInterrupted(
                finished=len(self.results), total=total
            ) from None
        except BaseException:
            graceful = False
            raise
        finally:
            self.backend.shutdown(graceful=graceful)

    # -- helpers -----------------------------------------------------------
    def _dispatch(
        self, in_flight: Dict[Future, Tuple[int, int, float]]
    ) -> None:
        """Top the backend up from the pending queue."""
        while self._pending and len(in_flight) < self.backend.capacity():
            index = self._pending.popleft()
            attempt = self._attempts[index]
            try:
                future = self.backend.submit(index, attempt)
            except BrokenExecutor:
                # the pool died between completions (no future saw it);
                # rebuild and try again — the cell is not charged
                self.backend.restart()
                self._pending.appendleft(index)
                continue
            now = time.monotonic()
            self._first_start.setdefault(index, now)
            in_flight[future] = (index, attempt, now)

    def _wait_timeout(self) -> Optional[float]:
        """How long one wait() may block: finite whenever a deadline or
        a backoff timer needs polling."""
        if self.cell_timeout is not None or self._retry_heap:
            return _TICK_S
        return None

    def _expire(
        self, in_flight: Dict[Future, Tuple[int, int, float]]
    ) -> None:
        """Enforce ``cell_timeout`` on backends that can preempt."""
        if self.cell_timeout is None or self.backend.preemption == "none":
            return
        now = time.monotonic()
        expired = [
            (future, meta)
            for future, meta in in_flight.items()
            if now - meta[2] > self.cell_timeout and not future.done()
        ]
        if not expired:
            return
        # preemption == "restart": reclaiming the hung worker kills the
        # pool, so innocents are re-dispatched — without being charged
        # an attempt (unlike a crash, the culprit is known here)
        expired_futures = {future for future, _ in expired}
        innocents = [
            meta
            for future, meta in in_flight.items()
            if future not in expired_futures
        ]
        in_flight.clear()
        self.backend.restart()
        for index, _, _ in reversed(innocents):
            self._pending.appendleft(index)
        for _, (index, attempt, _) in expired:
            self._timeout_failure(index, attempt)

    def _timeout_failure(self, index: int, attempt: int) -> None:
        self.timed_out += 1
        self._fail(
            index,
            attempt,
            "timeout",
            CellTimeout(
                f"cell {index} exceeded cell_timeout="
                f"{self.cell_timeout}s (attempt {attempt + 1})"
            ),
        )

    def _fail(
        self, index: int, attempt: int, kind: str, error: BaseException
    ) -> None:
        """Route one failed attempt: backoff-retry while budget remains,
        else record (continue) or re-raise (abort)."""
        if attempt < self.retries:
            self.retried += 1
            self._attempts[index] = attempt + 1
            delay = backoff_delay(self.backoff_base, attempt)
            logger.warning(
                "cell %d %s (attempt %d/%d): %s — retrying in %.2fs",
                index, kind, attempt + 1, self.retries + 1, error, delay,
            )
            heapq.heappush(
                self._retry_heap,
                (time.monotonic() + delay, len(self._retry_heap), index),
            )
            return
        elapsed = time.monotonic() - self._first_start.get(
            index, time.monotonic()
        )
        failure = CellFailure(
            index=index,
            kind=kind,
            error_type=type(error).__name__,
            message=str(error),
            attempts=attempt + 1,
            elapsed_s=elapsed,
        )
        self.failures[index] = failure
        logger.warning("cell failed: %s", failure.describe())
        if self.on_error == "abort":
            raise error
