"""Content-keyed artifact cache behind the scenario engine.

The sweep engine splits a federation run into stages (data → pre-train →
federate → evaluate).  The data and pre-train stages are pure functions
of their inputs, so their outputs are cached here under **content
keys** — stable hashes of everything that determines the result
bit-for-bit.  Two layers:

* an **in-memory memo** shared by all cells of a sweep (and by every
  sweep run through the same engine);
* an optional **on-disk store** (``cache_dir``) holding fingerprint
  datasets and pre-trained GM states as ``.npz`` archives and finished
  cell results as JSON, which is what makes partially completed sweeps
  resumable across processes.

Cells run inline or in worker processes, never on threads, so one
cache is only ever touched by one thread; process workers each hold
their own memo and share only through ``cache_dir``.

Keys include a schema version; bump :data:`SCHEMA_VERSION` whenever the
meaning of a cached payload changes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.data.datasets import FingerprintDataset
from repro.fl.state import state_signature
from repro.nn.serialization import StateDict, load_state, save_state

__all__ = [
    "ArtifactCache",
    "StageStats",
    "content_key",
    "state_signature",
]

#: bump when cached payload semantics change (invalidates old cache dirs)
SCHEMA_VERSION = 1


def content_key(payload: Dict) -> str:
    """Stable 16-hex-digit key from a JSON-serializable payload."""
    canonical = json.dumps(
        {"schema": SCHEMA_VERSION, **payload}, sort_keys=True, default=str
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


class StageStats:
    """Hit/miss counters per pipeline stage."""

    def __init__(self):
        self._counts: Dict[str, Dict[str, int]] = {}

    def record(self, stage: str, hit: bool) -> None:
        entry = self._counts.setdefault(stage, {"hits": 0, "misses": 0})
        entry["hits" if hit else "misses"] += 1

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        return {stage: dict(c) for stage, c in self._counts.items()}

    def merge(self, counts: Dict[str, Dict[str, int]]) -> None:
        """Fold another process's counter deltas into these stats (the
        sweep engine's process executor reports per-worker counters)."""
        for stage, stage_counts in counts.items():
            entry = self._counts.setdefault(stage, {"hits": 0, "misses": 0})
            for kind, value in stage_counts.items():
                entry[kind] = entry.get(kind, 0) + value

    @staticmethod
    def delta(
        before: Dict[str, Dict[str, int]], after: Dict[str, Dict[str, int]]
    ) -> Dict[str, Dict[str, int]]:
        """Counter difference between two snapshots (one sweep's share)."""
        out: Dict[str, Dict[str, int]] = {}
        for stage, counts in after.items():
            base = before.get(stage, {})
            diff = {
                kind: counts[kind] - base.get(kind, 0) for kind in counts
            }
            if any(diff.values()):
                out[stage] = diff
        return out


class ArtifactCache:
    """Two-layer (memory + optional disk) cache for stage artifacts.

    Args:
        cache_dir: Root directory for the on-disk layer, or ``None`` for a
            purely in-memory cache (artifacts still shared within the
            process, nothing persisted).
    """

    def __init__(self, cache_dir: Optional[str] = None):
        self.cache_dir = cache_dir
        self.stats = StageStats()
        self._memo: Dict[Tuple[str, str], object] = {}

    # -- generic get-or-compute -------------------------------------------
    def get_or_compute(
        self,
        stage: str,
        key: str,
        compute: Callable[[], object],
        load_disk: Optional[Callable[[str], object]] = None,
        save_disk: Optional[Callable[[str, object], None]] = None,
        suffix: str = "",
    ) -> Tuple[object, bool]:
        """Return ``(artifact, was_hit)`` for one stage/key.

        Lookup order: in-memory memo, then disk (when configured), then
        ``compute()``.
        """
        memo_key = (stage, key)
        if memo_key in self._memo:
            self.stats.record(stage, hit=True)
            return self._memo[memo_key], True
        path = self._path(stage, key, suffix)
        artifact = None
        hit = False
        if path and load_disk and os.path.exists(path):
            try:
                artifact = load_disk(path)
                hit = True
            # repro: allow[REP302] killed-writer/tampered cache entry: recompute, don't crash the sweep
            except Exception:
                # a killed writer predating atomic replace, or manual
                # tampering — recompute rather than crash the sweep
                # (another process may win the same cleanup race)
                with contextlib.suppress(OSError):
                    os.remove(path)
        if not hit:
            artifact = compute()
            if path and save_disk:
                os.makedirs(os.path.dirname(path), exist_ok=True)
                # write-to-temp + rename so an interrupted sweep never
                # leaves a truncated artifact behind; the temp name
                # keeps the suffix (save_state appends .npz otherwise)
                # and is per-process so cache dirs shared across
                # processes never interleave writes into one temp file
                tmp = self._path(stage, _tmp_name(key), suffix)
                save_disk(tmp, artifact)
                os.replace(tmp, path)
        self._memo[memo_key] = artifact
        self.stats.record(stage, hit=hit)
        return artifact, hit

    def _path(self, stage: str, key: str, suffix: str = "") -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, stage, key + suffix)

    # -- datasets ---------------------------------------------------------
    def get_datasets(
        self,
        key: str,
        compute: Callable[[], Tuple[FingerprintDataset, Dict[str, FingerprintDataset]]],
    ) -> Tuple[Tuple[FingerprintDataset, Dict[str, FingerprintDataset]], bool]:
        """The (train, per-device tests) bundle of one building survey."""
        return self.get_or_compute(
            "data",
            key,
            compute,
            load_disk=_load_datasets,
            save_disk=_save_datasets,
            suffix=".npz",
        )

    # -- pre-trained states -----------------------------------------------
    def get_pretrained(
        self, key: str, compute: Callable[[], StateDict]
    ) -> Tuple[StateDict, bool]:
        """The post-pre-train GM state dict for one model/data pairing."""
        return self.get_or_compute(
            "pretrain",
            key,
            compute,
            load_disk=load_state,
            save_disk=lambda path, state: save_state(state, path),
            suffix=".npz",
        )

    # -- finished cells (resume) ------------------------------------------
    def load_cell(self, key: str) -> Optional[Dict]:
        """A previously stored cell record, or None."""
        path = self._path("cells", key, ".json")
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            # torn or tampered record: recompute rather than crash resume
            with contextlib.suppress(OSError):
                os.remove(path)
            return None

    def store_cell(self, key: str, record: Dict) -> None:
        """Persist one finished cell for later resumption."""
        path = self._path("cells", key, ".json")
        if path is None:
            return
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = self._path("cells", _tmp_name(key), ".json")
        with open(tmp, "w") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
        os.replace(tmp, path)


def _tmp_name(key: str) -> str:
    """Per-process temp basename for one artifact key."""
    return f".tmp-{os.getpid()}-{key}"


def _save_datasets(
    path: str,
    bundle: Tuple[FingerprintDataset, Dict[str, FingerprintDataset]],
) -> None:
    train, tests = bundle
    arrays: Dict[str, np.ndarray] = {
        "train.features": train.features,
        "train.labels": train.labels,
    }
    meta = {"building": train.building, "train_device": train.device,
            "test_devices": sorted(tests)}
    for device, dataset in tests.items():
        arrays[f"test.{device}.features"] = dataset.features
        arrays[f"test.{device}.labels"] = dataset.labels
    arrays["meta"] = np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8
    ).copy()
    np.savez_compressed(path, **arrays)


def _load_datasets(
    path: str,
) -> Tuple[FingerprintDataset, Dict[str, FingerprintDataset]]:
    with np.load(path) as archive:
        meta = json.loads(bytes(archive["meta"]).decode())
        train = FingerprintDataset(
            archive["train.features"],
            archive["train.labels"],
            building=meta["building"],
            device=meta["train_device"],
        )
        tests = {
            device: FingerprintDataset(
                archive[f"test.{device}.features"],
                archive[f"test.{device}.labels"],
                building=meta["building"],
                device=device,
            )
            for device in meta["test_devices"]
        }
    return train, tests
