"""The one content-addressed result store: LRU front, optional disk back.

Keyed by :meth:`JobSpec.key <repro.service.job.JobSpec.key>` — the full
content address of one deterministic simulation — so a retry of a
finished job, a resubmission of the same program, a duplicate inside
one batch or a sweep cell that was ever simulated (this run, a previous
run, an interrupted run) never reaches a worker.  With a ``root`` the
records also live on disk, which is what makes thousand-point sweeps
incremental across processes; without one the store is the in-memory
cache in front of the pool and nothing more.

One storage policy: a result is stored iff it is *deterministic* —
``COMPLETED``, or an instruction-watchdog ``TIMEOUT`` (its budget is in
the key, so the same partial statistics would come back).  Wall-clock
timeouts, crashes, ``FAILED`` and ``REJECTED`` results must re-execute:
they may have been environmental.

Entries are kept as ``JobResult.to_dict()`` payloads and deep-copied on
every get, so a hit is a fresh object — callers mutating their result
cannot poison the store.  Disk records are JSON files two directory
levels deep (``ab/cdef...``), written atomically; a corrupt or
truncated record is a counted miss (``discards``) that the next put
overwrites, never fatal.
"""

from __future__ import annotations

import copy
import json
import os
from collections import OrderedDict
from typing import Any

from .job import JobResult, JobState


def storable(result: JobResult) -> bool:
    """The storage policy: deterministic results only."""
    return result.state is JobState.COMPLETED or (
        result.state is JobState.TIMEOUT and result.partial)


class ResultStore:
    """Bounded LRU over stored job results, backed by ``root`` if given."""

    def __init__(self, root: str | None = None,
                 capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.root = root
        self.capacity = capacity
        self._front: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.discards = 0

    def _path(self, key: str) -> str:
        assert self.root is not None
        return os.path.join(self.root, key[:2], key[2:] + ".json")

    def _remember(self, key: str, payload: dict[str, Any]) -> None:
        self._front[key] = payload
        self._front.move_to_end(key)
        while len(self._front) > self.capacity:
            self._front.popitem(last=False)

    def _load(self, key: str) -> dict[str, Any] | None:
        """Read one disk record; anything unusable is a counted discard."""
        if self.root is None:
            return None
        try:
            with open(self._path(key)) as handle:
                payload = json.load(handle)
            JobResult.from_dict(payload)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, TypeError, KeyError):
            self.discards += 1
            return None
        assert isinstance(payload, dict)
        return payload

    def get(self, key: str) -> JobResult | None:
        payload = self._front.get(key)
        if payload is None:
            payload = self._load(key)
            if payload is None:
                self.misses += 1
                return None
        self._remember(key, payload)
        self.hits += 1
        # Deep copy: from_dict's shallow copy would share the nested
        # metrics/error dicts with the store, so a caller mutating its
        # hit could poison every later hit.
        result = JobResult.from_dict(copy.deepcopy(payload))
        result.cache_hit = True
        return result

    def put(self, key: str, result: JobResult) -> bool:
        """Store a deterministic result; False for everything else."""
        if not storable(result):
            return False
        payload = result.to_dict()
        payload["cache_hit"] = False
        self._remember(key, payload)
        if self.root is not None:
            path = self._path(key)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tmp = f"{path}.tmp.{os.getpid()}"
            with open(tmp, "w") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp, path)
        return True

    def counters(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._front), "discards": self.discards}


__all__ = ["ResultStore", "storable"]
