"""Job schema: what users submit and what the service returns.

A :class:`JobSpec` is a plain, picklable description of one simulation
request — assembly source plus execution knobs.  :meth:`JobSpec.key`
is its content address — the one key of the one result store
(:mod:`repro.service.store`): ``program_hash`` covers the guest program
bytes-to-be, the digest of the *resolved* config covers every timing
knob however the core was named, mode, budget and vetting cover the
rest of the request, and :func:`repro.source_digest` covers the
simulator that answers it — so retries, repeat submissions and sweep
cells of identical work are free, and an edited simulator never reads
a record the old one wrote.

A :class:`JobResult` is the service's *only* answer shape: every job —
completed, degraded, timed out, rejected, crashed-out or quarantined —
terminates in exactly one terminal :class:`JobState` with a
serializable error chain when it did not complete.  "Every submitted
job reaches a definitive state" is the invariant the chaos harness
(:mod:`repro.service.chaos`) exists to prove.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Any

from .. import source_digest
from ..uarch import uconfig
from ..uarch.config import CoreConfig

#: Result-record schema version; part of every store key so old
#: records are invisible after an incompatible change.
STORE_VERSION = 2

#: the pinned (single-rung) mode per execution tier
TIER_MODES = {1: "precise", 2: "fast", 3: "tier3"}


class JobState(str, Enum):
    """Lifecycle states; everything below PENDING/RUNNING is terminal."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"      # ran to exit (possibly degraded)
    TIMEOUT = "timeout"          # watchdog fired; partial data attached
    FAILED = "failed"            # structured ServiceError, all retries spent
    REJECTED = "rejected"        # admission vetting refused the program
    QUARANTINED = "quarantined"  # circuit breaker: program hash is toxic


TERMINAL_STATES = frozenset({
    JobState.COMPLETED, JobState.TIMEOUT, JobState.FAILED,
    JobState.REJECTED, JobState.QUARANTINED,
})


@dataclass
class JobSpec:
    """One simulation request.

    ``core=None`` runs the functional emulator only; a preset name adds
    the 12-stage timing model.  ``uarch`` optionally carries an inline
    config *document* (the ``repro.uarch.uconfig`` schema — what
    ``--uarch file.yaml --extend overlay.yaml`` resolves to): when set
    it defines the timing core and is schema-validated at admission
    (invalid documents are REJECTED, never executed).  Either way the
    *resolved* config is what :meth:`key` digests, so a preset name,
    its committed document and a partial overlay of the same point
    share one store entry and differently-configured runs never do.
    ``max_insts=None`` leaves the emulator's own watchdog limit in
    place.  ``mode`` selects the execution tier:
    ``"tier3"`` (specializing translator), ``"fast"`` (block-translation
    cache), ``"precise"`` (per-step interpreter) or ``"auto"`` — tier-3
    with automatic fast-then-precise fallback when a tier fails or
    diverges (the degradation ladder).  ``chaos`` is the deterministic
    fault-injection door used by the chaos harness; production
    submissions leave it empty.
    """

    source: str
    name: str = "job"
    core: str | None = "xt910"
    uarch: dict[str, Any] | None = None
    mode: str = "auto"
    max_insts: int | None = 5_000_000
    wall_timeout_s: float | None = 60.0
    compress: bool = True
    vet: bool = True
    chaos: dict[str, Any] = field(default_factory=dict)

    @property
    def program_hash(self) -> str:
        """Content hash of the guest program (source + encoding knobs)."""
        blob = f"{self.compress}\x00{self.source}".encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def resolve_core(self) -> CoreConfig | None:
        """The timing core this spec names (None: functional only).

        Raises :class:`~repro.uarch.uconfig.UconfigError` for an
        unknown name or a document that fails schema validation, and
        ``OSError`` for an unreadable document path.
        """
        named = self.uarch if self.uarch is not None else self.core
        return None if named is None else uconfig.resolve_core(named)

    def key(self) -> str:
        """The content address of this job's (deterministic) result:
        everything that changes the answer, nothing that does not."""
        core = self.resolve_core()
        parts = (STORE_VERSION, source_digest(), self.program_hash,
                 "functional" if core is None
                 else uconfig.config_digest(core),
                 self.mode, self.max_insts, self.vet)
        blob = "\x00".join(str(part) for part in parts)
        return hashlib.sha256(blob.encode()).hexdigest()

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "JobSpec":
        return cls(**payload)


@dataclass
class JobResult:
    """The definitive outcome of one job."""

    name: str
    state: JobState
    job_id: int = 0
    attempts: int = 1
    duration_s: float = 0.0
    exit_code: int | None = None
    error: dict[str, Any] | None = None
    metrics: dict[str, Any] = field(default_factory=dict)
    stdout: str = ""
    downgraded: bool = False
    downgrade_reason: str | None = None
    cache_hit: bool = False
    partial: bool = False
    program_hash: str = ""

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def ok(self) -> bool:
        return self.state is JobState.COMPLETED

    def to_dict(self) -> dict[str, Any]:
        payload = asdict(self)
        payload["state"] = self.state.value
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "JobResult":
        data = dict(payload)
        data["state"] = JobState(data["state"])
        return cls(**data)

    def summary(self) -> str:
        """One line for the ``repro submit`` table."""
        bits = [self.state.value]
        if self.downgraded:
            bits.append("degraded")
        if self.cache_hit:
            bits.append("cached")
        if self.partial:
            bits.append("partial")
        if self.attempts > 1:
            bits.append(f"{self.attempts} attempts")
        head = f"{self.name}: {', '.join(bits)}"
        if self.state is JobState.COMPLETED and "ipc" in self.metrics:
            head += (f"  cycles={self.metrics.get('cycles')} "
                     f"ipc={self.metrics['ipc']:.3f}")
        elif self.state is JobState.COMPLETED:
            head += f"  instret={self.metrics.get('instret')}"
        elif self.error is not None:
            head += f"  [{self.error['kind']}] {self.error['message']}"
        return head


__all__ = ["JobSpec", "JobResult", "JobState", "TERMINAL_STATES",
           "STORE_VERSION", "TIER_MODES"]
