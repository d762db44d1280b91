"""RAS (reliability/availability/serviceability) subsystem.

A commercial core survives soft errors; this package gives the model
the same story:

* :mod:`repro.ras.injector` — deterministic seeded fault injection
  into registers, PC, cache data/tag arrays, and TLB entries,
* :mod:`repro.ras.lockstep` — a golden shadow emulator diffing
  architectural state every retire,
* machine-check delivery and the watchdog live in
  :mod:`repro.sim.emulator` (re-exported here),
* the injection campaign runner lives in
  :mod:`repro.harness.ras_campaign`.
"""

from ..sim.emulator import MachineCheckError, WatchdogExpired  # noqa: F401
from .injector import (  # noqa: F401
    ALL_TARGETS,
    ARCH_TARGETS,
    ARRAY_TARGETS,
    FaultInjector,
    FaultPlan,
    FaultRecord,
    FaultTarget,
)
from .lockstep import (  # noqa: F401
    Divergence,
    LockstepChecker,
    LockstepResult,
    check_program,
)
