"""SMP: multi-hart execution, its timed write-invalidate cluster, and
the interrupt controllers."""

from .interrupts import Clint, Plic, attach_interrupt_controllers  # noqa: F401
from .runner import SmpMachine, SmpResult, run_smp  # noqa: F401
from .timing import SmpTimingResult, run_smp_timing  # noqa: F401
