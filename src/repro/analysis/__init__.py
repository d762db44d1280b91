"""Static analysis for guest RISC-V programs.

Recovers a whole-program CFG from the decoded text section, runs
classic dataflow passes (definite initialization, liveness) and a
checker suite on top: maybe-uninitialized register reads, ABI
violations, vector-configuration hazards, LR/SC pairing and
statically-wild memory addressing.  ``python -m repro lint`` is the
command-line entry point; :mod:`repro.analysis.sanitize` feeds the
static facts back into the emulator at run time.
"""

from .cfg import CFG, BasicBlock, Function, build_cfg  # noqa: F401
from .checks import Finding, run_checks  # noqa: F401
from .lint import (  # noqa: F401
    LintReport,
    compare_to_baseline,
    lint_program,
    lint_source,
    lint_workloads,
    load_baseline,
    save_baseline,
)
from .sanitize import Sanitizer, SanitizerViolation, Violation  # noqa: F401
