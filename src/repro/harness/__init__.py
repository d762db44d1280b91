"""Experiment harness: one runner per paper table/figure.

``run_experiment(name)`` runs one entry of ``EXPERIMENTS``;
``python -m repro.harness`` runs and prints them.
"""

from __future__ import annotations

import inspect

from .asid import run_asid  # noqa: F401
from .blockchain import run_blockchain  # noqa: F401
from .explore import run_explore  # noqa: F401
from .fig17 import run_fig17  # noqa: F401
from .fig18 import run_fig18  # noqa: F401
from .fig19 import run_fig19  # noqa: F401
from .fig20 import run_fig20  # noqa: F401
from .fig21 import run_fig21  # noqa: F401
from .lintsweep import run_lint  # noqa: F401
from .ras_campaign import run_campaign, run_ras  # noqa: F401
from .report import ExperimentResult, Row, geomean  # noqa: F401
from .runner import RunResult, run_on_core  # noqa: F401
from .spec import run_spec  # noqa: F401
from .table1 import run_table1  # noqa: F401
from .table2 import run_table2  # noqa: F401
from .vecmac import run_vecmac  # noqa: F401


def run_service(quick: bool = True, jobs: int | None = None):
    """The chaos-campaign robustness experiment (``repro.service``).

    Imported lazily: the service's job worker runs cells through this
    package (``harness.runner``), so a top-level import would be
    circular.  ``jobs`` sets the service's worker-pool width.
    """
    from ..service.chaos import run_service as _run_service

    return _run_service(quick=quick, jobs=jobs)


EXPERIMENTS = {
    "table1": run_table1,
    "table2": run_table2,
    "fig17": run_fig17,
    "fig18": run_fig18,
    "fig19": run_fig19,
    "fig20": run_fig20,
    "fig21": run_fig21,
    "spec": run_spec,
    "asid": run_asid,
    "vecmac": run_vecmac,
    "blockchain": run_blockchain,
    "ras": run_ras,
    "lint": run_lint,
    "service": run_service,
    "explore": run_explore,
}


def run_experiment(name: str, quick: bool = True,
                   jobs: int | None = None) -> ExperimentResult:
    """Run one experiment; ``jobs`` fans its independent cells out over
    that many worker processes where the experiment supports it."""
    fn = EXPERIMENTS[name]
    kwargs: dict = {"quick": quick}
    if jobs is not None and "jobs" in inspect.signature(fn).parameters:
        kwargs["jobs"] = jobs
    return fn(**kwargs)
