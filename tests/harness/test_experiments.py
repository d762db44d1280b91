"""The paper's figures as service jobs, and the RAS campaign on the pool.

Pins the quick metrics of table1, fig18, fig19 and fig20 (committed in
``experiment_metrics.json``), checks that a parallel figure run equals
the serial one and leaves no child behind, that failed figure cells are
named together after their siblings ran, and that a RAS flip whose
worker dies is counted instead of aborting the campaign.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.harness import (
    EXPERIMENTS,
    fig17,
    fig18,
    ras_campaign,
    run_experiment,
    run_fig20,
    table1,
)
from repro.harness.explore import CellFailure
from repro.service import core as service_core
from repro.workloads import Workload

PINNED = json.loads(
    (Path(__file__).parent / "experiment_metrics.json").read_text())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_quick_metrics_are_pinned(name):
    result = EXPERIMENTS[name](quick=True)
    assert result.to_json_dict()["metrics"] == PINNED[name]


def test_parallel_figure_equals_serial_and_reaps_its_workers():
    serial = run_fig20(quick=True).to_json_dict()
    assert run_fig20(quick=True, jobs=2).to_json_dict() == serial
    assert multiprocessing.active_children() == []


def test_run_experiment_passes_jobs_only_where_taken():
    assert run_experiment("table2", quick=True, jobs=2).experiment \
        == "table2"   # run_table2 takes no jobs
    assert run_experiment("table1", quick=True, jobs=2).to_json_dict() \
        == run_experiment("table1", quick=True).to_json_dict()


def test_table1_fails_when_a_cluster_hart_exits_nonzero(monkeypatch):
    # Hart 0 exits 0, so the single-core smoke cells pass; hart 1 of
    # the first 2-core cluster run exits 1.
    monkeypatch.setattr(table1, "_SMOKE", Workload("table1-smoke", """
_start:
    csrr a0, mhartid
    snez a0, a0
    li a7, 93
    ecall
""", compress=False))
    with pytest.raises(RuntimeError,
                       match=r"2-core cluster .* exit codes \[0, 1\]"):
        table1.run_table1(quick=True)


def test_fig17_without_its_anchor_fails_before_simulating(monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking the anchor")

    monkeypatch.setattr(fig17, "time_cells", no_simulation)
    with pytest.raises(ValueError, match="xt910"):
        fig17.run_fig17(cores=["u74", "u54"])


def test_failed_cells_are_named_after_siblings_finish(monkeypatch):
    good = fig18.eembc_suite()[0]
    bad = Workload("exits-3", "li a0, 3\nli a7, 93\necall\n")
    monkeypatch.setattr(fig18, "eembc_suite", lambda: [bad, good])
    ran: list[str] = []
    execute = service_core.execute_job

    def recording(payload):
        ran.append(payload["spec"]["name"])
        return execute(payload)

    monkeypatch.setattr(service_core, "execute_job", recording)
    with pytest.raises(CellFailure) as excinfo:
        fig18.run_fig18(quick=True)
    failure = excinfo.value
    assert failure.total == 4
    assert [f.cell for f in failure.failures] == \
        [(bad.name, "xt910"), (bad.name, "cortex-a73")]
    message = str(failure)
    assert "2 of 4 cells failed" in message
    assert message.count("guest-fault: program exited with 3") == 2
    # every sibling ran before the failure surfaced
    assert sorted(ran) == sorted(f"{w.name}@{w.name}/{core}"
                                 for w in (bad, good)
                                 for core in ("xt910", "cortex-a73"))


_INJECT = ras_campaign._inject


def _die_on_array_flips(cell):
    """The pool task for the crash test: the worker dies on array flips
    (cells alternate arch, array, arch, ...)."""
    if cell[0] == "array":
        os._exit(70)
    return _INJECT(cell)


def test_ras_worker_death_is_one_unhandled_flip(monkeypatch):
    monkeypatch.setattr(ras_campaign, "_inject", _die_on_array_flips)
    campaign = ras_campaign.run_campaign(n=4, control_n=0, jobs=2)
    outcomes = [inj.outcome for inj in campaign.injections]
    assert outcomes[1] == outcomes[3] == "unhandled"
    assert campaign.injections[1].detail == "crash: worker exit code 70"
    assert "unhandled" not in (outcomes[0], outcomes[2])
    assert campaign.unhandled == 2
    assert multiprocessing.active_children() == []
