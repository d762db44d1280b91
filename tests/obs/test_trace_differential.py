"""Observability must be free when off and invisible when on.

The tracer and profiler hooks sit inside the timing model's hot loop;
the contract (same as ``--sanitize``) is that they only *observe*:
with both hooks attached, ``CoreStats.as_comparable()`` must stay
bit-identical to the committed frozen-oracle snapshot
(``tests/uarch/golden_stats.json``) on every bundled workload — the
equivalence lattice's hooks cells (``tests/integration/test_lattice.py``).
"""

from __future__ import annotations

import pytest

from repro.harness.runner import run_on_core
from repro.workloads import get_workload

from ..integration.test_lattice import ALL, Timed, assert_cells


@pytest.mark.parametrize("name", ALL)
def test_hooks_do_not_change_stats(name):
    """Traced (a 256-record ring, so it wraps) + profiled tier-2 run ==
    golden stats, and both hooks saw every instruction."""
    assert_cells(name, Timed(2, hooks=True))


def test_hooks_default_off():
    """A plain run never touches the hook objects (both stay None)."""
    result = run_on_core(get_workload("coremark-list").program(), "xt910")
    assert result.pipeline.tracer is None
    assert result.pipeline.profiler is None
