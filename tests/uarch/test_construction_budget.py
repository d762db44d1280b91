"""A deterministic budget for building a timing model.

A timed job builds its ``PipelineModel`` before it simulates anything,
and every object the model owns is traversed again by each garbage
collection that reaches it.  This test builds ``PipelineModel`` for the
``xt910`` preset and pins the bytes it allocates (``tracemalloc``) and
the GC-tracked objects it adds, at the measured value + 10 %.  Both are
functions of the source and the interpreter only, not of the host; they
depend on the interpreter's object layouts, so the budget holds for the
CPython minor version it was measured on and is skipped on others.

For scale: with a 32K-cycle booking window and every cache set built
eagerly, the same model allocated 2.90 MB in 3155 tracked objects.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

import pytest

from repro.mem import cache
from repro.uarch.core import PipelineModel
from repro.uarch.presets import get_preset

#: Bytes allocated by ``PipelineModel(config)`` for the ``xt910``
#: preset's config (built beforehand, so not counted); measured
#: 498 256 when committed.  Raise it only with the reason in the commit
#: message — every timed job pays it.
BYTES_BUDGET = 548_000
#: GC-tracked objects the same construction adds; measured 595.
OBJECTS_BUDGET = 654
BUDGET_PYTHON = (3, 11)


def test_caches_start_with_every_set_shared_and_empty():
    hier = PipelineModel(get_preset("xt910")).hier
    for level in (hier.l1i, hier.l1d, hier.l2):
        assert all(s is cache._EMPTY_SET for s in level._sets), level.name


@pytest.mark.skipif(
    sys.version_info[:2] != BUDGET_PYTHON,
    reason="the construction budget was measured on CPython "
           f"{'.'.join(map(str, BUDGET_PYTHON))}; object layouts differ "
           "between interpreter versions")
def test_model_construction_stays_inside_its_budget():
    config = get_preset("xt910")
    PipelineModel(config)   # first-use work (lazy imports) is not the model's
    gc.collect()
    objects_before = len(gc.get_objects())
    tracemalloc.start()
    try:
        model = PipelineModel(config)
        allocated, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    gc.collect()
    objects = len(gc.get_objects()) - objects_before
    del model
    assert allocated <= BYTES_BUDGET, \
        f"PipelineModel() allocated {allocated} bytes > {BYTES_BUDGET}"
    assert objects <= OBJECTS_BUDGET, \
        f"PipelineModel() added {objects} tracked objects > {OBJECTS_BUDGET}"
