"""The knob census: every config knob moves the model.

A knob that nothing reads still gets a config digest of its own, so a
sweep over it times the same simulation under a new name.  This test
records every read of a ``CoreConfig`` field made from model code while
a small probe set runs, and asserts two things:

* every leaf of ``uconfig.schema()`` but ``name`` is read by the model;
* no field is read from ``repro/sim/``: the emulator takes ``vlen`` as a
  plain int and nothing else, so one emulation can feed any timing
  model.

Reads made by the config plumbing itself (the dataclass machinery,
``config.py``, ``presets.py``, ``uconfig.py``) and by this file do not
count.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import sys

from repro.harness.runner import run_on_core
from repro.mem.tlb import Tlb
from repro.physical.model import PhysicalModel
from repro.uarch import uconfig
from repro.uarch.config import CoreConfig
from repro.uarch.presets import PRESETS, get_preset
from repro.workloads import get_workload

_PLUMBING = ("<string>", __file__, os.sep + "dataclasses.py") + tuple(
    os.path.join(os.sep + "repro", "uarch", name)
    for name in ("config.py", "presets.py", "uconfig.py"))
_SIM = os.path.join(os.sep + "repro", "sim", "")

#: (presets, programs) run through ``run_on_core(tier=3)``: nbench-fourier
#: is the FP multiply/divide kernel, vec-axpy-f32 the vector one, and
#: stream-triad the one whose misses cross pages in the L2 prefetcher
PROBES = [
    (sorted(PRESETS), ["coremark-list", "nbench-fourier", "vec-axpy-f32"]),
    (["xt910"], ["stream-triad"]),
]


def _config_tree(obj, prefix: str, paths: dict[int, str],
                 fields: dict[type, frozenset[str]]) -> None:
    """Dotted prefix of every config object under *obj*, by id."""
    paths[id(obj)] = prefix
    fields[type(obj)] = frozenset(f.name for f in dataclasses.fields(obj))
    for name in fields[type(obj)]:
        value = getattr(obj, name)
        if dataclasses.is_dataclass(value):
            _config_tree(value, f"{prefix}{name}.", paths, fields)


@contextlib.contextmanager
def recording(configs: list[CoreConfig]):
    """Yield the set of (leaf path, reader file) read from *configs*
    while the block runs; a read of a config object outside them has
    the leaf path None."""
    paths: dict[int, str] = {}
    fields: dict[type, frozenset[str]] = {}
    for config in configs:
        _config_tree(config, "", paths, fields)
    reads: set[tuple[str | None, str]] = set()

    def __getattribute__(self, name):
        value = object.__getattribute__(self, name)
        if name in fields[type(self)]:
            reader = sys._getframe(1).f_code.co_filename
            if not reader.endswith(_PLUMBING):
                prefix = paths.get(id(self))
                reads.add((None if prefix is None else prefix + name, reader))
        return value

    for cls in fields:
        cls.__getattribute__ = __getattribute__
    try:
        yield reads
    finally:
        for cls in fields:
            del cls.__getattribute__


def census() -> set[tuple[str | None, str]]:
    """Every (leaf path, reader file) the probe set reads."""
    runs = [(get_preset(preset), get_workload(name).program())
            for presets, names in PROBES for preset in presets
            for name in names]
    configs = [config for config, _ in runs]
    with recording(configs) as reads:
        for config, program in runs:
            run_on_core(program, config, tier=3)
        for config in configs:
            PhysicalModel().estimate(config)
            Tlb(config.mem.tlb).context_switch()
    return reads


def test_every_knob_is_read_and_none_from_the_emulator():
    reads = census()
    read = {path for path, _ in reads}
    unread = sorted(set(uconfig.schema()) - read - {"name"})
    assert not unread, f"knobs nothing reads: {unread}"
    from_sim = sorted({(path, reader) for path, reader in reads
                       if _SIM in reader}, key=str)
    assert not from_sim, f"config read by the emulator: {from_sim}"
