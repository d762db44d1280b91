"""Property test: tier-3 compiled execution == precise interpretation.

The tier-3 twin of ``test_fast_equivalence``: Hypothesis generates
random short programs over the same template pool (branches, RVC
encodings, ``fence.i`` mid-run, stores near code, the ``ecall`` exit
shim) and asserts the specializing translator retires the identical
DynInst sequence, register file, memory digest and CoreStats
comparables as ``Emulator.step()``.  The translator constant-folds
register indices and immediates into generated Python, so this is the
fuzz gate on the emitted code itself — every template that codegen
specializes (ALU forms, loads/stores, branches) is reachable here.
"""

import hashlib

from hypothesis import given, settings, strategies as st

from repro.asm import assemble
from repro.sim import Emulator
from repro.uarch.core import PipelineModel
from repro.uarch.presets import get_preset

from .test_fast_equivalence import _FIELDS, short_program


def _snap(dyn):
    return (dyn.inst.spec.mnemonic,) + tuple(
        getattr(dyn, f) for f in _FIELDS)


def _digest(emulator):
    mem = emulator.state.memory
    digest = hashlib.sha256()
    for base in sorted(mem._pages):
        digest.update(base.to_bytes(8, "little"))
        digest.update(bytes(mem._pages[base]))
    return digest.hexdigest()


@settings(max_examples=30, deadline=None)
@given(short_program(), st.booleans())
def test_tier3_matches_precise(source, compress):
    precise = Emulator(assemble(source, compress=compress))
    precise_stream = [_snap(d) for (d,) in precise.trace(100_000)]

    tier3 = Emulator(assemble(source, compress=compress))
    tier3_stream = []
    for batch in tier3.trace(100_000, tier=3):
        tier3_stream.extend(_snap(d) for d in batch)

    assert precise_stream == tier3_stream
    assert list(precise.state.regs) == list(tier3.state.regs)
    assert precise.state.pc == tier3.state.pc
    assert precise.state.instret == tier3.state.instret
    assert precise.exit_code == tier3.exit_code
    assert _digest(precise) == _digest(tier3)


@settings(max_examples=10, deadline=None)
@given(short_program())
def test_tier3_timing_stats_match_precise(source):
    """CoreStats comparables are tier-invariant: the timing model fed
    by ``trace(tier=3)`` must count exactly what the precise stream
    produces."""
    config = get_preset("xt910")

    precise_model = PipelineModel(config)
    precise_model.run(Emulator(assemble(source)).trace(100_000))

    tier3_model = PipelineModel(config)
    tier3_model.run(Emulator(assemble(source)).trace(100_000, tier=3))

    assert (tier3_model.stats.as_comparable()
            == precise_model.stats.as_comparable())
