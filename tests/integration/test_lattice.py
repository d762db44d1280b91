"""The equivalence lattice: every reachable corner against the precise one.

Functional corners must retire the precise corner's records
(:func:`project`) and end in its ``Emulator.fingerprint()``, and a
program with a Python reference must store it at its result symbol in
each of them (so a fault every tier shares still shows); timing
corners must give the frozen oracle's ``CoreStats.as_comparable()``.
Axes, the reachability rule and the proofs are in DESIGN.md
("Equivalence lattice").  Tier 1 runs :data:`PLAN` and one hypothesis
property; older test names elsewhere are views onto plan cells
(:func:`assert_cells`), each run once per process, or onto one corner
for random programs (:func:`assert_random`).  As a script it runs
every reachable cell and exits 1 on any mismatch::

    PYTHONPATH=src python tests/integration/test_lattice.py
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import functools
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import Sanitizer
from repro.harness.runner import GuestExit, run_on_core
from repro.isa.csr import TrapCause
from repro.mem.hierarchy import MemoryHierarchy
from repro.obs import GuestProfiler, PipelineTracer
from repro.service import JobService, JobSpec, ResultStore
from repro.service.job import TIER_MODES
from repro.sim import Emulator, WatchdogExpired, exec_vector
from repro.sim.trace import RecordBatch
from repro.smp.runner import SmpMachine
from repro.uarch import uconfig
from repro.uarch.core import PipelineModel
from repro.uarch.presets import PRESETS, get_preset
from repro.uarch.refmodel import ReferencePipelineModel
from repro.workloads import Workload, all_workloads, get_workload
from repro.workloads.vector import vec_gather, vec_memcpy

GOLDEN = json.loads((Path(__file__).parents[1] / "uarch"
                     / "golden_stats.json").read_text())
OVERLAYS = Path(__file__).parents[2] / "configs" / "overlays"

FIELDS = ("seq", "pc", "next_pc", "taken", "target", "mem_addr",
          "mem_size", "vl", "sew", "div_bits")


def project(record) -> tuple:
    """What every corner must retire identically, record by record."""
    return (record.inst.spec.mnemonic,
            *(getattr(record, field) for field in FIELDS))


def stream(batches, cut: bool = False) -> list[tuple]:
    """The projected records of a batched trace; ``cut`` keeps those
    retired before the step watchdog fires."""
    records: list[tuple] = []
    try:
        for batch in batches:
            records.extend(project(record) for record in batch)
    except WatchdogExpired:
        if not cut:
            raise
    return records


# -- the corner table ---------------------------------------------------------

@dataclass(frozen=True)
class Corner:
    def __str__(self) -> str:
        return type(self).__name__.lower() + "".join(
            f" {field.name}={getattr(self, field.name)}"
            for field in dataclasses.fields(self)
            if getattr(self, field.name) != field.default)


@dataclass(frozen=True)
class Functional(Corner):
    tier: int
    engine: str = "numpy"
    cache: str = ""            # tier 3: "cold" or "warm"
    sanitizer: bool = False    # tier 2 (a sanitizer caps tier 3 there)
    smp: bool = False          # tier 1: SmpMachine(program, cores=1)
    vlen: int = 128            # oracle: the precise corner at this VLEN


@dataclass(frozen=True)
class Timed(Corner):
    tier: int = 2
    feed: str = "batches"      # or "lists", or "chunks" of 7 (run_quantum)
    hooks: bool = False        # PipelineTracer(window=256) + GuestProfiler
    model: str = "stream"      # or "reference"
    path: str = "core"         # run_on_core, or a "job" and a "store" hit
    preset: str = "xt910"
    vlen: int = 128            # else the preset + configs/overlays/vlen<N>


PRECISE = Functional(tier=1)
TIERS = (1, 2, 3)
WIDE = 256

#: every corner, in the order a program runs them (a warm corner reads
#: what its cold one persisted, a store corner what its job stored)
CORNERS: tuple = tuple(
    [Functional(tier, engine, cache, sanitizer, smp)
     for engine in ("numpy", "ref")
     for tier, cache, sanitizer, smp in (
         (1, "", False, False), (2, "", False, False),
         (2, "", True, False), (3, "cold", False, False),
         (3, "warm", False, False), (1, "", False, True))
     if (tier, engine, smp) != (1, "numpy", False)]
    + [Timed(tier, feed, hooks) for tier in TIERS
       for feed in ("batches", "lists", "chunks") for hooks in (False, True)]
    + [Timed(tier, model="reference") for tier in TIERS]
    + [Timed(tier, path=path) for path in ("job", "store") for tier in TIERS]
    + [Timed(2, preset=preset) for preset in sorted(PRESETS)
       if preset != "xt910"]
    + [Functional(tier, engine, "cold" if tier == 3 else "", vlen=WIDE)
       for engine in ("numpy", "ref") for tier in TIERS
       if (tier, engine) != (1, "numpy")]
    + [Timed(3, vlen=WIDE)])


def reachable(corner, run: Run) -> bool:
    """The ref engine and another VLEN only for programs that retire
    vector code, the reference model only where the oracle is not
    itself, the service only for guests that exit 0 (a timed job fails
    on any other)."""
    if (isinstance(corner, Functional) and corner.engine == "ref"
            or corner.vlen != PRECISE.vlen):
        return run.precise()["vector records"] > 0
    if isinstance(corner, Functional):
        return True
    if corner.model == "reference":
        return run.golden(corner) is not None
    return corner.path == "core" or run.precise()["exit_code"] == 0


# -- running one corner -------------------------------------------------------

@contextlib.contextmanager
def _calls(cls, name: str):
    """(self, first argument) of every ``cls.name`` call, however deep
    the call that makes it."""
    seen, method = [], getattr(cls, name)

    def recording(self, first, *args, **kwargs):
        seen.append((self, first))
        return method(self, first, *args, **kwargs)

    setattr(cls, name, recording)
    try:
        yield seen
    finally:
        setattr(cls, name, method)


def config_of(corner: Timed):
    """The core a timed corner runs on."""
    if corner.vlen == PRECISE.vlen:
        return get_preset(corner.preset)
    return uconfig.resolve_core(
        corner.preset, [str(OVERLAYS / f"vlen{corner.vlen}.yaml")])


def _failed(proofs: dict) -> list[str]:
    """Proofs are keyed by what to report when they do not hold."""
    return [text for text, holds in proofs.items() if not holds]


class Run:
    """One program: its precise answer and oracles (each computed once),
    the verdict of each corner, and the scratch its corners share."""

    def __init__(self, workload: Workload, scratch: str):
        self.workload, self.scratch = workload, scratch
        self.program = workload.program()
        #: what the program must store at its result symbol (None: it
        #: has no Python reference)
        self.reference = (workload.reference() if workload.reference
                          else None)
        #: VLEN -> the precise corner's answer at that VLEN
        self.answers: dict[int, dict] = {}
        #: (preset, VLEN) -> the reference model's stats
        self.references: dict[tuple[str, int], dict] = {}
        #: (engine, VLEN) -> the code cache its cold tier-3 run persisted
        #: (or None)
        self.warm: dict[tuple[str, int], str | None] = {}
        self.verdicts: dict = {}

    def precise(self, vlen: int = PRECISE.vlen) -> dict:
        if vlen not in self.answers:
            answer, failed = self.functional(
                dataclasses.replace(PRECISE, vlen=vlen))
            assert not failed, failed
            self.answers[vlen] = answer
        return self.answers[vlen]

    def golden(self, corner: Timed) -> dict | None:
        return (GOLDEN.get(self.workload.name)
                if (corner.preset, corner.vlen) == ("xt910", PRECISE.vlen)
                else None)

    def oracle(self, corner: Timed) -> dict:
        if self.golden(corner) is not None:
            return self.golden(corner)
        key = corner.preset, corner.vlen
        if key not in self.references:
            config = config_of(corner)
            model = ReferencePipelineModel(config, MemoryHierarchy(config.mem))
            self.references[key] = model.run(Emulator(
                self.program, vlen=config.vlen).trace(None, tier=1)
            ).as_comparable()
        return self.references[key]

    def verdict(self, corner) -> str | None:
        """None when *corner* cannot run this program; else every field
        that differs and every proof that failed ("" when none)."""
        if corner not in self.verdicts:
            self.verdicts[corner] = self._judge(corner)
        return self.verdicts[corner]

    def _judge(self, corner) -> str | None:
        if not reachable(corner, self):
            return None
        if isinstance(corner, Functional):
            outcome, want = self.functional(corner), self.precise(corner.vlen)
            if outcome is None:
                return None
        else:
            outcome, want = self.timed(corner), self.oracle(corner)
        got, failed = outcome
        if (isinstance(corner, Functional) and self.reference is not None
                and got["result"] != self.reference):
            failed = [*failed, "result is not the workload's reference"]
        return ", ".join(sorted(key for key in want.keys() | got.keys()
                                if want.get(key) != got.get(key))
                         + [f"proof: {text}" for text in failed])

    def functional(self, corner: Functional):
        """(answer, failed proofs), or None for a warm corner whose cold
        run persisted nothing."""
        cache_dir, warm = None, (corner.engine, corner.vlen)
        if corner.cache == "warm":
            if warm not in self.warm:
                self.functional(dataclasses.replace(corner, cache="cold"))
            cache_dir = self.warm[warm]
            if cache_dir is None:
                return None
        elif corner.cache == "cold":
            cache_dir = tempfile.mkdtemp(dir=self.scratch)
        entered = exec_vector.active_engine()
        exec_vector.select_engine(corner.engine)
        try:
            if corner.smp:
                machine = SmpMachine(self.program, cores=1, vlen=corner.vlen)
                emulator = machine.harts[0]
                records = [project(record)
                           for record in machine.traces()[0]]
            else:
                emulator = Emulator(self.program, code_cache_dir=cache_dir,
                                    vlen=corner.vlen)
                if corner.sanitizer:
                    emulator.sanitizer = Sanitizer(self.program, strict=False)
                records = stream(emulator.trace(None, tier=corner.tier))
            engine = exec_vector.active_engine()
        finally:
            exec_vector.select_engine(entered)
        counters = emulator.counters()
        if corner.cache == "cold":
            self.warm[warm] = (cache_dir if counters["codegen_persisted"]
                               else None)
        result = (emulator.state.memory.load_int(
            self.program.symbol(self.workload.result_symbol), 8)
            if self.reference is not None else None)
        # a digest, not the records: plan answers live as long as the process
        return {"records": len(records), "stream": hash(tuple(records)),
                "result": result,
                "vector records": sum(record[0][0] == "v"
                                      for record in records),
                **emulator.fingerprint()}, _failed({
            f"ran on {engine}": engine == corner.engine,
            "ref engine counted ops": corner.engine == "numpy"
            or not any(emulator.state.vec_counters.values()),
            f"ran tier {emulator.tier}":
                emulator.tier == (None if corner.smp else corner.tier),
            f"ran at VLEN {emulator.state.vlen}":
                emulator.state.vlen == corner.vlen,
            "stores not bridged": not corner.smp
            or "store_int" in emulator.state.memory.__dict__,
            "sanitizer checked nothing": not corner.sanitizer
            or emulator.sanitizer.blocks_checked > 0,
            "cold run hit the disk": corner.cache != "cold"
            or counters["codegen_disk_hits"] == 0,
            "warm run compiled or missed": corner.cache != "warm"
            or counters["codegen_blocks_compiled"] == 0
            < counters["codegen_disk_hits"]})

    def timed(self, corner: Timed):
        """(``as_comparable()``, failed proofs)."""
        if corner.path != "core":
            return self._served(corner)
        config = config_of(corner)
        tracer = PipelineTracer(window=256) if corner.hooks else None
        profiler = GuestProfiler() if corner.hooks else None
        proofs = {}
        if corner.model == "stream" and corner.feed == "batches":
            with _calls(PipelineModel, "_resolve") as resolves, \
                    _calls(Emulator, "__init__") as built:
                try:
                    result = run_on_core(self.program, config,
                                         tier=corner.tier, tracer=tracer,
                                         profiler=profiler)
                except GuestExit as exc:
                    result = exc.result
            [(emulator, _)] = built
            resolved = [batch for _, batch in resolves
                        if type(batch) is RecordBatch]
            stats, tier = result.stats, result.stats.extra["tier"]
            proofs["a block resolved twice, or none on tier 2/3"] = (
                len({id(batch) for batch in resolved}) == len(resolved)
                and bool(resolved) == (tier > 1))
        else:
            emulator = Emulator(self.program, vlen=config.vlen)
            batches = emulator.trace(None, tier=corner.tier)
            if corner.model == "reference":
                stats = ReferencePipelineModel(
                    config, MemoryHierarchy(config.mem)).run(batches)
            else:
                model = PipelineModel(config)
                model.tracer, model.profiler = tracer, profiler
                if corner.feed == "lists":
                    stats = model.run(list(batch) for batch in batches)
                else:
                    # tiers 2 and 3 reuse their record slots: keep copies
                    records = [copy.copy(record) if corner.tier > 1
                               else record
                               for batch in batches for record in batch]
                    for pos in range(0, len(records), 7):
                        model.run_quantum(records[pos:pos + 7])
                    stats = model.finish()
            tier = emulator.tier
        proofs[f"ran tier {tier}"] = tier == corner.tier
        proofs[f"ran at VLEN {emulator.state.vlen}"] = (
            emulator.state.vlen == corner.vlen)
        proofs["hooks missed records"] = not corner.hooks or (
            tracer.recorded == profiler.recorded == stats.instructions)
        return stats.as_comparable(), _failed(proofs)

    def _served(self, corner: Timed):
        """A pinned job on a disk store: the job corner runs it, the
        store corner serves it to a second service."""
        spec = JobSpec(source=self.workload.source,
                       compress=self.workload.compress,
                       name=self.workload.name, core=corner.preset,
                       mode=TIER_MODES[corner.tier], vet=False,
                       max_insts=None, wall_timeout_s=None)
        root = os.path.join(self.scratch, "store")
        if corner.path == "store" and not ResultStore(root).get(spec.key()):
            self._served(dataclasses.replace(corner, path="job"))
        with JobService(isolation=False, store=ResultStore(root)) as service:
            result = service.submit(spec)
        if not result.ok:
            return {}, [f"job {result.state.value}"]
        return result.metrics["stats"], _failed({
            f"ran tier {result.metrics['tier']}":
                result.metrics["tier"] == corner.tier,
            f"cache_hit={result.cache_hit}":
                result.cache_hit == (corner.path == "store")})


@contextlib.contextmanager
def running(workload: Workload):
    with tempfile.TemporaryDirectory() as scratch:
        yield Run(workload, scratch)


def check(run: Run, corners) -> tuple[int, list[str]]:
    """The reachable cells of *corners* on *run*'s program, and one line
    per mismatching corner."""
    verdicts = [(corner, run.verdict(corner)) for corner in corners]
    return (sum(verdict is not None for _, verdict in verdicts),
            [f"{run.workload.name} {corner}: {verdict}"
             for corner, verdict in verdicts if verdict])


# -- the tier-1 plan ----------------------------------------------------------

ALL = sorted(w.name for w in all_workloads())
KERNELS = [name for name in ALL
           if name.split("-")[0] in ("coremark", "eembc", "nbench")]
#: int-heavy, branchy, memory-bound, FP, vector and custom-ISA programs
GOLDEN_SUBSET = ["coremark-list", "coremark-matrix", "coremark-state",
                 "coremark-crc", "eembc-canrdr", "eembc-idctrn",
                 "nbench-idea", "stream-triad", "vec-mac16", "dhrystone-like"]
#: through the reference model on xt910, and the stream model on the
#: eight other presets (golden stats are xt910's only)
REFERENCE_SAMPLE = ["coremark-list", "coremark-state", "eembc-canrdr",
                    "vec-mac16"]
PRESET_SAMPLE = ["coremark-list", "eembc-canrdr", "vec-mac16"]
OTHER_PRESETS = sorted(preset for preset in PRESETS if preset != "xt910")
VECTOR = [name for name in ALL if name.startswith("vec-")]
#: small scalar, FP, pointer-chasing and vector programs for the other
#: axes (vec-gather's indexed store is a path only the SMP bridge takes)
SAMPLE = ["eembc-canrdr", "nbench-lu", "eembc-pntrch", "vec-gather"]
SMALL = {"vec-memcpy-40x2": lambda: vec_memcpy(n=40, passes=2),
         "vec-gather-32x2": lambda: vec_gather(n=32, passes=2)}


def smc_source(barrier: str) -> str:
    """Rewrite ``addi a0, x0, 1`` at ``patchme`` into ``addi a0, x0, 2``
    on the first trip, then *barrier*, then run it again."""
    return f"""
    _start:
        li s0, 2
        la t0, patchme
        li t1, 0x00200513
    again:
    patchme:
        addi a0, x0, 1
        sw t1, 0(t0)
        {barrier}
        addi s0, s0, -1
        bnez s0, again
        li a7, 93
        ecall
    """


SMC = {f"smc-{barrier}": Workload(name=f"smc-{barrier}", compress=False,
                                  source=smc_source(barrier))
       for barrier in ("fence.i", "nop", "icache.iall")}

#: masked-off and tail lanes of an LMUL=4 group through arithmetic,
#: vmerge and masked unit-stride, strided and indexed stores (no bundled
#: kernel uses ``v0.t``); three times round, so tier 3 runs the loop
#: as a superblock (a block's second dispatch forms one)
MASKED = Workload(name="vec-masked", compress=False, source="""
    .data
src:  .word 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3
idx:  .word 60, 4, 52, 12, 44, 20, 36, 28, 0, 56, 8, 48, 16, 40, 24, 32
mask: .word 0x6cb5, 0, 0, 0
out:  .zero 256
    .text
_start:
    li s0, 3
again:
    li t0, 16
    vsetvli t1, t0, e8, m1
    la a0, mask
    vle8.v v0, (a0)
    li t0, 13
    vsetvli t1, t0, e32, m4
    la a1, src
    vle32.v v8, (a1)
    vle32.v v12, (a1), v0.t
    vadd.vv v16, v8, v12, v0.t
    vmerge.vvm v20, v8, v16, v0
    la a2, out
    vse32.v v16, (a2), v0.t
    li t2, 8
    vsse32.v v20, (a2), t2, v0.t
    la a4, idx
    vle32.v v4, (a4)
    vsxei32.v v16, (a2), v4, v0.t
    addi s0, s0, -1
    bnez s0, again
    li a0, 0
    li a7, 93
    ecall
""")

#: one subroutine run under two vtypes, e32/m8 then e16/m1, twice
#: round: every per-instruction handler rebinds on each vtype change.
#: At m8 the group at v28 wraps past v31 and the widening MAC clamps
#: its EMUL (both fall back); at m1 both batch.  Masked and unmasked
#: lanes; v0 is reloaded under the vtype in force
REBIND = Workload(name="vec-rebind", compress=False, source="""
    .data
src:  .word %s
mask: .word %s
out:  .zero 512
    .text
_start:
    li s0, 2
again:
    li t0, 29
    vsetvli t1, t0, e32, m8
    call body
    li t0, 11
    vsetvli t1, t0, e16, m1
    call body
    addi s0, s0, -1
    bnez s0, again
    li a0, 0
    li a7, 93
    ecall
body:
    la a0, mask
    vle32.v v0, (a0)
    la a1, src
    vle32.v v8, (a1)
    vle32.v v16, (a1), v0.t
    vadd.vv v24, v8, v16, v0.t
    vmsne.vv v5, v8, v24
    vredsum.vs v6, v8, v24
    vadd.vv v28, v8, v16
    vwmacc.vv v24, v8, v16, v0.t
    la a2, out
    vse32.v v24, (a2)
    vse32.v v28, (a2), v0.t
    ret
""" % (", ".join(str(k * 2654435761 % 2**32) for k in range(64)),
       ", ".join(str(k * 0x9E3779B9 % 2**32) for k in range(32))))

#: tier 3's superblocks: a data-dependent if/else inside a loop, whose
#: direction alternates against the one the chain follows (guards leave
#: both ways), then a loop of two 21- and 22-instruction blocks, whose
#: unrolled chain passes 64 instructions and stops at a block boundary
SUPERBLOCKS = Workload(name="superblocks", compress=False, source="""
    .data
vals: .word 3, 8, 5, 6, 1, 2, 9, 4
    .text
_start:
    li s0, 24
    la s1, vals
loop:
    andi t1, s0, 7
    slli t1, t1, 2
    add t1, s1, t1
    lw t2, 0(t1)
    andi t3, t2, 1
    beqz t3, even
    add a0, a0, t2
    j join
even:
    sub a0, a0, t2
join:
    addi s0, s0, -1
    bnez s0, loop
    li s0, 7
long:
%s
    j mid
mid:
%s
    addi s0, s0, -1
    bnez s0, long
    sd a0, 0(s1)
    li a0, 0
    li a7, 93
    ecall
""" % ("\n".join(f"    addi a{1 + k % 6}, a{1 + (k + 1) % 6}, {k}"
                 for k in range(20)),
       "\n".join(f"    xor a{1 + k % 6}, a{1 + (k + 2) % 6}, s0"
                 for k in range(20))))

#: what tier 3 runs inline instead of calling out: every load and
#: store width and signedness (odd offsets, ``rd = x0``, F registers,
#: sign bits at the edge), 2-, 4- and 8-byte accesses straddling a
#: 4 KiB page, loads from pages never touched and stores into fresh
#: ones, the XT MAC/rotate/bit ops (negative halves, rotate amounts 0,
#: 1 and 31) and ``vsetvli`` with ``rs1 = x0``, AVL above VLMAX and
#: ``rd = x0``; four times round
INLINE = Workload(name="tier3-inline", compress=False, source="""
    .data
    .align 3
vals: .dword 0x8091A2B3C4D5E6F7, 0x7F00FF0180FE017F, 0x7FFFFFFF7FFF807F
      .dword 0x123456789ABCDEF0
out:  .zero 256
    .text
_start:
    li s0, 4
    la s1, vals
    la s2, out
    li s3, 0x201FFC
    li s4, 0x400000
    li s5, 0x600000
    li s11, 4096
again:
    lb t0, 7(s1)
    lbu t1, 15(s1)
    lh t2, 5(s1)
    lhu t3, 9(s1)
    lw t4, 3(s1)
    lwu t5, 11(s1)
    ld t6, 1(s1)
    lw zero, 0(s1)
    sb t0, 1(s2)
    sh t2, 3(s2)
    sw t4, 5(s2)
    sd t6, 9(s2)
    sd zero, 17(s2)
    sb zero, 25(s2)
    flw ft0, 4(s1)
    fld ft1, 16(s1)
    fsw ft0, 30(s2)
    fsd ft1, 34(s2)
    sd t6, 0(s3)
    ld a0, 0(s3)
    sw t4, 2(s3)
    lw a1, 2(s3)
    sh t2, 3(s3)
    lh a2, 3(s3)
    lhu a3, 3(s3)
    fld ft2, 1(s3)
    fsd ft2, 4(s3)
    ld a4, 0(s4)
    lb a5, 2047(s4)
    lw zero, 8(s4)
    flw ft3, 12(s4)
    sd t6, 0(s5)
    sh t2, -1(s5)
    sb t0, 2047(s5)
    add s4, s4, s11
    add s5, s5, s11
    sd a0, 48(s2)
    sd a1, 56(s2)
    sd a2, 64(s2)
    sd a3, 72(s2)
    sd a4, 80(s2)
    sd a5, 88(s2)
    lb s6, 16(s1)
    lh s7, 18(s1)
    lw s8, 20(s1)
    lb s9, 17(s1)
    li a6, 0xFFFF8003
    li a7, 0x7FFFFFFFFFFF8001
    mulah s6, a6, a7
    mulsh s7, a7, a6
    mula s8, t6, a7
    muls s9, t6, a6
    mulaw s10, t4, a7
    mulsw s10, t6, t4
    srri t0, t6, 0
    srri t1, t6, 1
    srri t2, t6, 31
    srriw t3, t6, 0
    srriw t4, t6, 1
    srriw t5, t6, 31
    sd t0, 96(s2)
    sd t1, 104(s2)
    sd t2, 112(s2)
    sd t3, 120(s2)
    sd t4, 128(s2)
    sd t5, 136(s2)
    addsl t0, s1, t6, 3
    ext t1, t6, 39, 4
    extu t2, t6, 39, 4
    ext t3, a7, 63, 0
    ff0 t4, t6
    ff1 t5, t6
    sd t0, 144(s2)
    sd t1, 152(s2)
    sd t2, 160(s2)
    sd t3, 168(s2)
    sd t4, 176(s2)
    sd t5, 184(s2)
    rev t0, t6
    revw t1, t6
    tstnbz t2, a7
    ff0 t3, a6
    ff1 t4, zero
    tstnbz t5, zero
    sd t0, 192(s2)
    sd t1, 200(s2)
    sd t2, 208(s2)
    sd t3, 216(s2)
    sd t4, 224(s2)
    sd t5, 232(s2)
    vsetvli t0, x0, e32, m2
    li t1, 1000
    vsetvli t2, t1, e16, m1
    vsetvli zero, t1, e8, m4
    li t1, 3
    vsetvli t3, t1, e64, m1
    vle64.v v4, (s1)
    vsetvli t4, t1, e32, m8
    vadd.vv v8, v16, v24
    sd t0, 240(s2)
    sd t2, 248(s2)
    addi s0, s0, -1
    bnez s0, again
    li a0, 0
    li a7, 93
    ecall
""")


def traps_result() -> int:
    """What ``traps`` stores at ``result``: the count of each ``mcause``
    0-9, one nibble each with cause 0 highest, under the ``instret`` its
    ``csrr`` reads.  It takes each of its three causes once a round, and
    retires 8 instructions to ``round``, four rounds of 58 (7 in M-mode
    to ``mret``; ``li``, ``addi``, ``amoadd.w`` and 11 in the handler;
    ``ebreak`` and 11; ``li``, ``ecall`` and 15; 8 to ``bnez``), 5 to
    ``pack`` and its 10 trips of 6."""
    counts = sum(4 << 4 * (9 - cause) for cause in (
        TrapCause.BREAKPOINT, TrapCause.STORE_MISALIGNED,
        TrapCause.ECALL_FROM_U))
    return (8 + 4 * 58 + 5 + 10 * 6) << 40 | counts


#: a guest handler for every synchronous trap: four times round, the
#: guest drops from M- to U-mode, takes a misaligned ``amoadd.w``, an
#: ``ebreak`` and a U-mode ``ecall`` (whose trap returns to M-mode) and
#: makes an M-mode ``write`` syscall; then it stores before a
#: ``fence.i``.  The handler counts each ``mcause``, skips the trapping
#: instruction and returns with ``mret``
TRAPS = Workload(name="traps", compress=False, reference=traps_result,
    source="""
    .data
    .align 3
counts: .zero 80
word:   .word 0, 0
result: .dword 0
msg:    .ascii "trap\\n"
    .text
_start:
    la t0, handler
    csrw mtvec, t0
    la s1, counts
    la s3, word
    li s0, 4
round:
    li t0, 0x1800
    csrc mstatus, t0        # MPP = U
    la t0, user
    csrw mepc, t0
    mret
user:
    li a1, 1
    addi t2, s3, 2
    amoadd.w a2, a1, (t2)   # misaligned
    ebreak
    li s2, 1                # this trap returns to M-mode
    ecall
    li a0, 1
    la a1, msg
    li a2, 5
    li a7, 64
    ecall                   # write
    addi s0, s0, -1
    bnez s0, round
    sd a1, 0(s3)
    fence.i
    li t0, 0
    li t1, 0
    li t2, 80
pack:
    add t3, s1, t1
    ld t3, 0(t3)
    slli t0, t0, 4
    add t0, t0, t3
    addi t1, t1, 8
    bne t1, t2, pack
    csrr t3, instret
    slli t3, t3, 40
    add t0, t0, t3
    la t3, result
    sd t0, 0(t3)
    li a0, 0
    li a7, 93
    ecall
handler:
    csrr t0, mcause
    slli t0, t0, 3
    add t0, t0, s1
    ld t1, 0(t0)
    addi t1, t1, 1
    sd t1, 0(t0)
    csrr t0, mepc
    addi t0, t0, 4
    csrw mepc, t0
    beqz s2, back
    li t0, 0x1800
    csrs mstatus, t0        # MPP = M
    li s2, 0
back:
    mret
""")

#: (programs, corners): what tier 1 runs
PLAN_ROWS = [
    (ALL, [Functional(3, cache="cold"), Functional(3, cache="warm"),
           Timed(2, hooks=True)]),
    (KERNELS, [Functional(2)]),
    (GOLDEN_SUBSET, [Timed(1), Timed(2), Timed(3), Timed(2, feed="lists"),
                     Timed(1, feed="chunks")]),
    (REFERENCE_SAMPLE, [Timed(2, model="reference")]),
    (PRESET_SAMPLE, [Timed(2, preset=preset) for preset in OTHER_PRESETS]),
    (VECTOR + list(SMALL), [Functional(1, "ref"), Functional(2, "ref"),
                            Functional(3, "ref", cache="cold")]),
    (list(SMALL) + list(SMC), [Functional(2), Functional(3, cache="cold")]),
    ([SUPERBLOCKS.name], [Functional(2), Functional(3, cache="cold"),
                          Functional(3, cache="warm"), Timed(3),
                          Timed(3, feed="chunks")]),
    ([MASKED.name, REBIND.name], [corner for corner in CORNERS
                                  if isinstance(corner, Functional)]),
    (SAMPLE, [Functional(2, sanitizer=True), Functional(1, smp=True),
              Timed(1, hooks=True), Timed(3, hooks=True),
              Timed(3, feed="lists"), Timed(3, feed="chunks"),
              Timed(2, path="job"), Timed(2, path="store")]),
    (["vec-gather"], [Timed(tier, path=path) for tier in (1, 3)
                      for path in ("job", "store")]),
    (["vec-axpy-f32", "vec-strcmp", MASKED.name],
     [corner for corner in CORNERS if corner.vlen == WIDE]),
    ([INLINE.name], [corner for corner in CORNERS
                     if isinstance(corner, Functional)]
     + [Timed(3), Timed(3, vlen=WIDE)]),
    # every functional corner a scalar program reaches but the warm
    # one: a run that fences persists no code
    ([TRAPS.name], [corner for corner in CORNERS
                    if isinstance(corner, Functional)
                    and corner.engine == "numpy" and corner.cache != "warm"
                    and corner.vlen == PRECISE.vlen]
     + [Timed(1), Timed(3)]),
]
PLAN = {name: sorted({corner for names, corners in PLAN_ROWS if name in names
                      for corner in corners}, key=CORNERS.index)
        for name in dict.fromkeys(name for names, _ in PLAN_ROWS
                                  for name in names)}


def workload(name: str) -> Workload:
    if name in SMALL:
        return dataclasses.replace(SMALL[name](), name=name)
    return ({MASKED.name: MASKED, REBIND.name: REBIND,
             SUPERBLOCKS.name: SUPERBLOCKS, INLINE.name: INLINE,
             TRAPS.name: TRAPS, **SMC}.get(name)
            or get_workload(name))


@functools.cache
def _scratch() -> tempfile.TemporaryDirectory:
    """Removed when the process exits."""
    return tempfile.TemporaryDirectory(prefix="lattice-")


@functools.cache
def run_of(name: str) -> Run:
    """The one :class:`Run` of a plan program in this process."""
    return Run(workload(name), tempfile.mkdtemp(dir=_scratch().name))


def assert_cells(name: str, *corners) -> None:
    """*corners* are plan cells of *name*, reachable, and match."""
    assert set(corners) <= set(PLAN[name]), f"{name}: not all in the plan"
    cells, mismatches = check(run_of(name), corners)
    assert cells == len(corners) and not mismatches, "\n".join(mismatches)


@pytest.mark.parametrize("name", sorted(PLAN))
def test_plan(name):
    assert_cells(name, *PLAN[name])


# -- random programs ----------------------------------------------------------

_TEMPLATES = [
    "add {d}, {a}, {b}", "sub {d}, {a}, {b}", "xor {d}, {a}, {b}",
    "addi {d}, {a}, {imm}", "slli {d}, {a}, {sh}", "mul {d}, {a}, {b}",
    "div {d}, {a}, {bnz}", "auipc {d}, {upper}", "sd {a}, {moff}(s1)",
    "ld {d}, {moff}(s1)", "sw {a}, {moff}(s1)", "lbu {d}, {moff}(s1)",
    "lb {d}, {odd}(s1)", "lh {d}, {odd}(s1)", "lw {d}, {odd}(s1)",
    "sh {a}, {odd}(s1)", "mula {d}, {a}, {b}", "srriw {d}, {a}, {sh}",
    "fence.i", "nop",
]
_REGS = ["t0", "t1", "t2", "t3", "s2", "s3"]


@st.composite
def short_program(draw):
    """Forward and backward branches, nested loops, ``fence.i`` mid-run,
    stores near code, unaligned narrow loads and stores, XT MAC and
    rotate ops and the ``ecall`` exit shim: where a translated tier
    could plausibly part from ``step()``."""
    lines = ["    .data", "    .align 3", "scratch: .zero 256", "    .text",
             "_start:", "    la s1, scratch"]
    lines += [f"    li {reg}, {draw(st.integers(-500, 500))}"
              for reg in _REGS]
    lines += [f"    li s0, {draw(st.integers(1, 6))}", "loop:"]
    body = []
    for _ in range(draw(st.integers(3, 16))):
        body.append("    " + draw(st.sampled_from(_TEMPLATES)).format(
            d=draw(st.sampled_from(_REGS)),
            a=draw(st.sampled_from(_REGS)),
            b=draw(st.sampled_from(_REGS)),
            bnz="s0",
            imm=draw(st.integers(-512, 511)),
            sh=draw(st.integers(0, 31)),
            upper=draw(st.integers(0, 15)),
            moff=draw(st.integers(0, 31)) * 8,
            odd=draw(st.integers(0, 252)),
        ))
    if draw(st.booleans()):
        # an inner loop round a slice of the body: its blocks run more
        # than twice, so tier 3 chains them into superblocks
        low = draw(st.integers(0, len(body)))
        high = draw(st.integers(low, len(body)))
        body[low:high] = [f"    li s4, {draw(st.integers(2, 5))}", "inner:",
                          *body[low:high], "    addi s4, s4, -1",
                          "    bnez s4, inner"]
    lines += body
    if draw(st.booleans()):
        reg = draw(st.sampled_from(_REGS))
        lines += [f"    beqz {reg}, skip", f"    addi {reg}, {reg}, 1",
                  "skip:"]
    lines += ["    addi s0, s0, -1", "    bnez s0, loop",
              f"    li a0, {draw(st.integers(0, 3))}", "    li a7, 93",
              "    ecall"]
    return "\n".join(lines)


def assert_random(source: str, compress: bool, corner) -> None:
    """*corner* is reachable for the random program *source* and matches."""
    with running(Workload(name="drawn", source=source,
                          compress=compress)) as run:
        cells, mismatches = check(run, [corner])
    assert cells == 1 and not mismatches, "\n".join(mismatches)


#: the pinned-corner views of it run 30 + 30 + 10 examples; a profile's
#: budget scales this one (HYPOTHESIS_PROFILE=nightly: 700)
@settings(max_examples=settings.default.max_examples * 70 // 100,
          deadline=None)
@given(short_program(), st.booleans(), st.data())
def test_random_program_in_a_drawn_corner(source, compress, data):
    with running(Workload(name="drawn", source=source,
                          compress=compress)) as run:
        corner = data.draw(st.sampled_from(
            [corner for corner in CORNERS if reachable(corner, run)]))
        _, mismatches = check(run, [corner])
    assert not mismatches, "\n".join(mismatches)


if __name__ == "__main__":
    # timed tier-3 corners use the default code cache: keep it hermetic
    os.environ["REPRO_CODE_CACHE_DIR"] = os.path.join(_scratch().name, "code")
    start = time.perf_counter()
    total, bad = 0, []
    for each in all_workloads() + [workload(name) for name in PLAN
                                   if name not in ALL]:
        with running(each) as run:
            cells, mismatches = check(run, CORNERS)
        total += cells
        bad += mismatches
        print(f"{each.name}: {cells} cells, {len(mismatches)} mismatches",
              flush=True)
    for line in bad:
        print(f"MISMATCH {line}")
    print(f"{total} cells, {len(bad)} mismatches "
          f"({time.perf_counter() - start:.0f} s)")
    sys.exit(1 if bad else 0)
