"""``repro profile`` / ``repro top`` stdout against their previous
implementations.

``golden_profile.json`` holds the sha256 of ``python -m repro profile W
--core P --top 25`` stdout for every bundled workload on ``xt910``,
``u74`` and ``cortex-a53``, written by the profiler that stepped the
reference model's stage methods before ``repro.tools`` was folded into
``repro.obs.guestprof``.  Tier 1 checks the cells in ``TIER1``; the
nightly "Timing oracle grid" job runs this file as a script, which
checks all of them::

    PYTHONPATH=src python tests/obs/test_profile_golden.py [--update]

``TOP`` is ``repro top`` stdout as printed before the profiler's hook
was widened to carry the stall terms.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.workloads import all_workloads, get_workload

GOLDEN = Path(__file__).with_name("golden_profile.json")
CORES = ("xt910", "u74", "cortex-a53")

#: the out-of-order core and both in-order ones on scalar, memory-bound,
#: vector and custom-extension code (~3 s together)
TIER1 = (
    "coremark-list/xt910",
    "coremark-crc/xt910",
    "dhrystone-like/u74",
    "eembc-pntrch/cortex-a53",
    "nbench-numsort/cortex-a53",
    "stream-triad/xt910",
    "vec-axpy-f32/u74",
    "vec-gather/cortex-a53",
    "blockchain-xt/u74",
    "strlen-xt/xt910",
)


def cli_stdout(workload, verb: str, *flags: str) -> str:
    """What ``python -m repro <verb> W <flags>`` prints for a workload."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{workload.name}.s"
        path.write_text(workload.source)
        argv = [verb, str(path), *flags]
        if not workload.compress:
            argv.append("--no-compress")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
    return out.getvalue()


def profile_digest(workload, core: str) -> str:
    text = cli_stdout(workload, "profile", "--core", core, "--top", "25")
    return hashlib.sha256(text.encode()).hexdigest()


def all_digests() -> dict[str, str]:
    return {f"{workload.name}/{core}": profile_digest(workload, core)
            for workload in all_workloads() for core in CORES}


@pytest.mark.parametrize("cell", TIER1)
def test_report_is_byte_identical(cell):
    name, core = cell.split("/")
    assert profile_digest(get_workload(name), core) == json.loads(
        GOLDEN.read_text())[cell]


def test_golden_covers_the_grid():
    assert set(json.loads(GOLDEN.read_text())) == {
        f"{w.name}/{core}" for w in all_workloads() for core in CORES}


TOP = {
    ("dhrystone-like", "flat"): """\
guest profile (flat): 6849 cycles, 100.0% attributed to 4 function(s)
function             self   self%         cum    cum%  hottest line
str_cmp              4182   61.1%        4182   61.1%  0x1012a: bne t0, t1, cmp_diff
_start               1497   21.9%        6849  100.0%  0x1004c: ld t1, 0(t0)
copy_record           648    9.5%         648    9.5%  0x100f0: ld t0, 0(a0)
proc_add              522    7.6%         522    7.6%  0x10154: rem t1, t1, t2
""",
    ("dhrystone-like", "cumulative"): """\
guest profile (cumulative): 6849 cycles, 100.0% attributed to 4 function(s)
function             self   self%         cum    cum%  hottest line
_start               1497   21.9%        6849  100.0%  0x1004c: ld t1, 0(t0)
str_cmp              4182   61.1%        4182   61.1%  0x1012a: bne t0, t1, cmp_diff
copy_record           648    9.5%         648    9.5%  0x100f0: ld t0, 0(a0)
proc_add              522    7.6%         522    7.6%  0x10154: rem t1, t1, t2
""",
    ("coremark-list", "flat"): """\
guest profile (flat): 7372 cycles, 100.0% attributed to 1 function(s)
function        self   self%         cum    cum%  hottest line
_start          7372  100.0%        7372  100.0%  0x10094: ld t2, 0(t1)              # next
""",
    ("coremark-list", "cumulative"): """\
guest profile (cumulative): 7372 cycles, 100.0% attributed to 1 function(s)
function        self   self%         cum    cum%  hottest line
_start          7372  100.0%        7372  100.0%  0x10094: ld t2, 0(t1)              # next
""",
}


@pytest.mark.parametrize("name, mode", TOP)
def test_top_stdout_is_unchanged(name, mode):
    flags = ["--cumulative"] if mode == "cumulative" else []
    assert cli_stdout(get_workload(name), "top", *flags) == TOP[name, mode]


if __name__ == "__main__":
    digests = all_digests()
    if "--update" in sys.argv[1:]:
        GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True)
                          + "\n")
        print(f"wrote {GOLDEN} ({len(digests)} digests)")
        raise SystemExit(0)
    golden = json.loads(GOLDEN.read_text())
    bad = sorted(cell for cell in golden.keys() | digests.keys()
                 if golden.get(cell) != digests.get(cell))
    for cell in bad:
        print(f"MISMATCH {cell}")
    print(f"{len(digests)} profile reports, {len(bad)} mismatches")
    raise SystemExit(1 if bad else 0)
