"""Design-space exploration: sweep config axes through the job service.

A *sweep spec* names a base config (preset, file, or inline document),
a workload list, an execution tier, and a set of axes — each axis a
dotted config path plus the values to try.  ``expand`` takes the
cartesian product into config *points* (one overlay-merged document
per point, content-digested), and ``run_sweep`` turns every
(point, workload) cell into a pinned-mode
:class:`~repro.service.job.JobSpec` and hands the batch to a
:class:`~repro.service.core.JobService` — explore is a client of the
service, not a second route to the simulator.  There is one cell
function (``execute_job``), one key (``JobSpec.key``, over the
*resolved* config digest) and one result store
(:class:`~repro.service.store.ResultStore`), so a sweep cell and an
equivalent ``repro submit`` job are the same record, and sweeps inherit
the service's retry, wall-clock reaping and circuit breaker.  The
paper's figures run their (workload, core) cells through the same
batch function, :func:`run_jobs`, by way of :func:`time_cells`.

With a disk-backed store (:class:`ExploreStore`) a cell that was ever
simulated — this run, a previous run, an interrupted run — is served
from disk and never simulated again.  That is what makes thousand-point
sweeps incremental: re-running a sweep after adding one axis value only
simulates the new column.  The ``explore-smoke`` CI job runs a sweep
twice and asserts the second pass is 100% cache hits with zero new
simulations.

``BENCH`` is the committed experiment: the pipeline-depth
sweep (``frontend.depth``) over the CoreMark kernels, reproducing the
RV-IM100-style depth/frequency trade-off — cycles grow with depth
while the achievable clock grows sublinearly (``f = 1/(t_logic/depth +
t_latch)``), so relative performance has an interior optimum.  Cycle
counts are simulated, hence deterministic: the BENCH_explore.json gate
is exact equality, not a tolerance band.
"""

from __future__ import annotations

import itertools
import os
import reprlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

# Leaf modules with no way back into repro.harness, so safe at module
# level; JobService itself (-> worker -> harness.runner) is imported
# lazily in run_jobs.
from ..service.errors import error_from_dict
from ..service.job import STORE_VERSION, TIER_MODES, JobResult, JobSpec
from ..service.store import ResultStore
from ..uarch import uconfig
from ..uarch.config import CoreConfig
from ..workloads import Workload, get_workload
from . import benchkit
from .report import ExperimentResult

#: Hard ceiling on expanded points: a typo'd range axis should fail
#: loudly, not fill the disk.
MAX_POINTS = 100_000


class ExploreError(ValueError):
    """A sweep spec failed validation."""


# -- sweep spec --------------------------------------------------------------


@dataclass
class SweepAxis:
    """One swept dimension: a list of override sets to try.

    The scalar form (``path`` + ``values``/``range``) sweeps one knob.
    The linked form (``points``) sets several knobs per axis value —
    how "pipeline depth" sweeps honestly: a deeper frontend also pays
    a larger mispredict flush and a later decode-point correction, so
    one depth point sets all three knobs together.
    """

    label: str
    points: list[dict[str, Any]]  # one dict of dotted-path -> value each

    @property
    def values(self) -> list[Any]:
        """Scalar-form values (single-knob axes), else the point dicts."""
        if all(len(point) == 1 for point in self.points):
            return [next(iter(point.values())) for point in self.points]
        return list(self.points)

    @classmethod
    def single(cls, path: str, values: Iterable[Any]) -> "SweepAxis":
        return cls(path, [{path: value} for value in values])

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepAxis":
        unknown = set(payload) - {"path", "values", "range", "points",
                                  "label"}
        if unknown:
            raise ExploreError(f"axis: unknown key(s) "
                               f"{', '.join(sorted(unknown))}")
        if "points" in payload:
            if "path" in payload or "values" in payload \
                    or "range" in payload:
                raise ExploreError("axis: 'points' excludes path/"
                                   "values/range")
            points = payload["points"]
            if not isinstance(points, list) or not points or \
                    not all(isinstance(p, Mapping) and p
                            for p in points):
                raise ExploreError("axis: 'points' must be a non-empty "
                                   "list of non-empty mappings")
            label = str(payload.get("label")
                        or "+".join(sorted(points[0])))
            return cls(label, [dict(p) for p in points])
        path = payload.get("path")
        if not isinstance(path, str) or not path:
            raise ExploreError(f"axis: 'path' must be a dotted config "
                               f"path, got {path!r}")
        if ("values" in payload) == ("range" in payload):
            raise ExploreError(f"axis {path}: give exactly one of "
                               f"'values' or 'range'")
        if "values" in payload:
            values = payload["values"]
            if not isinstance(values, list) or not values:
                raise ExploreError(f"axis {path}: 'values' must be a "
                                   f"non-empty list")
            return cls.single(path, values)
        rng = payload["range"]
        if not isinstance(rng, Mapping) or \
                set(rng) - {"start", "stop", "step"}:
            raise ExploreError(f"axis {path}: 'range' takes start/stop"
                               f"/step")
        try:
            start, stop = int(rng["start"]), int(rng["stop"])
            step = int(rng.get("step", 1))
        except (KeyError, TypeError, ValueError) as exc:
            raise ExploreError(f"axis {path}: bad range: {exc}") from exc
        if step < 1 or stop < start:
            raise ExploreError(f"axis {path}: need step >= 1 and "
                               f"stop >= start")
        return cls.single(path, range(start, stop + 1, step))


@dataclass
class SweepSpec:
    """A full sweep description (the ``repro explore`` input file)."""

    base: str | Mapping[str, Any] = "xt910"
    extends: list[str] = field(default_factory=list)
    workloads: list[str] = field(default_factory=lambda: ["coremark-list"])
    axes: list[SweepAxis] = field(default_factory=list)
    tier: int = 2
    max_insts: int | None = None
    name: str = "sweep"

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepSpec":
        known = {"base", "extends", "workloads", "axes", "tier",
                 "max_insts", "name", "description"}
        unknown = set(payload) - known
        if unknown:
            raise ExploreError(
                f"sweep spec: unknown key(s) "
                f"{', '.join(sorted(unknown))} (known: "
                f"{', '.join(sorted(known))})")
        axes = [SweepAxis.from_dict(axis)
                for axis in payload.get("axes", [])]
        spec = cls(
            base=payload.get("base", "xt910"),
            extends=list(payload.get("extends", [])),
            workloads=list(payload.get("workloads", ["coremark-list"])),
            axes=axes,
            tier=int(payload.get("tier", 2)),
            max_insts=payload.get("max_insts"),
            name=str(payload.get("name", "sweep")))
        if spec.tier not in (1, 2, 3):
            raise ExploreError(f"sweep spec: tier must be 1, 2 or 3, "
                               f"not {spec.tier}")
        if not spec.workloads:
            raise ExploreError("sweep spec: 'workloads' must name at "
                               "least one bundled workload")
        return spec


def load_sweep(path: str) -> SweepSpec:
    """Read a sweep spec file (YAML or JSON, like config documents)."""
    return SweepSpec.from_dict(uconfig.load_doc(path))


# -- expansion ---------------------------------------------------------------


@dataclass
class ExplorePoint:
    """One expanded config point of a sweep."""

    index: int
    overrides: dict[str, Any]     # dotted path -> axis value
    doc: dict[str, Any]           # fully merged document
    digest: str                   # uconfig.config_digest of the doc

    @property
    def label(self) -> str:
        return f"p{self.index:04d}"


def expand(spec: SweepSpec) -> list[ExplorePoint]:
    """Cartesian-product the axes into validated config points.

    Every point document is schema-validated at expansion time, so an
    axis that walks a knob out of range fails before any simulation.
    """
    base_doc = uconfig.config_to_doc(
        uconfig.resolve_core(spec.base, tuple(spec.extends)))
    total = 1
    for axis in spec.axes:
        total *= len(axis.points)
    if total > MAX_POINTS:
        raise ExploreError(f"sweep expands to {total} points; the "
                           f"ceiling is {MAX_POINTS}")
    points: list[ExplorePoint] = []
    value_grid = itertools.product(*(axis.points for axis in spec.axes)) \
        if spec.axes else iter([()])
    for index, chosen in enumerate(value_grid):
        overrides: dict[str, Any] = {}
        for point_overrides in chosen:
            overrides.update(point_overrides)
        doc = uconfig.apply_overrides(base_doc, overrides)
        try:
            digest = uconfig.config_digest(doc)
        except uconfig.UconfigError as exc:
            raise ExploreError(
                f"point {index} ({overrides}): {exc}") from exc
        points.append(ExplorePoint(index, overrides, doc, digest))
    return points


# -- content-addressed result store ------------------------------------------


def default_store_dir() -> str:
    """``REPRO_EXPLORE_CACHE_DIR`` or ``~/.cache/repro-explore``."""
    override = os.environ.get("REPRO_EXPLORE_CACHE_DIR")
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache",
                        "repro-explore")


class ExploreStore(ResultStore):
    """The disk-backed :class:`ResultStore` spelling sweeps default to,
    rooted at :func:`default_store_dir` unless told otherwise."""

    def __init__(self, root: str | None = None) -> None:
        super().__init__(root if root is not None else default_store_dir())


# -- sweep reports -----------------------------------------------------------


@dataclass
class CellResult:
    """One simulated-or-cached (point, workload) outcome."""

    point: ExplorePoint
    workload: str
    record: dict[str, Any]
    cached: bool


@dataclass
class ExploreReport:
    """Everything one sweep run produced, with provenance counters."""

    name: str
    tier: int
    axes: list[SweepAxis]
    points: int
    results: list[CellResult]
    cache_hits: int
    simulated: int

    @property
    def cells(self) -> int:
        return len(self.results)

    def to_json_dict(self) -> dict[str, Any]:
        """MetricsRegistry-schema payload: the ``explore.*`` namespace
        flat dict plus the per-cell record table."""
        from ..obs.metrics import collect_explore

        return {
            "sweep": self.name,
            "tier": self.tier,
            "axes": [{"label": axis.label, "values": axis.values}
                     for axis in self.axes],
            "metrics": collect_explore(self).as_dict(),
            "cells": [{
                "point": cell.point.label,
                "workload": cell.workload,
                "overrides": cell.point.overrides,
                "config_digest": cell.point.digest,
                "cached": cell.cached,
                **{k: v for k, v in cell.record.items() if k != "stats"},
            } for cell in self.results],
        }

    def save(self, path: str) -> None:
        benchkit.save(self.to_json_dict(), path)


# -- the one batch runner: sweep cells and figure cells ----------------------

#: failed cells spelled out in a CellFailure message before truncating
_REPORT_LIMIT = 8


@dataclass
class CellError:
    """One failed cell: which cell, which function, what happened."""

    index: int
    fn: str
    cell: tuple
    status: str
    error: dict = field(default_factory=dict)

    def render(self) -> str:
        return (f"cell {self.index} {self.fn}{reprlib.repr(self.cell)}: "
                f"{self.error.get('type', '?')}: "
                f"{self.error.get('message', '?')}")


class CellFailure(RuntimeError):
    """One or more cells failed; siblings completed first.

    ``failures`` holds a :class:`CellError` per failed cell (input
    order), so callers can attribute every failure to its workload and
    configuration instead of seeing only whichever exception happened
    to surface first.
    """

    def __init__(self, failures: list[CellError], total: int) -> None:
        self.failures = failures
        self.total = total
        lines = [f"{len(failures)} of {total} cells failed:"]
        lines += [f"  {f.render()}" for f in failures[:_REPORT_LIMIT]]
        if len(failures) > _REPORT_LIMIT:
            lines.append(f"  ... and {len(failures) - _REPORT_LIMIT} more")
        super().__init__("\n".join(lines))


def run_jobs(specs: Sequence[JobSpec], cells: Sequence[tuple],
             jobs: int | None = None,
             store: ResultStore | None = None) -> list[JobResult]:
    """Run *specs* as one :class:`JobService` batch and return the
    results in input order.

    ``jobs`` > 1 runs the jobs on that many crash-isolated workers;
    otherwise they run inline in this process.  *store* defaults to the
    service's private in-memory store.  Every job runs to its own
    outcome first.  A job stopped by its own ``max_insts`` budget
    returned the partial record it asked for; if any other job did not
    complete, one :class:`CellFailure` then names each, ``cells[i]``
    standing for ``specs[i]``, with its rendered service error chain.
    """
    # Lazy: repro.service.core -> worker -> repro.harness.runner, so a
    # module-level import would be circular.
    from ..service import JobService

    with JobService(workers=jobs, isolation=jobs is not None and jobs > 1,
                    store=store) as service:
        results = service.run(specs)
    failures = [
        CellError(index, "execute_job", tuple(cell), "error", {
            "type": result.state.value,
            "message": error_from_dict(result.error or {}).render()})
        for index, (cell, spec, result) in enumerate(
            zip(cells, specs, results))
        if not (result.ok or result.partial and spec.max_insts is not None)]
    if failures:
        raise CellFailure(failures, len(specs))
    return results


def time_cells(cells: Mapping[tuple, tuple[Workload, str | CoreConfig]],
               jobs: int | None = None) -> dict[tuple, dict[str, Any]]:
    """Time each labelled (workload, core) cell of a paper figure and
    return its ``CoreStats.as_comparable()`` dict under the same label.

    A cell is one job run as :func:`~repro.harness.runner.run_on_core`
    runs it: tier 2, the emulator's own instruction watchdog, no
    wall-clock limit, no vetting.  A core is a preset name or a
    :class:`CoreConfig`, sent as its document.  There is no disk store:
    its key has no hash of the simulator's source, so it would serve
    figures from before a timing-model edit.
    """
    specs = [
        JobSpec(source=workload.source, compress=workload.compress,
                name=f"{workload.name}@{'/'.join(map(str, label))}",
                core=core if isinstance(core, str) else None,
                uarch=(None if isinstance(core, str)
                       else uconfig.config_to_doc(core)),
                mode=TIER_MODES[2], vet=False, max_insts=None,
                wall_timeout_s=None)
        for label, (workload, core) in cells.items()]
    results = run_jobs(specs, list(cells), jobs=jobs)
    return {label: result.metrics["stats"]
            for label, result in zip(cells, results)}


def ipc(stats: Mapping[str, Any]) -> float:
    """``CoreStats.ipc`` of a :func:`time_cells` stats dict (a job's
    ``metrics["ipc"]`` is rounded)."""
    return stats["instructions"] / stats["cycles"] if stats["cycles"] \
        else 0.0


# -- the sweep runner --------------------------------------------------------


def run_sweep(spec: SweepSpec, jobs: int | None = None,
              store: ResultStore | None = None,
              timeout: float | None = None,
              progress: Callable[[str], None] | None = None
              ) -> ExploreReport:
    """Expand *spec* into one pinned-mode job per (point, workload)
    cell and run the batch through :func:`run_jobs` over *store*:
    stored cells are served without simulating, new results are stored
    as they land.  A cell stopped by the spec's ``max_insts`` budget is
    a partial record, not a failure; any other failed cell is named in
    one :class:`CellFailure` after the siblings' results are already in
    the store."""
    points = expand(spec)
    try:
        workloads = [get_workload(name) for name in spec.workloads]
    except LookupError as exc:
        raise ExploreError(str(exc)) from None
    cells = [(point, workload) for point in points
             for workload in workloads]
    if progress is not None:
        progress(f"{spec.name}: {len(points)} point(s), "
                 f"{len(cells)} cell(s) to look up or simulate")
    outcomes = run_jobs(
        [JobSpec(source=workload.source, compress=workload.compress,
                 name=f"{workload.name}@{point.label}", core=None,
                 uarch=point.doc, mode=TIER_MODES[spec.tier], vet=False,
                 max_insts=spec.max_insts, wall_timeout_s=timeout)
         for point, workload in cells],
        [(workload.name, point.label) for point, workload in cells],
        jobs=jobs, store=store if store is not None else ExploreStore())
    results = [CellResult(point, workload.name, {
        "cycles": outcome.metrics["cycles"],
        "instructions": outcome.metrics["instructions"],
        "ipc": outcome.metrics["ipc"],
        "exit_code": outcome.exit_code or 0,
        "watchdog_expired": int(outcome.partial),
        "stats": outcome.metrics["stats"],
    }, cached=outcome.cache_hit)
        for (point, workload), outcome in zip(cells, outcomes)]
    simulated = sum(1 for cell in results if not cell.cached)
    return ExploreReport(
        name=spec.name, tier=spec.tier, axes=list(spec.axes),
        points=len(points), results=results,
        cache_hits=len(results) - simulated, simulated=simulated)


# -- the committed depth-sweep bench -----------------------------------------

#: Swept frontend depths (XT-910's own frontend is 7 of the 12 stages).
DEPTHS = [3, 5, 7, 9, 11, 13]

#: Latch/clock overhead as a fraction of total logic depth at the
#: reference point: the classic pipelining model ``f = 1/(t_logic/d +
#: t_latch)`` that gives the RV-IM100-style interior optimum.
LATCH_FRACTION = 0.10

#: The reference depth frequencies are normalized against.
_REF_DEPTH = 7

_QUICK_WORKLOADS = ["coremark-list"]
_FULL_WORKLOADS = ["coremark-list", "coremark-matrix", "coremark-state",
                   "coremark-crc"]


def frequency_scale(depth: int) -> float:
    """Relative achievable clock at *depth* (1.0 at the reference)."""
    ref_period = 1.0 / _REF_DEPTH + LATCH_FRACTION
    period = 1.0 / depth + LATCH_FRACTION
    return ref_period / period


def depth_point(depth: int) -> dict[str, Any]:
    """The linked knob set for one frontend depth.

    A deeper frontend pays proportionally on every redirect: each
    added stage is one more flush slot to drain *and* one more refill
    cycle before fetch re-steers (2 cycles/stage), and the decode-point
    correction for L1-miss taken branches lands later.  This is the
    RV-IM100 methodology — depth is not one knob but a family of
    penalties that move together.
    """
    return {
        "frontend.depth": depth,
        "frontend.mispredict_extra": 2 * max(0, depth - 3),
        "frontend.taken_bubble_miss": max(1, depth // 3),
    }


def depth_sweep_spec(quick: bool = False) -> SweepSpec:
    """The BENCH_explore.json sweep: frontend depth over CoreMark."""
    return SweepSpec(
        base="xt910",
        workloads=list(_QUICK_WORKLOADS if quick else _FULL_WORKLOADS),
        axes=[SweepAxis("frontend.depth",
                        [depth_point(depth) for depth in DEPTHS])],
        tier=2,
        name="depth-sweep")


def run_depth(quick: bool = False, jobs: int | None = None,
              store: ResultStore | None = None) -> dict[str, Any]:
    """Run the depth sweep and shape the BENCH_explore.json body.

    There is no ``repeat``: cycle counts are simulated, not measured,
    so one run is exact.
    """
    spec = depth_sweep_spec(quick)
    report = run_sweep(spec, jobs=jobs, store=store)
    by_depth: dict[int, dict[str, Any]] = {}
    for cell in report.results:
        depth = int(cell.point.overrides["frontend.depth"])
        row = by_depth.setdefault(depth, {
            "depth": depth, "freq_rel": round(frequency_scale(depth), 6),
            "workloads": {}})
        row["workloads"][cell.workload] = {
            "cycles": cell.record["cycles"],
            "ipc": cell.record["ipc"],
        }
    rows = []
    for depth in sorted(by_depth):
        row = by_depth[depth]
        cycles = sum(w["cycles"] for w in row["workloads"].values())
        row["cycles_total"] = cycles
        # higher is better: work per unit time, normalized to depth 7
        row["perf_rel"] = round(row["freq_rel"] / cycles, 9)
        rows.append(row)
    ref = next(r for r in rows if r["depth"] == _REF_DEPTH)
    for row in rows:
        row["perf_rel"] = round(row["perf_rel"] / (ref["freq_rel"]
                                                   / ref["cycles_total"]
                                                   ), 6)
    best = max(rows, key=lambda r: r["perf_rel"])
    return {
        "workloads": spec.workloads,
        "latch_fraction": LATCH_FRACTION,
        "rows": rows,
        "best_depth": best["depth"],
        "cache_hits": report.cache_hits,
        "simulated": report.simulated,
    }


def render(payload: Mapping[str, Any]) -> str:
    lines = [f"== explore: pipeline-depth sweep "
             f"({', '.join(payload['workloads'])}) =="]
    lines.append(f"{'depth':>6}{'cycles':>12}{'freq_rel':>10}"
                 f"{'perf_rel':>10}")
    for row in payload["rows"]:
        marker = "  <- best" if row["depth"] == payload["best_depth"] \
            else ""
        lines.append(f"{row['depth']:>6}{row['cycles_total']:>12}"
                     f"{row['freq_rel']:>10.3f}{row['perf_rel']:>10.3f}"
                     f"{marker}")
    lines.append(f"(latch fraction {payload['latch_fraction']}: deeper "
                 f"pipes clock faster but pay more bubble cycles — the "
                 f"RV-IM100 trade-off shape)")
    return "\n".join(lines)


def invariants(payload: Mapping[str, Any],
               baseline: Mapping[str, Any]) -> list[str]:
    """Exact-equality gate: simulated cycles must match the committed
    baseline per depth per workload, and the trade-off shape must hold
    (cycles non-decreasing in depth)."""
    failures: list[str] = []
    base_rows = {row["depth"]: row for row in baseline.get("rows", [])}
    quick = bool(payload.get("quick"))
    for row in payload["rows"]:
        base = base_rows.get(row["depth"])
        if base is None:
            failures.append(f"depth {row['depth']}: not in baseline")
            continue
        for name, measured in row["workloads"].items():
            expected = base.get("workloads", {}).get(name)
            if expected is None:
                if not quick:
                    failures.append(f"depth {row['depth']}: workload "
                                    f"{name} not in baseline")
                continue
            if measured["cycles"] != expected["cycles"]:
                failures.append(
                    f"depth {row['depth']} {name}: cycles "
                    f"{measured['cycles']} != baseline "
                    f"{expected['cycles']} (simulation is "
                    f"deterministic; this is a timing-model change)")
    cycles = [row["cycles_total"] for row in payload["rows"]]
    if cycles != sorted(cycles):
        failures.append(f"cycle counts not monotonic in depth: "
                        f"{cycles} (deeper frontend must not get "
                        f"cheaper)")
    return failures


#: No floored keys and so no tolerance: the whole gate is
#: :func:`invariants`.  Stamped with the store version, not ``schema``:
#: a record-format bump also invalidates the committed cycle counts.
BENCH = benchkit.Bench(
    name="explore-depth", run=run_depth, render=render, floors=(),
    tolerance=0.0, invariants=invariants, stamp=("version", STORE_VERSION))


# -- the harness experiment --------------------------------------------------


def smoke_spec() -> SweepSpec:
    """The CI smoke sweep: 2 axes on a tiny workload, >=100 points."""
    return SweepSpec(
        base="xt910",
        workloads=["blockchain-base"],
        axes=[
            SweepAxis("frontend.depth",
                      [depth_point(depth) for depth in DEPTHS]),
            SweepAxis.single("mem.dram.latency",
                             [80, 120, 160, 200, 240]),
            SweepAxis.single("mem.l1_prefetch.distance", [2, 4, 8, 16]),
        ],
        tier=2,
        name="explore-smoke")


def run_explore(quick: bool = True,
                jobs: int | None = None) -> ExperimentResult:
    """``EXPERIMENTS['explore']``: run the smoke sweep twice and prove
    the second pass is pure cache, then summarize the depth trade-off."""
    store = ExploreStore()
    spec = smoke_spec()
    first = run_sweep(spec, jobs=jobs, store=store)
    second = run_sweep(spec, jobs=jobs, store=store)
    bench = benchkit.run(BENCH, quick=quick, jobs=jobs, store=store)

    result = ExperimentResult(
        experiment="explore",
        title="design-space sweeps: config points through the pool, "
              "content-addressed result reuse")
    result.add("sweep points", None, first.points, "configs",
               note="x".join(str(len(a.points)) for a in spec.axes))
    result.add("first-pass simulated", None, first.simulated, "cells")
    result.add("second-pass cache hits", None, second.cache_hits,
               "cells")
    result.add("best depth", None, bench["best_depth"], "stages",
               note="freq/cycles optimum")
    result.metric("points", first.points)
    result.metric("cells", first.cells)
    result.metric("first_pass_simulated", first.simulated)
    result.metric("first_pass_cache_hits", first.cache_hits)
    result.metric("second_pass_simulated", second.simulated)
    result.metric("second_pass_cache_hits", second.cache_hits)
    result.metric("depth_best", bench["best_depth"])
    result.raw = {
        "points": first.points,
        "first_simulated": first.simulated,
        "second_simulated": second.simulated,
        "second_hits": second.cache_hits,
        "second_all_cached": second.simulated == 0
        and second.cache_hits == second.cells,
        "bench": bench,
    }
    return result


__all__ = [
    "ExploreError", "SweepAxis", "SweepSpec", "load_sweep",
    "ExplorePoint", "expand", "ExploreStore", "default_store_dir",
    "CellResult", "ExploreReport", "CellError", "CellFailure",
    "run_jobs", "time_cells", "ipc", "run_sweep",
    "depth_sweep_spec", "smoke_spec", "run_depth", "render",
    "invariants", "BENCH", "run_explore", "frequency_scale", "DEPTHS",
]
