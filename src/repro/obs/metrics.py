"""Namespaced metrics registry with JSON/CSV export and a comparator.

Every counter surface in the model — :class:`~repro.uarch.stats.
CoreStats`, the cache/TLB/prefetcher/DRAM counters, the SMP coherence
counters, the emulator's block-cache counters — walks into one flat
``namespace.dotted.key -> value`` dict.  Keys are validated at
``set()`` time so the harness experiments that report through the
registry stay schema-stable, and :func:`diff_metrics` compares two
exported snapshots (``repro metrics --diff a.json b.json``).
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Union

MetricValue = Union[int, float, str]

#: lowercase dotted namespaces; segments may use digits, ``_`` and ``-``
#: (core and workload names such as ``cortex-a73`` / ``coremark-list``).
_KEY_RE = re.compile(r"^[a-z0-9_-]+(\.[a-z0-9_-]+)*$")


class MetricsRegistry:
    """A flat, validated ``namespace.key -> value`` store."""

    def __init__(self) -> None:
        self._values: dict[str, MetricValue] = {}

    def set(self, key: str, value: object) -> None:
        if not _KEY_RE.match(key):
            raise ValueError(
                f"bad metric key {key!r}: keys are dot-separated "
                "lowercase segments of [a-z0-9_-]")
        if isinstance(value, bool):
            value = int(value)
        if not isinstance(value, (int, float, str)):
            raise TypeError(
                f"metric {key!r}: value must be int/float/str, "
                f"got {type(value).__name__}")
        self._values[key] = value

    def update(self, namespace: str, values: Mapping[str, object]) -> None:
        """Set every ``values`` entry under ``namespace.``."""
        for name, value in values.items():
            self.set(f"{namespace}.{name}", value)

    def as_dict(self) -> dict[str, MetricValue]:
        return dict(sorted(self._values.items()))

    def keys(self) -> list[str]:
        return sorted(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: str) -> bool:
        return key in self._values

    def __getitem__(self, key: str) -> MetricValue:
        return self._values[key]

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._values))

    # -- export -------------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["metric", "value"])
        for key, value in self.as_dict().items():
            writer.writerow([key, value])
        return buffer.getvalue()

    def save(self, path: str) -> None:
        """Write by extension: ``.csv`` → CSV, anything else JSON."""
        payload = self.to_csv() if path.endswith(".csv") else self.to_json()
        with open(path, "w") as handle:
            handle.write(payload)
            if not payload.endswith("\n"):
                handle.write("\n")

    @classmethod
    def from_dict(cls, values: Mapping[str, object]) -> "MetricsRegistry":
        registry = cls()
        for key, value in values.items():
            registry.set(key, value)
        return registry

    @classmethod
    def load(cls, path: str) -> "MetricsRegistry":
        with open(path) as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: expected a flat JSON object")
        return cls.from_dict(payload)


# -- counter-surface walkers ------------------------------------------------


def collect_core_stats(stats: Any,
                       registry: MetricsRegistry | None = None,
                       prefix: str = "core") -> MetricsRegistry:
    """Walk a :class:`~repro.uarch.stats.CoreStats` into the registry.

    Scalar fields land under ``core.*``; the ``extra`` dict (block-
    cache counters the runner copies in) lands under ``emu.*``, except
    the tier-3 translator's ``codegen_*`` counters (own
    ``sim.codegen.*`` namespace: blocks compiled, compile seconds,
    disk-cache hits/misses, ...), the batched vector engine's
    ``vector_*`` counters (``sim.vector.*``: batched/specialized/
    fallback ops, mask density) and the emulator tier that ran, with
    the reason when it is not the one asked for (``sim.tier``,
    ``sim.tier_reason``).
    """
    registry = registry if registry is not None else MetricsRegistry()
    for name, value in vars(stats).items():
        if name == "extra":
            continue
        registry.set(f"{prefix}.{name}", value)
    registry.set(f"{prefix}.ipc", stats.ipc)
    for name, value in getattr(stats, "extra", {}).items():
        if name.startswith("vector_"):
            registry.set(f"sim.vector.{name[len('vector_'):]}", value)
        elif name.startswith("codegen_"):
            registry.set(f"sim.codegen.{name[len('codegen_'):]}", value)
        elif name in ("tier", "tier_reason"):
            registry.set(f"sim.{name}", value)
        else:
            registry.set(f"emu.{name}", value)
    return registry


def collect_hierarchy(hierarchy: Any,
                      registry: MetricsRegistry | None = None,
                      prefix: str = "mem") -> MetricsRegistry:
    """Walk a :class:`~repro.mem.hierarchy.MemoryHierarchy`'s counters."""
    registry = registry if registry is not None else MetricsRegistry()
    registry.update(prefix, hierarchy.stats.counters())
    for name, cache in (("l1i", hierarchy.l1i), ("l1d", hierarchy.l1d),
                        ("l2", hierarchy.l2)):
        registry.update(f"{prefix}.{name}", cache.stats.counters())
    registry.update(f"{prefix}.tlb", hierarchy.tlb.stats.counters())
    registry.update(f"{prefix}.l1_prefetch",
                    hierarchy.l1_prefetcher.stats.counters())
    registry.update(f"{prefix}.l2_prefetch",
                    hierarchy.l2_prefetcher.stats.counters())
    registry.update(f"{prefix}.dram", hierarchy.dram.counters())
    return registry


def collect_smp(smp_stats: Any,
                registry: MetricsRegistry | None = None,
                prefix: str = "smp") -> MetricsRegistry:
    """Walk SMP coherence counters (:class:`SmpTimingStats`)."""
    registry = registry if registry is not None else MetricsRegistry()
    registry.update(prefix, smp_stats.counters())
    return registry


def collect_service(service: Any,
                    registry: MetricsRegistry | None = None,
                    prefix: str = "service") -> MetricsRegistry:
    """Walk a :class:`~repro.service.core.JobService`'s counters.

    Everything lands under ``service.*``: job terminal-state counts,
    retry/fallback/crash/timeout totals, circuit-breaker and result-
    cache counters, and end-to-end latency percentiles.
    """
    registry = registry if registry is not None else MetricsRegistry()
    registry.update(prefix, service.counters())
    return registry


def collect_explore(report: Any,
                    registry: MetricsRegistry | None = None,
                    prefix: str = "explore") -> MetricsRegistry:
    """Walk an :class:`~repro.harness.explore.ExploreReport`.

    Sweep-level provenance lands under ``explore.*`` (points, cells,
    cache hits vs simulations, tier); each cell's headline numbers land
    under ``explore.<point>.<workload>.*`` with the point's axis
    values beside them (``explore.<point>.axis.<dotted.path>``), so a
    saved report diffs meaningfully against any other sweep of the
    same spec.
    """
    registry = registry if registry is not None else MetricsRegistry()
    registry.set(f"{prefix}.sweep", report.name)
    registry.set(f"{prefix}.tier", report.tier)
    registry.set(f"{prefix}.points", report.points)
    registry.set(f"{prefix}.cells", report.cells)
    registry.set(f"{prefix}.cache_hits", report.cache_hits)
    registry.set(f"{prefix}.simulated", report.simulated)
    for cell in report.results:
        head = f"{prefix}.{cell.point.label}.{cell.workload}"
        registry.set(f"{head}.cycles", cell.record["cycles"])
        registry.set(f"{head}.instructions",
                     cell.record["instructions"])
        registry.set(f"{head}.ipc", cell.record["ipc"])
        registry.set(f"{head}.cached", cell.cached)
        for path, value in cell.point.overrides.items():
            registry.set(f"{prefix}.{cell.point.label}.axis.{path}",
                         value)
    return registry


def collect_run(result: Any,
                registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Everything one :class:`~repro.harness.runner.RunResult` measured."""
    registry = registry if registry is not None else MetricsRegistry()
    collect_core_stats(result.stats, registry)
    collect_hierarchy(result.pipeline.hier, registry)
    return registry


# -- comparator -------------------------------------------------------------


@dataclass(slots=True)
class MetricDelta:
    """One key that differs between two snapshots.

    ``before``/``after`` is None when the key exists only on one side.
    """

    key: str
    before: MetricValue | None
    after: MetricValue | None

    @property
    def change(self) -> float | None:
        """Relative change for numeric pairs, else None."""
        if isinstance(self.before, (int, float)) \
                and isinstance(self.after, (int, float)) and self.before:
            return (self.after - self.before) / abs(self.before)
        return None


def diff_metrics(before: Mapping[str, MetricValue],
                 after: Mapping[str, MetricValue]) -> list[MetricDelta]:
    """Keys added, removed or changed between two metric snapshots."""
    deltas: list[MetricDelta] = []
    for key in sorted(set(before) | set(after)):
        old = before.get(key)
        new = after.get(key)
        if old != new:
            deltas.append(MetricDelta(key, old, new))
    return deltas


def render_diff(deltas: list[MetricDelta]) -> str:
    if not deltas:
        return "no differences"
    width = max(len(d.key) for d in deltas) + 2
    lines = [f"{'metric':<{width}}{'before':>14}{'after':>14}  change"]
    for delta in deltas:
        before = "-" if delta.before is None else _fmt(delta.before)
        after = "-" if delta.after is None else _fmt(delta.after)
        change = delta.change
        suffix = f"  {change:+.1%}" if change is not None else ""
        lines.append(f"{delta.key:<{width}}{before:>14}{after:>14}{suffix}")
    return "\n".join(lines)


def _fmt(value: MetricValue) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
