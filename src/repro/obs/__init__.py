"""Observability layer: pipeline traces, metrics, guest profiling.

Three opt-in instruments over the timing model, all None-guarded in the
hot loops exactly like the runtime sanitizer — with everything off the
model's behaviour and :class:`~repro.uarch.stats.CoreStats` stay
bit-identical to the committed golden oracle:

* :class:`PipelineTracer` — per-instruction stage-entry cycles in a
  bounded ring buffer, exported as Kanata/Konata pipeline-visualiser
  files or JSONL (``repro run --trace out.kanata``),
* :class:`MetricsRegistry` — every counter in the model walked into one
  namespaced flat dict with JSON/CSV export and a diff comparator
  (``repro metrics``),
* :class:`GuestProfiler` — cycle attribution binned by guest PC and
  rolled up to the functions ``repro.analysis.cfg`` recovers
  (``repro top``), and per-PC executions and stalls rolled up to
  symbol regions (``repro profile``).
"""

from .guestprof import GuestProfiler, ProfileReport
from .metrics import (
    MetricDelta,
    MetricsRegistry,
    collect_core_stats,
    collect_explore,
    collect_hierarchy,
    collect_run,
    collect_service,
    collect_smp,
    diff_metrics,
    render_diff,
)
from .trace import (
    KANATA_HEADER,
    STAGES,
    PipelineTracer,
    TraceRecord,
    parse_kanata,
    read_kanata,
    render_kanata,
)

__all__ = [
    "GuestProfiler",
    "ProfileReport",
    "KANATA_HEADER",
    "MetricDelta",
    "MetricsRegistry",
    "PipelineTracer",
    "STAGES",
    "TraceRecord",
    "collect_core_stats",
    "collect_explore",
    "collect_hierarchy",
    "collect_run",
    "collect_service",
    "collect_smp",
    "diff_metrics",
    "parse_kanata",
    "read_kanata",
    "render_diff",
    "render_kanata",
]
