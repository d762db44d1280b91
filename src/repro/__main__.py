"""Command-line interface.

    python -m repro run program.s [--core xt910] [--mmu] [--profile]
    python -m repro run program.s --uarch my.yaml --extend overlay.yaml
    python -m repro run program.s --sanitize
    python -m repro lint program.s [--json]
    python -m repro lint --workloads [--update-baseline]
    python -m repro disasm program.s
    python -m repro profile program.s [--core xt910] [--top 15]
    python -m repro compare program.s --cores xt910 u74 cortex-a73
    python -m repro bench [--quick] [--out BENCH_emulator.json]
    python -m repro bench --pipeline [--out BENCH_pipeline.json]
    python -m repro bench --service [--out BENCH_service.json]
    python -m repro bench --tier 3 [--out BENCH_tier3.json]
    python -m repro bench --vector [--out BENCH_vector.json]
    python -m repro submit prog1.s prog2.s [--jobs 4] [--mode auto]
    python -m repro submit --workloads [coremark-int ...] --jobs 8
    python -m repro serve [--jobs 4]              (JSONL jobs on stdin)
    python -m repro explore sweep.yaml [--jobs 8] [--out report.json]
    python -m repro explore --depth [--out BENCH_explore.json]
    python -m repro harness [experiment ...]      (alias of repro.harness)

``--core`` everywhere takes a preset name *or* a config document path
(.yaml/.yml/.json); ``--extend`` merges overlay documents on top in
order (see ``repro.uarch.uconfig``).
"""

from __future__ import annotations

import argparse
import sys

from .asm import assemble
from .harness.runner import GuestExit, run_on_core
from .isa.disasm import disassemble_program
from .sim import Emulator, WatchdogExpired
from .uarch.presets import PRESETS


def _load(path: str, compress: bool) -> "Program":  # noqa: F821
    with open(path) as handle:
        return assemble(handle.read(), compress=compress)


def _core_config(core, extends=()):
    """Resolve a ``--core``/``--uarch`` value into a CoreConfig, lazily.

    argparse no longer bakes ``choices=sorted(PRESETS)`` into the
    parsers, so *core* may be a preset name or a config document path —
    and an unknown name gets the validator's error message (which
    lists the presets) instead of a parser rejection.
    """
    from .uarch import uconfig

    try:
        return uconfig.resolve_core(core, tuple(extends or ()))
    except uconfig.UconfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc


def _timed(program, config, **options):
    """:func:`run_on_core`; a guest's non-zero exit is still a result."""
    try:
        return run_on_core(program, config, **options)
    except GuestExit as exc:
        return exc.result


def cmd_run(args) -> int:
    program = _load(args.program, not args.no_compress)
    if args.core and args.uarch:
        print("error: --core and --uarch are exclusive (both name the "
              "timing config)", file=sys.stderr)
        return 2
    core_arg = args.uarch or args.core
    if args.extend and not core_arg:
        print("error: --extend overlays need a --core or --uarch base",
              file=sys.stderr)
        return 2
    if args.profile and not core_arg:
        print("error: --profile needs --core (it profiles the harness "
              "path: emulator + timing model)", file=sys.stderr)
        return 2
    if args.trace and not core_arg:
        print("error: --trace needs --core (stage cycles come from the "
              "timing model)", file=sys.stderr)
        return 2
    if args.trace and args.profile:
        print("error: --trace and --profile are exclusive",
              file=sys.stderr)
        return 2
    if args.sanitize:
        if core_arg or args.mmu or args.lockstep:
            print("error: --sanitize hooks the block-cache fast path "
                  "and excludes --core/--mmu/--lockstep", file=sys.stderr)
            return 2
        return _run_sanitized(program, args)
    if core_arg:
        config = _core_config(core_arg, args.extend)
        breakdown = None
        tracer = None
        if args.profile:
            from .harness.runner import profile_run, render_profile

            result, breakdown = profile_run(program, config,
                                            max_insts=args.max_insts,
                                            partial_on_watchdog=True)
        else:
            if args.trace:
                from .obs import PipelineTracer

                tracer = PipelineTracer(window=args.trace_window)
            result = _timed(program, config, tracer=tracer,
                            max_insts=args.max_insts,
                            partial_on_watchdog=True)
        if result.watchdog is not None:
            first_line = str(result.watchdog.args[0]).splitlines()[0]
            print(f"{first_line}; stats below cover the bounded prefix")
        print(f"core {config.name}: {result.cycles} cycles, "
              f"IPC {result.ipc:.3f}, exit {result.exit_code}")
        if result.stdout:
            print(result.stdout, end="")
        if args.stats:
            print(result.stats.summary())
        if breakdown is not None:
            print(render_profile(breakdown))
        if tracer is not None:
            tracer.write(args.trace)
            print(f"wrote {args.trace} ({len(tracer)} of "
                  f"{tracer.recorded} instructions in window)")
        return result.exit_code
    emulator = Emulator(program, enable_mmu=args.mmu,
                        instruction_limit=args.max_insts)
    if args.lockstep:
        from .ras.lockstep import LockstepChecker

        checker = LockstepChecker(
            program, primary=emulator,
            shadow_kwargs={"enable_mmu": args.mmu,
                           "instruction_limit": args.max_insts})
        result = checker.run(args.max_steps)
        if emulator.stdout:
            print(emulator.stdout, end="")
        if not result.ok:
            print(result.divergence.render())
            return 1
        if not emulator.halted:
            print(f"watchdog: lockstep stopped after {result.steps} "
                  f"instructions without exit (pc={emulator.state.pc:#x})")
            return 2
        print(f"lockstep: {result.steps} instructions, no divergence; "
              f"exit {emulator.exit_code}")
        return emulator.exit_code or 0
    code = emulator.run(args.max_steps)
    if emulator.stdout:
        print(emulator.stdout, end="")
    print(f"exit {code} after {emulator.state.instret} instructions")
    return code


def _run_sanitized(program, args) -> int:
    from .analysis import Sanitizer, SanitizerViolation

    emulator = Emulator(program, instruction_limit=args.max_insts)
    emulator.sanitizer = Sanitizer(program)
    try:
        code = emulator.run(args.max_steps, tier=2)
    except SanitizerViolation as exc:
        if emulator.stdout:
            print(emulator.stdout, end="")
        print(f"sanitizer: {exc.violation.render()}")
        return 1
    if emulator.stdout:
        print(emulator.stdout, end="")
    stats = emulator.sanitizer.summary()
    print(f"exit {code} after {emulator.state.instret} instructions "
          f"(sanitized: {stats['blocks_checked']} blocks, "
          f"max call depth {stats['max_call_depth']}, "
          f"{stats['violations']} violations)")
    return code


def cmd_lint(args) -> int:
    import json as json_mod

    from .analysis import (compare_to_baseline, lint_program,
                           lint_workloads, load_baseline, save_baseline)
    from .analysis.lint import DEFAULT_BASELINE

    if bool(args.program) == bool(args.workloads):
        print("error: lint needs a program file or --workloads",
              file=sys.stderr)
        return 2
    if args.workloads:
        reports = lint_workloads()
    else:
        program = _load(args.program, not args.no_compress)
        reports = [lint_program(program, name=args.program)]

    baseline_path = args.baseline or DEFAULT_BASELINE
    if args.update_baseline:
        save_baseline(reports, baseline_path)
        total = sum(len(r.keys) for r in reports)
        print(f"wrote {baseline_path} ({total} accepted findings)")
        return 0

    # A single-file lint only honors an explicitly-passed baseline; the
    # committed one keys findings by workload name.
    use_baseline = not args.no_baseline and (args.workloads
                                             or args.baseline is not None)
    baseline = load_baseline(baseline_path) if use_baseline else {}
    new, stale = compare_to_baseline(reports, baseline)
    if args.json:
        payload = {
            "programs": [r.to_dict() for r in reports],
            "new": [{"program": name, **_finding_json(f)}
                    for name, f in new],
            "stale": [{"program": name, "key": key}
                      for name, key in stale],
        }
        print(json_mod.dumps(payload, indent=2))
    else:
        for report in reports:
            status = "clean" if not report.findings else \
                f"{len(report.findings)} finding(s)"
            print(f"{report.name}: {report.instructions} insts, "
                  f"{report.blocks} blocks, {report.functions} "
                  f"function(s) -- {status}")
            for finding in report.findings:
                marker = " " if finding.key in \
                    set(baseline.get(report.name, ())) else "*"
                print(f"  {marker} {finding.render()}")
        for name, key in stale:
            print(f"stale baseline entry: {name}: {key}")
    if new:
        against = f"not in baseline ({baseline_path})" if use_baseline \
            else "reported"
        print(f"lint: {len(new)} finding(s) {against}", file=sys.stderr)
        return 1
    return 0


def _finding_json(finding) -> dict:
    from .analysis.lint import finding_dict

    return finding_dict(finding)


def cmd_disasm(args) -> int:
    program = _load(args.program, not args.no_compress)
    for line in disassemble_program(program):
        print(line)
    return 0


def cmd_profile(args) -> int:
    """``profile`` and ``top``: two views of one profiled run."""
    from .obs import GuestProfiler

    program = _load(args.program, not args.no_compress)
    profiler = GuestProfiler()
    result = _timed(program, _core_config(args.core), profiler=profiler)
    if args.command == "top":
        print(profiler.attribute(program).render(
            top=args.top, cumulative=args.cumulative))
    else:
        print(profiler.hotspots(program, result.stats, top=args.top))
    return 0


def cmd_metrics(args) -> int:
    from .obs import MetricsRegistry, collect_run, diff_metrics, render_diff

    if args.diff:
        if args.program:
            print("error: --diff compares two saved snapshots and takes "
                  "no program", file=sys.stderr)
            return 2
        before = MetricsRegistry.load(args.diff[0])
        after = MetricsRegistry.load(args.diff[1])
        deltas = diff_metrics(before.as_dict(), after.as_dict())
        print(render_diff(deltas))
        return 1 if deltas else 0
    if not args.program:
        print("error: metrics needs a program file or --diff A B",
              file=sys.stderr)
        return 2
    program = _load(args.program, not args.no_compress)
    config = _core_config(args.uarch or args.core, args.extend)
    result = _timed(program, config, tier=args.tier)
    registry = collect_run(result)
    if args.out:
        registry.save(args.out)
        print(f"wrote {args.out} ({len(registry)} metrics)")
    elif args.csv:
        print(registry.to_csv(), end="")
    else:
        print(registry.to_json())
    return 0


def cmd_compare(args) -> int:
    program = _load(args.program, not args.no_compress)
    rows = []
    for core in args.cores:
        config = _core_config(core, args.extend)
        result = _timed(program, config)
        rows.append((config.name, result.cycles, result.ipc))
    base = rows[0][1]
    print(f"{'core':14s}{'cycles':>10}{'IPC':>8}{'vs ' + rows[0][0]:>12}")
    for core, cycles, ipc in rows:
        print(f"{core:14s}{cycles:>10}{ipc:>8.3f}{base / cycles:>11.2f}x")
    return 0


def cmd_bench(args) -> int:
    from .harness import benchkit

    exclusive = [flag for flag in ("pipeline", "service", "vector")
                 if getattr(args, flag)]
    if len(exclusive) > 1:
        print(f"error: --{' and --'.join(exclusive)} are exclusive",
              file=sys.stderr)
        return 2
    if args.tier is not None and exclusive:
        print("error: --tier applies to the emulator bench only",
              file=sys.stderr)
        return 2
    # the exclusive flags are spelled like the benches they select;
    # tiers 1 and 2 are the emulator bench's precise/fast columns
    name = exclusive[0] if exclusive else (
        "tier3" if args.tier == 3 else "emulator")
    options = {"quick": args.quick}
    if name != "service":       # one batch's throughput, not a best-of-N
        options["repeat"] = args.repeat
    return benchkit.drive(benchkit.get(name), out=args.out,
                          baseline=args.baseline,
                          tolerance=args.tolerance, **options)


def _submit_specs(args) -> list:
    """Build the JobSpec batch from files or bundled workloads."""
    from .service import JobSpec

    core = None if args.core in (None, "none") else args.core
    uarch = None
    if args.uarch or args.extend:
        from .uarch import uconfig

        # Resolve and validate up front: a bad document fails the whole
        # submit with the validator's message, before any job runs.
        config = _core_config(args.uarch or core or "xt910", args.extend)
        uarch = uconfig.config_to_doc(config)
        core = config.name
    common = dict(core=core, uarch=uarch, mode=args.mode,
                  max_insts=args.max_insts,
                  wall_timeout_s=args.wall_timeout, vet=not args.no_vet)
    specs = []
    if args.workloads:
        from .workloads import all_workloads, get_workload

        try:
            workloads = ([get_workload(name) for name in args.targets]
                         if args.targets else all_workloads())
        except LookupError as exc:
            raise SystemExit(f"error: {exc}") from None
        for workload in workloads:
            specs.append(JobSpec(source=workload.source,
                                 name=workload.name,
                                 compress=workload.compress, **common))
    else:
        for path in args.targets:
            with open(path) as handle:
                specs.append(JobSpec(source=handle.read(), name=path,
                                     compress=not args.no_compress,
                                     **common))
    return specs


def cmd_submit(args) -> int:
    import json as json_mod

    from .service import JobService, ResultStore, RetryPolicy

    if not args.workloads and not args.targets:
        print("error: submit needs program files or --workloads",
              file=sys.stderr)
        return 2
    specs = _submit_specs(args)
    with JobService(workers=args.jobs,
                    retry=RetryPolicy(max_attempts=args.max_attempts),
                    store=ResultStore(args.store),
                    isolation=not args.no_isolation) as service:
        results = service.run(specs)
    if args.json:
        print(json_mod.dumps({
            "results": [r.to_dict() for r in results],
            "counters": service.counters(),
        }, indent=2, sort_keys=True))
    else:
        for result in results:
            print(result.summary())
        counters = service.counters()
        print(f"-- {counters['jobs_completed']}/{len(results)} completed "
              f"({counters['jobs_degraded']} degraded, "
              f"{counters['retries']} retries, "
              f"{counters['cache_hits']} cache hits) "
              f"p50 {counters['latency_p50_ms']:.0f}ms "
              f"p99 {counters['latency_p99_ms']:.0f}ms")
    return 0 if all(r.ok for r in results) else 1


def cmd_explore(args) -> int:
    from .harness import benchkit, explore
    from .uarch import uconfig

    if bool(args.spec) == bool(args.depth):
        print("error: explore needs a sweep spec file or --depth",
              file=sys.stderr)
        return 2
    store = explore.ExploreStore(args.store)
    if args.depth:
        return benchkit.drive(benchkit.get("explore-depth"), out=args.out,
                              baseline=args.baseline, quick=args.quick,
                              jobs=args.jobs, store=store)
    try:
        spec = explore.load_sweep(args.spec)
        report = explore.run_sweep(spec, jobs=args.jobs, store=store,
                                   timeout=args.timeout, progress=print)
    except (explore.ExploreError, uconfig.UconfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{spec.name}: {report.points} point(s) x "
          f"{len(spec.workloads)} workload(s) = {report.cells} cells; "
          f"{report.cache_hits} cached, {report.simulated} simulated")
    if args.out:
        report.save(args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_serve(args) -> int:
    """JSONL job server: one JobSpec per stdin line, one JobResult per
    stdout line.  Malformed lines get a rejected result, not a crash."""
    import json as json_mod

    from .service import (
        GuestFault,
        JobResult,
        JobService,
        JobSpec,
        JobState,
        ResultStore,
    )

    with JobService(workers=args.jobs, store=ResultStore(args.store),
                    isolation=not args.no_isolation) as service:
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            try:
                spec = JobSpec.from_dict(json_mod.loads(line))
            except Exception as exc:
                bad = JobResult(
                    name="?", state=JobState.REJECTED,
                    error=GuestFault(f"unparseable job line: {exc}",
                                     retryable=False).to_dict())
                print(json_mod.dumps(bad.to_dict()), flush=True)
                continue
            result = service.submit(spec)
            print(json_mod.dumps(result.to_dict()), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Xuantie-910 reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("program", help="assembly source file")
        p.add_argument("--no-compress", action="store_true",
                       help="disable RVC compression")

    #: help-text tail shared by every --core option; the actual
    #: resolution is lazy (see _core_config), never an argparse choices
    #: list, so config files work everywhere a preset does.
    core_help = (f"preset ({', '.join(sorted(PRESETS))}) or config "
                 f"document path (.yaml/.json)")
    #: help text of the --store option of submit and serve
    store_help = ("result store directory, shared across runs "
                  "(default: an in-memory store for this run)")

    p_run = sub.add_parser("run", help="assemble and execute / time")
    add_common(p_run)
    p_run.add_argument("--core", default=None, metavar="CORE",
                       help=f"time on this core model: {core_help} "
                            f"(default: emulate only)")
    p_run.add_argument("--uarch", default=None, metavar="FILE",
                       help="core config document (equivalent to "
                            "--core FILE; exclusive with --core)")
    p_run.add_argument("--extend", action="append", default=[],
                       metavar="FILE",
                       help="overlay document(s) merged onto the "
                            "--core/--uarch base, in order (repeatable)")
    p_run.add_argument("--mmu", action="store_true",
                       help="enable SV39 translation in the emulator")
    p_run.add_argument("--stats", action="store_true")
    p_run.add_argument("--profile", action="store_true",
                       help="with --core: wall-time breakdown of the "
                            "harness (emulation vs timing model vs "
                            "memory hierarchy)")
    p_run.add_argument("--max-steps", type=int, default=None)
    p_run.add_argument("--max-insts", type=int, default=None,
                       help="watchdog instruction limit (default 50M); "
                            "expiry raises a post-mortem dump")
    p_run.add_argument("--lockstep", action="store_true",
                       help="run a golden shadow emulator and diff "
                            "architectural state every instruction")
    p_run.add_argument("--sanitize", action="store_true",
                       help="run on the block-cache path with shadow "
                            "init-state and call-stack checking; exits "
                            "1 on the first violation")
    p_run.add_argument("--trace", metavar="FILE", default=None,
                       help="with --core: write the pipeline event "
                            "trace here (Konata/Kanata format; a "
                            ".jsonl suffix selects JSONL)")
    p_run.add_argument("--trace-window", type=int, default=65536,
                       metavar="N",
                       help="trace ring-buffer size: keep the last N "
                            "instructions (default 65536)")
    p_run.set_defaults(fn=cmd_run)

    p_lint = sub.add_parser(
        "lint", help="static analysis: CFG recovery + checker suite")
    p_lint.add_argument("program", nargs="?", default=None,
                        help="assembly source file (or use --workloads)")
    p_lint.add_argument("--no-compress", action="store_true",
                        help="disable RVC compression")
    p_lint.add_argument("--workloads", action="store_true",
                        help="lint every bundled workload")
    p_lint.add_argument("--json", action="store_true",
                        help="machine-readable findings on stdout")
    p_lint.add_argument("--baseline", default=None,
                        help="accepted-findings JSON (default: the "
                             "committed lint_baseline.json)")
    p_lint.add_argument("--no-baseline", action="store_true",
                        help="report every finding, ignore the baseline")
    p_lint.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from this run's "
                             "findings")
    p_lint.set_defaults(fn=cmd_lint)

    p_dis = sub.add_parser("disasm", help="disassemble the text section")
    add_common(p_dis)
    p_dis.set_defaults(fn=cmd_disasm)

    p_prof = sub.add_parser("profile", help="per-PC hot-spot profile")
    add_common(p_prof)
    p_prof.add_argument("--core", default="xt910", metavar="CORE",
                        help=core_help)
    p_prof.add_argument("--top", type=int, default=15)
    p_prof.set_defaults(fn=cmd_profile)

    p_met = sub.add_parser(
        "metrics", help="walk every model counter into one namespaced "
                        "dict; or diff two saved snapshots")
    p_met.add_argument("program", nargs="?", default=None,
                       help="assembly source file (or use --diff)")
    p_met.add_argument("--no-compress", action="store_true",
                       help="disable RVC compression")
    p_met.add_argument("--core", default="xt910", metavar="CORE",
                       help=core_help)
    p_met.add_argument("--uarch", default=None, metavar="FILE",
                       help="core config document (overrides --core)")
    p_met.add_argument("--extend", action="append", default=[],
                       metavar="FILE",
                       help="overlay document(s) merged onto the base "
                            "config, in order (repeatable)")
    p_met.add_argument("--tier", type=int, default=2, choices=[1, 2, 3],
                       help="execution tier for the run; 3 adds the "
                            "sim.codegen.* translator counters")
    p_met.add_argument("--out", default=None, metavar="FILE",
                       help="write the snapshot (JSON; .csv for CSV)")
    p_met.add_argument("--csv", action="store_true",
                       help="print CSV instead of JSON")
    p_met.add_argument("--diff", nargs=2, metavar=("A", "B"), default=None,
                       help="compare two saved JSON snapshots; exits 1 "
                            "when they differ")
    p_met.set_defaults(fn=cmd_metrics)

    p_top = sub.add_parser(
        "top", help="guest cycle profile rolled up to functions")
    add_common(p_top)
    p_top.add_argument("--core", default="xt910", metavar="CORE",
                       help=core_help)
    p_top.add_argument("--top", type=int, default=20)
    p_top.add_argument("--cumulative", action="store_true",
                       help="rank by call-period (inclusive) cycles")
    p_top.set_defaults(fn=cmd_profile)

    p_cmp = sub.add_parser("compare", help="same binary on several cores")
    add_common(p_cmp)
    p_cmp.add_argument("--cores", nargs="+", default=["xt910", "u74"],
                       metavar="CORE",
                       help=f"each a {core_help}")
    p_cmp.add_argument("--extend", action="append", default=[],
                       metavar="FILE",
                       help="overlay document(s) merged onto *every* "
                            "compared core, in order (repeatable)")
    p_cmp.set_defaults(fn=cmd_compare)

    p_sub = sub.add_parser(
        "submit", help="run a batch of jobs through the fault-tolerant "
                       "service (crash isolation, watchdogs, retry, "
                       "fast->precise fallback)")
    p_sub.add_argument("targets", nargs="*",
                       help="assembly source files (or workload names "
                            "with --workloads)")
    p_sub.add_argument("--workloads", action="store_true",
                       help="submit bundled workloads instead of files "
                            "(all of them, or the named subset)")
    p_sub.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker-pool width (default: up to 8)")
    p_sub.add_argument("--core", default="xt910", metavar="CORE",
                       help=f"timing core ({core_help}), or 'none' "
                            f"for functional-only")
    p_sub.add_argument("--uarch", default=None, metavar="FILE",
                       help="core config document; resolved and "
                            "validated up front, shipped inline in "
                            "each JobSpec")
    p_sub.add_argument("--extend", action="append", default=[],
                       metavar="FILE",
                       help="overlay document(s) merged onto the "
                            "--core/--uarch base, in order (repeatable)")
    p_sub.add_argument("--mode", default="auto",
                       choices=["auto", "tier3", "fast", "precise"],
                       help="execution tier; auto = tier3 with fast and "
                            "precise fallbacks on tier failure/divergence")
    p_sub.add_argument("--max-insts", type=int, default=5_000_000,
                       help="per-job instruction watchdog (default 5M)")
    p_sub.add_argument("--wall-timeout", type=float, default=60.0,
                       metavar="S",
                       help="per-job wall-clock watchdog in seconds")
    p_sub.add_argument("--max-attempts", type=int, default=3,
                       help="attempts per job for transient failures")
    p_sub.add_argument("--no-vet", action="store_true",
                       help="skip static admission vetting")
    p_sub.add_argument("--no-isolation", action="store_true",
                       help="run jobs inline (no crash containment)")
    p_sub.add_argument("--no-compress", action="store_true",
                       help="disable RVC compression")
    p_sub.add_argument("--json", action="store_true",
                       help="machine-readable results on stdout")
    p_sub.add_argument("--store", default=None, metavar="DIR",
                       help=store_help)
    p_sub.set_defaults(fn=cmd_submit)

    p_srv = sub.add_parser(
        "serve", help="JSONL job server: JobSpec per stdin line, "
                      "JobResult per stdout line")
    p_srv.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker-pool width (default: up to 8)")
    p_srv.add_argument("--no-isolation", action="store_true",
                       help="run jobs inline (no crash containment)")
    p_srv.add_argument("--store", default=None, metavar="DIR",
                       help=store_help)
    p_srv.set_defaults(fn=cmd_serve)

    p_exp = sub.add_parser(
        "explore", help="design-space sweep: expand config axes into "
                        "points, run each cell as a service job, "
                        "reuse results from the content-addressed "
                        "store")
    p_exp.add_argument("spec", nargs="?", default=None,
                       help="sweep spec file (YAML/JSON): base config, "
                            "workloads, axes (or use --depth)")
    p_exp.add_argument("--depth", action="store_true",
                       help="run the committed pipeline-depth bench "
                            "(the BENCH_explore.json payload: "
                            "frequency/depth trade-off over CoreMark)")
    p_exp.add_argument("--quick", action="store_true",
                       help="with --depth: coremark-list only (the CI "
                            "smoke column)")
    p_exp.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker-pool width (default: serial)")
    p_exp.add_argument("--store", default=None, metavar="DIR",
                       help="result store directory (default: "
                            "$REPRO_EXPLORE_CACHE_DIR or "
                            "~/.cache/repro-explore)")
    p_exp.add_argument("--timeout", type=float, default=None,
                       metavar="S",
                       help="per-cell wall-clock budget (parallel "
                            "runs only)")
    p_exp.add_argument("--out", default=None, metavar="FILE",
                       help="write the sweep report / bench payload "
                            "here (JSON)")
    p_exp.add_argument("--baseline", default=None, metavar="FILE",
                       help="with --depth: committed BENCH_explore."
                            "json to gate against; exits 1 on any "
                            "cycle difference")
    p_exp.set_defaults(fn=cmd_explore)

    p_bench = sub.add_parser(
        "bench", help="calibrated layer speeds: the emulator's tiers, "
                      "the timing model, the vector engine, the service")
    p_bench.add_argument("--pipeline", action="store_true",
                         help="benchmark the 12-stage timing model "
                              "(production vs frozen reference oracle) "
                              "instead of the emulator; writes/reads "
                              "BENCH_pipeline.json-shaped payloads")
    p_bench.add_argument("--service", action="store_true",
                         help="benchmark the job service (throughput + "
                              "latency percentiles under process "
                              "isolation); writes/reads "
                              "BENCH_service.json-shaped payloads")
    p_bench.add_argument("--tier", type=int, default=None,
                         choices=[1, 2, 3],
                         help="execution tier to benchmark: 3 runs the "
                              "cold/warm specializing-translator bench "
                              "(BENCH_tier3.json); 1 and 2 are "
                              "columns of the default emulator bench")
    p_bench.add_argument("--vector", action="store_true",
                         help="benchmark the RVV kernel suite: numpy-"
                              "batched vs per-element reference vector "
                              "engine across tiers, with bit-identity "
                              "verified per run; writes/reads "
                              "BENCH_vector.json-shaped payloads")
    p_bench.add_argument("--quick", action="store_true",
                         help="CoreMark kernels only (the CI smoke set)")
    p_bench.add_argument("--repeat", type=int, default=3,
                         help="timing runs per cell; best is kept")
    p_bench.add_argument("--out", default=None,
                         help="write the JSON payload here "
                              "(e.g. BENCH_emulator.json)")
    p_bench.add_argument("--baseline", default=None,
                         help="committed BENCH_emulator.json to gate "
                              "against; exits 1 on regression")
    p_bench.add_argument("--tolerance", type=float, default=None,
                         help="allowed fractional drop vs baseline "
                              "(default: the bench's own tolerance, "
                              "0.30 for the layer benches, 0.50 for "
                              "--service)")
    p_bench.set_defaults(fn=cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except WatchdogExpired as exc:
        # A guest that never exits is a result, not a crash: whichever
        # verb ran it ends with the post-mortem dump and exit status 2.
        print(exc)
        return 2
    except GuestExit as exc:
        # Reached only from a verb with nothing to report on a failed
        # guest (run --core --profile); the rest go through _timed.
        print(f"error: {exc}", file=sys.stderr)
        return exc.result.exit_code


if __name__ == "__main__":
    sys.exit(main())
