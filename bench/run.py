"""The repo benchmark: ``python3 bench/run.py --workload NAME --seed N``.

Prints every metric by name and unit, checks every result against
``bench/expected.json``, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
README.md beside this file says why the workloads and metrics are what
they are; ``--selfcheck K`` and ``--update-expected`` are described in
``--help``.
"""

from time import perf_counter

_PROCESS_START = perf_counter()     # set-up time counts from here

import argparse  # noqa: E402
import atexit  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from statistics import median  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("timed-scalar", "timed-memory", "functional-mix",
                  "smp-cluster", "job-path")

sys.path.insert(0, os.path.join(ROOT, "src"))


def hermetic_run_dir() -> str:
    """Point every host-side cache at a fresh directory inside the
    checkout and remove it when the process exits.

    Nothing is read from or written to ``~/.cache/repro-codegen``, the
    default explore store or ``/tmp``.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    atexit.register(shutil.rmtree, run_dir, ignore_errors=True)
    os.environ["REPRO_CODE_CACHE"] = "1"
    os.environ["REPRO_CODE_CACHE_DIR"] = os.path.join(run_dir, "codegen")
    os.environ["REPRO_EXPLORE_CACHE_DIR"] = os.path.join(run_dir, "explore")
    os.environ["TMPDIR"] = run_dir
    tempfile.tempdir = run_dir
    return run_dir


def run_workload(args: argparse.Namespace) -> int:
    run_dir = hermetic_run_dir()
    # Importing the simulator is part of set-up, so it happens here.
    import measure
    from calibrate import median_scale
    from digests import load_expected
    from ops import WORKLOADS, Env
    from spans import Tracer

    workload = WORKLOADS[args.workload]()
    expected = load_expected()[workload.name]
    env = Env(tmpdir=run_dir)
    rng = random.Random(args.seed)
    # Cold pass: compiles and persists every tier-3 block, and is the
    # expected-digest check of every op.  Then one warm-up round.
    cold = measure.run_round(workload, expected, env, rng, -2)
    warm = measure.run_round(workload, expected, env, rng, -1)
    setup_s = (perf_counter() - _PROCESS_START) * median_scale(
        cold.calibration_s + warm.calibration_s)

    # Accuracy beside speed: the modelled XT-910 / reference-core ratio
    # against the paper's, from the warm-up round's IPCs.
    paper_err = 0.0
    if workload.paper is not None:
        ipc = {s.op.name: s.outcome.insts / s.outcome.cycles
               for s in warm.samples if s.outcome is not None}
        paper_err = workload.paper.error_pct(ipc)

    tracer = Tracer() if args.trace else None
    rounds = []
    started = perf_counter()
    while True:
        index = len(rounds)
        # Traced runs alternate, so one run yields the overhead too.
        if tracer is not None and index % 2 == 0:
            rounds.append(measure.run_traced_round(
                workload, expected, env, rng, index, tracer))
        else:
            rounds.append(measure.run_round(
                workload, expected, env, rng, index))
        elapsed = perf_counter() - started
        if args.rounds is not None:
            if len(rounds) >= args.rounds:
                break
        elif elapsed + 0.5 * elapsed / len(rounds) > args.seconds:
            break

    samples = [s for rnd in [cold, warm] + rounds for s in rnd.samples]
    failures = [s for s in samples if s.error is not None]
    for sample in failures[:20]:
        print(f"FAILED {sample.op.name}: {sample.error}")

    print(f"measured {elapsed:.2f} s in {len(rounds)} rounds "
          f"({elapsed / len(rounds):.3f} s a round)")
    if tracer is None:
        values = measure.end_to_end(rounds, setup_s)
        units = measure.END_TO_END_UNITS
        count = sum(len(rnd.measured()) for rnd in rounds)
        print(f"{workload.name}: {len(rounds)} rounds, {count} measured "
              f"op samples of {len(rounds[0].measured())} distinct ops, "
              f"seed {args.seed}")
    else:
        values = measure.per_layer(rounds, paper_err)
        units = measure.PER_LAYER_UNITS
        tracer.write(os.path.join(
            OUT_DIR, f"spans-{workload.name}-seed{args.seed}.json"))
        print(f"{workload.name}: {len(rounds)} rounds "
              f"({sum(r.traced for r in rounds)} traced), seed {args.seed}")
    for name, value in values.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    if workload.paper is not None:
        print(f"  model vs paper ratio error {paper_err:+.2f} % "
              f"(xt910 / {workload.paper.reference_core}, paper "
              f"{workload.paper.expected:.3f}x)")
    print(f"  ops checked {len(samples)}, failed {len(failures)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


def update_expected() -> int:
    """Re-derive ``expected.json`` by running every op once, checking
    functional checksums against the workloads' Python references and
    golden ops against ``tests/uarch/golden_stats.json``."""
    run_dir = hermetic_run_dir()
    import digests
    from ops import WORKLOADS, Env, functional_programs

    references = {w.name: w.reference() for w in functional_programs()}
    document: dict[str, dict[str, dict]] = {}
    for name, build in WORKLOADS.items():
        workload = build()
        env = Env(tmpdir=run_dir)
        if workload.begin_round is not None:
            workload.begin_round(env)
        entries = {}
        for op in sorted(workload.ops, key=lambda op: op.phase):
            outcome = op.read(op.run(env))
            if op.kind == "functional" and \
                    outcome.payload["checksum"] != references[op.name]:
                raise SystemExit(f"{name}/{op.name}: checksum differs "
                                 f"from the workload's Python reference")
            entries[op.name] = {"digest": digests.digest(outcome.payload),
                                "golden": op.golden}
            print(f"{name}/{op.name}: {outcome.insts} inst")
        document[name] = entries
    digests.check_against_golden(document, digests.load_golden())
    digests.save_expected(document)
    print(f"wrote {digests.EXPECTED_PATH}")
    return 0


def selfcheck(sets: int, seconds: int, seed: int) -> int:
    """Run *sets* full sets back to back and hold every workload x
    metric against its bound: the worst deviation of a set from the
    median of the sets, as a share of that median."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bounds = {m["name"]: m["bound"]
                  for m in json.load(handle)["end_to_end"]}
    table: dict[tuple[str, str], list[float]] = {}
    for index in range(sets):
        for workload in WORKLOAD_NAMES:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed + index),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=False)
            if done.returncode != 0:
                print(done.stdout + done.stderr)
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload}: {result['failed']} failed ops")
                return 1
            for name, metric in result["metrics"].items():
                table.setdefault((workload, name), []).append(
                    metric["value"])
            print(f"set {index + 1}/{sets} {workload} done", flush=True)
    breaches = 0
    print(f"{'workload':15s} {'metric':14s} {'median':>10s} "
          f"{'worst dev':>9s} {'bound':>6s}  values")
    for (workload, name), values in table.items():
        mid = median(values)
        worst = max(abs(v - mid) for v in values) / mid
        breach = worst > bounds[name]
        breaches += breach
        print(f"{workload:15s} {name:14s} {mid:10.4g} {worst:9.2%} "
              f"{bounds[name]:6.0%}  "
              f"{' '.join(f'{v:.4g}' for v in values)}"
              f"{'  BREACH' if breach else ''}")
    return 1 if breaches else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="shuffles op order within a round; results "
                             "are identical for any seed")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long to measure (after set-up)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="measure exactly this many rounds instead")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: alternate traced rounds and print the "
                             "per-layer metrics")
    parser.add_argument("--selfcheck", type=int, nargs="?", const=3,
                        default=None, metavar="K",
                        help="run K sets of all workloads and check the "
                             "spread of every metric against its bound")
    parser.add_argument("--update-expected", action="store_true",
                        help="rewrite bench/expected.json from this "
                             "checkout's results")
    args = parser.parse_args(argv)
    if args.update_expected:
        return update_expected()
    if args.selfcheck is not None:
        return selfcheck(args.selfcheck, int(args.seconds), args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
