"""CLI: ``python -m repro.harness [experiment ...] [--full] [--json]``."""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import EXPERIMENTS, run_experiment


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiments", nargs="*",
                        choices=[*EXPERIMENTS, []],
                        help="experiments to run (default: all)")
    parser.add_argument("--full", action="store_true",
                        help="full-size workloads (slower, closer shapes)")
    parser.add_argument("--jobs", "-j", type=int, default=None,
                        help="fan independent (core, workload) cells out "
                             "over N processes (default: serial)")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON array of results (schema-stable "
                             "metric keys from the repro.obs registry)")
    args = parser.parse_args(argv)
    names = args.experiments or list(EXPERIMENTS)
    results = []
    for name in names:
        start = time.time()
        result = run_experiment(name, quick=not args.full, jobs=args.jobs)
        results.append(result)
        if not args.json:
            print(result.render())
            print(f"[{name} took {time.time() - start:.1f}s]\n")
    if args.json:
        print(json.dumps([r.to_json_dict() for r in results], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
