"""Run one workload of the end-to-end benchmark and print its result.

Usage, from the repository root::

    python3 e2ebench/run.py --workload serve_flood --seed 1 --seconds 20 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures
the per-layer metrics and prints each layer's waterfall.  ``--workload
all`` runs every workload in its own process and ends with one combined
line whose metric names are prefixed by the workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a JSON report with the seed, units, sample counts and the measured
tree.  A reference mismatch names the workload, op and seed on standard
error and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _program_present() -> bool:
    return os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py"))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    from e2ebench.workloads import WORKLOADS

    correct = True
    attempted = failed = 0
    metrics = {}
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"workload {name} failed (exit {done.returncode})",
                  file=sys.stderr)
            status = status or done.returncode or 1
            correct = False
            continue
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}.{metric}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not _program_present():
        print(f"e2ebench: no program sources under {ROOT}/src; nothing to "
              "measure", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    os.chdir(ROOT)
    if args.workload == "all":
        return _run_all(args)

    from e2ebench.measure import provenance, result_line
    from e2ebench.workloads import END_TO_END, PER_LAYER, WORKLOADS, Run, run_workload

    if args.workload not in WORKLOADS:
        print(f"e2ebench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)} or all)", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("e2ebench: --seconds must be positive", file=sys.stderr)
        return 2
    run = Run(args.workload, ROOT, args.seed, args.seconds, bool(args.trace))
    run_workload(run)

    units = PER_LAYER if run.trace else END_TO_END
    values = run.per_layer if run.trace else run.end_to_end
    metrics = {name: (values.get(name, 0.0), unit)
               for name, unit in units.items()}
    tally = run.tally
    report = {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "fail_frac": tally.fail_frac,
        "failures": tally.reasons,
        "sample_counts": run.counts,
        "also_measured": run.extra,
        "notes": run.notes,
        "tree": provenance(ROOT),
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u) in metrics.items()},
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:16.6g} {unit}")
    print(f"{'fail_frac':34s} {tally.fail_frac:16.6g} ratio "
          f"({tally.failed}/{tally.attempted})")
    print(json.dumps(report))
    correct = tally.mismatches == 0
    print(result_line(correct, tally.attempted, tally.failed, metrics))
    if not correct:
        print(f"e2ebench: {tally.mismatch_message()}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
