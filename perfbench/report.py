"""Run every workload in fresh processes, print every metric, and check them.

    python3 perfbench/report.py [--seed N] [--seconds S] [--smoke]

Each workload of BENCHMARK.json runs twice, untraced (end-to-end metrics)
and traced (per-layer metrics), each in its own process so that set-up time
and peak memory start clean.  Every metric is printed by name with its unit
and the combined record goes to perfbench/out/report.json.

The command exits non-zero when a metric named in BENCHMARK.json is missing,
not finite or in another unit, when an operation failed or an output check
did not hold, or when inference.positions_per_token is not exactly 1 on
score or not above 1 on incremental.  With --smoke every run uses tiny
models for one second: this is the benchmark's self-test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
OUT = os.path.join(ROOT, "perfbench", "out")
RUN_TIMEOUT_S = 900


def validate(workload: str, result: dict, expected: list) -> list[str]:
    problems = []
    metrics = result.get("metrics", {})
    names = {m["name"] for m in expected}
    for extra in sorted(metrics.keys() - names):
        problems.append(f"{workload}: unexpected metric {extra}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"{workload}: metric {m['name']} missing")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{workload}: {m['name']} has unit {got.get('unit')!r}, not {m['unit']!r}")
        elif not (isinstance(got.get("value"), (int, float)) and math.isfinite(got["value"])):
            problems.append(f"{workload}: {m['name']} = {got.get('value')!r} is not finite")
    if result.get("failed") != 0 or result.get("correct") is not True:
        problems.append(f"{workload}: {result.get('failed')} of {result.get('attempted')} "
                        f"operations failed (correct={result.get('correct')})")
    ratio = metrics.get("inference.positions_per_token", {}).get("value")
    if ratio is not None:
        if workload == "score" and ratio != 1:
            problems.append(f"score: positions_per_token is {ratio}, expected exactly 1")
        if workload == "incremental" and not ratio > 1:
            problems.append(f"incremental: positions_per_token is {ratio}, expected > 1")
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run and check every benchmark workload.")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None,
                   help="seconds per run (default: run_seconds of BENCHMARK.json, 1 with --smoke)")
    p.add_argument("--smoke", action="store_true", help="tiny models, one second per run")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or (1 if args.smoke else spec["run_seconds"])

    problems, report = [], {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(line for line in lines[:-1] if not line.startswith("env ")), flush=True)
            if proc.returncode != 0 or not lines:
                problems.append(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            if proc.stderr.strip():
                print(proc.stderr.strip(), file=sys.stderr)
            problems += validate(workload, json.loads(lines[-1]), expected)
            with open(os.path.join(OUT, f"{workload}-trace{trace}.json"), encoding="utf-8") as fh:
                report.setdefault(workload, {})["per_layer" if trace else "end_to_end"] = json.load(fh)

    with open(os.path.join(OUT, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for line in problems:
        print(f"PROBLEM {line}", file=sys.stderr)
    print(f"report: {len(problems)} problems; record in {os.path.relpath(OUT, ROOT)}/report.json")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
