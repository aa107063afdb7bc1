"""Steadiness check: one workload run repeatedly, each run with its own seed.

    python3 benchmark/steady.py --workload restart_report --runs 10 --seconds 12

Run from the root of a source checkout. For each metric it prints the median,
the quartiles, the spread (quartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) and the medians of
the first and last thirds of the series, which show drift within the series.
The series is also written to ``.bench_out/steady-<workload>-<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarise(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    third = max(1, len(values) // 3)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "first_third": statistics.median(values[:third]),
        "last_third": statistics.median(values[-third:]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {done.returncode}", file=sys.stderr)
            return 1
        lines = [json.loads(line) for line in done.stdout.strip().splitlines() if line.startswith("{")]
        result = lines[-1]
        results.append({"seed": seed, **result, "phases": lines[:-1]})
        cycles = next((p for p in lines[:-1] if p.get("phase") == "cycles"), {})
        steal = max(cycles.get("steal", [0.0]))
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} max cycle steal={steal:.3f}", flush=True)

    names = list(results[0]["metrics"])
    print(f"{'metric':48} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'1st 1/3':>11} {'last 1/3':>11}")
    summary = {}
    for name in names:
        s = summarise([r["metrics"][name]["value"] for r in results])
        summary[name] = s
        print(f"{name:48} {s['median']:11.4f} {s['q1']:11.4f} {s['q3']:11.4f} {s['spread']:7.3f} "
              f"{s['first_third']:11.4f} {s['last_third']:11.4f}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed shares: {sorted(shares)}; all correct: {all(r['correct'] for r in results)}")
    out = Path.cwd() / ".bench_out" / f"steady-{args.workload}-{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"args": vars(args), "runs": results, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
