"""Run workloads over several seeds; report each metric's median, quartiles and spread.

    python3 perfbench/spread.py --runs 10 --first-seed 101 --out perfbench/baseline.json

Each run is one ``run.py`` invocation with its own seed.  The spread of
a metric is the distance between the first and third quartiles of its
values (``statistics.quantiles(values, n=4)``) as a share of their
median.  A spread above a third of the metric's bound in BENCHMARK.json
is flagged, because a comparison against the parent's median cannot
then resolve a change of that bound.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


RAW = re.compile(r"^(\S+) .* raw (\S+) s,")


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """(result line, env stamp) of one run.py invocation.

    The raw, unrescaled times from the printed lines are added to the
    result's metrics under the name ``<metric>.raw``.
    """
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    result = json.loads(lines[-1])
    for match in filter(None, map(RAW.match, lines)):
        result["metrics"][f"{match[1]}.raw"] = {"value": float(match[2]), "unit": "s"}
    return result, env


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, help="write the summary as JSON here")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary: dict = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        run_s = []
        for seed in seeds:
            started = time.perf_counter()
            result, env = run_once(workload, seed, args.seconds)
            run_s.append(time.perf_counter() - started)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary["env"] = env
        rows = {name: summarize(v) for name, v in values.items()}
        summary["workloads"][workload] = {
            "seeds": seeds, "failed": failed, "attempted": attempted, "metrics": rows,
            "run_s": run_s,
        }
        print(f"{workload}: {len(seeds)} runs of at most {max(run_s):.1f} s,"
              f" {failed} of {attempted} items failed")
        for name, row in rows.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and row["spread"] is not None and row["spread"] > bound / 3:
                flag = f"  spread above a third of bound {bound}"
            spread = "n/a" if row["spread"] is None else f"{row['spread']:.4f}"
            print(f"  {name:38s} median {row['median']:14.6f}  q1 {row['q1']:14.6f}"
                  f"  q3 {row['q3']:14.6f}  spread {spread}{flag}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
