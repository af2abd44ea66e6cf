"""Benchmark of codedim's Hochster sweep, one workload per invocation.

    python3 perfbench/run.py --workload report_gf2 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its
``src`` directory, never from an installed copy.  With ``--trace 0`` the
workload runs untraced and the end-to-end metrics are reported; with
``--trace 1`` a separate traced run reports the per-layer metrics.
Every metric is printed by name with its unit, then the last line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
README.md says why each workload exists and which end-to-end metric
each layer metric moves.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("report_gf2", "oracle_n7", "betti_gf3")
SETUP_RUNS = 9  # fresh processes whose set-up times give setup_s's median
PINNED_THREADS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
END_TO_END_UNITS = {
    "wall_s": "s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def child_env() -> dict[str, str]:
    """The library's defaults, ``src`` on the path, one thread per pool."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CODEDIM_")}
    env.update({name: "1" for name in PINNED_THREADS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_workload(args: list[str], timeout: float) -> dict:
    """Run workload.py once and return the JSON object it printed."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "workload.py"), *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_setup(common: list[str]) -> dict:
    return run_workload([*common, "--setup-only"], timeout=30)


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "codedim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no codedim sources under {ROOT / 'src'}")

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    # Set-up is sampled before and after the timed process, so that its
    # median spans the run rather than one moment of it.
    probes = 0 if args.trace else SETUP_RUNS // 2
    setups = [run_setup(common) for _ in range(probes)]
    result = run_workload(
        [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
        timeout=60 + 3 * args.seconds,
    )
    setups += [result] + [run_setup(common) for _ in range(probes)]
    env = {**result["env"], "commit": git_commit(), "threads_pinned": 1}
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}  batches {result['batches']}  items {result['items']}")
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace:
        metrics = result["layers"]
        units = result["units"]
        notes = {"tracing_overhead_s": "traced minus untraced batch median"}
    else:
        metrics = {name: result[name] for name in END_TO_END_UNITS if name != "setup_s"}
        metrics["setup_s"] = statistics.median(r["setup_s"] for r in setups)
        raw = {**result["raw"], "setup_s": statistics.median(r["setup_raw_s"] for r in setups)}
        units = END_TO_END_UNITS
        ref = result["reference"]
        print(f"reference unit: median {ref['median_s']:.4f} s over {ref['samples']} samples;"
              f" times are rescaled to a {ref['nominal_s']} s unit")
        notes = {
            "wall_s": f"median of {result['batches']} batches",
            "item_p50_s": f"median of {result['items']} items",
            "item_tail_s": (
                f"p{result['item_tail_pct']:.1f} of {result['items']} items"
                if result["item_tail_pct"] is not None
                else "median time of the slowest input"
            ),
            "setup_s": f"median of {len(setups)} fresh processes",
        }
        notes = {name: f"raw {raw[name]:.6f} s, {note}" for name, note in notes.items()}
    for name, value in metrics.items():
        print(f"{name:38s} {value:14.6f} {units[name]:6s} {notes.get(name, '')}")

    failed = len(result["failures"])
    attempted = result["attempted"]
    print(f"{'failed_frac':38s} {failed / attempted:14.6f} {'ratio':6s}"
          f" {failed} of {attempted} items")
    for failure in result["failures"][:20]:
        print(f"FAIL {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
