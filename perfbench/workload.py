"""One workload in one fresh process: set up, run batches, check, report.

run.py starts this script with the BLAS and OpenMP pools pinned to one
thread and ``src`` on PYTHONPATH, and reads the JSON object it prints.
Set-up time runs from the first line of this file to the end of
``warm_up()``, so it covers importing numpy and codedim.  End-to-end
times are rescaled by the machine's speed, as reference.py explains;
the raw times are reported beside them.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import codedim  # noqa: E402
from codedim.linalg import active_backend, available_backends, warm_up  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def run_batches(wl, inputs, seconds: float, gauge: reference.Gauge) -> list:
    """Run batches 0, 1, ... until the next one would overrun ``seconds``."""
    batches, took = [], []
    started = time.perf_counter()
    while True:
        batches.append(wl.run(inputs, len(batches), gauge))
        took.append(time.perf_counter() - started - sum(took))
        if sum(took) + statistics.median(took) > seconds:
            return batches


def rescaled(batch, gauge: reference.Gauge):
    """The batch with each item's time rescaled to a reference unit of NOMINAL_S.

    An item is scaled by the mean of the speed samples taken while it
    ran and the one either side of it.
    """
    items = [
        t * reference.NOMINAL_S / statistics.mean(gauge.around(first, end))
        for t, (first, end) in zip(batch.item_s, batch.sampled)
    ]
    return workloads.Batch(batch.index, items, batch.outputs)


def summarize(batches: list) -> tuple[dict, float | None]:
    """End-to-end times of a run, and the percentile item_tail_s stands at."""
    tail_s, tail_pct = tail(batches)
    return {
        "wall_s": statistics.median(b.wall_s for b in batches),
        "item_p50_s": statistics.median(t for b in batches for t in b.item_s),
        "item_tail_s": tail_s,
    }, tail_pct


def tail(batches: list) -> tuple[float, float | None]:
    """(value, percentile) of the highest percentile with ten items beyond it.

    Below 22 items that percentile would sit at or under the median.  The
    tail is then the slowest input's median time over the batches, which
    repeat the same inputs, and the percentile is None.
    """
    ordered = sorted(t for b in batches for t in b.item_s)
    j = len(ordered) - 11
    if j < len(ordered) // 2:
        return max(map(statistics.median, zip(*(b.item_s for b in batches)))), None
    return ordered[j], 100.0 * (j + 1) / len(ordered)


def check_all(wl, inputs, batches) -> tuple[int, list[str]]:
    """Check every item of every batch; returns (attempted, failure messages)."""
    memo: dict = {}
    attempted, failures = 0, []
    for batch in batches:
        verdicts = wl.check(inputs, batch, memo)
        attempted += len(verdicts)
        failures += [f"batch {batch.index}: {v}" for v in verdicts if v is not None]
    return attempted, failures


def main() -> dict:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if Path(codedim.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"codedim was imported from {codedim.__file__}, not {SRC}")
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed)
    warm_up()
    setup_s = time.perf_counter() - _STARTED
    reference.unit()  # first call pays numpy's own lazy set-up
    scale = reference.NOMINAL_S / statistics.median(reference.sample() for _ in range(3))
    out: dict = {"setup_s": setup_s * scale, "setup_raw_s": setup_s}
    if args.setup_only:
        return out

    out["env"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": "numba" in available_backends(),
        "rank_backend": active_backend(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }
    if args.trace:
        import tracing

        untraced = run_batches(wl, inputs, args.seconds / 2, reference.Gauge())
        traced = []
        for index in range(len(untraced)):
            tracer = tracing.Tracer()
            with tracer.installed(workloads):
                # Batch 0 regenerates its inputs so that set-up layers show too.
                batch_inputs = wl.make_inputs(args.seed) if index == 0 else inputs
                traced.append(wl.run(batch_inputs, index, reference.Gauge()))
            if index == 0:
                layers = tracer.metrics()
        layers["tracing_overhead_s"] = statistics.median(
            b.wall_s for b in traced
        ) - statistics.median(b.wall_s for b in untraced)
        out["layers"] = layers
        out["units"] = {**tracing.UNITS, "tracing_overhead_s": "s"}
        batches = untraced + traced
    else:
        gauge = reference.Gauge()
        with gauge.running():
            batches = run_batches(wl, inputs, args.seconds, gauge)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["raw"], _ = summarize(batches)
        times, out["item_tail_pct"] = summarize([rescaled(b, gauge) for b in batches])
        out.update(times)
        out["reference"] = {
            "samples": len(gauge.samples),
            "median_s": statistics.median(gauge.samples),
            "nominal_s": reference.NOMINAL_S,
        }
    out["batches"] = len(batches)
    out["items"] = sum(len(b.item_s) for b in batches)
    out["attempted"], out["failures"] = check_all(wl, inputs, batches)
    return out


if __name__ == "__main__":
    print(json.dumps(main()))
