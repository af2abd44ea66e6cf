"""The three benchmark workloads: inputs from a seed, one timed batch, checks.

Each workload drives the library through the public entry points the CLI
calls.  ``run`` times the library calls on the clock of a
``reference.Gauge``, which samples the machine's speed while they run;
``check`` runs afterwards and returns one failure message (or None) per
item.  Why each workload exists is written in README.md.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, field
from typing import Any, Callable

from codedim.betti import hochster_table, level_ranks, table_to_json
from codedim.complexes import (
    SimplicialComplex,
    VertexSet,
    minimal_nonfaces,
    restrict,
)
from codedim.dimensions import full_report, leray_dimension, leray_dimension_direct
from codedim.generators import (
    complete_bipartite_clique,
    cone_of_cross_polytope,
    cross_polytope,
    full_simplex,
    random_complex,
)
from codedim.homology import reduced_homology
from codedim.linalg import PrimeField
from codedim.oracle import CHECK_NAMES, run_oracle_suite
from reference import Gauge

GF2 = PrimeField(2)
GF3 = PrimeField(3)

# The seed whose betti_gf3 tables are pinned below.  A later claim can be
# rechecked on any other seed; only these hashes are seed-specific.
DEFAULT_SEED = 1
BETTI_GF3_SHA256 = {
    "full_simplex_11": "07ad8635c6a8e53d496139bcdbf5f181ecc88de16e50257cfbb145a609cc87d7",
    "random_11_0.3": "66acf5c012ec9acd8230cba2024942b85ac1154bc2cc30c818099e14db35405c",
    "random_11_0.01": "40bc8fe0e919e69fab7cd32671249e24b82dff3d3462fd74b1340266e0228a25",
}

ORACLE_TRIALS = 50
ORACLE_N = 7
_TRIAL_LABEL = re.compile(r"trial (\d+) ")


@dataclass
class Batch:
    """One timed batch: per-item times, raw outputs and speed sample ranges.

    An output is the library's return value, or the exception it raised.
    The items partition the batch's timed region, so their sum is its wall
    time.  Item i ran while the gauge took ``samples[first:end]``, where
    ``(first, end)`` is ``sampled[i]``.
    """

    index: int
    item_s: list[float]
    outputs: list[Any]
    sampled: list[tuple[int, int]] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.item_s)


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int], Any]
    run: Callable[[Any, int, Gauge], Batch]
    check: Callable[[Any, Batch, dict], list[str | None]]


def _timed_calls(index: int, calls: list[Callable[[], Any]], gauge: Gauge) -> Batch:
    """Time each call as one item; a library error becomes the output."""
    items, outputs, sampled = [], [], []
    for call in calls:
        first, t = len(gauge.samples), gauge.clock()
        try:
            outputs.append(call())
        except Exception as exc:  # counted as a failed item by the check
            outputs.append(exc)
        items.append(gauge.clock() - t)
        sampled.append((first, len(gauge.samples)))
    return Batch(index, items, outputs, sampled)


# --- report_gf2 -------------------------------------------------------------


@dataclass(frozen=True)
class Fixture:
    name: str
    original: SimplicialComplex
    relabelled: SimplicialComplex
    perm: tuple[int, ...]  # perm[v] is the new 0-based index of vertex v
    expected: tuple[int, int, int]  # (leray, helly, homological_betti)


def _permute_bits(bits: int, perm: tuple[int, ...]) -> int:
    return sum(1 << perm[v] for v in range(len(perm)) if bits >> v & 1)


def _relabel(d: SimplicialComplex, perm: tuple[int, ...]) -> SimplicialComplex:
    return SimplicialComplex.from_faces(
        d.n, [_permute_bits(f.bits, perm) for f in d.facets]
    )


def report_inputs(seed: int) -> list[Fixture]:
    rng = random.Random(seed)
    fixtures = []
    for name, d, expected in (
        ("K_4,4", complete_bipartite_clique(4), (2, 1, 2)),
        ("cone_4", cone_of_cross_polytope(4), (5, 1, 0)),
        ("cross_5", cross_polytope(5), (6, 1, 6)),
    ):
        order = list(range(d.n))
        rng.shuffle(order)
        perm = tuple(order)
        fixtures.append(Fixture(name, d, _relabel(d, perm), perm, expected))
    return fixtures


def report_run(fixtures: list[Fixture], index: int, gauge: Gauge) -> Batch:
    return _timed_calls(
        index, [lambda f=f: full_report(f.relabelled, GF2) for f in fixtures], gauge
    )


def _witness_holds(f: Fixture, i: int, sigma: VertexSet) -> bool:
    """Undo the relabelling and confirm beta(i, sigma) > 0 on the original.

    By Hochster's formula the entry is nonzero iff the restriction to
    sigma has reduced homology in degree |sigma| - i - 1.
    """
    inverse = [0] * len(f.perm)
    for v, w in enumerate(f.perm):
        inverse[w] = v
    back = VertexSet(_permute_bits(sigma.bits, tuple(inverse)), f.original.n)
    profile = reduced_homology(restrict(f.original, back), GF2)
    return profile.degree(len(back) - i - 1) > 0


def report_check(fixtures: list[Fixture], batch: Batch, memo: dict) -> list[str | None]:
    verdicts = []
    for f, report in zip(fixtures, batch.outputs):
        if isinstance(report, Exception):
            verdicts.append(f"{f.name}: {type(report).__name__}: {report}")
            continue
        problems = []
        if report.as_tuple() != f.expected:
            problems.append(f"bounds {report.as_tuple()} != {f.expected}")
        for key, w in report.witnesses.items():
            if not _witness_holds(f, w.i, w.sigma):
                problems.append(f"{key} witness ({w.i}, {w.sigma.binary()}) is empty")
        if f.name == "K_4,4":
            if f.name not in memo:
                memo[f.name] = level_ranks(hochster_table(f.relabelled, GF2))
            if memo[f.name] != [1, 12, 52, 102, 100, 48, 9]:
                problems.append(f"level ranks {memo[f.name]}")
        verdicts.append(f"{f.name}: " + "; ".join(problems) if problems else None)
    return verdicts


# --- oracle_n7 --------------------------------------------------------------


def oracle_inputs(seed: int) -> int:
    """The suite's base seed; batch b runs the trials after b full batches."""
    return random.Random(seed).getrandbits(31)


def oracle_run(base_seed: int, index: int, gauge: Gauge) -> Batch:
    """One run_oracle_suite call; items are split at each trial's first table.

    The suite hands every trial's GF(2) table to ``table_mutator`` once;
    an identity mutator that stamps the clock there splits the call into
    ORACLE_TRIALS intervals.  Each holds the rest of one trial and the first
    table of the next; the first and last partial intervals form one item,
    whose speed is that of the whole call.
    """
    trials = ORACLE_TRIALS
    marks: list[tuple[float, int]] = []

    def stamp(table):
        marks.append((gauge.clock(), len(gauge.samples)))
        return table

    first, started = len(gauge.samples), gauge.clock()
    try:
        summary = run_oracle_suite(
            trials, n=ORACLE_N, seed=base_seed + index * trials, table_mutator=stamp
        )
    except Exception as exc:  # counted as failed items by the check
        summary = exc
    ended, end = gauge.clock(), len(gauge.samples)
    if len(marks) == trials:
        items = [b - a for (a, _), (b, _) in zip(marks, marks[1:])]
        items.append(marks[0][0] - started + ended - marks[-1][0])
        sampled = [(i, j) for (_, i), (_, j) in zip(marks, marks[1:])]
        sampled.append((first, end))
    else:
        items = [(ended - started) / trials] * trials
        sampled = [(first, end)] * trials
    return Batch(index, items, [summary], sampled)


def oracle_check(base_seed: int, batch: Batch, memo: dict) -> list[str | None]:
    (summary,) = batch.outputs
    trials = len(batch.item_s)
    if isinstance(summary, Exception):
        return [f"suite raised {type(summary).__name__}: {summary}"] * trials
    verdicts: list[str | None] = [None] * trials
    for failure in summary.failures:
        match = _TRIAL_LABEL.match(failure)
        if match is None or int(match[1]) >= trials:
            return [f"unattributed failure: {failure}"] * trials
        verdicts[int(match[1])] = failure
    if summary.ok and any(summary.passes[name] != trials for name in CHECK_NAMES):
        return [f"pass counts {summary.passes} for {trials} trials"] * trials
    return verdicts


# --- betti_gf3 --------------------------------------------------------------


@dataclass(frozen=True)
class BettiInput:
    name: str
    complex: SimplicialComplex
    pinned_sha: str | None  # sha256 of table_to_json, known for DEFAULT_SEED


def near_full_complex(n: int, seed: int) -> SimplicialComplex:
    """random_complex(n, 0.3, s) for the first s >= seed that is not the full simplex.

    The sample takes the top face with probability 0.3, and then the
    complex is the full simplex, which has no minimal nonface.
    """
    while True:
        d = random_complex(n, 0.3, seed)
        if minimal_nonfaces(d):
            return d
        seed += 1


def betti_inputs(seed: int) -> list[BettiInput]:
    rng = random.Random(seed)
    dense_seed, sparse_seed = rng.getrandbits(31), rng.getrandbits(31)
    complexes = (
        ("full_simplex_11", full_simplex(11)),
        ("random_11_0.3", near_full_complex(11, dense_seed)),
        ("random_11_0.01", random_complex(11, 0.01, sparse_seed)),
    )
    return [
        BettiInput(name, d, BETTI_GF3_SHA256[name] if seed == DEFAULT_SEED else None)
        for name, d in complexes
    ]


def betti_run(inputs: list[BettiInput], index: int, gauge: Gauge) -> Batch:
    return _timed_calls(
        index, [lambda d=x.complex: hochster_table(d, GF3) for x in inputs], gauge
    )


def table_verdict(d: SimplicialComplex, table, pinned_sha: str | None) -> str | None:
    """Check a GF(3) table against routes that do not read it."""
    if pinned_sha is not None:
        sha = hashlib.sha256(table_to_json(table).encode()).hexdigest()
        if sha != pinned_sha:
            return f"table sha256 {sha} != pinned {pinned_sha}"
    step_one = {sigma: beta for i, sigma, beta in table.items() if i == 1}
    if set(step_one) != minimal_nonfaces(d) or set(step_one.values()) - {1}:
        return "step-1 gradings are not the minimal nonfaces"
    leray, direct = leray_dimension(table)[0], leray_dimension_direct(d, GF3)
    if leray != direct:
        return f"table leray {leray} != direct {direct}"
    return None


def betti_check(inputs: list[BettiInput], batch: Batch, memo: dict) -> list[str | None]:
    """Full check once per distinct table; repeats match by their JSON."""
    verdicts = []
    for x, table in zip(inputs, batch.outputs):
        if isinstance(table, Exception):
            verdict = f"{type(table).__name__}: {table}"
        else:
            key = (x.name, table_to_json(table))
            if key not in memo:
                memo[key] = table_verdict(x.complex, table, x.pinned_sha)
            verdict = memo[key]
        verdicts.append(f"{x.name}: {verdict}" if verdict else None)
    return verdicts


WORKLOADS = {
    "report_gf2": Workload(report_inputs, report_run, report_check),
    "oracle_n7": Workload(oracle_inputs, oracle_run, oracle_check),
    "betti_gf3": Workload(betti_inputs, betti_run, betti_check),
}
