"""Command-line front end: analyze, betti, oracle-check."""

from __future__ import annotations

import argparse
import re
import sys

from . import generators
from .betti import hochster_table, level_ranks, table_to_json, table_to_m2
from .complexes import Code, SimplicialComplex, complex_of_code
from .dimensions import full_report, report_to_json
from .errors import CodedimError, ConsistencyError, InputError
from .files import read_code, read_complex
from .linalg import PrimeField
from .oracle import corrupt_step_one, run_oracle_suite


# name -> (the argparse dests its factory takes, in order; the factory)
_GENERATORS = {
    "cross-polytope": (("i",), generators.cross_polytope),
    "cone": (("i",), generators.cone_of_cross_polytope),
    "octahedron": ((), lambda: generators.cross_polytope(2)),
    "square": ((), lambda: generators.cross_polytope(1)),
    "bipartite": (("r",), generators.complete_bipartite_clique),
    "hollow-simplex": (("m",), generators.hollow_simplex),
    "full-simplex": (("n",), generators.full_simplex),
    "l26": ((), lambda: complex_of_code(generators.code_l26())),
    "projective-plane": ((), generators.projective_plane),
    "random": (("n", "density", "seed"), generators.random_complex),
}


def build_complex(args: argparse.Namespace) -> SimplicialComplex:
    sources = [args.generator, args.code_file, args.complex_file, args.words]
    if sum(source is not None for source in sources) != 1:
        raise InputError(
            "pick exactly one input: --generator, --code-file, "
            "--complex-file, or --words"
        )
    if args.code_file is not None:
        return complex_of_code(read_code(args.code_file))
    if args.complex_file is not None:
        return read_complex(args.complex_file)
    if args.words is not None:
        # a brace set standing between separators is one word even though
        # it holds commas; [^{}] keeps each scan from running past the
        # next brace, so an unclosed "{" costs no backtracking
        texts = re.findall(
            r"(?<![^,\s])\{[^{}]*\}(?![^,\s])|[^,\s]+", " ".join(args.words)
        )
        return complex_of_code(Code.of(texts))
    if args.generator not in _GENERATORS:
        known = ", ".join(sorted(_GENERATORS))
        raise InputError(f"unknown generator {args.generator!r}; known: {known}")
    dests, make = _GENERATORS[args.generator]
    for flag in ("i", "r", "m", "n"):  # the size flags
        if (flag in dests) != (getattr(args, flag) is not None):
            verb = "needs" if flag in dests else "takes no"
            raise InputError(f"generator {args.generator!r} {verb} --{flag}")
    return make(*(getattr(args, dest) for dest in dests))


def _witness_suffix(report, key: str) -> str:
    w = report.witnesses.get(key)
    return f"   (step {w.i}, sigma {w.sigma.binary()})" if w else ""


def cmd_analyze(args: argparse.Namespace) -> int:
    d = build_complex(args)
    report = full_report(d, PrimeField(args.field))
    if args.format == "json":
        print(report_to_json(report))
        return 0
    print(f"field: {report.field}")
    print(f"leray: {report.leray}{_witness_suffix(report, 'leray')}")
    print(f"helly: {report.helly}{_witness_suffix(report, 'helly')}")
    print(
        f"homological (betti): {report.homological_betti}"
        f"{_witness_suffix(report, 'homological_betti')}"
    )
    print(f"homological (unreduced): {report.homological_unreduced}")
    agreement = ", ".join(
        f"{k} {'yes' if v else 'NO'}"
        for k, v in sorted(report.oracle_agreement.items())
    )
    print(f"oracle agreement: {agreement}")
    return 0


def cmd_betti(args: argparse.Namespace) -> int:
    d = build_complex(args)
    table = hochster_table(d, PrimeField(args.field))
    if args.format == "json":
        print(table_to_json(table))
    elif args.format == "m2":
        print(table_to_m2(table))
    else:
        for i, sigma, beta in table.items():
            print(f"step {i}  sigma {sigma.binary()}  |sigma| {len(sigma)}  beta {beta}")
        print(f"level ranks: {level_ranks(table)}")
    return 0


def cmd_oracle_check(trials: int, n: int, seed: int, corrupt: bool) -> int:
    mutator = corrupt_step_one if corrupt else None
    summary = run_oracle_suite(trials, n=n, seed=seed, table_mutator=mutator)
    for name, passed in summary.passes.items():
        print(f"{name}: {passed}/{summary.trials}")
    if summary.ok:
        print(f"all {summary.trials} trials passed")
        return 0
    for failure in summary.failures[:20]:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"{len(summary.failures)} check failures", file=sys.stderr)
    return 1


def _add_common(parser: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    parser.add_argument("--field", type=int, default=2, metavar="P",
                        help="prime field characteristic (default 2)")
    parser.add_argument("--format", choices=formats, default="text",
                        help="output format")


def _add_inputs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--generator", metavar="NAME",
                        help="named fixture: "
                             + ", ".join(sorted(_GENERATORS)))
    parser.add_argument("--i", type=int, metavar="IDX",
                        help="cross-polytope / cone index")
    parser.add_argument("--r", type=int, metavar="SIZE",
                        help="bipartite side size")
    parser.add_argument("--m", type=int, metavar="SIZE",
                        help="hollow-simplex vertex count")
    parser.add_argument("--n", type=int, metavar="SIZE",
                        help="full-simplex or random-complex vertex count")
    parser.add_argument("--density", type=float, default=0.5, metavar="D",
                        help="random-complex face probability")
    parser.add_argument("--seed", type=int, default=0, metavar="S",
                        help="random-complex seed")
    parser.add_argument("--code-file", metavar="PATH",
                        help="code file, one codeword per line")
    parser.add_argument("--complex-file", metavar="PATH",
                        help="complex file, one facet per line")
    parser.add_argument("--words", nargs="+", metavar="WORD",
                        help="inline codewords (binary or brace sets)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codedim",
        description="Dimension bounds of combinatorial codes via Betti tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="all dimension bounds of one input")
    _add_common(analyze, ("text", "json"))
    _add_inputs(analyze)

    betti = sub.add_parser("betti", help="the multigraded Betti table")
    _add_common(betti, ("text", "json", "m2"))
    _add_inputs(betti)

    oracle = sub.add_parser("oracle-check", help="randomized consistency suite")
    oracle.add_argument("--trials", type=int, required=True)
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument("--max-n", type=int, default=6, dest="vertices",
                        metavar="K",
                        help="vertex count of the random complexes (<= 8)")
    oracle.add_argument("--inject-corrupt", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "betti":
            return cmd_betti(args)
        return cmd_oracle_check(
            args.trials, args.vertices, args.seed, args.inject_corrupt
        )
    except ConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 1
    except CodedimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
