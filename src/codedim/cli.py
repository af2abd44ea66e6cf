"""Command-line front end: analyze, betti, oracle-check."""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field as dataclass_field

from . import generators
from .betti import hochster_table, level_ranks, sweep_guard, table_to_json, table_to_m2
from .complexes import (
    Code,
    SimplicialComplex,
    ambient_cap,
    complex_of_code,
    set_ambient_cap,
)
from .dimensions import full_report, report_to_json
from .errors import CodedimError, ConsistencyError, InputError
from .files import read_code, read_complex
from .linalg import PrimeField
from .oracle import corrupt_step_one, run_oracle_suite


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation: field, guard, format, and the input source."""

    field_char: int = 2
    max_n: int | None = None
    output_format: str = "text"
    generator: str | None = None
    generator_args: dict[str, float] = dataclass_field(default_factory=dict)
    code_file: str | None = None
    complex_file: str | None = None
    words: tuple[str, ...] | None = None


_GENERATORS = {
    "cross-polytope": ("i", lambda a: generators.cross_polytope(int(a))),
    "cone": ("i", lambda a: generators.cone_of_cross_polytope(int(a))),
    "octahedron": (None, lambda _: generators.cross_polytope(2)),
    "square": (None, lambda _: generators.cross_polytope(1)),
    "bipartite": ("r", lambda a: generators.complete_bipartite_clique(int(a))),
    "hollow-simplex": ("m", lambda a: generators.hollow_simplex(int(a))),
    "full-simplex": ("n", lambda a: generators.full_simplex(int(a))),
    "l26": (None, lambda _: complex_of_code(generators.code_l26())),
}


def build_complex(cfg: RunConfig) -> SimplicialComplex:
    sources = [
        cfg.generator is not None,
        cfg.code_file is not None,
        cfg.complex_file is not None,
        cfg.words is not None,
    ]
    if sum(sources) != 1:
        raise InputError(
            "pick exactly one input: --generator, --code-file, "
            "--complex-file, or --words"
        )
    if cfg.generator is not None:
        if cfg.generator == "random":
            size = cfg.generator_args.get("n")
            if size is None:
                raise InputError("generator 'random' needs --n")
            return generators.random_complex(
                int(size),
                cfg.generator_args.get("density", 0.5),
                int(cfg.generator_args.get("seed", 0)),
            )
        if cfg.generator not in _GENERATORS:
            known = ", ".join(sorted(_GENERATORS) + ["random"])
            raise InputError(f"unknown generator {cfg.generator!r}; known: {known}")
        param, make = _GENERATORS[cfg.generator]
        if param is None:
            return make(0)
        value = cfg.generator_args.get(param)
        if value is None:
            raise InputError(f"generator {cfg.generator!r} needs --{param}")
        return make(value)
    if cfg.code_file is not None:
        return complex_of_code(read_code(cfg.code_file))
    if cfg.complex_file is not None:
        return read_complex(cfg.complex_file)
    assert cfg.words is not None
    texts = [w for w in re.split(r"[,\s]+", " ".join(cfg.words)) if w]
    return complex_of_code(Code.of(texts))


def _witness_suffix(report, key: str) -> str:
    w = report.witnesses.get(key)
    return f"   (step {w.i}, sigma {w.sigma.binary()})" if w else ""


def cmd_analyze(cfg: RunConfig) -> int:
    d = build_complex(cfg)
    report = full_report(d, PrimeField(cfg.field_char), cfg.max_n)
    if cfg.output_format == "json":
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


def cmd_betti(cfg: RunConfig) -> int:
    d = build_complex(cfg)
    table = hochster_table(d, PrimeField(cfg.field_char), cfg.max_n)
    if cfg.output_format == "json":
        print(table_to_json(table))
    elif cfg.output_format == "m2":
        print(table_to_m2(table))
    else:
        for i, sigma, beta in table.items():
            print(f"step {i}  sigma {sigma.binary()}  |sigma| {len(sigma)}  beta {beta}")
        print(f"level ranks: {level_ranks(table)}")
    return 0


def cmd_oracle_check(cfg: RunConfig, trials: int, seed: int, corrupt: bool) -> int:
    n = cfg.max_n if cfg.max_n is not None else 6
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
    parser.add_argument("--max-n", type=int, default=None, metavar="K",
                        help=f"subset-sweep guard (default {sweep_guard()},"
                             " env CODEDIM_MAX_N)")
    parser.add_argument("--allow-large", action="store_true",
                        help=f"acknowledge sweeps beyond n={ambient_cap()}")
    parser.add_argument("--format", choices=formats, default="text",
                        help="output format")


def _add_inputs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--generator", metavar="NAME",
                        help="named fixture: "
                             + ", ".join(sorted(_GENERATORS) + ["random"]))
    parser.add_argument("--i", type=int, dest="gen_i", metavar="IDX",
                        help="cross-polytope / cone index")
    parser.add_argument("--r", type=int, dest="gen_r", metavar="SIZE",
                        help="bipartite side size")
    parser.add_argument("--m", type=int, dest="gen_m", metavar="SIZE",
                        help="hollow-simplex vertex count")
    parser.add_argument("--n", type=int, dest="gen_n", metavar="SIZE",
                        help="full-simplex or random-complex vertex count")
    parser.add_argument("--density", type=float, dest="gen_density",
                        metavar="D", help="random-complex face probability")
    parser.add_argument("--seed", type=int, dest="gen_seed", metavar="S",
                        help="random-complex seed")
    parser.add_argument("--code-file", metavar="PATH",
                        help="code file, one codeword per line")
    parser.add_argument("--complex-file", metavar="PATH",
                        help="complex file, one facet per line")
    parser.add_argument("--words", nargs="+", metavar="WORD",
                        help="inline codewords (binary or brace sets)")


def _config_from(args: argparse.Namespace) -> RunConfig:
    max_n = args.max_n
    cap = ambient_cap()
    if max_n is not None and max_n > cap and not args.allow_large:
        raise InputError(
            f"--max-n {max_n} exceeds the hard guard {cap}; "
            "add --allow-large if you really mean it"
        )
    if max_n is not None and max_n > cap:
        set_ambient_cap(max_n)
    gen_args = {
        name: getattr(args, f"gen_{name}")
        for name in ("i", "r", "m", "n", "density", "seed")
        if getattr(args, f"gen_{name}", None) is not None
    }
    return RunConfig(
        field_char=args.field,
        max_n=max_n,
        output_format=getattr(args, "format", "text"),
        generator=args.generator,
        generator_args=gen_args,
        code_file=args.code_file,
        complex_file=args.complex_file,
        words=tuple(args.words) if args.words else None,
    )


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
    oracle.add_argument("--max-n", type=int, default=None, metavar="K",
                        help="vertex count of the random complexes (<= 8)")
    oracle.add_argument("--allow-large", action="store_true",
                        help=argparse.SUPPRESS)
    oracle.add_argument("--inject-corrupt", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    cap = ambient_cap()
    try:
        cfg = _config_from(args) if args.command != "oracle-check" else RunConfig(
            max_n=args.max_n
        )
        if args.command == "analyze":
            return cmd_analyze(cfg)
        if args.command == "betti":
            return cmd_betti(cfg)
        return cmd_oracle_check(cfg, args.trials, args.seed, args.inject_corrupt)
    except ConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 1
    except CodedimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # --allow-large raises the library-wide cap for this run only.
        set_ambient_cap(cap)


if __name__ == "__main__":
    sys.exit(main())
