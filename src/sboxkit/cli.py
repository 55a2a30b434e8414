"""Command-line front door.

Subcommands: generate, analyze, compare, bifurcate, lyapunov.

Exit codes are a stable contract: 0 success, 1 input/parse error,
2 non-bijective input, 3 generation stall.  All outputs are deterministic
functions of the flags; the only exception is the timestamp inside JSON run
manifests.
"""

import argparse
import functools
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from .boxfile import BoxFormat, load_sbox, save_sbox
from .errors import (
    GenerationStall,
    NonBijectiveWarning,
    NotBijective,
    ParamOutOfRange,
    SBoxKitError,
)
from .generator import KEY_RANGES, KeySpec, Objective, RefineConfig, generate
from .maps import BranchMode, MapKind, MapParams, _param_grid, bifurcation_scan, lyapunov
from .metrics import NLMode, full_report
from .reporting import (
    comparison_csv,
    comparison_markdown,
    deltas_section,
    format_real,
    markdown_row,
    nl_summary_line,
    render_report_text,
    report_json,
    run_manifest,
    write_param_csv,
)

class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage by default; 2 is reserved
    # for non-bijective input here, so route usage errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _key_from_args(args) -> KeySpec:
    # The flags reach `KeySpec.from_dict` as the strings they were given,
    # exactly as `--key-json` string fields do.
    flags = {name: getattr(args, name) for name in KEY_RANGES
             if getattr(args, name) is not None}
    if args.key_json is None:
        return KeySpec.from_dict(flags)
    if flags:
        raise ParamOutOfRange("--key-json cannot be combined with key field flags")
    raw = args.key_json
    text = raw if raw.lstrip().startswith("{") else Path(raw).read_text()
    return KeySpec.from_dict(json.loads(text))


def _cmd_generate(args) -> int:
    key = _key_from_args(args)
    config = RefineConfig(budget=args.budget, objective=Objective(args.objective))
    branch_mode = BranchMode(args.branch_mode)
    nl_mode = NLMode(args.nl_mode)

    box = generate(key, config, branch_mode)
    save_sbox(args.out, box, BoxFormat(args.format))
    report = full_report(box, nl_mode)
    if args.report:
        manifest = run_manifest("generate", {
            "key": key.as_dict(),
            "budget": config.budget,
            "objective": config.objective.value,
            "branch_mode": branch_mode.value,
            "nl_mode": nl_mode.value,
            "format": args.format,
            "out": str(args.out),
        })
        Path(args.report).write_text(report_json(report, manifest))
    print(nl_summary_line(report))
    return 0


def _cmd_analyze(args) -> int:
    box = load_sbox(args.path, BoxFormat(args.format), args.allow_non_bijective)
    nl_mode = NLMode(args.nl_mode)
    with warnings.catch_warnings():
        # load_sbox has already warned about a non-bijective table
        warnings.simplefilter("ignore", NonBijectiveWarning)
        report = full_report(box, nl_mode, args.allow_non_bijective)
    if args.json:
        manifest = run_manifest("analyze", {
            "path": str(args.path),
            "format": args.format,
            "nl_mode": nl_mode.value,
            "allow_non_bijective": bool(args.allow_non_bijective),
        })
        sys.stdout.write(report_json(report, manifest))
    elif args.md:
        print(markdown_row(report, args.path))
    else:
        sys.stdout.write(render_report_text(report))
    return 0


def _cmd_compare(args) -> int:
    corpus_by_id = {e.id: e for e in corpus_mod.builtin_corpus()}
    nl_mode = NLMode(args.nl_mode)
    rows = []
    for raw in args.entries:
        path, name = Path(raw), raw
        try:
            if raw in corpus_by_id:
                entry = corpus_by_id[raw]
            elif path.exists():
                name = path.stem
                entry = corpus_mod.CorpusEntry(
                    id=name, label=name, source=str(path),
                    table=load_sbox(path, BoxFormat(args.format)))
            else:
                raise SBoxKitError(f"unknown corpus id or file: {raw}")
        except SBoxKitError as exc:
            rows.append(corpus_mod.ComparisonRow(id=name, label=name, error=str(exc)))
        else:
            rows.extend(corpus_mod.compare([entry], nl_mode))
    out = comparison_csv(rows) if args.csv else comparison_markdown(rows)
    sys.stdout.write(out)
    if args.csv:
        for line in deltas_section(rows):
            print(line, file=sys.stderr)
    return 0 if any(r.error is None for r in rows) else 1


def _cmd_bifurcate(args) -> int:
    kind = MapKind(args.map)
    points = bifurcation_scan(
        kind, args.param_lo, args.param_hi, args.steps,
        x0=args.x0, transient=args.transient, samples=args.samples,
        branch_mode=BranchMode(args.branch_mode),
    )
    write_param_csv(args.out, "x", points, args.samples)
    return 0


def _cmd_lyapunov(args) -> int:
    kind = MapKind(args.map)
    branch_mode = BranchMode(args.branch_mode)
    sweep = args.param is None
    if (args.param_lo is None, args.param_hi is None) != (not sweep, not sweep):
        raise ParamOutOfRange("pass either --param or both --param-lo/--param-hi")
    if not sweep:
        if args.out is not None:
            raise ParamOutOfRange("--out writes sweeps only; pass --param-lo/--param-hi")
        value = lyapunov(MapParams(kind, args.param, branch_mode),
                         args.x0, args.transient, args.n)
        print(format_real(value))
        return 0
    # One `lyapunov` call per value rather than `maps.lyapunov_sweep`: the
    # benchmark's traced mode (perfbench/spans.py) times Lyapunov work by
    # wrapping `cli.lyapunov`.  See ROADMAP item 1.
    values = _param_grid(kind, args.param_lo, args.param_hi, args.steps, 0)
    exponents = [lyapunov(MapParams(kind, float(p), branch_mode),
                          args.x0, args.transient, args.n) for p in values]
    write_param_csv(args.out, "le", np.column_stack((values, exponents)))
    return 0


def _enum_option(default, help, members=None):
    """`add_argument` keywords for a choice among enum values (all of
    `default`'s enum unless `members` is given) that defaults to `default`."""
    return dict(choices=[m.value for m in members or type(default)],
                default=default.value, help=help)


# Enum options that several subcommands share.
_FORMAT = _enum_option(BoxFormat.DECIMAL_GRID, "grid file format",
                       (BoxFormat.DECIMAL_GRID, BoxFormat.HEX_GRID))
_NL_MODE = _enum_option(NLMode.COORDINATE, "nonlinearity aggregation mode")
_BRANCH_MODE = _enum_option(BranchMode.EQUATION1, "third-branch variant of the primary map")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="sboxkit",
                     description="chaotic S-box generation and analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate an S-box from a key")
    for name in KEY_RANGES:
        g.add_argument("--" + name, help=f"key field {name}")
    g.add_argument("--key-json", default=None,
                   help="key as a JSON object (inline or a file path)")
    g.add_argument("--out", required=True, help="output grid file")
    g.add_argument("--report", default=None, help="also write a JSON metric report")
    g.add_argument("--budget", type=int, default=RefineConfig.budget,
                   help="refinement swap-attempt budget")
    g.add_argument("--objective",
                   **_enum_option(RefineConfig.objective, "refinement objective"))
    g.add_argument("--format", **_FORMAT)
    g.add_argument("--nl-mode", **_NL_MODE)
    g.add_argument("--branch-mode", **_BRANCH_MODE)
    g.set_defaults(func=_cmd_generate)

    a = sub.add_parser("analyze", help="run the metric battery on a grid file")
    a.add_argument("path", help="S-box grid file")
    out = a.add_mutually_exclusive_group()
    out.add_argument("--json", action="store_true", help="emit a JSON report")
    out.add_argument("--md", action="store_true", help="emit a markdown row")
    a.add_argument("--allow-non-bijective", action="store_true",
                   help="measure non-permutations instead of failing")
    a.add_argument("--format", **_FORMAT)
    a.add_argument("--nl-mode", **_NL_MODE)
    a.set_defaults(func=_cmd_analyze)

    c = sub.add_parser("compare", help="compare corpus entries and/or grid files")
    c.add_argument("entries", nargs="+", help="corpus ids or grid file paths")
    c.add_argument("--csv", action="store_true", help="CSV instead of markdown")
    c.add_argument("--format", **_FORMAT)
    c.add_argument("--nl-mode", **_NL_MODE)
    c.set_defaults(func=_cmd_compare)

    b = sub.add_parser("bifurcate", help="write a bifurcation scan as CSV")
    b.add_argument("--map", choices=[k.value for k in MapKind], required=True)
    b.add_argument("--param-lo", type=float, required=True)
    b.add_argument("--param-hi", type=float, required=True)
    b.add_argument("--steps", type=int, default=1000)
    b.add_argument("--x0", type=float, default=0.3)
    b.add_argument("--transient", type=int, default=1000)
    b.add_argument("--samples", type=int, default=200)
    b.add_argument("--out", default=None, help="CSV path (stdout if omitted)")
    b.add_argument("--branch-mode", **_BRANCH_MODE)
    b.set_defaults(func=_cmd_bifurcate)

    l = sub.add_parser("lyapunov", help="estimate Lyapunov exponents")
    l.add_argument("--map", choices=[k.value for k in MapKind], required=True)
    l.add_argument("--param", type=float, default=None,
                   help="single control-parameter value")
    l.add_argument("--param-lo", type=float, default=None)
    l.add_argument("--param-hi", type=float, default=None)
    l.add_argument("--steps", type=int, default=50, help="sweep point count")
    l.add_argument("--x0", type=float, default=0.3)
    l.add_argument("--transient", type=int, default=1000)
    l.add_argument("--n", type=int, default=100000, help="samples per estimate")
    l.add_argument("--out", default=None, help="CSV path for sweeps")
    l.add_argument("--branch-mode", **_BRANCH_MODE)
    l.set_defaults(func=_cmd_lyapunov)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SBoxKitError, ValueError, ArithmeticError, OSError) as exc:
        print(f"sboxkit: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, NotBijective) else 3 if isinstance(exc, GenerationStall) else 1


if __name__ == "__main__":
    sys.exit(main())
