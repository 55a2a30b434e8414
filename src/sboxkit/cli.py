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
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from .boxfile import BoxFormat, load_sbox, save_sbox
from .errors import GenerationStall, NotBijective, ParamOutOfRange, SBoxKitError
from .generator import KeySpec, Objective, RefineConfig, generate
from .maps import BranchMode, MapKind, MapParams, bifurcation_scan, lyapunov
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

_KEY_FLAGS = ("x0", "a", "b", "c", "d", "e", "f")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage by default; 2 is reserved
    # for non-bijective input here, so route usage errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _box_format(args) -> BoxFormat:
    return BoxFormat.HEX_GRID if args.format == "hex" else BoxFormat.DECIMAL_GRID


def _key_from_args(args) -> KeySpec:
    flags_given = [n for n in _KEY_FLAGS if getattr(args, n) is not None]
    if args.key_json is not None:
        if flags_given:
            raise ParamOutOfRange("--key-json cannot be combined with key field flags")
        raw = args.key_json
        if raw.lstrip().startswith("{"):
            data = json.loads(raw)
        else:
            data = json.loads(Path(raw).read_text())
        return KeySpec.from_dict(data)
    missing = [n for n in _KEY_FLAGS if getattr(args, n) is None]
    if missing:
        raise ParamOutOfRange(
            f"missing key fields: {', '.join('--' + n for n in missing)} "
            "(or pass --key-json)"
        )
    return KeySpec(x0=args.x0, a=args.a, b=args.b, c=args.c, d=args.d,
                   e=args.e, f=args.f)


def _cmd_generate(args) -> int:
    key = _key_from_args(args)
    config = RefineConfig(budget=args.budget, objective=Objective(args.objective))
    branch_mode = BranchMode(args.branch_mode)
    nl_mode = NLMode(args.nl_mode)

    box = generate(key, config, branch_mode)
    save_sbox(args.out, box, _box_format(args))
    report = full_report(box, nl_mode)
    if args.report:
        manifest = run_manifest("generate", {
            "key": {n: getattr(key, n) for n in _KEY_FLAGS},
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
    box = load_sbox(args.path, _box_format(args), args.allow_non_bijective)
    nl_mode = NLMode(args.nl_mode)
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
        if raw in corpus_by_id:
            rows.extend(corpus_mod.compare([corpus_by_id[raw]], nl_mode))
            continue
        path = Path(raw)
        if not path.exists():
            rows.append(corpus_mod.ComparisonRow(
                id=raw, label=raw, published_only=False,
                error=f"unknown corpus id or file: {raw}"))
            continue
        try:
            table = load_sbox(path, _box_format(args))
        except SBoxKitError as exc:
            rows.append(corpus_mod.ComparisonRow(
                id=path.stem, label=path.stem, published_only=False,
                error=str(exc)))
            continue
        entry = corpus_mod.CorpusEntry(
            id=path.stem, label=path.stem, source=str(path), table=table)
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
    sweep = args.param_lo is not None or args.param_hi is not None
    if sweep == (args.param is not None):
        raise ParamOutOfRange("pass either --param or both --param-lo/--param-hi")
    if not sweep:
        value = lyapunov(MapParams(kind, args.param, branch_mode),
                         args.x0, args.transient, args.n)
        print(format_real(value))
        return 0
    if args.param_lo is None or args.param_hi is None:
        raise ParamOutOfRange("sweep needs both --param-lo and --param-hi")
    # One `lyapunov` call per value rather than `maps.lyapunov_sweep`: the
    # benchmark's traced mode (perfbench/spans.py) times Lyapunov work by
    # wrapping `cli.lyapunov`.  See ROADMAP item 1.
    values = np.linspace(args.param_lo, args.param_hi, args.steps)
    exponents = [lyapunov(MapParams(kind, float(p), branch_mode),
                          args.x0, args.transient, args.n) for p in values]
    write_param_csv(args.out, "le", np.column_stack((values, exponents)))
    return 0


def _add_common(sub, fmt=True, nl=True, branch=False):
    if fmt:
        sub.add_argument("--format", choices=("dec", "hex"), default="dec",
                         help="grid file format")
    if nl:
        sub.add_argument("--nl-mode", choices=("coord", "full"), default="coord",
                         help="nonlinearity aggregation mode")
    if branch:
        sub.add_argument("--branch-mode", choices=("eq1", "alg1"), default="eq1",
                         help="third-branch variant of the primary map")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="sboxkit",
                     description="chaotic S-box generation and analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate an S-box from a key")
    for name in _KEY_FLAGS:
        kind = int if name in ("b", "c", "d") else float
        g.add_argument("--" + name, type=kind, default=None,
                       help=f"key field {name}")
    g.add_argument("--key-json", default=None,
                   help="key as a JSON object (inline or a file path)")
    g.add_argument("--out", required=True, help="output grid file")
    g.add_argument("--report", default=None, help="also write a JSON metric report")
    g.add_argument("--budget", type=int, default=65536,
                   help="refinement swap-attempt budget")
    g.add_argument("--objective", choices=("sum", "min", "full"), default="sum",
                   help="refinement objective")
    _add_common(g, branch=True)
    g.set_defaults(func=_cmd_generate)

    a = sub.add_parser("analyze", help="run the metric battery on a grid file")
    a.add_argument("path", help="S-box grid file")
    a.add_argument("--json", action="store_true", help="emit a JSON report")
    a.add_argument("--md", action="store_true", help="emit a markdown row")
    a.add_argument("--allow-non-bijective", action="store_true",
                   help="measure non-permutations instead of failing")
    _add_common(a)
    a.set_defaults(func=_cmd_analyze)

    c = sub.add_parser("compare", help="compare corpus entries and/or grid files")
    c.add_argument("entries", nargs="+", help="corpus ids or grid file paths")
    c.add_argument("--csv", action="store_true", help="CSV instead of markdown")
    _add_common(c)
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
    _add_common(b, fmt=False, nl=False, branch=True)
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
    _add_common(l, fmt=False, nl=False, branch=True)
    l.set_defaults(func=_cmd_lyapunov)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotBijective as exc:
        print(f"sboxkit: error: {exc}", file=sys.stderr)
        return 2
    except GenerationStall as exc:
        print(f"sboxkit: error: {exc}", file=sys.stderr)
        return 3
    except (SBoxKitError, ValueError, ArithmeticError, OSError,
            json.JSONDecodeError) as exc:
        print(f"sboxkit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
