"""Report serialization: JSON, CSV, markdown and plain-text rendering.

JSON reports embed a run manifest (tool version, subcommand, full parameter
echo, timestamp) sufficient to reproduce the run; everything except the
timestamp is a pure function of the inputs, so repeated runs differ only in
that one field.  `report_json` writes them with its own small indent-2
writer: `json.dumps(..., indent=2)` would select `json`'s pure-Python
encoder, which took about a sixth of an `analyze --json` op.  The writer's
output equals ``json.dumps(payload, indent=2) + "\n"`` for the types it
accepts, dispatched on the exact type: dict with str keys, list, tuple, str,
int, float, bool and None.  Floats render as `json` renders them
(`float.__repr__`, NaN, Infinity, -Infinity).  Any other type, a numpy
scalar included, raises TypeError rather than being rendered differently.
CSV numbers are written with 17 significant digits so they parse back to
the identical double; a periodic run of a scan is rendered once per period.
"""

import contextlib
import csv
import datetime
import enum
import io
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import PUBLISHED_FIELDS, published_values
from .metrics import MetricReport


def format_real(x) -> str:
    """17-significant-digit decimal rendering (exact parse round-trip)."""
    return format(float(x), ".17g")


def run_manifest(subcommand: str, parameters: dict) -> dict:
    return {
        "tool": "sboxkit",
        "version": __version__,
        "subcommand": subcommand,
        "parameters": parameters,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _json_value(v):
    if isinstance(v, enum.Enum):
        return v.value
    return v.tolist() if isinstance(v, np.ndarray) else v


def report_to_dict(report: MetricReport) -> dict:
    """The report's fields, in declaration order, as JSON-ready values."""
    return {name: _json_value(v) for name, v in vars(report).items()}


_INF = float("inf")


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: repr,
    float: _json_float,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}


def _json_indent2(v, indent: str) -> str:
    """`v` as ``json.dumps(v, indent=2)`` renders it, nested at `indent`."""
    kind = type(v)
    if kind in _JSON_SCALARS:
        return _JSON_SCALARS[kind](v)
    inner = indent + "  "
    if kind is dict:
        if not v:
            return "{}"
        if not all(type(k) is str for k in v):
            raise TypeError("JSON object keys must be str")
        items = (encode_basestring_ascii(k) + ": " + _json_indent2(x, inner) for k, x in v.items())
        brackets = "{}"
    elif kind is list or kind is tuple:
        if not v:
            return "[]"
        kinds = set(map(type, v))
        render = _JSON_SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(render, v) if render else (_json_indent2(x, inner) for x in v)
        brackets = "[]"
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + brackets[1]


def report_json(report: MetricReport, manifest: dict) -> str:
    """The report and its manifest as indent-2 JSON, byte for byte as `json.dumps` writes it."""
    payload = {"manifest": manifest, "report": report_to_dict(report)}
    return _json_indent2(payload, "") + "\n"


_MD_FORMATS = {"sac": ".4f", "sac_offset": ".4f"}  # every other column: "g"


def markdown_row(report: MetricReport, path) -> str:
    """One ``analyze --md`` table row, labelled with the file name of `path`."""
    cells = [format(v, _MD_FORMATS.get(name, "g"))
             for name, v in published_values(report).items()]
    return "| " + Path(str(path)).name + " | " + " | ".join(cells) + " |"


def _period(values: np.ndarray) -> int:
    """The smallest p >= 1 with values[i] and values[i + p] equal bit for bit for every i.

    ``len(values)`` if there is no smaller one.  Bitwise, so 0.0 and -0.0
    (or two NaNs with other payloads) never match.
    """
    bits = np.asarray(values, np.float64).view(np.int64)
    if np.count_nonzero(bits == bits[0]) > 1:  # cheap for a run that never repeats its first value
        for p in (np.flatnonzero(bits[1:] == bits[0]) + 1).tolist():
            if (bits[p:] == bits[:-p]).all():
                return p
    return len(values)


def write_param_csv(path, column: str, points, run: int = 1) -> None:
    """Write (param, value) rows as a ``param,<column>`` CSV to `path`, or stdout.

    `points` is an (N, 2) array whose rows come in runs of `run` rows that
    share one parameter, as a bifurcation scan's do; a `run` below 1 counts
    as 1.  Numbers are rendered as by `format_real`; each run's parameter is
    formatted once, each run is rendered by `%` operations, and the output
    is written run by run rather than joined into one string.

    A run of more than one row whose values repeat with a period
    (``_period``: the smallest shift under which they are equal bit for
    bit, so 0.0 and -0.0 never match) has one period rendered and its text
    repeated, then the partial last period rendered; equal bits give equal
    text, so the bytes are those of rendering every row.  In the default
    scans of the benchmark's ranges (x0 0.37), 68% of logistic samples and
    24% of sine samples repeat an earlier sample of their run, and no AHYB
    sample does.  In process on a 2-core x86-64 machine (Python 3.11, numpy
    2.4; alternating with rendering every row), such a scan rendered in
    0.42-0.46x the time for the logistic map and 0.80-0.92x for the sine
    map; AHYB scans, where the search finds nothing, took 2-5% longer.
    """
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as out:
        out.write(f"param,{column}\n")
        run = max(run, 1)
        for start in range(0, len(points), run):
            block = points[start:start + run]
            line = format_real(block[0, 0]) + ",%.17g\n"
            values = block[:, 1]
            period = _period(values) if run > 1 else len(values)
            whole, part = divmod(len(values), period)
            text = line * period % tuple(values[:period].tolist())
            out.write(text * whole + line * part % tuple(values[:part].tolist()))


def nl_summary_line(report: MetricReport) -> str:
    return (f"nl min {report.nl_min}  max {report.nl_max}  "
            f"avg {report.nl_avg:g}  ({report.nl_mode.value} mode)")


def render_report_text(report: MetricReport) -> str:
    lines = [
        f"bijective        {'yes' if report.bijective else 'NO'}",
        f"nonlinearity     min {report.nl_min}  max {report.nl_max}  "
        f"avg {report.nl_avg:g}  ({report.nl_mode.value} mode)",
        "per output bit   " + " ".join(str(v) for v in report.nl_per_coordinate),
        f"SAC              avg {report.sac_avg:.6f}  offset {report.sac_offset:.6f}",
        f"BIC-NL           avg {report.bic_nl_avg:g}",
        f"LP               {report.lp:g}",
        f"DU / DP          {report.du} / {report.dp:g}",
        f"fixed points     {report.fixed_point_count}"
        + (f"  at {list(report.fixed_points)}" if report.fixed_points else ""),
        "",
        "SAC dependency matrix:",
    ]
    for row in report.sac_matrix:
        lines.append("  " + " ".join(f"{v:.4f}" for v in row))
    lines.append("")
    lines.append("BIC-NL matrix:")
    for row in report.bic_nl_matrix:
        lines.append("  " + " ".join(f"{int(v):3d}" for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Comparison table rendering

def _row_values(row) -> dict:
    if row.report is not None:
        return published_values(row.report)
    return (row.published or {}) if row.published_only else {}


def _cell(value, decimals=4) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return str(value)
    return f"{value:.{decimals}g}" if abs(value) < 1 else f"{value:g}"


def comparison_markdown(rows) -> str:
    header = "| S-box | " + " | ".join(PUBLISHED_FIELDS) + " | published | note |"
    rule = "|" + "---|" * (len(PUBLISHED_FIELDS) + 3)
    lines = [header, rule]
    for row in rows:
        if row.error is not None:
            cells = ["error: " + row.error] + ["-"] * (len(PUBLISHED_FIELDS) - 1)
        else:
            values = _row_values(row)
            cells = [_cell(values.get(name)) for name in PUBLISHED_FIELDS]
        lines.append(
            "| " + row.label + " | " + " | ".join(cells) + " | "
            + ("yes" if row.published_only else "no") + " | "
            + (row.note or "") + " |"
        )
    delta_lines = deltas_section(rows)
    if delta_lines:
        lines.append("")
        lines.extend(delta_lines)
    return "\n".join(lines) + "\n"


def comparison_csv(rows) -> str:
    """The comparison as CSV; a field holding a comma or a quote is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", *PUBLISHED_FIELDS, "published", "error"])
    for row in rows:
        values = _row_values(row)
        cells = [v if v is None or isinstance(v, int) else format_real(v)
                 for v in map(values.get, PUBLISHED_FIELDS)]
        writer.writerow([row.id, *cells, "yes" if row.published_only else "no", row.error])
    return out.getvalue()


def deltas_section(rows) -> list:
    """Computed-versus-published lines for rows that have both."""
    lines = []
    for row in rows:
        if not row.deltas:
            continue
        lines.append(f"deltas for {row.id} (computed vs published):")
        for d in row.deltas:
            mark = "match" if d["match"] else "MISMATCH"
            lines.append(
                f"  {d['metric']:<10} computed {_cell(d['computed'], 6):>10}  "
                f"published {_cell(d['published'], 6):>10}  {mark}"
            )
    return lines
