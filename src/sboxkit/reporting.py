"""Report serialization: JSON, CSV, markdown and plain-text rendering.

JSON reports embed a run manifest (tool version, subcommand, full parameter
echo, timestamp) sufficient to reproduce the run; everything except the
timestamp is a pure function of the inputs, so repeated runs differ only in
that one field.  CSV numbers are written with 17 significant digits so they
parse back to the identical double.
"""

import contextlib
import csv
import datetime
import enum
import io
import json
import sys
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


def report_json(report: MetricReport, manifest: dict) -> str:
    payload = {"manifest": manifest, "report": report_to_dict(report)}
    return json.dumps(payload, indent=2) + "\n"


_MD_FORMATS = {"sac": ".4f", "sac_offset": ".4f"}  # every other column: "g"


def markdown_row(report: MetricReport, path) -> str:
    """One ``analyze --md`` table row, labelled with the file name of `path`."""
    cells = [format(v, _MD_FORMATS.get(name, "g"))
             for name, v in published_values(report).items()]
    return "| " + Path(str(path)).name + " | " + " | ".join(cells) + " |"


def write_param_csv(path, column: str, points, run: int = 1) -> None:
    """Write (param, value) rows as a ``param,<column>`` CSV to `path`, or stdout.

    `points` is an (N, 2) array whose rows come in runs of `run` rows that
    share one parameter, as a bifurcation scan's do.  Numbers are rendered
    as by `format_real`; each run's parameter is formatted once, each run
    is rendered by one `%` operation, and the output is written run by run
    rather than joined into one string.
    """
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as out:
        out.write(f"param,{column}\n")
        for start in range(0, len(points), max(run, 1)):
            block = points[start:start + run]
            line = format_real(block[0, 0]) + ",%.17g\n"
            out.write(line * len(block) % tuple(block[:, 1].tolist()))


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
