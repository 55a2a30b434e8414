import json

import numpy as np
import pytest

from sboxkit import NLMode, full_report, get_entry
from sboxkit.corpus import published_values
from sboxkit.reporting import (
    format_real,
    markdown_row,
    report_json,
    run_manifest,
    write_param_csv,
)

# The published JSON report layout, in order.
REPORT_KEYS = [
    "bijective", "nl_mode", "nl_min", "nl_max", "nl_avg", "nl_per_coordinate",
    "sac_avg", "sac_offset", "sac_matrix", "bic_nl_avg", "bic_nl_matrix",
    "lp", "du", "dp", "du_grid", "fixed_point_count", "fixed_points",
]


def test_param_csv_streams_runs(tmp_path, capsys):
    points = np.array([[0.1, 1.0], [0.1, 2.5], [0.1, -0.0], [0.7, 1e-300], [0.7, 3.0], [0.7, 4.0]])
    want = "param,x\n" + "".join(f"{format_real(p)},{format_real(v)}\n" for p, v in points)
    path = tmp_path / "scan.csv"
    write_param_csv(path, "x", points, run=3)
    assert path.read_text() == want
    write_param_csv(None, "x", points, run=3)
    assert capsys.readouterr().out == want
    write_param_csv(None, "le", points)
    assert capsys.readouterr().out == want.replace("param,x", "param,le", 1)


def test_param_csv_renders_special_values_and_a_short_last_run(capsys):
    values = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300, -1e-300, 1 / 3]
    params = [-0.0] * 3 + [np.nan] * 3 + [5e-324] * 2  # the last run is shorter than `run`
    write_param_csv(None, "x", np.column_stack((params, values)), run=3)
    out = capsys.readouterr().out
    assert out == "param,x\n" + "".join(f"{format_real(p)},{format_real(v)}\n"
                                        for p, v in zip(params, values))
    assert out.splitlines()[1:] == [
        "-0,-0", "-0,inf", "-0,-inf",
        "nan,nan", "nan,4.9406564584124654e-324", "nan,1.0000000000000001e+300",
        "4.9406564584124654e-324,-1e-300", "4.9406564584124654e-324,0.33333333333333331",
    ]


def test_param_csv_without_rows_is_header_only(capsys):
    write_param_csv(None, "x", np.empty((0, 2)), run=0)
    assert capsys.readouterr().out == "param,x\n"


def test_markdown_row_cells():
    row = markdown_row(full_report(get_entry("aes").table), "/some/dir/aes.sbox")
    cells = [c.strip() for c in row.strip("|").split("|")]
    assert cells[0] == "aes.sbox"
    assert cells[1:3] == ["112", "112"]
    assert len(cells) == 10


def test_markdown_row_cells_are_the_published_columns():
    report = full_report(get_entry("paper-proposed").table)
    row = markdown_row(report, "proposed.sbox")
    cells = [c.strip() for c in row.strip("|").split("|")][1:]
    values = published_values(report)
    assert len(cells) == len(values)
    assert [float(c) for c in cells] == pytest.approx(
        [float(v) for v in values.values()], rel=1e-5, abs=5e-5)


@pytest.mark.parametrize("mode", list(NLMode))
def test_report_json_keys_are_the_published_layout(mode):
    report = full_report(get_entry("paper-proposed").table, mode)
    payload = json.loads(report_json(report, run_manifest("analyze", {})))
    assert list(payload["report"]) == REPORT_KEYS
    assert payload["report"]["nl_mode"] == mode.value
    assert payload["report"]["du_grid"] == report.du_grid.tolist()
