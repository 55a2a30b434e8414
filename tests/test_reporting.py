import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sboxkit import NLMode, full_report, get_entry
from sboxkit.corpus import published_values
from sboxkit.reporting import (
    format_real,
    markdown_row,
    report_json,
    report_to_dict,
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


def _rendered_rows(points):
    return "".join(f"{format_real(p)},{format_real(v)}\n" for p, v in points)


def test_param_csv_renders_periodic_runs(capsys):
    # runs of five rows: period 1; period 2 with a partial last period; 0.0
    # and -0.0, which must not stand in for each other; a repeated value
    # that makes no period; a trailing short run
    values = [0.6, 0.6, 0.6, 0.6, 0.6,
              0.25, 1 / 3, 0.25, 1 / 3, 0.25,
              0.0, -0.0, 0.0, -0.0, -0.0,
              0.5, 0.75, 0.5, 0.875, 0.5,
              2.0, 2.0]
    params = [1.0] * 5 + [2.0] * 5 + [3.0] * 5 + [4.0] * 5 + [5.0] * 2
    points = np.column_stack((params, values))
    write_param_csv(None, "x", points, run=5)
    out = capsys.readouterr().out
    assert out == "param,x\n" + _rendered_rows(points)
    assert out.splitlines()[1:] == [
        "1,0.59999999999999998", "1,0.59999999999999998", "1,0.59999999999999998",
        "1,0.59999999999999998", "1,0.59999999999999998",
        "2,0.25", "2,0.33333333333333331", "2,0.25", "2,0.33333333333333331", "2,0.25",
        "3,0", "3,-0", "3,0", "3,-0", "3,-0",
        "4,0.5", "4,0.75", "4,0.5", "4,0.875", "4,0.5",
        "5,2", "5,2",
    ]
    # one row per run: each row is rendered on its own
    write_param_csv(None, "le", points[5:8])
    assert capsys.readouterr().out.splitlines() == [
        "param,le", "2,0.25", "2,0.33333333333333331", "2,0.25"]


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.sampled_from([0.0, -0.0, 0.5, 1 / 3, 5e-324, np.inf, np.nan]),
                       max_size=40),
       run=st.integers(0, 12))
def test_param_csv_matches_per_row_rendering(values, run):
    # a small pool of values, so that runs repeat and are often periodic
    points = np.column_stack((np.arange(len(values)) // max(run, 1) * 0.5, values))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        write_param_csv(None, "x", points, run=run)
    assert out.getvalue() == "param,x\n" + _rendered_rows(points)


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


SPECIAL_FLOATS = [-0.0, float("inf"), float("-inf"), float("nan"), 5e-324, 1e300]
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**80, 2**80),
    st.floats(), st.sampled_from(SPECIAL_FLOATS), st.text(),
)
# homogeneous lists take the writer's one-map path; bool/int mixes do not
JSON_LEAVES = st.one_of(
    JSON_SCALARS,
    st.lists(st.integers()), st.lists(st.floats()), st.lists(st.booleans()), st.lists(st.text()),
    st.lists(st.one_of(st.booleans(), st.integers())),
)
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda children: st.one_of(st.lists(children), st.lists(children).map(tuple),
                               st.dictionaries(st.text(), children)),
    max_leaves=20,
)
PROPOSED_REPORT = full_report(get_entry("paper-proposed").table)


def _json_dumps_report(report, manifest):
    return json.dumps({"manifest": manifest, "report": report_to_dict(report)}, indent=2) + "\n"


@settings(max_examples=100, deadline=None)
@given(tree=JSON_TREES)
def test_report_json_writes_what_json_dumps_writes(tree):
    manifest = run_manifest("analyze", {"tree": tree})
    assert report_json(PROPOSED_REPORT, manifest) == _json_dumps_report(PROPOSED_REPORT, manifest)


@pytest.mark.parametrize("mode", list(NLMode))
@pytest.mark.filterwarnings("ignore::sboxkit.errors.NonBijectiveWarning")
def test_report_json_of_real_reports_matches_json_dumps(mode):
    rng = np.random.default_rng(7)
    duplicate = np.arange(256)
    duplicate[0] = 5
    tables = [get_entry("aes").table, get_entry("paper-proposed").table,
              rng.permutation(256), duplicate]
    for table in tables:
        report = full_report(table, mode, allow_non_bijective=True)
        manifest = run_manifest("analyze", {"path": "box.sbox", "format": "dec",
                                            "nl_mode": mode.value, "allow_non_bijective": True})
        assert report_json(report, manifest) == _json_dumps_report(report, manifest)


@pytest.mark.parametrize("value", [np.float64(0.5), np.int64(3), np.arange(3), {1: 2},
                                   {"a"}, [1, np.bool_(True)], {"k": object()}],
                         ids=["np-float", "np-int", "ndarray", "int-key", "set",
                              "nested-np-bool", "nested-object"])
def test_report_json_rejects_unsupported_types(value):
    with pytest.raises(TypeError):
        report_json(PROPOSED_REPORT, run_manifest("analyze", {"value": value}))
