"""Output checks, run after the timed window and apart from the program.

``check(op, workdir, stdout)`` raises ``CheckFailed`` when an output is
wrong.  It judges outputs against definitions (``oracle.battery``, the
brute-force ``tests/oracles.py``, ``np.linspace``, closed-form Lyapunov
exponents), never against the program's own fast paths.  The one program
call is ``generator.initial_sbox``, the baseline of the climb's
monotonicity check.
"""

import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

import oracle
from ops import ROOT, aes_table

sys.path.insert(0, str(ROOT / "tests"))
import oracles  # noqa: E402  (brute-force reference of the test suite)

from sboxkit.generator import initial_sbox  # noqa: E402

# The r = 2.5 logistic fixed point is superstable enough that the orbit sits
# on 1 - 1/r to rounding; LE(r = 4) = ln 2 has a standard error far below
# 1/sqrt(n) at these sample counts.
FIXED_POINT_TOL = 1e-12
LE_SUPERSTABLE_TOL = 1e-9
AES_ANCHORS = {"nl_min": 112, "nl_max": 112, "lp": 0.0625, "du": 4}


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _grid(path: Path) -> list:
    values = [int(tok) for tok in path.read_text(encoding="ascii").split()]
    _require(sorted(values) == list(range(256)), f"{path.name} is not a permutation of 0..255")
    return values


@functools.cache
def _fixed_battery(table: tuple, nl_mode: str) -> dict:
    return oracle.battery(table, nl_mode)


def _battery(table, nl_mode: str = "coord") -> dict:
    """``oracle.battery``, kept for the fixed boxes (tuples), fresh for random lists."""
    if isinstance(table, tuple):
        return _fixed_battery(table, nl_mode)
    return oracle.battery(table, nl_mode)


def _strip_timestamp(payload: dict) -> dict:
    payload["manifest"].pop("timestamp", None)
    return payload


def _compare_report(report: dict, table, nl_mode: str, where: str) -> None:
    expected = _battery(table, nl_mode)
    for name, value in expected.items():
        _require(report.get(name) == value,
                 f"{where}: {name} = {report.get(name)!r}, oracle says {value!r}")
    _require(set(report) == set(expected), f"{where}: unexpected report fields")


def check_generate(op, workdir: Path, stdout: str) -> None:
    key = op.info["key"]
    box = _grid(workdir / op.info["out"])
    payload = json.loads((workdir / op.info["report"]).read_text())
    report = payload["report"]
    coord = oracles.coordinate_nl_direct(box)
    sac = oracles.sac_direct(box)
    bic = oracles.bic_nl_direct(box)
    du = oracles.du_direct(box)
    fixed = [i for i in range(256) if box[i] == i]
    expected = {
        "nl_per_coordinate": coord,
        "nl_min": min(coord), "nl_max": max(coord), "nl_avg": sum(coord) / 8,
        "sac_matrix": sac.tolist(), "sac_avg": float(sac.mean()),
        "bic_nl_matrix": bic.tolist(), "bic_nl_avg": float(bic.sum() / 56),
        "lp": oracles.lp_direct(box),
        "du": du, "dp": du / 256,
        "fixed_points": fixed, "fixed_point_count": len(fixed),
    }
    for name, value in expected.items():
        _require(report[name] == value,
                 f"{op.name}: {name} = {report[name]!r}, brute force says {value!r}")
    fill = initial_sbox(key["x0"], key["a"], key["b"])
    _require(sum(coord) >= sum(oracles.coordinate_nl_direct(fill)),
             f"{op.name}: coordinate-NL sum fell below the chaotic fill's")
    _require(stdout.startswith(f"nl min {min(coord)}  max {max(coord)}"),
             f"{op.name}: summary line {stdout.strip()!r}")


def check_analyze(op, workdir: Path, stdout: str) -> None:
    report = json.loads(stdout)["report"]
    _compare_report(report, op.info["table"], op.info["mode"], op.name)
    if op.info["aes"]:
        for name, value in AES_ANCHORS.items():
            _require(report[name] == value, f"{op.name}: AES {name} = {report[name]!r}")


def check_compare(op, workdir: Path, stdout: str) -> None:
    lines = stdout.splitlines()
    _require(lines[0] == "id,nl_min,nl_max,nl_avg,sac,sac_offset,bic_nl,lp,dp,fp,published,error",
             f"{op.name}: CSV header {lines[0]!r}")
    _require(len(lines) == 1 + len(op.info["rows"]), f"{op.name}: {len(lines) - 1} rows")
    for line, (row_id, table) in zip(lines[1:], op.info["rows"]):
        cells = line.split(",")
        b = _battery(table)
        expected = [row_id, str(b["nl_min"]), str(b["nl_max"]), b["nl_avg"], b["sac_avg"],
                    b["sac_offset"], b["bic_nl_avg"], b["lp"], b["dp"],
                    str(b["fixed_point_count"]), "no", ""]
        got = [float(c) if isinstance(e, float) else c for c, e in zip(cells, expected)]
        _require(len(cells) == len(expected) and got == expected,
                 f"{op.name}: row {line!r}, oracle says {expected!r}")
        if tuple(table) == aes_table():
            _require(cells[1:3] == ["112", "112"] and float(cells[7]) == 0.0625
                     and float(cells[8]) == 4 / 256, f"{op.name}: AES row {line!r}")


def _csv_columns(path: Path, header: str, rows: int) -> tuple:
    first, _, body = path.read_text(encoding="ascii").partition("\n")
    _require(first == header, f"{path.name}: header {first!r}")
    lines, cells = body.count("\n"), body.replace("\n", ",").split(",")
    _require(lines == rows and len(cells) == 2 * rows + 1 and cells[-1] == "",
             f"{path.name}: {lines} rows, expected {rows} of two cells")
    cols = np.array(list(map(float, cells[:-1]))).reshape(rows, 2)
    _require(bool(np.isfinite(cols).all()), f"{path.name}: non-finite value")
    return cols[:, 0], cols[:, 1]


def check_bifurcate(op, workdir: Path, stdout: str) -> None:
    info = op.info
    params, states = _csv_columns(workdir / info["out"], "param,x",
                                  info["steps"] * info["samples"])
    grid = np.repeat(np.linspace(info["lo"], info["hi"], info["steps"]), info["samples"])
    _require(np.array_equal(params, grid), f"{op.name}: parameter column is not np.linspace")
    if info["map"] == "ahyb":
        _require(bool(((states >= 0) & (states < 4)).all()), f"{op.name}: AHYB state outside [0, 4)")
    if info["map"] == "logistic":
        at = params == 2.5
        _require(bool(np.abs(states[at] - (1 - 1 / 2.5)).max() <= FIXED_POINT_TOL),
                 f"{op.name}: logistic r = 2.5 states are not 1 - 1/r")


# |f'| is bounded on each map's domain, so every exponent is below ln(bound).
_DERIVATIVE_BOUND = {"ahyb": lambda p: 8.0, "logistic": lambda p: p, "sine": lambda p: p * math.pi}


def check_lyapunov(op, workdir: Path, stdout: str) -> None:
    info = op.info
    params, les = _csv_columns(workdir / info["out"], "param,le", info["steps"])
    _require(np.array_equal(params, np.linspace(info["lo"], info["hi"], info["steps"])),
             f"{op.name}: parameter column is not np.linspace")
    bound = _DERIVATIVE_BOUND[info["map"]]
    for p, le in zip(params, les):
        _require(le <= math.log(bound(p)) + 1e-12, f"{op.name}: LE {le} above ln max|f'| at {p}")
    if info["map"] == "logistic":
        _require(abs(les[0] - math.log(0.5)) <= LE_SUPERSTABLE_TOL,
                 f"{op.name}: LE(2.5) = {les[0]}, expected ln 1/2")
        _require(abs(les[-1] - math.log(2)) <= 1 / math.sqrt(info["n"]),
                 f"{op.name}: LE(4) = {les[-1]}, expected ln 2")


CHECKS = {"generate": check_generate, "analyze": check_analyze, "compare": check_compare,
          "bifurcate": check_bifurcate, "lyapunov": check_lyapunov}


def check(op, workdir: Path, stdout: str) -> None:
    try:
        CHECKS[op.kind](op, workdir, stdout)
    except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        raise CheckFailed(f"{op.name}: malformed output: {exc!r}") from exc


def digest_text(op, workdir: Path, stdout: str) -> str:
    """The op's outputs as one text, JSON manifest timestamps removed."""
    parts = [stdout]
    if op.kind == "analyze":
        parts = [json.dumps(_strip_timestamp(json.loads(stdout)), sort_keys=True)]
    for name in (op.info.get("out"), op.info.get("report")):
        if name is None:
            continue
        text = (workdir / name).read_text()
        if name.endswith(".json"):
            text = json.dumps(_strip_timestamp(json.loads(text)), sort_keys=True)
        parts.append(text)
    return "\n".join(parts)
