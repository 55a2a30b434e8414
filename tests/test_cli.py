import csv
import io
import json

import numpy as np
import pytest

from checkout_env import run_cli, strip_timestamp
from sboxkit import cli
from sboxkit import (BoxFormat, BranchMode, GenerationStall, MapKind, MapParams, NLMode,
                     NotBijective, ParseError, RefineConfig, get_entry, iterate, lyapunov,
                     save_sbox)
from sboxkit.reporting import format_real

KEY_FLAGS = ["--x0", "0.442637767848956", "--a", "1.0", "--b", "7317130",
             "--c", "731713", "--d", "167527",
             "--e", "0.442637767848956", "--f", "0.372463939884994"]


@pytest.fixture
def aes_grid(tmp_path):
    path = tmp_path / "aes.sbox"
    save_sbox(path, get_entry("aes").table)
    return path


# ---------------------------------------------------------------------------
# generate

def test_generate_writes_valid_grid(tmp_path):
    out = tmp_path / "box.sbox"
    res = run_cli("generate", *KEY_FLAGS, "--budget", "64", "--out", out)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("nl min")
    values = [int(v) for v in out.read_text().split()]
    assert sorted(values) == list(range(256))


def test_generate_rejects_out_of_range_key(tmp_path):
    flags = list(KEY_FLAGS)
    flags[flags.index("--a") + 1] = "3.0"
    res = run_cli("generate", *flags, "--out", tmp_path / "x.sbox")
    assert res.returncode == 1
    assert "(0, 2)" in res.stderr


def test_generate_missing_key_fields(tmp_path):
    res = run_cli("generate", "--x0", "0.5", "--out", tmp_path / "x.sbox")
    assert res.returncode == 1
    assert "missing key fields" in res.stderr


def test_generate_key_json_inline_and_file(tmp_path):
    key = {"x0": "0.442637767848956", "a": "1.0", "b": 7317130,
           "c": 731713, "d": 167527, "e": "0.442637767848956",
           "f": "0.372463939884994"}
    out1 = tmp_path / "inline.sbox"
    res = run_cli("generate", "--key-json", json.dumps(key),
                  "--budget", "64", "--out", out1)
    assert res.returncode == 0, res.stderr
    key_path = tmp_path / "key.json"
    key_path.write_text(json.dumps(key))
    out2 = tmp_path / "fromfile.sbox"
    res = run_cli("generate", "--key-json", key_path, "--budget", "64", "--out", out2)
    assert res.returncode == 0, res.stderr
    assert out1.read_bytes() == out2.read_bytes()

    flagged = tmp_path / "flagged.sbox"
    res = run_cli("generate", *KEY_FLAGS, "--budget", "64", "--out", flagged)
    assert res.returncode == 0
    assert flagged.read_bytes() == out1.read_bytes()

    # The flags are read exactly as --key-json string fields are.
    strings = dict(zip((f[2:] for f in KEY_FLAGS[::2]), KEY_FLAGS[1::2]))
    echoes = []
    for key_args in (KEY_FLAGS, ["--key-json", json.dumps(strings)]):
        out, rep = tmp_path / "echo.sbox", tmp_path / "echo.json"
        res = run_cli("generate", *key_args, "--budget", "64", "--out", out,
                      "--report", rep)
        assert res.returncode == 0, res.stderr
        assert out.read_bytes() == out1.read_bytes()
        echoes.append(json.loads(rep.read_text())["manifest"]["parameters"]["key"])
    assert echoes[0] == echoes[1]


@pytest.mark.parametrize("flag, value", [
    ("--c", "5.0"), ("--b", "7317130.5"), ("--x0", "abc"),
])
def test_generate_rejects_mistyped_key_flag(tmp_path, flag, value):
    flags = list(KEY_FLAGS)
    flags[flags.index(flag) + 1] = value
    out = tmp_path / "x.sbox"
    res = run_cli("generate", *flags, "--budget", "64", "--out", out)
    assert res.returncode == 1
    assert res.stderr.startswith(f"sboxkit: error: key field {flag[2:]} must be ")
    assert not out.exists()


@pytest.mark.parametrize("text", ["5", "null", "true", '["x0", "a", "b"]', '"x0 a b c d e f"'])
def test_generate_rejects_a_key_that_is_not_an_object(tmp_path, text):
    key_path = tmp_path / "key.json"
    key_path.write_text(text + "\n")
    out = tmp_path / "x.sbox"
    res = run_cli("generate", "--key-json", key_path, "--out", out)
    assert res.returncode == 1
    assert res.stderr.startswith("sboxkit: error: key must be a JSON object, got ")
    assert len(res.stderr.splitlines()) == 1
    assert not out.exists()


def test_generate_offers_no_json_grid_format(tmp_path):
    out = tmp_path / "x.sbox"
    res = run_cli("generate", *KEY_FLAGS, "--format", "json", "--out", out)
    assert res.returncode == 1
    assert "invalid choice: 'json' (choose from 'dec', 'hex')" in res.stderr
    assert not out.exists()


def test_option_defaults_are_the_library_declarations():
    args = cli.build_parser().parse_args(["generate", "--out", "x"])
    assert args.budget == RefineConfig.budget
    assert args.objective == RefineConfig.objective.value
    assert args.format == BoxFormat.DECIMAL_GRID.value
    assert args.nl_mode == NLMode.COORDINATE.value
    assert args.branch_mode == BranchMode.EQUATION1.value


@pytest.mark.parametrize("field, value", [("b", 7317130.9), ("c", 1.999), ("c", True)])
def test_generate_key_json_rejects_inexact_fields(tmp_path, field, value):
    key = {"x0": "0.442637767848956", "a": "1.0", "b": 7317130,
           "c": 731713, "d": 167527, "e": "0.442637767848956",
           "f": "0.372463939884994", field: value}
    out = tmp_path / "x.sbox"
    res = run_cli("generate", "--key-json", json.dumps(key),
                  "--budget", "64", "--out", out)
    assert res.returncode == 1
    assert f"key field {field}" in res.stderr
    assert not out.exists()


def test_generate_deterministic_artifacts(tmp_path):
    out, rep = tmp_path / "a.sbox", tmp_path / "a.json"
    artifacts = []
    for _ in range(2):
        res = run_cli("generate", *KEY_FLAGS, "--budget", "64",
                      "--out", out, "--report", rep)
        assert res.returncode == 0, res.stderr
        artifacts.append((out.read_bytes(), strip_timestamp(rep.read_text())))
    assert artifacts[0] == artifacts[1]


def test_generate_hex_format(tmp_path):
    out = tmp_path / "box.hex"
    res = run_cli("generate", *KEY_FLAGS, "--budget", "64",
                  "--format", "hex", "--out", out)
    assert res.returncode == 0
    cells = out.read_text().split()
    assert len(cells) == 256 and all(len(c) == 2 for c in cells)


def test_generate_mode_flags(tmp_path):
    eq1, alg1 = tmp_path / "eq1.sbox", tmp_path / "alg1.sbox"
    res = run_cli("generate", *KEY_FLAGS, "--budget", "0", "--out", eq1)
    assert res.returncode == 0
    res = run_cli("generate", *KEY_FLAGS, "--budget", "0",
                  "--branch-mode", "alg1", "--out", alg1)
    assert res.returncode == 0
    assert eq1.read_bytes() != alg1.read_bytes()
    res = run_cli("generate", *KEY_FLAGS, "--budget", "32",
                  "--objective", "min", "--out", tmp_path / "min.sbox")
    assert res.returncode == 0


def test_analyze_full_spectrum_mode(aes_grid):
    res = run_cli("analyze", aes_grid, "--json", "--nl-mode", "full")
    assert res.returncode == 0
    report = json.loads(res.stdout)["report"]
    assert report["nl_mode"] == "full"
    assert report["nl_min"] == 112  # AES is flat across all 255 masks


# ---------------------------------------------------------------------------
# analyze

def test_analyze_aes_json(aes_grid):
    res = run_cli("analyze", aes_grid, "--json")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    report = payload["report"]
    assert report["du"] == 4
    assert report["lp"] == 0.0625
    assert report["nl_min"] == 112 and report["nl_max"] == 112
    assert payload["manifest"]["subcommand"] == "analyze"


def test_analyze_identity_grid(tmp_path):
    path = tmp_path / "identity.sbox"
    save_sbox(path, np.arange(256))
    res = run_cli("analyze", path, "--json")
    assert res.returncode == 0
    assert json.loads(res.stdout)["report"]["fixed_point_count"] == 256


def test_analyze_truncated_file(tmp_path):
    path = tmp_path / "short.sbox"
    path.write_text("1 2 3 4\n")
    res = run_cli("analyze", path)
    assert res.returncode == 1
    assert "expected 256" in res.stderr


def test_analyze_non_bijective_exit_codes(tmp_path):
    table = np.arange(256)
    table[0] = 5
    path = tmp_path / "dup.sbox"
    save_sbox(path, table)
    res = run_cli("analyze", path)
    assert res.returncode == 2
    res = run_cli("analyze", path, "--allow-non-bijective", "--json")
    assert res.returncode == 0
    assert json.loads(res.stdout)["report"]["bijective"] is False
    assert res.stderr.count("NonBijectiveWarning") == 1


@pytest.mark.parametrize("exc, code", [
    (NotBijective("duplicate entries"), 2), (GenerationStall("orbit is degenerate"), 3),
    (ParseError("bad grid"), 1), (OverflowError("too large"), 1), (OSError("no disk"), 1),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
def test_main_maps_each_error_to_its_exit_code(monkeypatch, capsys, tmp_path, exc, code):
    def fail(*args):
        raise exc

    monkeypatch.setattr(cli, "generate", fail)
    assert cli.main(["generate", *KEY_FLAGS, "--out", str(tmp_path / "x.sbox")]) == code
    assert capsys.readouterr().err == f"sboxkit: error: {exc}\n"


def test_analyze_human_and_markdown(aes_grid):
    res = run_cli("analyze", aes_grid)
    assert res.returncode == 0
    assert "nonlinearity" in res.stdout
    assert "SAC dependency matrix" in res.stdout
    res = run_cli("analyze", aes_grid, "--md")
    assert res.returncode == 0
    assert res.stdout.startswith("| aes.sbox |")


def test_in_process_calls_reuse_one_parser(aes_grid, capsys):
    # the parser is built once per process; each call must still parse its
    # own argv with its own subcommand's defaults
    argvs = [["analyze", str(aes_grid), "--md"],
             ["analyze", str(aes_grid), "--md", "--nl-mode", "full"],
             ["lyapunov", "--map", "logistic", "--param", "4.0", "--n", "500"],
             ["analyze", str(aes_grid), "--md"]]
    for argv in argvs:
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == run_cli(*argv).stdout
    assert cli.build_parser() is cli.build_parser()


# ---------------------------------------------------------------------------
# compare

def test_compare_corpus_pair():
    res = run_cli("compare", "aes", "paper-proposed")
    assert res.returncode == 0, res.stderr
    assert "| AES |" in res.stdout
    assert "| Proposed |" in res.stdout
    assert "deltas for paper-proposed" in res.stdout


def test_compare_unknown_id_annotates_row():
    res = run_cli("compare", "aes", "mystery-box")
    assert res.returncode == 0
    assert "unknown corpus id or file" in res.stdout
    assert "| AES |" in res.stdout


def test_compare_all_unknown_fails():
    res = run_cli("compare", "mystery-box")
    assert res.returncode == 1


def test_compare_requires_entries():
    res = run_cli("compare")
    assert res.returncode == 1


def test_compare_path_entry(aes_grid):
    res = run_cli("compare", aes_grid, "--csv")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0].startswith("id,")
    assert lines[1].startswith("aes,112,112,112")


def test_compare_error_rows_keep_their_ids(tmp_path, capsys):
    # an unknown entry keeps the raw argument as its id, a file its stem
    bad = tmp_path / "bad.sbox"
    bad.write_text("1 2 zz\n")
    dup = tmp_path / "dup.sbox"
    save_sbox(dup, np.zeros(256, dtype=np.uint8))
    assert cli.main(["compare", "--csv", "mystery-box", str(bad), str(dup), "aes"]) == 0
    assert capsys.readouterr().out.splitlines()[1:4] == [
        "mystery-box" + "," * 9 + ",no,unknown corpus id or file: mystery-box",
        "bad" + "," * 9 + ",no,\"invalid value 'zz' at row 1, column 3\"",
        "dup" + "," * 9 + ",no,table is not a permutation of 0..255",
    ]


def test_compare_csv_rows_parse_to_the_header_width(tmp_path, capsys):
    # an error text holding a comma is quoted, not split into a 13th field
    bad = tmp_path / "bad.txt"
    bad.write_text("zz\n")
    assert cli.main(["compare", "--csv", "nosuch", str(bad), "aes"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [len(row) for row in rows] == [12] * 4
    assert rows[2] == ["bad"] + [""] * 9 + ["no", "invalid value 'zz' at row 1, column 1"]


# ---------------------------------------------------------------------------
# bifurcate / lyapunov

def test_bifurcate_single_step(tmp_path):
    out = tmp_path / "bif.csv"
    res = run_cli("bifurcate", "--map", "logistic", "--param-lo", "3.1",
                  "--param-hi", "3.9", "--steps", "1", "--transient", "100",
                  "--samples", "20", "--out", out)
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "param,x"
    assert len(lines) == 21
    assert len({line.split(",")[0] for line in lines[1:]}) == 1


def test_bifurcate_rejects_bad_range():
    res = run_cli("bifurcate", "--map", "ahyb", "--param-lo", "0.5",
                  "--param-hi", "2.5", "--steps", "3")
    assert res.returncode == 1


def test_lyapunov_scalar_logistic():
    res = run_cli("lyapunov", "--map", "logistic", "--param", "4.0")
    assert res.returncode == 0, res.stderr
    value = float(res.stdout.strip())
    assert 0.683 <= value <= 0.703


def test_lyapunov_sweep_csv(tmp_path):
    out = tmp_path / "le.csv"
    res = run_cli("lyapunov", "--map", "ahyb", "--param-lo", "0.04",
                  "--param-hi", "1.96", "--steps", "50", "--n", "5000",
                  "--transient", "200", "--out", out)
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "param,le"
    assert len(lines) == 51
    for line in lines[1:]:
        p, le = line.split(",")
        assert np.isfinite(float(p)) and np.isfinite(float(le))


def test_bifurcate_csv_matches_single_orbit_rendering(tmp_path):
    # the streamed CSV equals one f-string row per state of per-parameter orbits
    out = tmp_path / "bif.csv"
    res = run_cli("bifurcate", "--map", "ahyb", "--param-lo", "0.2", "--param-hi", "1.8",
                  "--steps", "7", "--transient", "30", "--samples", "9", "--out", out)
    assert res.returncode == 0, res.stderr
    lines = ["param,x"]
    for p in np.linspace(0.2, 1.8, 7):
        for x in iterate(MapParams(MapKind.AHYB, float(p)), 0.3, 30, 9):
            lines.append(f"{format_real(p)},{format_real(x)}")
    assert out.read_text() == "\n".join(lines) + "\n"
    res = run_cli("bifurcate", "--map", "ahyb", "--param-lo", "0.2", "--param-hi", "1.8",
                  "--steps", "7", "--transient", "30", "--samples", "9")
    assert res.stdout == out.read_text()


def test_lyapunov_sweep_csv_matches_single_orbit_rendering():
    res = run_cli("lyapunov", "--map", "sine", "--param-lo", "0.5", "--param-hi", "4",
                  "--steps", "6", "--n", "400", "--transient", "20")
    assert res.returncode == 0, res.stderr
    lines = ["param,le"]
    for p in np.linspace(0.5, 4.0, 6):
        le = lyapunov(MapParams(MapKind.SINE, float(p)), 0.3, 20, 400)
        lines.append(f"{format_real(p)},{format_real(le)}")
    assert res.stdout == "\n".join(lines) + "\n"


def test_lyapunov_zero_steps_prints_header_only():
    res = run_cli("lyapunov", "--map", "logistic", "--param-lo", "3", "--param-hi", "4",
                  "--steps", "0")
    assert res.returncode == 0, res.stderr
    assert res.stdout == "param,le\n"


def test_lyapunov_rejects_an_out_of_range_endpoint_before_the_sweep(tmp_path):
    # an infinite endpoint is rejected as such, not after linspace turned it into NaN
    out = tmp_path / "le.csv"
    res = run_cli("lyapunov", "--map", "logistic", "--param-lo", "inf", "--param-hi", "4",
                  "--steps", "3", "--out", out)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == ("sboxkit: error: logistic control parameter must lie in (0, 4], "
                          "got inf\n")
    assert not out.exists()


# Bad grid flags, and each sweep command's error for them: both commands
# build their grid with maps._param_grid, which takes each one's least
# --steps (lyapunov --steps 0 writes the header alone).
BAD_GRIDS = [
    (["--param-lo", "4", "--param-hi", "3"],
     {"bifurcate": "param_lo must not exceed param_hi, got 4.0 > 3.0",
      "lyapunov": "param_lo must not exceed param_hi, got 4.0 > 3.0"}),
    (["--param-lo", "3", "--param-hi", "inf"],
     {"bifurcate": "logistic control parameter must lie in (0, 4], got inf",
      "lyapunov": "logistic control parameter must lie in (0, 4], got inf"}),
    (["--param-lo=-inf", "--param-hi", "4"],
     {"bifurcate": "logistic control parameter must lie in (0, 4], got -inf",
      "lyapunov": "logistic control parameter must lie in (0, 4], got -inf"}),
    (["--param-lo", "nan", "--param-hi", "4"],
     {"bifurcate": "logistic control parameter must lie in (0, 4], got nan",
      "lyapunov": "logistic control parameter must lie in (0, 4], got nan"}),
    (["--param-lo", "3", "--param-hi", "4", "--steps", "-1"],
     {"bifurcate": "steps must be >= 1", "lyapunov": "steps must be >= 0"}),
    (["--param-lo", "3", "--param-hi", "4", "--steps", "0"],
     {"bifurcate": "steps must be >= 1"}),
]


@pytest.mark.parametrize("flags, errors", BAD_GRIDS, ids=[" ".join(f) for f, _ in BAD_GRIDS])
def test_sweep_commands_check_one_grid(tmp_path, flags, errors):
    for command in ("bifurcate", "lyapunov"):
        out = tmp_path / f"{command}.csv"
        res = run_cli(command, "--map", "logistic", *flags, "--transient", "2", "--out", out)
        if command not in errors:
            assert res.returncode == 0, res.stderr
            continue
        assert res.returncode == 1, (command, res.stderr)
        assert res.stdout == ""
        assert res.stderr == f"sboxkit: error: {errors[command]}\n", command
        assert not out.exists()


def test_bifurcate_zero_samples_writes_header_only(tmp_path):
    out = tmp_path / "bif.csv"
    res = run_cli("bifurcate", "--map", "sine", "--param-lo", "1", "--param-hi", "2",
                  "--samples", "0", "--out", out)
    assert res.returncode == 0, res.stderr
    assert out.read_text() == "param,x\n"


@pytest.mark.parametrize("command", ["lyapunov", "bifurcate"])
def test_overflowing_orbit_is_an_input_error(command):
    # x0 = 1e150 overflows the AHYB fold (round15 of an infinite state)
    res = run_cli(command, "--map", "ahyb", "--param-lo", "0.5", "--param-hi", "1.5",
                  "--steps", "5", "--x0", "1e150")
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == "sboxkit: error: cannot convert float infinity to integer\n"


@pytest.mark.parametrize("args", [
    ["lyapunov", "--param", "2", "--n", "10"],
    ["lyapunov", "--param-lo", "1", "--param-hi", "2", "--steps", "20", "--n", "10"],
    ["bifurcate", "--param-lo", "1", "--param-hi", "2", "--steps", "20"],
], ids=["lyapunov", "lyapunov-sweep", "bifurcate"])
def test_overflowing_sine_start_is_an_input_error(args):
    # pi * 1e308 is infinite; the error names the state, not a math domain
    res = run_cli(*args, "--map", "sine", "--x0", "1e308")
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == "sboxkit: error: map_step produced non-finite value from x=1e+308\n"


@pytest.mark.parametrize("args, message", [
    (["lyapunov", "--param", "3.9", "--transient", "-5", "--n", "100"],
     "transient must be non-negative"),
    (["lyapunov", "--param-lo", "3", "--param-hi", "4", "--steps", "3", "--transient", "-5"],
     "transient must be non-negative"),
    (["bifurcate", "--param-lo", "3", "--param-hi", "4", "--samples", "-2"],
     "transient and samples must be non-negative"),
    (["bifurcate", "--param-lo", "3", "--param-hi", "4", "--transient", "-1"],
     "transient and samples must be non-negative"),
], ids=["lyapunov-param", "lyapunov-sweep", "bifurcate-samples", "bifurcate-transient"])
def test_negative_counts_are_input_errors(args, message):
    res = run_cli(*args, "--map", "logistic")
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == f"sboxkit: error: {message}\n"


def test_lyapunov_needs_param_or_sweep():
    res = run_cli("lyapunov", "--map", "logistic")
    assert res.returncode == 1


def test_lyapunov_out_needs_a_sweep(tmp_path):
    # --out is the sweep's CSV path; a single value is printed, so --out with
    # --param is a usage error rather than a flag that writes nothing
    out = tmp_path / "le.csv"
    res = run_cli("lyapunov", "--map", "logistic", "--param", "3.9", "--n", "100",
                  "--out", out)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith("sboxkit: error: --out")
    assert not out.exists()


def test_analyze_json_and_md_are_exclusive(aes_grid):
    res = run_cli("analyze", aes_grid, "--json", "--md")
    assert res.returncode == 1
    assert res.stdout == ""
    assert "not allowed with argument --json" in res.stderr


# ---------------------------------------------------------------------------
# generate -> analyze round trip

def test_generate_analyze_round_trip(tmp_path):
    out = tmp_path / "box.sbox"
    rep = tmp_path / "box.json"
    res = run_cli("generate", *KEY_FLAGS, "--budget", "64",
                  "--out", out, "--report", rep)
    assert res.returncode == 0, res.stderr
    res = run_cli("analyze", out, "--json")
    assert res.returncode == 0, res.stderr
    embedded = json.loads(rep.read_text())["report"]
    analyzed = json.loads(res.stdout)["report"]
    assert json.dumps(embedded) == json.dumps(analyzed)
