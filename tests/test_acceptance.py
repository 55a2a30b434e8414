"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the assertions are identical either way.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from checkout_env import checkout_env
from sboxkit import (
    BranchMode,
    KeySpec,
    MapKind,
    MapParams,
    RefineConfig,
    bic_nl,
    compare,
    difference_distribution,
    differential_uniformity,
    full_report,
    generate,
    get_entry,
    initial_sbox,
    is_bijective,
    keyspace_bits,
    keyspace_report,
    linear_probability,
    lyapunov,
    refine_sbox,
    sac_matrix,
    sbox_nonlinearity,
    walsh_spectrum,
)
from sboxkit.reporting import deltas_section

GOLDEN = json.loads((Path(__file__).parent / "golden" / "generator_golden.json").read_text())

# Demonstration key for the per-field avalanche check.  The seed starts in
# the expanding branch of the map, and the refinement offsets are small so
# that a 1e-15 seed flip exceeds the recurrence sum's ulp (with large
# offsets the flip can be absorbed by double rounding; see decision notes).
AVALANCHE_KEY = {
    "x0": "0.442637767848956", "a": "1.000000000000001", "b": 7317130,
    "c": 5, "d": 7, "e": "0.442637767848956", "f": "0.372463939884994",
}
AVALANCHE_FLIPS = {
    "x0": "0.442637767848957",
    "a": "1.000000000000002",
    "b": 7317131,
    "c": 6,
    "d": 8,
    "e": "0.442637767848957",
    "f": "0.372463939884995",
}


def _key_from(d: dict) -> KeySpec:
    return KeySpec(x0=float(d["x0"]), a=float(d["a"]), b=int(d["b"]),
                   c=int(d["c"]), d=int(d["d"]), e=float(d["e"]),
                   f=float(d["f"]))


def _ok(line: str) -> None:
    print(f"PASS: {line}")


def _random_key(rng: random.Random) -> KeySpec:
    return KeySpec(
        x0=rng.uniform(1e-6, 4 - 1e-6),
        a=rng.uniform(1e-6, 2 - 1e-6),
        b=rng.randrange(1_000_001, 1_000_000_000),
        c=rng.randrange(1, 1_000_000_000),
        d=rng.randrange(1, 1_000_000_000),
        e=rng.uniform(1e-6, 1 - 1e-6),
        f=rng.uniform(1e-6, 1 - 1e-6),
    )


def test_criterion_1_aes_anchor():
    t0 = time.perf_counter()
    report = full_report(get_entry("aes").table)
    elapsed = time.perf_counter() - t0
    assert (report.nl_min, report.nl_max) == (112, 112)
    assert report.du == 4
    assert report.dp == 0.015625
    assert report.lp == 0.0625
    assert report.fixed_point_count == 0
    assert elapsed < 1.0
    _ok(f"criterion 1 (AES anchor): nl 112/112, du 4, dp 0.015625, "
        f"lp 0.0625, fp 0 in {elapsed:.3f}s")


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(20240901)
    t0 = time.perf_counter()
    for _ in range(200):
        box = rng.permutation(256).astype(np.uint8)
        nl = sbox_nonlinearity(box)
        assert list(nl.per_coordinate) == oracles.coordinate_nl_direct(box)
        assert np.array_equal(sac_matrix(box).matrix, oracles.sac_direct(box))
        assert np.array_equal(bic_nl(box).matrix, oracles.bic_nl_direct(box))
        assert linear_probability(box) == oracles.lp_direct(box)
        assert differential_uniformity(box).du == oracles.du_direct(box)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _ok(f"criterion 2 (oracle equivalence): 200 bijections, NL/SAC/BIC-NL/"
        f"LP/DU exact in {elapsed:.1f}s")


def test_criterion_3_trivial_box_battery():
    identity = np.arange(256)
    r = full_report(identity)
    assert (r.nl_min, r.nl_max) == (0, 0)
    assert (r.du, r.dp, r.lp) == (256, 1.0, 0.5)
    assert r.fixed_point_count == 256
    assert np.array_equal(r.sac_matrix, np.eye(8))
    rc = full_report(identity ^ 0xFF)
    assert rc.fixed_point_count == 0
    assert np.array_equal(rc.sac_matrix, np.eye(8))
    _ok("criterion 3 (trivial boxes): identity and complement batteries exact")


def test_criterion_4_published_box_diagnostic():
    entry = get_entry("paper-proposed")
    rows = compare([entry])
    row = rows[0]
    assert row.error is None
    assert row.deltas, "deltas section must be emitted"
    for line in deltas_section(rows):
        print(line)
    by_metric = {d["metric"]: d for d in row.deltas}
    # hard requirement: the comparison runs and the box has no fixed points
    assert by_metric["fp"]["computed"] == 0 and by_metric["fp"]["match"]
    matches = sum(1 for d in row.deltas if d["match"])
    _ok(f"criterion 4 (published-box diagnostic): deltas emitted for "
        f"{len(row.deltas)} metrics, {matches} match published values, fp = 0")


def test_criterion_5_generation_properties():
    # 50 random keys: bijective output, monotone refinement objective
    rng = random.Random(42424242)
    cfg = RefineConfig(budget=256)
    for _ in range(50):
        key = _random_key(rng)
        box = initial_sbox(key.x0, key.a, key.b)
        refined, stats = refine_sbox(box, key.c, key.d, key.e, key.f, cfg)
        assert is_bijective(refined)
        assert stats.objective_final >= stats.objective_initial

    # full default budget completes well under the bound and reproduces
    # the frozen golden vector
    g = GOLDEN["key"]
    box0 = initial_sbox(float(g["x0"]), float(g["a"]), g["b"],
                        BranchMode(GOLDEN["branch_mode"]))
    assert box0.tolist() == GOLDEN["initial_table"]
    t0 = time.perf_counter()
    refined, stats = refine_sbox(box0, g["c"], g["d"], float(g["e"]), float(g["f"]))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    assert refined.tolist() == GOLDEN["refined_table"]
    gs = GOLDEN["refine_stats"]
    assert (stats.iterations, stats.accepted) == (gs["iterations"], gs["accepted"])
    assert (stats.objective_initial, stats.objective_final) == (
        gs["objective_initial"], gs["objective_final"])

    # flipping the last decimal digit of every key field changes the box
    cfg = RefineConfig(budget=1024)
    base = generate(_key_from(AVALANCHE_KEY), cfg)
    changed = []
    for name, value in AVALANCHE_FLIPS.items():
        flipped = dict(AVALANCHE_KEY)
        flipped[name] = value
        if not np.array_equal(base, generate(_key_from(flipped), cfg)):
            changed.append(name)
    assert changed == list(AVALANCHE_FLIPS)
    _ok(f"criterion 5 (generation): 50/50 bijective+monotone, full budget in "
        f"{elapsed:.1f}s (< 120s), all 7 key-field flips change the box")


def test_criterion_6_lyapunov_anchors():
    le4 = lyapunov(MapParams(MapKind.LOGISTIC, 4.0), 0.3, 1000, 100_000)
    assert le4 == pytest.approx(0.6931, abs=0.01)
    le25 = lyapunov(MapParams(MapKind.LOGISTIC, 2.5), 0.2, 1000, 100_000)
    assert le25 == pytest.approx(-0.693, abs=0.01)
    lea = lyapunov(MapParams(MapKind.AHYB, 1.5), 0.3, 1000, 100_000)
    assert lea > 0.0
    _ok(f"criterion 6 (Lyapunov anchors): logistic(4)={le4:.4f}, "
        f"logistic(2.5)={le25:.4f}, primary map(1.5)={lea:.4f} > 0")


def test_criterion_7_keyspace():
    bits = keyspace_bits()
    assert bits == pytest.approx(272.1, abs=0.05)
    assert bits >= 270.0
    rep = keyspace_report()
    assert rep["product_mantissa"] == pytest.approx(8.0)
    assert rep["product_exponent10"] == 81
    print(f"key space: computed {rep['product_mantissa']:.0f}e{rep['product_exponent10']}"
          f" = 2^{bits:.1f}; published claim {rep['published_mantissa']:.0f}e"
          f"{rep['published_exponent10']} ~ 2^{rep['published_bits_claim']:.0f}"
          f" (mantissa ratio {rep['mantissa_ratio']:.3f})")
    _ok(f"criterion 7 (key space): {bits:.1f} bits >= 270, 8e81-vs-6e81 delta printed")


def _run_cli(*args, cwd):
    return subprocess.run([sys.executable, "-m", "sboxkit", *map(str, args)],
                          capture_output=True, text=True, cwd=cwd, env=checkout_env())


def _without_timestamp(text: str) -> dict:
    payload = json.loads(text)
    payload["manifest"].pop("timestamp")
    return payload


def test_criterion_8_determinism_and_round_trip(tmp_path):
    key_flags = ["--x0", "0.442637767848956", "--a", "1.0", "--b", "7317130",
                 "--c", "731713", "--d", "167527",
                 "--e", "0.442637767848956", "--f", "0.372463939884994"]
    out = tmp_path / "box.sbox"
    rep = tmp_path / "box.json"
    bif = tmp_path / "bif.csv"

    runs = {
        "generate": lambda: _run_cli("generate", *key_flags, "--budget", "64",
                                     "--out", out, "--report", rep, cwd=tmp_path),
        "analyze": lambda: _run_cli("analyze", out, "--json", cwd=tmp_path),
        "compare": lambda: _run_cli("compare", "aes", "paper-proposed", cwd=tmp_path),
        "bifurcate": lambda: _run_cli("bifurcate", "--map", "logistic",
                                      "--param-lo", "2.5", "--param-hi", "3.5",
                                      "--steps", "20", "--transient", "200",
                                      "--samples", "20", "--out", bif, cwd=tmp_path),
        "lyapunov": lambda: _run_cli("lyapunov", "--map", "ahyb", "--param", "1.5",
                                     "--n", "5000", "--transient", "200", cwd=tmp_path),
    }

    def snapshot(name, res):
        assert res.returncode == 0, (name, res.stderr)
        if name == "generate":
            return (out.read_bytes(), _without_timestamp(rep.read_text()), res.stdout)
        if name == "analyze":
            return (_without_timestamp(res.stdout),)
        if name == "bifurcate":
            return (bif.read_bytes(),)
        if name == "lyapunov":
            return (res.stdout,)
        return (res.stdout,)

    first = {name: snapshot(name, fn()) for name, fn in runs.items()}
    second = {name: snapshot(name, fn()) for name, fn in runs.items()}
    for name in runs:
        assert first[name] == second[name], f"{name} not deterministic"

    # generate -> analyze round trip: the embedded report is reproduced
    analyzed = _run_cli("analyze", out, "--json", cwd=tmp_path)
    embedded = json.loads(rep.read_text())["report"]
    recomputed = json.loads(analyzed.stdout)["report"]
    assert json.dumps(embedded) == json.dumps(recomputed)
    _ok("criterion 8 (determinism): all 5 subcommands byte-identical across "
        "repeat runs (timestamp excluded); generate->analyze round-trips")


def test_criterion_9_structural_invariants():
    rng = np.random.default_rng(7777)
    for _ in range(50):
        f = rng.integers(0, 2, 256).astype(np.uint8)
        w = walsh_spectrum(f).astype(np.int64)
        assert (w * w).sum() == 65536  # Parseval
        assert np.all(w % 2 == 0)
    for _ in range(20):
        box = rng.permutation(256).astype(np.uint8)
        ddt = difference_distribution(box)
        assert np.all(ddt.sum(axis=1) == 256)
        assert np.all(ddt % 2 == 0)
        sac = sac_matrix(box).matrix
        assert np.all(sac * 256 == np.round(sac * 256))
        du = differential_uniformity(box)
        assert du.dp == du.du / 256
    _ok("criterion 9 (structural invariants): Parseval, DDT row sums/parity, "
        "SAC granularity, dp = du/256 all hold")
