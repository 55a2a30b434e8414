import dataclasses
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

from sboxkit import (
    BranchMode,
    KEYSPACE_COUNTS,
    KeySpec,
    Objective,
    ParamOutOfRange,
    RefineConfig,
    generate,
    initial_sbox,
    is_bijective,
    keyspace_bits,
    keyspace_report,
    refine_sbox,
    sbox_nonlinearity,
)
import sboxkit.generator as gen
from sboxkit.generator import _BLOCK, _swap_schedule
from sboxkit.metrics import COORD_MASKS

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "generator_golden.json").read_text())
GOLDEN_OBJECTIVES = json.loads((GOLDEN_DIR / "generator_golden_objectives.json").read_text())


def random_key(rng: random.Random) -> KeySpec:
    return KeySpec(
        x0=rng.uniform(1e-6, 4 - 1e-6),
        a=rng.uniform(1e-6, 2 - 1e-6),
        b=rng.randrange(1_000_001, 1_000_000_000),
        c=rng.randrange(1, 1_000_000_000),
        d=rng.randrange(1, 1_000_000_000),
        e=rng.uniform(1e-6, 1 - 1e-6),
        f=rng.uniform(1e-6, 1 - 1e-6),
    )


# ---------------------------------------------------------------------------
# KeySpec

def test_keyspec_field_validation_names_range():
    with pytest.raises(ParamOutOfRange, match=r"\(0, 2\)"):
        KeySpec(x0=1.0, a=3.0, b=2_000_000, c=5, d=7, e=0.5, f=0.5)
    with pytest.raises(ParamOutOfRange, match="b"):
        KeySpec(x0=1.0, a=1.0, b=731713, c=5, d=7, e=0.5, f=0.5)
    with pytest.raises(ParamOutOfRange):
        KeySpec(x0=4.0, a=1.0, b=2_000_000, c=5, d=7, e=0.5, f=0.5)


def test_keyspec_from_dict_accepts_decimal_strings():
    key = KeySpec.from_dict({
        "x0": "0.442637767848956", "a": "1.0", "b": 7317130,
        "c": 731713, "d": 167527, "e": "0.442637767848956",
        "f": "0.372463939884994",
    })
    assert key.x0 == 0.442637767848956
    assert key.b == 7317130


@pytest.mark.parametrize("field, value", [
    ("b", 7317130.9), ("c", 1.999), ("d", "167527.5"),
    ("c", True), ("b", False), ("x0", True), ("e", True),
])
def test_keyspec_from_dict_rejects_inexact_fields(field, value):
    base = dict(GOLDEN["key"])
    with pytest.raises(ParamOutOfRange, match=f"key field {field}"):
        KeySpec.from_dict(dict(base, **{field: value}))


def test_keyspec_from_dict_accepts_integral_values():
    key = KeySpec.from_dict(dict(GOLDEN["key"], b=7317130.0, c="731713"))
    assert (key.b, key.c) == (7317130, 731713)
    assert isinstance(key.b, int)


def test_keyspec_rejects_booleans():
    with pytest.raises(ParamOutOfRange, match="key field c"):
        KeySpec(x0=1.0, a=1.0, b=2_000_000, c=True, d=7, e=0.5, f=0.5)


@pytest.mark.parametrize("data, kind", [
    (5, "int"), (None, "NoneType"), (True, "bool"), ("x0abcdef", "str"),
    (["x0", "a", "b", "c", "d", "e", "f"], "list"),
])
def test_keyspec_from_dict_rejects_a_non_object(data, kind):
    with pytest.raises(ParamOutOfRange, match=f"^key must be a JSON object, got {kind}$"):
        KeySpec.from_dict(data)


def test_keyspec_from_dict_rejects_bad_shape():
    base = {"x0": 1.0, "a": 1.0, "b": 2_000_000, "c": 5, "d": 7, "e": 0.5, "f": 0.5}
    with pytest.raises(ParamOutOfRange, match="^missing key fields: e$"):
        KeySpec.from_dict({k: v for k, v in base.items() if k != "e"})
    with pytest.raises(ParamOutOfRange, match="unknown"):
        KeySpec.from_dict(dict(base, zz=1))


# ---------------------------------------------------------------------------
# initial_sbox

def test_initial_sbox_is_permutation():
    rng = random.Random(101)
    for _ in range(10):
        key = random_key(rng)
        box = initial_sbox(key.x0, key.a, key.b)
        assert is_bijective(box)


def test_initial_sbox_deterministic():
    a = initial_sbox(0.7, 1.3, 55_555_555)
    b = initial_sbox(0.7, 1.3, 55_555_555)
    assert np.array_equal(a, b)


def test_initial_sbox_golden():
    key = GOLDEN["key"]
    box = initial_sbox(float(key["x0"]), float(key["a"]), key["b"],
                       BranchMode(GOLDEN["branch_mode"]))
    assert box.tolist() == GOLDEN["initial_table"]


def test_initial_sbox_branch_mode_changes_output():
    eq1 = initial_sbox(0.7, 1.3, 55_555_555, BranchMode.EQUATION1)
    alg1 = initial_sbox(0.7, 1.3, 55_555_555, BranchMode.ALGORITHM1)
    assert not np.array_equal(eq1, alg1)


def test_initial_sbox_validates_ranges():
    with pytest.raises(ParamOutOfRange):
        initial_sbox(0.7, 2.5, 55_555_555)
    with pytest.raises(ParamOutOfRange):
        initial_sbox(0.7, 1.3, 999)


@pytest.mark.parametrize("b", [7317130.9, 7317130.0, True, np.float64(7317130)],
                         ids=["fraction", "integral-float", "bool", "numpy-float"])
def test_initial_sbox_rejects_non_integer_b(b):
    # b itself must be an integer: a real b is rejected, never truncated
    with pytest.raises(ParamOutOfRange, match="key field b"):
        initial_sbox(0.3, 1.0, b)


def test_initial_sbox_stalls_on_degenerate_orbit(monkeypatch):
    from sboxkit import GenerationStall

    # a constant orbit keeps producing the same byte; after the first
    # placement every candidate is a duplicate (the fill steps the orbit in
    # stretches of generator._kernel: each records the state after each step
    # and returns the last of them)
    def constant_orbit(params):
        def stretch(x, count, out):
            out.extend([1.0] * count)
            return 1.0
        return stretch

    monkeypatch.setattr(gen, "_kernel", constant_orbit)
    monkeypatch.setattr(gen, "_STALL_LIMIT", 1000)
    with pytest.raises(GenerationStall):
        initial_sbox(0.7, 1.3, 55_555_555)


# The fill against its definition, one `_advance` per draw: the first step
# from 4/3 at A = 1 folds to 0 and reseeds, and a small stall limit stops a
# fill early (after 3 misses of the reseeded orbit's byte 0) or late.
@settings(max_examples=150, deadline=None)
@given(x0=st.one_of(st.just(4.0 / 3.0), st.floats(0.0, 4.0)),
       a=st.one_of(st.just(1.0), st.floats(0.0, 2.0)),
       b=st.integers(1_000_000, 1_000_000_000),
       mode=st.sampled_from(list(BranchMode)),
       limit=st.sampled_from([gen._STALL_LIMIT, 3, 40]))
@example(x0=4.0 / 3.0, a=1.0, b=55_555_555, mode=BranchMode.EQUATION1, limit=gen._STALL_LIMIT)
@example(x0=4.0 / 3.0, a=1.0, b=55_555_555, mode=BranchMode.ALGORITHM1, limit=gen._STALL_LIMIT)
@example(x0=4.0 / 3.0, a=1.0, b=55_555_555, mode=BranchMode.EQUATION1, limit=3)
@example(x0=0.7, a=1.3, b=55_555_555, mode=BranchMode.EQUATION1, limit=40)
@example(x0=0.7, a=1.3, b=55_555_555, mode=BranchMode.ALGORITHM1, limit=40)
def test_initial_sbox_matches_reference(x0, a, b, mode, limit):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gen, "_STALL_LIMIT", limit)
        got = oracles.call_outcome(lambda: initial_sbox(x0, a, b, mode))
    want = oracles.call_outcome(lambda: oracles.initial_sbox_reference(x0, a, b, mode, limit))
    assert got == want


@pytest.mark.parametrize("x0, a, b, limit", [
    (0.7, 1.3, 55_555_555, gen._STALL_LIMIT),
    (0.442637767848956, 1.0, 7317130, gen._STALL_LIMIT),
    (4.0 / 3.0, 1.0, 55_555_555, 3),
    (0.7, 1.3, 55_555_555, 40),
])
def test_initial_sbox_takes_the_reference_steps(monkeypatch, x0, a, b, limit):
    # the fill's stretches end at the last placement or the stall: no step
    # more than one `_advance` per draw (the wrappers move the file that a
    # reseed warning names, so only the warnings' number is compared)
    steps = []

    def counted(params):
        stretch = gen_kernel(params)

        def run(x, count, out):
            steps.append(count)
            return stretch(x, count, out)
        return run

    draws = []

    def advance(params, x):
        draws.append(x)
        return oracle_advance(params, x)

    gen_kernel, oracle_advance = gen._kernel, oracles._advance
    monkeypatch.setattr(gen, "_kernel", counted)
    monkeypatch.setattr(gen, "_STALL_LIMIT", limit)
    monkeypatch.setattr(oracles, "_advance", advance)
    got = oracles.call_outcome(lambda: initial_sbox(x0, a, b))
    want = oracles.call_outcome(lambda: oracles.initial_sbox_reference(x0, a, b,
                                                                       stall_limit=limit))
    assert got[0] == want[0] and len(got[1]) == len(want[1])
    assert sum(steps) == len(draws)


# ---------------------------------------------------------------------------
# refine_sbox

@pytest.mark.parametrize("budget", [True, False, 2.0, 1.5, "64", None],
                         ids=["True", "False", "2.0", "1.5", "str", "None"])
def test_refine_config_rejects_non_integer_budget(budget):
    with pytest.raises(ParamOutOfRange, match="budget must be an integer"):
        RefineConfig(budget=budget)


def test_refine_config_takes_numpy_integer_budget():
    assert RefineConfig(budget=np.int64(64)).budget == 64


@pytest.mark.parametrize("objective", ["sum", "min", None, 0])
def test_refine_config_rejects_an_objective_that_is_not_an_objective(objective):
    with pytest.raises(ParamOutOfRange, match="objective must be an Objective"):
        RefineConfig(budget=512, objective=objective)


def test_refine_budget_zero_is_identity():
    box = initial_sbox(0.7, 1.3, 55_555_555)
    out, stats = refine_sbox(box, 5, 7, 0.5, 0.5, RefineConfig(budget=0))
    assert np.array_equal(out, box)
    assert stats.accepted == 0
    assert stats.objective_initial == stats.objective_final


def test_refine_monotone_and_bijective():
    rng = random.Random(131)
    for _ in range(8):
        key = random_key(rng)
        box = initial_sbox(key.x0, key.a, key.b)
        out, stats = refine_sbox(box, key.c, key.d, key.e, key.f,
                                 RefineConfig(budget=256))
        assert is_bijective(out)
        assert stats.objective_final >= stats.objective_initial
        assert stats.iterations == 256


def test_refine_improves_objective_sum():
    box = initial_sbox(0.442637767848956, 1.0, 7317130)
    out, stats = refine_sbox(box, 731713, 167527, 0.442637767848956,
                             0.372463939884994, RefineConfig(budget=4096))
    assert stats.objective_initial == sum(sbox_nonlinearity(box).per_coordinate)
    assert stats.objective_final == sum(sbox_nonlinearity(out).per_coordinate)
    assert stats.objective_final > stats.objective_initial
    assert stats.accepted > 0


def test_refine_objective_modes():
    box = initial_sbox(0.7, 1.3, 55_555_555)
    for objective in Objective:
        out, stats = refine_sbox(box, 11, 13, 0.4, 0.6,
                                 RefineConfig(budget=64, objective=objective))
        assert is_bijective(out)
        assert stats.objective_final >= stats.objective_initial


def test_refine_deterministic():
    box = initial_sbox(0.7, 1.3, 55_555_555)
    a, sa = refine_sbox(box, 11, 13, 0.4, 0.6, RefineConfig(budget=512))
    b, sb = refine_sbox(box, 11, 13, 0.4, 0.6, RefineConfig(budget=512))
    assert np.array_equal(a, b)
    assert sa == sb


@pytest.mark.parametrize("case", GOLDEN_OBJECTIVES["cases"], ids=lambda case: case["id"])
def test_refine_golden_objectives(case):
    key = GOLDEN_OBJECTIVES["key"]
    box = initial_sbox(float(key["x0"]), float(key["a"]), key["b"],
                       BranchMode(GOLDEN_OBJECTIVES["branch_mode"]))
    assert box.tolist() == GOLDEN_OBJECTIVES["initial_table"]
    config = RefineConfig(budget=case["refine"]["budget"],
                          objective=Objective(case["refine"]["objective"]))
    out, stats = refine_sbox(box, key["c"], key["d"], float(key["e"]),
                             float(key["f"]), config)
    assert out.tolist() == case["refined_table"]
    assert dataclasses.asdict(stats) == case["refine_stats"]


# The sequential reference pays one transform per attempt, so budgets are
# capped lower for the 255-mask objective.
_BUDGET_CAPS = {
    Objective.SUM_COORDINATE_NL: 2000,
    Objective.MIN_COORDINATE_NL: 2000,
    Objective.FULL_SPECTRUM_NL: 200,
}


def _refine_case(objective: Objective):
    budgets = st.one_of(st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1]),
                        st.integers(0, _BUDGET_CAPS[objective]))
    return st.tuples(st.just(objective), budgets)


def _assert_matches_reference(seed, case):
    objective, budget = case
    key = random_key(random.Random(seed))
    box = initial_sbox(key.x0, key.a, key.b)
    config = RefineConfig(budget=budget, objective=objective)
    out, stats = refine_sbox(box, key.c, key.d, key.e, key.f, config)
    ref, ref_stats = oracles.refine_reference(box, key.c, key.d, key.e, key.f, config)
    assert out.tolist() == ref.tolist()
    assert stats == ref_stats
    return stats


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       case=st.sampled_from(list(Objective)).flatmap(_refine_case))
def test_refine_matches_sequential_reference(seed, case):
    _assert_matches_reference(seed, case)


def _record_stop_tests(monkeypatch) -> list:
    """Patch `_climb_view` to keep the stop test of each table the climb views."""
    tests, view = [], gen._climb_view

    def recorded_view(*args):
        score, optimal = view(*args)
        tests.append(optimal)
        return score, optimal

    monkeypatch.setattr(gen, "_climb_view", recorded_view)
    return tests


def _stop_test_counts(tests) -> tuple:
    """(calls, runs): the stop tests called, and those evaluated, not answered from the cache."""
    infos = [optimal.cache_info() for optimal in tests]
    return sum(i.hits + i.misses for i in infos), sum(i.misses for i in infos)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       case=st.sampled_from(list(Objective)).flatmap(_refine_case))
def test_refine_stop_test_matches_sequential_reference(seed, case):
    # The climb matches the reference, which scores every entry, so a proof
    # ends it only where no entry left gains; and only the last table's stop
    # test can have found that proof, since a proof ends the climb.
    with pytest.MonkeyPatch.context() as patch:
        tests = _record_stop_tests(patch)
        stats = _assert_matches_reference(seed, case)
    assert len(tests) == stats.accepted + 1
    evaluated = [optimal for optimal in tests[:-1] if optimal.cache_info().misses]
    assert not any(optimal() for optimal in evaluated)


# Schedule entries the golden key's default-budget climb computes before it
# proves that no swap can gain, out of 65,536.
GOLDEN_ENTRIES = {
    Objective.SUM_COORDINATE_NL: 5120,
    Objective.MIN_COORDINATE_NL: 512,
    Objective.FULL_SPECTRUM_NL: 256,
}


@pytest.mark.parametrize("objective", list(Objective), ids=lambda o: o.value)
def test_refine_stops_at_a_swap_local_optimum(monkeypatch, objective):
    sizes, schedule = [], gen._swap_schedule

    def counted(*key):
        for block in schedule(*key):
            sizes.append(len(block[0]))
            yield block

    monkeypatch.setattr(gen, "_swap_schedule", counted)
    tests = _record_stop_tests(monkeypatch)
    key = KeySpec.from_dict(GOLDEN["key"])
    box = initial_sbox(key.x0, key.a, key.b)
    out, stats = refine_sbox(box, key.c, key.d, key.e, key.f, RefineConfig(objective=objective))
    assert sum(sizes) == GOLDEN_ENTRIES[objective]
    assert stats.iterations == 65536
    # one view per table, and no table's stop test evaluated twice
    assert len(tests) == stats.accepted + 1
    assert 1 <= _stop_test_counts(tests)[1] <= stats.accepted + 1
    if objective is Objective.FULL_SPECTRUM_NL:
        return  # 32,640 all-mask reference spectra take too long for a unit test
    # every swap of the final table, scored by the reference transform
    p, q = np.triu_indices(256, 1)
    swapped = np.tile(out, (len(p), 1))
    swapped[np.arange(len(p)), p], swapped[np.arange(len(p)), q] = out[q], out[p]
    aggregate = np.sum if objective is Objective.SUM_COORDINATE_NL else np.min
    objectives = np.concatenate([
        aggregate((256 - np.abs(oracles.spectra_reference(chunk, COORD_MASKS)).max(axis=2)) // 2,
                  axis=0)
        for chunk in np.array_split(swapped, 128)])
    assert objectives.size == 32640
    assert objectives.max() <= stats.objective_final


# A swap of the table filled from (2.758, 1.676, 701113704) per objective,
# found by search: every cell at a peak |W| = M falls, yet no peak changes.
# The peaks are each row's max |W| for the sum and the global max for min
# and full.  So a cell rose from M - 4 to M, and a climb that scored only the
# cells at M would see a gain where there is none.
HIDDEN_RISE = {
    Objective.SUM_COORDINATE_NL: (0, 26),
    Objective.MIN_COORDINATE_NL: (6, 34),
    Objective.FULL_SPECTRUM_NL: (3, 4),
}


def _hides_a_rise(box, objective: Objective, i: int, j: int) -> bool:
    full = objective is Objective.FULL_SPECTRUM_NL
    rows = np.arange(255) if full else np.array(COORD_MASKS) - 1
    per_row = objective is Objective.SUM_COORDINATE_NL

    def peaks(mag):
        peak = mag.max(axis=1)
        return peak if per_row else np.full_like(peak, peak.max())

    swapped = box.copy()
    swapped[[i, j]] = swapped[[j, i]]
    before = np.abs(oracles.spectra_reference(box)[rows])
    after = np.abs(oracles.spectra_reference(swapped)[rows])
    peak = peaks(before)
    fallen = ((before < peak[:, None]) | (after < peak[:, None])).all(axis=1)
    return bool((peaks(after) == peak).all() and (fallen.any() if per_row else fallen.all()))


@pytest.mark.parametrize("objective", list(Objective), ids=lambda o: o.value)
def test_refine_scores_cells_below_the_peak(monkeypatch, objective):
    # A swap moves each cell by 0 or +-4, so the cells at M - 4 can reach
    # the peak: the critical set must reach down to |W| > M - 8.
    box = initial_sbox(2.758, 1.676, 701113704)
    i, j = HIDDEN_RISE[objective]
    assert _hides_a_rise(box, objective, i, j)
    monkeypatch.setattr(gen, "_swap_schedule",
                        lambda *key: iter([(np.array([i], np.uint8), np.array([j], np.uint8))]))
    out, stats = refine_sbox(box, 11, 13, 0.4, 0.6, RefineConfig(budget=1, objective=objective))
    assert out.tolist() == box.tolist()
    assert stats.accepted == 0 and stats.objective_final == stats.objective_initial


# Two swaps of the table filled from (0.7, 1.3, 55_555_555) per objective,
# found by search: the first raises the objective, and the second raises it
# again on the table the first leaves.
TWO_GAINS = {
    Objective.SUM_COORDINATE_NL: ((0, 1), (0, 10)),
    Objective.MIN_COORDINATE_NL: ((2, 4), (5, 9)),
    Objective.FULL_SPECTRUM_NL: ((28, 33), (34, 122)),
}


@pytest.mark.parametrize("objective", list(Objective), ids=lambda o: o.value)
@pytest.mark.parametrize("between, calls", [(0, 2), (4 * _BLOCK, 6)],
                         ids=["across-a-block-edge", "stop-test-at-a-block-end"])
def test_refine_hand_built_schedule_matches_reference(monkeypatch, objective, between, calls):
    # i == j entries, then the first gain as the last entry of block 0, so
    # the stop test runs on a table that still has a gain; then `between`
    # i == j entries, so the second gain is the first entry of a block:
    # block 1, or block 5 after four quiet blocks whose stop test calls the
    # climb answers from the cache.  Repeats of the second gain swap it
    # back, so they are rejections.
    first, second = TWO_GAINS[objective]
    pairs = ([(k, k) for k in range(_BLOCK - 1)] + [first]
             + [(k % 256, k % 256) for k in range(between)] + [second] * _BLOCK)
    i, j = np.array(pairs, np.uint8).T
    blocks = [(i[k:k + _BLOCK], j[k:k + _BLOCK]) for k in range(0, len(pairs), _BLOCK)]
    monkeypatch.setattr(gen, "_swap_schedule", lambda *key: iter(blocks))
    monkeypatch.setattr(oracles, "swap_schedule_reference", lambda *key: pairs)
    tests = _record_stop_tests(monkeypatch)
    box = initial_sbox(0.7, 1.3, 55_555_555)
    config = RefineConfig(budget=len(pairs), objective=objective)
    out, stats = refine_sbox(box, 11, 13, 0.4, 0.6, config)
    ref, ref_stats = oracles.refine_reference(box, 11, 13, 0.4, 0.6, config)
    assert out.tolist() == ref.tolist()
    assert stats == ref_stats
    # one stop test per block end, run once for each of the two tables reached
    assert stats.accepted == 2 and _stop_test_counts(tests) == (calls, 2)


@settings(max_examples=100, deadline=None)
@given(c=st.integers(1, 10**9 - 1), d=st.integers(1, 10**9 - 1),
       e=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       f=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       budget=st.one_of(st.sampled_from([0, 1]), st.integers(0, 600)))
# the guards: |cos(pi / 2)| < 1e-12 nudges the first reciprocal step, and a
# state of 1e-13 is clamped to 1e-12 before the log terms
@example(c=731713, d=167527, e=math.pi / 2, f=0.5, budget=64)
@example(c=731713, d=167527, e=1e-13, f=1e-13, budget=64)
# the largest offsets with the guards: the bound on |v| in _swap_schedule
@example(c=10**9 - 1, d=10**9 - 1, e=1e-13, f=1e-13, budget=64)
@example(c=10**9 - 1, d=10**9 - 1, e=math.pi / 2, f=math.pi / 2, budget=64)
def test_swap_schedule_matches_reference(c, d, e, f, budget):
    blocks = list(_swap_schedule(c, d, e, f, budget))
    assert [len(i) for i, _ in blocks[:-1]] == [_BLOCK] * (len(blocks) - 1)
    assert all(i.dtype == j.dtype == np.uint8 for i, j in blocks)
    pairs = [pair for i, j in blocks for pair in zip(i.tolist(), j.tolist())]
    assert pairs == oracles.swap_schedule_reference(c, d, e, f, budget)


def test_refine_validates_ranges():
    box = initial_sbox(0.7, 1.3, 55_555_555)
    with pytest.raises(ParamOutOfRange):
        refine_sbox(box, 0, 7, 0.5, 0.5)
    with pytest.raises(ParamOutOfRange):
        refine_sbox(box, 5, 7, 1.5, 0.5)


def test_generate_rejects_a_branch_mode_string():
    key = KeySpec(x0=0.7, a=1.3, b=55_555_555, c=5, d=7, e=0.5, f=0.5)
    with pytest.raises(ParamOutOfRange, match="branch mode must be a BranchMode"):
        generate(key, RefineConfig(budget=0), "alg1")


def test_index_recurrences_stay_finite():
    # guard property: states and indices stay finite/in-range under both
    # recurrences across many seeds
    rng = random.Random(151)
    for _ in range(100):
        c = rng.randrange(1, 1_000_000_000)
        d = rng.randrange(1, 1_000_000_000)
        x = rng.uniform(1e-9, 1 - 1e-9)
        y = rng.uniform(1e-9, 1 - 1e-9)
        for _ in range(1000):
            x, i = oracles._index_step(c, x, reciprocal=True)
            y, j = oracles._index_step(d, y, reciprocal=False)
            assert math.isfinite(x) and math.isfinite(y)
            assert 0 <= i < 256 and 0 <= j < 256


# ---------------------------------------------------------------------------
# generate and key sensitivity

def test_generate_deterministic_and_bijective():
    key = KeySpec(x0=0.9, a=1.7, b=123_456_789, c=42, d=77, e=0.25, f=0.75)
    cfg = RefineConfig(budget=128)
    a = generate(key, cfg)
    b = generate(key, cfg)
    assert np.array_equal(a, b)
    assert is_bijective(a)


def test_generate_many_random_keys():
    rng = random.Random(171)
    for _ in range(10):
        assert is_bijective(generate(random_key(rng), RefineConfig(budget=64)))


def test_fill_stage_key_avalanche():
    # flipping the least-significant decimal digit of a or b changes the
    # chaotic fill for every key: both alter the map/extraction itself, so
    # divergence is re-injected at every step.  An x0 flip changes only the
    # starting state; when that state enters the contracting middle branch
    # (|f'| ~ 0.83), the 15-digit quantization can collapse the 1e-15 gap
    # and merge the orbits, so x0 sensitivity is near-certain, not certain.
    rng = random.Random(191)
    x0_changed = 0
    for _ in range(20):
        key = random_key(rng)
        base = initial_sbox(key.x0, key.a, key.b)
        if not np.array_equal(base, initial_sbox(key.x0 + 1e-15, key.a, key.b)):
            x0_changed += 1
        assert not np.array_equal(base, initial_sbox(key.x0, key.a + 1e-15, key.b))
        assert not np.array_equal(base, initial_sbox(key.x0, key.a, key.b + 1))
    assert x0_changed >= 18


def test_refine_stage_key_avalanche_integer_offsets():
    # flipping c or d redirects the swap schedule from the first iteration
    rng = random.Random(211)
    for _ in range(10):
        key = random_key(rng)
        box = initial_sbox(key.x0, key.a, key.b)
        cfg = RefineConfig(budget=768)
        base, _ = refine_sbox(box, key.c, key.d, key.e, key.f, cfg)
        flip_c, _ = refine_sbox(box, key.c + 1, key.d, key.e, key.f, cfg)
        flip_d, _ = refine_sbox(box, key.c, key.d + 1, key.e, key.f, cfg)
        assert not np.array_equal(base, flip_c)
        assert not np.array_equal(base, flip_d)


def test_seed_avalanche_with_small_offsets():
    # 15th-decimal-digit flips of e/f survive double rounding when the
    # integer offsets are small; with large offsets the perturbation can be
    # absorbed below the sum's ulp (see the acceptance suite)
    box = initial_sbox(0.442637767848956, 1.0, 7317130)
    cfg = RefineConfig(budget=1024)
    base, _ = refine_sbox(box, 5, 7, 0.442637767848956, 0.372463939884994, cfg)
    flip_e, _ = refine_sbox(box, 5, 7, 0.442637767848957, 0.372463939884994, cfg)
    flip_f, _ = refine_sbox(box, 5, 7, 0.442637767848956, 0.372463939884995, cfg)
    assert not np.array_equal(base, flip_e)
    assert not np.array_equal(base, flip_f)


# ---------------------------------------------------------------------------
# key space

def test_keyspace_bits_total():
    bits = keyspace_bits()
    assert bits == pytest.approx(math.log2(8.0) + 81 * math.log2(10.0))
    assert bits == pytest.approx(272.1, abs=0.05)
    assert bits >= 270.0


def test_keyspace_bits_single_field():
    assert keyspace_bits({"x0": KEYSPACE_COUNTS["x0"]}) == pytest.approx(
        math.log2(4e15), abs=1e-9)
    assert keyspace_bits({"x0": 4e15}) == pytest.approx(51.8, abs=0.05)


def test_keyspace_report_documents_delta():
    rep = keyspace_report()
    assert rep["product_mantissa"] == pytest.approx(8.0)
    assert rep["product_exponent10"] == 81
    assert rep["published_mantissa"] == 6.0
    assert rep["mantissa_ratio"] == pytest.approx(8.0 / 6.0)
    assert rep["bits"] >= 270.0
