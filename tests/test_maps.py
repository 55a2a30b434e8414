import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import sboxkit.maps as maps
from sboxkit import (
    BranchMode,
    DegenerateOrbitWarning,
    DerivativeSkipWarning,
    DerivativeZero,
    MapKind,
    MapParams,
    NonFiniteState,
    ParamOutOfRange,
    bifurcation_scan,
    iterate,
    lyapunov,
    lyapunov_sweep,
    map_derivative,
    map_step,
    renormalize,
    round15,
)


def ahyb(a, mode=BranchMode.EQUATION1):
    return MapParams(MapKind.AHYB, a, mode)


def logistic(b):
    return MapParams(MapKind.LOGISTIC, b)


def sine(beta):
    return MapParams(MapKind.SINE, beta)


# ---------------------------------------------------------------------------
# map_step / map_derivative

def test_step_branch1():
    assert map_step(ahyb(1.0), 1.0) == 3.0


def test_step_branch3_escapes_domain():
    # 3.5 * (1.0 - 3.5): the raw formula may leave (0, 4)
    assert map_step(ahyb(1.0), 3.5) == -8.75


def test_step_branch2_high_precision():
    # 0.5 + 2^0.9, frozen from a 40-digit arithmetic evaluation:
    # 2.366065983073614831962687...
    got = map_step(ahyb(0.5), 2.0)
    assert got == pytest.approx(2.366065983073614831962687, rel=1e-15)


def test_step_branch_boundaries_half_open():
    # 1.5 and 3.0 belong to the next branch up
    a = 0.7
    assert map_step(ahyb(a), 1.5) == a + 1.5**0.9
    assert map_step(ahyb(a), 3.0) == 3.0 * (a - 3.0)
    assert map_step(ahyb(a, BranchMode.ALGORITHM1), 3.0) == a - 3.0


def test_step_branch1_exactness():
    rng = random.Random(11)
    for _ in range(500):
        a = rng.uniform(1e-6, 2 - 1e-6)
        x = rng.uniform(1e-9, 1.5 - 1e-9)
        assert map_step(ahyb(a), x) == (2.0 + a) * x


def test_step_logistic():
    assert map_step(logistic(4.0), 0.5) == 1.0
    # fixed point 1 - 1/b
    assert map_step(logistic(2.5), 0.6) == pytest.approx(0.6, abs=1e-15)


def test_step_nonfinite():
    with pytest.raises(NonFiniteState):
        map_step(logistic(4.0), float("nan"))
    with pytest.raises(NonFiniteState):
        map_step(ahyb(1.0), float("inf"))


def test_sine_overflowing_state_raises_nonfinite():
    # pi * x is infinite, where libm sin and cos raise a bare ValueError
    with pytest.raises(NonFiniteState, match=r"^map_step produced non-finite value from x=1e\+308$"):
        map_step(sine(2.0), 1e308)
    with pytest.raises(NonFiniteState,
                       match=r"^map_derivative produced non-finite value at x=1e\+308$"):
        map_derivative(sine(2.0), 1e308)
    with pytest.raises(NonFiniteState, match="^map_step produced"):
        iterate(sine(2.0), 1e308, 0, 1)
    with pytest.raises(NonFiniteState, match="^map_derivative produced"):
        lyapunov(sine(2.0), 1e308, 0, 10)
    assert map_step(sine(2.0), 5e307) == 2.0 * math.sin(math.pi * 5e307)


def test_param_out_of_range():
    for bad in (0.0, 2.0, 2.5, -1.0, float("nan")):
        with pytest.raises(ParamOutOfRange):
            MapParams(MapKind.AHYB, bad)
    with pytest.raises(ParamOutOfRange):
        MapParams(MapKind.LOGISTIC, 4.0001)
    MapParams(MapKind.LOGISTIC, 4.0)  # upper bound inclusive
    MapParams(MapKind.SINE, 4.0)


def test_derivative_examples():
    assert map_derivative(ahyb(1.2), 1.0) == pytest.approx(3.2)
    assert map_derivative(ahyb(1.0), 3.5) == pytest.approx(-6.0)
    assert map_derivative(logistic(4.0), 0.5) == 0.0
    assert map_derivative(ahyb(1.0, BranchMode.ALGORITHM1), 3.5) == -1.0


def test_derivative_matches_finite_difference():
    # central difference with h = 1e-7, 1000 interior points per branch,
    # points within 1e-6 of a branch boundary excluded
    h = 1e-7
    rng = random.Random(7)
    branches = [(1e-6, 1.5 - 1e-6), (1.5 + 1e-6, 3.0 - 1e-6), (3.0 + 1e-6, 4.0 - 1e-6)]
    for mode in BranchMode:
        for lo, hi in branches:
            for _ in range(1000):
                a = rng.uniform(0.05, 1.95)
                x = rng.uniform(lo + 2 * h, hi - 2 * h)
                p = ahyb(a, mode)
                fd = (map_step(p, x + h) - map_step(p, x - h)) / (2 * h)
                assert map_derivative(p, x) == pytest.approx(fd, rel=1e-4)
    for make, lo, hi in ((logistic, 0.0, 1.0), (sine, 0.0, 1.0)):
        for _ in range(1000):
            b = rng.uniform(0.1, 4.0)
            x = rng.uniform(lo + 1e-6 + 2 * h, hi - 1e-6 - 2 * h)
            p = make(b)
            fd = (map_step(p, x + h) - map_step(p, x - h)) / (2 * h)
            d = map_derivative(p, x)
            if abs(d) > 1e-4:  # relative tolerance is meaningless at zeros
                assert d == pytest.approx(fd, rel=1e-4)


# ---------------------------------------------------------------------------
# renormalize / round15

def test_renormalize_examples():
    assert renormalize(2.25) == 1.0
    assert renormalize(-8.75) == 3.0
    assert renormalize(5.0) == 0.0


def test_renormalize_nonfinite():
    with pytest.raises(NonFiniteState):
        renormalize(float("inf"))


def test_renormalize_range_property():
    # 10^6 random finite inputs, including negatives and huge magnitudes
    rng = random.Random(2718)
    for _ in range(1_000_000):
        mag = 10.0 ** rng.uniform(-12, 12)
        v = renormalize(rng.choice((-1.0, 1.0)) * mag)
        assert 0.0 <= v < 4.0


def test_round15_half_away_from_zero():
    assert round15(2.5e-15) == 3e-15
    assert round15(-2.5e-15) == -3e-15
    assert round15(1.23456789) == 1.23456789


# ---------------------------------------------------------------------------
# iterate

def test_iterate_logistic_fixed_point():
    pts = iterate(logistic(2.5), 0.2, transient=1000, n=3)
    assert pts.shape == (3,)
    assert np.all(np.abs(pts - 0.6) < 1e-9)


def test_iterate_empty():
    assert iterate(logistic(2.5), 0.2, transient=0, n=0).size == 0


def test_iterate_ahyb_fold_closure():
    pts = iterate(ahyb(1.5), 0.3, transient=0, n=10_000)
    assert np.all(pts >= 0.0)
    assert np.all(pts < 4.0)


def test_iterate_deterministic():
    a = iterate(ahyb(1.3), 0.7, transient=100, n=500)
    b = iterate(ahyb(1.3), 0.7, transient=100, n=500)
    assert np.array_equal(a, b)


def test_iterate_reseeds_zero_state():
    # 3 * (4/3) renormalizes to exactly 0; the orbit must warn and continue
    with pytest.warns(DegenerateOrbitWarning):
        pts = iterate(ahyb(1.0), 4.0 / 3.0, transient=0, n=5)
    assert np.all(pts < 4.0)
    assert pts[0] == 0.0 or pts[0] > 0.0  # emitted state is the post-fold one


# ---------------------------------------------------------------------------
# bifurcation_scan

def test_bifurcation_pre_period_doubling():
    pts = bifurcation_scan(MapKind.LOGISTIC, 2.4, 2.9, steps=11, x0=0.2,
                           transient=2000, samples=50)
    assert pts.shape == (11 * 50, 2)
    for b in np.unique(pts[:, 0]):
        states = pts[pts[:, 0] == b, 1]
        assert np.all(np.abs(states - (1.0 - 1.0 / b)) < 1e-6)


def test_bifurcation_single_step_matches_iterate():
    pts = bifurcation_scan(MapKind.LOGISTIC, 3.1, 3.9, steps=1, x0=0.4,
                           transient=100, samples=25)
    assert np.all(pts[:, 0] == 3.1)
    direct = iterate(logistic(3.1), 0.4, transient=100, n=25)
    assert np.array_equal(pts[:, 1], direct)


def test_bifurcation_period_two():
    # classic period doubling: two clusters at b = 3.2
    pts = bifurcation_scan(MapKind.LOGISTIC, 3.2, 3.2, steps=1, x0=0.35,
                           transient=4000, samples=100)
    states = np.unique(np.round(pts[:, 1], 9))
    assert len(states) == 2
    b = 3.2
    disc = math.sqrt((b + 1.0) * (b - 3.0))
    expected = sorted(((b + 1.0 - disc) / (2.0 * b), (b + 1.0 + disc) / (2.0 * b)))
    assert states[0] == pytest.approx(expected[0], abs=1e-6)
    assert states[1] == pytest.approx(expected[1], abs=1e-6)


def test_bifurcation_rejects_bad_range():
    with pytest.raises(ParamOutOfRange):
        bifurcation_scan(MapKind.LOGISTIC, -0.5, 3.0, steps=10)
    with pytest.raises(ParamOutOfRange):
        bifurcation_scan(MapKind.AHYB, 0.5, 2.5, steps=10)


# ---------------------------------------------------------------------------
# lyapunov

def test_lyapunov_logistic_fully_chaotic():
    le = lyapunov(logistic(4.0), 0.3, transient=1000, n=100_000)
    assert le == pytest.approx(math.log(2.0), abs=0.01)


def test_lyapunov_logistic_fixed_point():
    le = lyapunov(logistic(2.5), 0.2, transient=1000, n=100_000)
    assert le == pytest.approx(math.log(0.5), abs=0.01)


def test_lyapunov_sign_across_logistic_regimes():
    for b in (2.0, 2.5, 2.9):
        assert lyapunov(logistic(b), 0.2, transient=500, n=20_000) < 0.0
    assert lyapunov(logistic(4.0), 0.2, transient=500, n=20_000) > 0.0


def test_lyapunov_ahyb_positive():
    assert lyapunov(ahyb(1.5), 0.3, transient=1000, n=100_000) > 0.0


def test_lyapunov_needs_samples():
    with pytest.raises(ValueError):
        lyapunov(logistic(4.0), 0.3, transient=0, n=0)


# ---------------------------------------------------------------------------
# lockstep sweeps against a loop of single orbits

def outcome(call):
    """(result bytes or exception, warnings) of `call`, every warning recorded."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            value = call()
            result = ("ok", value.shape, value.tobytes())
        except Exception as exc:  # noqa: BLE001 - the type is compared
            result = ("raised", type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in seen]


# Admissible parameter interval, starting-state interval and special starting
# states (AHYB branch boundaries and the state that folds to 0 at A = 1; the
# zero of the reference maps' derivatives) per map.
PARAM_BOUNDS = {MapKind.AHYB: (0.001, 1.999), MapKind.LOGISTIC: (0.001, 4.0),
                MapKind.SINE: (0.001, 4.0)}
X0_BOUNDS = {MapKind.AHYB: (0.001, 3.999), MapKind.LOGISTIC: (0.001, 0.999),
             MapKind.SINE: (0.001, 0.999)}
X0_SPECIAL = {MapKind.AHYB: (1.5, 3.0, 4.0 / 3.0), MapKind.LOGISTIC: (0.5,),
              MapKind.SINE: (0.5,)}
# A sweep width that every map steps in lockstep.
WIDE = max(maps._LOCKSTEP_MIN_WIDTH.values())


@st.composite
def sweep_cases(draw):
    kind = draw(st.sampled_from(list(MapKind)))
    lo, hi = sorted(draw(st.floats(*PARAM_BOUNDS[kind])) for _ in range(2))
    steps = draw(st.one_of(st.just(1), st.just(2), st.integers(1, 64)))
    x0 = draw(st.one_of(st.sampled_from(X0_SPECIAL[kind]), st.floats(*X0_BOUNDS[kind])))
    return kind, draw(st.sampled_from(list(BranchMode))), lo, hi, steps, x0


# The lockstep buffer's size in cells: the real one, or one small enough that
# a chunk holds one to a few steps and the last chunk is short.
chunk_cells = st.one_of(st.just(maps._CHUNK_CELLS), st.integers(1, 200))


@settings(max_examples=80, deadline=None)
@given(case=sweep_cases(), transient=st.integers(0, 40), samples=st.integers(0, 40),
       cells=chunk_cells)
def test_bifurcation_scan_matches_single_orbits(case, transient, samples, cells):
    kind, mode, lo, hi, steps, x0 = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(maps, "_CHUNK_CELLS", cells)
        got = outcome(lambda: bifurcation_scan(kind, lo, hi, steps, x0, transient, samples,
                                               mode))
    want = outcome(lambda: oracles.bifurcation_reference(
        kind, lo, hi, steps, x0, transient, samples, mode))
    assert got == want


@settings(max_examples=80, deadline=None)
@given(case=sweep_cases(), transient=st.integers(0, 40), n=st.integers(1, 300),
       cells=chunk_cells)
# orbits from 1e-9 stay in the AHYB low branch, whose log term is one
# constant per value, for most of 12 samples; lockstep and scalar widths
@example(case=(MapKind.AHYB, BranchMode.EQUATION1, 0.05, 1.95, WIDE, 1e-9), transient=0, n=12,
         cells=maps._CHUNK_CELLS)
@example(case=(MapKind.AHYB, BranchMode.ALGORITHM1, 0.05, 1.95, WIDE, 1e-9), transient=0,
         n=12, cells=maps._CHUNK_CELLS)
@example(case=(MapKind.AHYB, BranchMode.ALGORITHM1, 0.05, 1.95, 3, 1e-9), transient=0, n=12,
         cells=5)
def test_lyapunov_sweep_matches_single_orbits(case, transient, n, cells):
    kind, mode, lo, hi, steps, x0 = case
    values = np.linspace(lo, hi, steps)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(maps, "_CHUNK_CELLS", cells)
        got = outcome(lambda: lyapunov_sweep(kind, values, x0, transient, n, mode))
    want = outcome(lambda: oracles.lyapunov_sweep_reference(
        kind, values, x0, transient, n, mode))
    assert got == want


def test_lyapunov_sweep_spans_derivative_chunks():
    # WIDE parameters x 10,000 samples fill several chunks of the lockstep
    # buffer, for the Lyapunov sweep and for the scan alike
    values = np.linspace(3.5, 4.0, WIDE)
    got = lyapunov_sweep(MapKind.LOGISTIC, values, 0.3, 100, 10_000)
    want = oracles.lyapunov_sweep_reference(MapKind.LOGISTIC, values, 0.3, 100, 10_000,
                                            BranchMode.EQUATION1)
    assert got.tobytes() == want.tobytes()
    assert 10_000 * WIDE > 3 * maps._CHUNK_CELLS
    scan = bifurcation_scan(MapKind.LOGISTIC, 3.5, 4.0, WIDE, 0.3, 100, 10_000)
    want = oracles.bifurcation_reference(MapKind.LOGISTIC, 3.5, 4.0, WIDE, 0.3, 100, 10_000,
                                         BranchMode.EQUATION1)
    assert scan.tobytes() == want.tobytes()


def test_lyapunov_sweep_single_sample_is_libm_log():
    # with n = 1 each estimate is one log term, so any gap between a vector
    # log and libm's shows up directly
    for kind, (lo, hi) in PARAM_BOUNDS.items():
        values = np.linspace(lo, hi, 3000)
        got = lyapunov_sweep(kind, values, 0.3, 5, 1)
        want = oracles.lyapunov_sweep_reference(kind, values, 0.3, 5, 1, BranchMode.EQUATION1)
        assert got.tobytes() == want.tobytes()


def test_lyapunov_sweep_empty_and_sample_count():
    assert lyapunov_sweep(MapKind.LOGISTIC, [], 0.3, 10, 0).shape == (0,)
    with pytest.raises(ValueError, match="n must be >= 1"):
        lyapunov_sweep(MapKind.LOGISTIC, [3.0], 0.3, 10, 0)


def test_lyapunov_rejects_negative_transient():
    with pytest.raises(ValueError, match="transient must be non-negative"):
        lyapunov(logistic(3.9), 0.3, transient=-5, n=100)
    for values in ([], [3.9], np.linspace(3.5, 3.9, WIDE)):
        with pytest.raises(ValueError, match="transient must be non-negative"):
            lyapunov_sweep(MapKind.LOGISTIC, values, 0.3, -5, 100)


@pytest.mark.parametrize("steps", [2, WIDE])
@pytest.mark.parametrize("transient, samples", [(-1, 5), (10, -2), (-1, -2)])
def test_bifurcation_rejects_negative_transient_or_samples(steps, transient, samples):
    with pytest.raises(ValueError, match="^transient and samples must be non-negative$"):
        bifurcation_scan(MapKind.LOGISTIC, 3.0, 3.5, steps, 0.3, transient, samples)


# A map kind or branch mode given by its string value is rejected, not run as
# EQUATION1 or failed with a bare KeyError.
BAD_MAPS = {
    "kind-string": ("ahyb", BranchMode.EQUATION1, "map kind must be a MapKind"),
    "mode-string": (MapKind.AHYB, "alg1", "branch mode must be a BranchMode"),
}


@pytest.mark.parametrize("kind, mode, message", BAD_MAPS.values(), ids=BAD_MAPS)
def test_map_params_reject_non_enum_kind_or_mode(kind, mode, message):
    with pytest.raises(ParamOutOfRange, match=message):
        MapParams(kind, 1.0, mode)


@pytest.mark.parametrize("steps", [2, WIDE])
@pytest.mark.parametrize("kind, mode, message", BAD_MAPS.values(), ids=BAD_MAPS)
def test_bifurcation_rejects_non_enum_kind_or_mode(kind, mode, message, steps):
    with pytest.raises(ParamOutOfRange, match=message):
        bifurcation_scan(kind, 0.5, 1.0, steps, 0.3, 10, 5, branch_mode=mode)


@pytest.mark.parametrize("width", [0, 2, WIDE])
@pytest.mark.parametrize("kind, mode, message", BAD_MAPS.values(), ids=BAD_MAPS)
def test_lyapunov_sweep_rejects_non_enum_kind_or_mode(kind, mode, message, width):
    with pytest.raises(ParamOutOfRange, match=message):
        lyapunov_sweep(kind, np.linspace(0.5, 1.0, width), 0.3, 10, 100, branch_mode=mode)


@pytest.mark.parametrize("control", [True, np.True_], ids=["bool", "numpy-bool"])
def test_bool_control_is_out_of_range(control):
    with pytest.raises(ParamOutOfRange, match=r"got (np\.)?True_?$"):
        MapParams(MapKind.AHYB, control)


@pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "numpy-bool"])
@pytest.mark.parametrize("width", [2, WIDE], ids=["narrow", "wide"])
def test_lyapunov_sweep_rejects_a_bool_among_numbers(flag, width):
    # np.asarray([3.5, True]) is float64, so the dtype alone would run True as 1.0
    values = [3.5] * (width - 1) + [flag]
    with pytest.raises(ParamOutOfRange, match=r"sweep value must be a number, got (np\.)?True_?$"):
        lyapunov_sweep(MapKind.LOGISTIC, values, 0.3, 10, 100)


@pytest.mark.parametrize("width", [2, WIDE], ids=["narrow", "wide"])
def test_sweep_nonfinite_logistic_raises_scalar_message(width):
    values = np.linspace(3.0, 3.5, width)
    got = outcome(lambda: lyapunov_sweep(MapKind.LOGISTIC, values, 1e200, 10, 100))
    want = outcome(lambda: lyapunov(logistic(3.0), 1e200, 10, 100))
    assert got[0][:2] == ("raised", NonFiniteState)
    assert got == want
    scan = outcome(lambda: bifurcation_scan(MapKind.LOGISTIC, 3.0, 3.5, width, 1e200, 10, 5))
    assert scan == outcome(lambda: iterate(logistic(3.0), 1e200, 10, 5))


@pytest.mark.parametrize("width", [2, WIDE], ids=["narrow", "wide"])
def test_sweep_ahyb_overflow_raises_as_scalar(width):
    # y * 1e15 overflows inside round15 on the first step
    values = np.linspace(0.5, 1.5, width)
    got = outcome(lambda: lyapunov_sweep(MapKind.AHYB, values, 1e150, 10, 100))
    assert got[0][:2] == ("raised", OverflowError)
    assert got == outcome(lambda: lyapunov(ahyb(0.5), 1e150, 10, 100))
    scan = outcome(lambda: bifurcation_scan(MapKind.AHYB, 0.5, 1.5, width, 1e150, 10, 5))
    assert scan == outcome(lambda: iterate(ahyb(0.5), 1e150, 10, 5))


@pytest.mark.parametrize("width", [2, WIDE], ids=["narrow", "wide"])
def test_sweep_sine_overflowing_start_raises_scalar_message(width):
    # pi * -1e308 overflows, so the first step cannot be taken
    values = np.linspace(1.0, 2.0, width)
    got = outcome(lambda: lyapunov_sweep(MapKind.SINE, values, -1e308, 10, 100))
    assert got == outcome(lambda: lyapunov(sine(1.0), -1e308, 10, 100))
    assert got[0] == ("raised", NonFiniteState,
                      "map_step produced non-finite value from x=-1e+308")
    scan = outcome(lambda: bifurcation_scan(MapKind.SINE, 1.0, 2.0, width, -1e308, 10, 5))
    assert scan == outcome(lambda: iterate(sine(1.0), -1e308, 10, 5))
    assert scan[0] == got[0]


@pytest.mark.parametrize("transient", [0, 1000])
@pytest.mark.parametrize("kind, lo, hi, x0", [(MapKind.SINE, 1.0, 2.0, 1e308),
                                              (MapKind.AHYB, 0.5, 1.5, 1e150)],
                         ids=["sine", "ahyb"])
def test_lockstep_gives_up_after_failed_first_step(monkeypatch, kind, lo, hi, x0, transient):
    # every orbit is NaN after one step, so the scalar error follows at once
    steps = []
    step = maps._Orbits.step
    monkeypatch.setattr(maps._Orbits, "step", lambda self: steps.append(1) or step(self))
    values = np.linspace(lo, hi, WIDE)
    got = outcome(lambda: lyapunov_sweep(kind, values, x0, transient, 10000))
    assert len(steps) == 1 and got[0][0] == "raised"
    assert got == outcome(lambda: lyapunov(MapParams(kind, lo), x0, transient, 10000))
    steps.clear()
    scan = outcome(lambda: bifurcation_scan(kind, lo, hi, WIDE, x0, transient, 200))
    assert len(steps) == 1 and scan[0][0] == "raised"
    assert scan == outcome(lambda: iterate(MapParams(kind, lo), x0, transient, 200))


def test_sweep_derivative_skips_warn_then_raise_in_order():
    # From x0 = 0.5 the logistic map's first sample has f' = 0.  At b = 4 and
    # b = 3 that one skip of 200 warns; at b = 2 the orbit stays at 0.5, every
    # sample is skipped and DerivativeZero is raised; the rest are never reached.
    values = [4.0, 3.0, 2.0, *np.linspace(3.5, 3.9, WIDE)]
    got = outcome(lambda: lyapunov_sweep(MapKind.LOGISTIC, values, 0.5, 0, 200))
    want = outcome(lambda: oracles.lyapunov_sweep_reference(
        MapKind.LOGISTIC, values, 0.5, 0, 200, BranchMode.EQUATION1))
    assert got == want
    result, seen = got
    assert result[:2] == ("raised", DerivativeZero)
    assert [category for category, _ in seen] == [DerivativeSkipWarning] * 2


def test_sweep_warns_then_rejects_out_of_range_parameter():
    values = [4.0, 5.0, *[3.0] * WIDE]
    got = outcome(lambda: lyapunov_sweep(MapKind.LOGISTIC, values, 0.5, 0, 200))
    want = outcome(lambda: oracles.lyapunov_sweep_reference(
        MapKind.LOGISTIC, values, 0.5, 0, 200, BranchMode.EQUATION1))
    assert got == want
    assert got[0][:2] == ("raised", ParamOutOfRange)
    assert got[1] == [(DerivativeSkipWarning, "skipped 1 of 200 Lyapunov samples with "
                                               "|f'| < 1e-300")]


def test_sweep_reseed_warnings_match_single_orbits():
    # at A = 1 the state 4/3 maps to 4, which folds to exactly 0
    for mode in BranchMode:
        got = outcome(lambda: bifurcation_scan(MapKind.AHYB, 1.0, 1.4, WIDE, 4.0 / 3.0, 0, 6,
                                               mode))
        want = outcome(lambda: oracles.bifurcation_reference(
            MapKind.AHYB, 1.0, 1.4, WIDE, 4.0 / 3.0, 0, 6, mode))
        assert got == want
        assert (DegenerateOrbitWarning, "folded state hit 0 exactly; reseeding to 1e-12") in got[1]
        values = np.linspace(1.0, 1.2, WIDE)
        sweep = outcome(lambda: lyapunov_sweep(MapKind.AHYB, values, 4.0 / 3.0, 0, 50, mode))
        assert sweep == outcome(lambda: oracles.lyapunov_sweep_reference(
            MapKind.AHYB, values, 4.0 / 3.0, 0, 50, mode))


def test_scan_of_no_samples_takes_no_step(monkeypatch):
    # From 4/3 at A = 1 the first step would reseed, but a scan of no samples
    # and no transient takes no step, so no orbit warns and lockstep stands in.
    want = outcome(lambda: oracles.bifurcation_reference(
        MapKind.AHYB, 1.0, 1.4, WIDE, 4.0 / 3.0, 0, 0, BranchMode.EQUATION1))
    monkeypatch.setattr(maps, "iterate", lambda *args: pytest.fail("scalar fallback taken"))
    got = outcome(lambda: bifurcation_scan(MapKind.AHYB, 1.0, 1.4, WIDE, 4.0 / 3.0, 0, 0))
    assert got == want
    assert got == (("ok", (0, 2), b""), [])


def test_wide_clean_sweeps_step_in_lockstep(monkeypatch):
    # a wide sweep in which no orbit warns or fails never calls the scalar code
    cases = [(kind, *PARAM_BOUNDS[kind], mode) for kind in MapKind for mode in BranchMode]
    want = [(oracles.bifurcation_reference(kind, lo, hi, WIDE, 0.3, 50, 20, mode),
             oracles.lyapunov_sweep_reference(kind, np.linspace(lo, hi, WIDE), 0.3, 50, 200,
                                              mode))
            for kind, lo, hi, mode in cases]

    def scalar(*args):
        raise AssertionError("scalar fallback taken")

    monkeypatch.setattr(maps, "iterate", scalar)
    monkeypatch.setattr(maps, "lyapunov", scalar)
    for (kind, lo, hi, mode), (scan, les) in zip(cases, want):
        assert bifurcation_scan(kind, lo, hi, WIDE, 0.3, 50, 20, mode).tobytes() == scan.tobytes()
        got = lyapunov_sweep(kind, np.linspace(lo, hi, WIDE), 0.3, 50, 200, mode)
        assert got.tobytes() == les.tobytes()


# ---------------------------------------------------------------------------
# the single-orbit kernel against loops of map_step / map_derivative calls

# Branch boundaries, the state that folds to 0 at A = 1, the reference maps'
# critical point, and states that overflow a step, the fold or a derivative.
X0_EDGES = (1.5, 3.0, 4.0 / 3.0, 0.5, 1e150, 1e200, 1e308, -1e308,
            math.nan, math.inf, -math.inf)


@st.composite
def orbit_cases(draw):
    kind = draw(st.sampled_from(list(MapKind)))
    control = draw(st.one_of(st.just(1.0), st.floats(*PARAM_BOUNDS[kind])))
    x0 = draw(st.one_of(st.sampled_from(X0_EDGES), st.floats(*X0_BOUNDS[kind]), st.floats()))
    return MapParams(kind, control, draw(st.sampled_from(list(BranchMode)))), x0


@settings(max_examples=300, deadline=None)
@given(case=orbit_cases(), transient=st.integers(-2, 30), n=st.integers(-2, 300),
       cells=chunk_cells)
@example(case=(ahyb(1.0), 4.0 / 3.0), transient=0, n=5, cells=maps._CHUNK_CELLS)
@example(case=(ahyb(1.0, BranchMode.ALGORITHM1), 4.0 / 3.0), transient=0, n=5,
         cells=maps._CHUNK_CELLS)
@example(case=(ahyb(0.7), 1.5), transient=0, n=3, cells=maps._CHUNK_CELLS)
# mostly AHYB low-branch terms, log(2 + A), in both branch modes
@example(case=(ahyb(1.0), 1e-9), transient=0, n=12, cells=maps._CHUNK_CELLS)
@example(case=(ahyb(1.0, BranchMode.ALGORITHM1), 1e-9), transient=0, n=12, cells=5)
@example(case=(ahyb(0.7), 3.0), transient=0, n=3, cells=maps._CHUNK_CELLS)
@example(case=(logistic(3.0), 0.5), transient=0, n=200, cells=maps._CHUNK_CELLS)
# a skip among 200 samples warns, in one chunk or across several
@example(case=(logistic(4.0), 0.5), transient=0, n=200, cells=maps._CHUNK_CELLS)
@example(case=(logistic(4.0), 0.5), transient=0, n=200, cells=7)
# the derivative at x1 overflows, and so does the step from it: the derivative
# is taken first
@example(case=(logistic(4.0), -2.74e153), transient=0, n=5, cells=maps._CHUNK_CELLS)
# with a subnormal control the derivative at x1 overflows but the step from it
# does not; the step from x2 overflows
@example(case=(logistic(1.5e-308), -8e307), transient=0, n=5, cells=maps._CHUNK_CELLS)
@example(case=(logistic(1.5e-308), -8e307), transient=0, n=5, cells=1)
# the step from x1 overflows, and it starts a stretch of the transient
@example(case=(logistic(4.0), -1e100), transient=5, n=5, cells=1)
# with no transient the start check takes f'(x0), then the step from x0
@example(case=(ahyb(1.0), 1e200), transient=0, n=5, cells=maps._CHUNK_CELLS)
@example(case=(ahyb(1.0), 1e308), transient=0, n=5, cells=maps._CHUNK_CELLS)
@example(case=(sine(1.0), 1e200), transient=0, n=5, cells=maps._CHUNK_CELLS)
@example(case=(sine(1.0), 1e308), transient=0, n=5, cells=maps._CHUNK_CELLS)
def test_orbit_kernel_matches_reference_loops(case, transient, n, cells):
    params, x0 = case
    got = oracles.call_outcome(lambda: iterate(params, x0, transient, n))
    assert got == oracles.call_outcome(lambda: oracles.iterate_reference(params, x0, transient, n))
    # chunks as small as one state carry the Lyapunov sum and the skip count
    # across chunk boundaries
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(maps, "_CHUNK_CELLS", cells)
        got = oracles.call_outcome(lambda: lyapunov(params, x0, transient, n))
    assert got == oracles.call_outcome(lambda: oracles.lyapunov_reference(params, x0, transient, n))


# ---------------------------------------------------------------------------
# the numpy routes that the bulk code takes for libm: a platform fingerprint
# (the goldens rest on them; numpy.show_runtime() names the SIMD extensions
# that numpy dispatches to, which decide whether these hold)

LIBM_ROUTES = [
    ("float_power(x, 0.9)", (1.5, 3.0), lambda x: np.float_power(x, 0.9),
     lambda x: x**0.9),
    ("float_power(x, -0.1)", (1.5, 3.0), lambda x: np.float_power(x, -0.1),
     lambda x: x**-0.1),
    ("sin(pi * x)", (-4.0, 4.0), lambda x: np.sin(np.pi * x), lambda x: math.sin(math.pi * x)),
    ("cos(pi * x)", (-4.0, 4.0), lambda x: np.cos(np.pi * x), lambda x: math.cos(math.pi * x)),
]


@pytest.mark.parametrize("name, bounds, bulk, scalar", LIBM_ROUTES,
                         ids=[route[0] for route in LIBM_ROUTES])
def test_numpy_route_rounds_as_libm(name, bounds, bulk, scalar):
    x = np.random.default_rng(20_260_101).uniform(*bounds, 1 << 18)
    want = np.fromiter(map(scalar, x.tolist()), np.float64, x.size)
    differ = np.flatnonzero(bulk(x) != want)
    assert differ.size == 0, (
        f"numpy {name} differs from libm on {differ.size} of {x.size} inputs, "
        f"first at x={float.hex(float(x[differ[0]]))}")
