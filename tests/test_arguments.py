"""The one argument rule, tried at every public entry point.

Each number, count and enum argument is replaced in turn by a value that is
not what it claims to be; every such call raises ParamOutOfRange, never a
bare TypeError or KeyError, and never runs with a coerced value.  The
messages that callers may match on are pinned byte for byte.
"""

import re

import numpy as np
import pytest

from sboxkit import (
    BranchMode,
    KeySpec,
    MapKind,
    MapParams,
    NLMode,
    Objective,
    ParamOutOfRange,
    RefineConfig,
    bifurcation_scan,
    builtin_corpus,
    compare,
    component_bits,
    full_report,
    get_entry,
    initial_sbox,
    iterate,
    lyapunov,
    lyapunov_sweep,
    refine_sbox,
    sbox_nonlinearity,
)
from sboxkit.maps import check_param

AES = get_entry("aes").table
KEY = {"x0": 0.7, "a": 1.3, "b": 55_555_555, "c": 5, "d": 7, "e": 0.5, "f": 0.5}
LOGISTIC = MapParams(MapKind.LOGISTIC, 3.9)

# Not a number, not an enum member: tried in every argument.
BAD = {"str": "1", "None": None, "bool": True, "np-bool": np.True_, "complex": 1j}
# Tried in integer arguments only: a real number that is not an integer.
NOT_INTEGER = {"float": 2.0, "np-float": np.float64(3.0)}

# (entry point, its valid keyword arguments, the integer arguments among them)
ENTRY_POINTS = {
    "MapParams": (MapParams, dict(kind=MapKind.AHYB, control=1.0,
                                  branch_mode=BranchMode.EQUATION1), ()),
    "check_param": (check_param, dict(kind=MapKind.AHYB, control=1.0), ()),
    "iterate": (iterate, dict(params=LOGISTIC, x0=0.3, transient=2, n=3),
                ("transient", "n")),
    "lyapunov": (lyapunov, dict(params=LOGISTIC, x0=0.3, transient=2, n=3),
                 ("transient", "n")),
    "bifurcation_scan": (bifurcation_scan, dict(
        kind=MapKind.LOGISTIC, param_lo=3.0, param_hi=3.5, steps=3, x0=0.3,
        transient=2, samples=2, branch_mode=BranchMode.EQUATION1),
        ("steps", "transient", "samples")),
    "lyapunov_sweep": (lyapunov_sweep, dict(
        kind=MapKind.LOGISTIC, values=[3.5, 3.9], x0=0.3, transient=2, n=3,
        branch_mode=BranchMode.EQUATION1), ("transient", "n")),
    "KeySpec": (KeySpec, KEY, ("b", "c", "d")),
    "initial_sbox": (initial_sbox, dict(x0=0.7, a=1.3, b=55_555_555,
                                        branch_mode=BranchMode.EQUATION1), ("b",)),
    "refine_sbox": (refine_sbox, dict(c=5, d=7, e=0.5, f=0.5, config=RefineConfig(budget=4)),
                    ("c", "d")),
    "RefineConfig": (RefineConfig, dict(budget=4, objective=Objective.MIN_COORDINATE_NL),
                     ("budget",)),
    "component_bits": (component_bits, dict(mask=5), ("mask",)),
    "sbox_nonlinearity": (sbox_nonlinearity, dict(mode=NLMode.FULL_SPECTRUM), ()),
    "full_report": (full_report, dict(nl_mode=NLMode.FULL_SPECTRUM), ()),
    "compare": (compare, dict(nl_mode=NLMode.COORDINATE), ()),
}
# Leading positional arguments that are not under test.
POSITIONAL = {"refine_sbox": (AES,), "component_bits": (AES,),
              "sbox_nonlinearity": (AES,), "full_report": (AES,),
              "compare": (builtin_corpus()[:1],)}


def _cases():
    for entry, (func, kwargs, integers) in ENTRY_POINTS.items():
        for arg in kwargs:
            if arg in ("params", "config"):  # not a number or an enum member
                continue
            bad = dict(BAD, **(NOT_INTEGER if arg in integers else {}))
            for label, value in bad.items():
                if arg == "values":  # a sweep's values are a sequence
                    value = [value]
                yield pytest.param(entry, arg, value, id=f"{entry}-{arg}-{label}")


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_valid_arguments_run(entry):
    func, kwargs, _ = ENTRY_POINTS[entry]
    func(*POSITIONAL.get(entry, ()), **kwargs)


@pytest.mark.parametrize("entry, arg, value", _cases())
def test_bad_argument_raises_param_out_of_range(entry, arg, value):
    func, kwargs, _ = ENTRY_POINTS[entry]
    with pytest.raises(ParamOutOfRange):
        func(*POSITIONAL.get(entry, ()), **dict(kwargs, **{arg: value}))


@pytest.mark.parametrize("values", [[[3.5]], 3.5, np.array([3.5, np.nan + 1j])],
                         ids=["2-D", "scalar", "complex-array"])
def test_sweep_values_must_be_a_1d_array_of_numbers(values):
    with pytest.raises(ParamOutOfRange, match="^values must be a 1-D array of numbers"):
        lyapunov_sweep(MapKind.LOGISTIC, values, 0.3, 2, 3)


# Messages that callers match on, byte for byte.
PINNED = {
    "key-range": (lambda: KeySpec(**dict(KEY, a=3.0)),
                  "key field a must lie in (0, 2), got 3.0"),
    "key-integer": (lambda: KeySpec(**dict(KEY, b=7317130.9)),
                    "key field b must be an integer, got 7317130.9"),
    "budget-integer": (lambda: RefineConfig(budget=1.5), "budget must be an integer, got 1.5"),
    "budget-negative": (lambda: RefineConfig(budget=-1), "budget must be >= 0, got -1"),
    "control-open": (lambda: MapParams(MapKind.AHYB, 2.0),
                     "ahyb control parameter must lie in (0, 2), got 2.0"),
    "control-closed": (lambda: MapParams(MapKind.SINE, 4.5),
                       "sine control parameter must lie in (0, 4], got 4.5"),
    "map-kind": (lambda: MapParams("ahyb", 1.0), "map kind must be a MapKind, got 'ahyb'"),
    "branch-mode": (lambda: MapParams(MapKind.AHYB, 1.0, "alg1"),
                    "branch mode must be a BranchMode, got 'alg1'"),
    "objective": (lambda: RefineConfig(objective="sum"),
                  "objective must be an Objective, got 'sum'"),
    "iterate-counts": (lambda: iterate(LOGISTIC, 0.3, -1, 3),
                       "transient and n must be non-negative"),
    "lyapunov-n": (lambda: lyapunov(LOGISTIC, 0.3, 2, 0), "n must be >= 1"),
    "lyapunov-transient": (lambda: lyapunov(LOGISTIC, 0.3, -1, 3),
                           "transient must be non-negative"),
    "sweep-transient": (lambda: lyapunov_sweep(MapKind.LOGISTIC, [3.5], 0.3, -1, 3),
                        "transient must be non-negative"),
    "scan-steps": (lambda: bifurcation_scan(MapKind.LOGISTIC, 3.0, 3.5, 0),
                   "steps must be >= 1"),
    "scan-counts": (lambda: bifurcation_scan(MapKind.LOGISTIC, 3.0, 3.5, 3, 0.3, 2, -1),
                    "transient and samples must be non-negative"),
}


@pytest.mark.parametrize("call, message", PINNED.values(), ids=PINNED)
def test_pinned_messages(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
