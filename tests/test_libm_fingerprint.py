"""The libm results that the goldens and the dynamics outputs rest on.

`golden/libm_fingerprint.json` pins, as ``float.hex``, arguments and results
of the libm calls behind the generator and the Lyapunov estimates: a seeded
sample of the ``pow(x, 0.9)`` calls of the golden key's fill, of the
``pow(x, 2.5)``, ``log10``, ``log`` and ``cos`` calls of its swap schedule,
and of the ``log`` calls of Lyapunov terms, plus every call among them whose
result this libm does not round correctly (a correctly rounded libm gives
other bytes there).  The generator gives the golden bytes on any platform
whose libm returns these results; where it does not, the test below names
the first function and argument that differ, before any golden fails.

To pin a new platform's results deliberately, run this file as a script
(``PYTHONPATH=src python tests/test_libm_fingerprint.py``); it rewrites the
fingerprint from the libm that runs it.
"""

import json
import math
import random
import re
from decimal import Decimal, getcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import oracles
from sboxkit import BranchMode, KeySpec, MapKind, MapParams, iterate, map_derivative
from sboxkit.maps import DERIVATIVE_FLOOR

GOLDEN_DIR = Path(__file__).parent / "golden"
FINGERPRINT = GOLDEN_DIR / "libm_fingerprint.json"

# The calls as the library makes them: ``x ** 2.5`` and ``x ** 0.9`` are C
# pow, and the math functions call libm directly.
CALLS = {
    "pow(x, 0.9)": lambda x: x**0.9,
    "pow(x, 2.5)": lambda x: x**2.5,
    "log10": math.log10,
    "log": math.log,
    "cos": math.cos,
    "log of Lyapunov terms": math.log,
}

# Schedule entries of the golden key that the fingerprint samples.  The
# first 7,168 include all 5,120 the default (sum) climb computes; the count
# stays as it was, so the pinned file does not change.
SCHEDULE_ENTRIES = 7168
SAMPLE = 64


def _correctly_rounded(name, x):
    """`name` at `x` from 60-digit decimal arithmetic, or None where it has no such route."""
    getcontext().prec = 60
    d = Decimal(x)
    exact = {
        "pow(x, 0.9)": lambda: (d.ln() * Decimal("0.9")).exp(),
        "pow(x, 2.5)": lambda: d * d * d.sqrt(),
        "log10": d.log10,
        "log": d.ln,
        "log of Lyapunov terms": d.ln,
    }.get(name)
    return None if exact is None else float(exact())


def _arguments():
    """Every argument of each call in `CALLS`, from the golden key and the Lyapunov orbits."""
    golden = json.loads((GOLDEN_DIR / "generator_golden.json").read_text())
    key = KeySpec.from_dict(golden["key"])
    params = MapParams(MapKind.AHYB, key.a, BranchMode(golden["branch_mode"]))

    # the fill's states up to its last placement; it steps from each in turn
    states = [key.x0, *iterate(params, key.x0, 0, 1 << 14).tolist()]
    seen = set()
    for draws, x in enumerate(states[1:], 1):
        seen.add(math.floor(x * key.b + 0.5) % 256)
        if len(seen) == 256:
            break
    fill = [x for x in states[:draws] if 1.5 <= x < 3.0]

    # the schedule's states: each is the argument of pow, log10, log and cos
    schedule, log10 = [], math.log10
    with mock.patch.object(math, "log10", lambda s: schedule.append(s) or log10(s)):
        oracles.swap_schedule_reference(key.c, key.d, key.e, key.f, SCHEDULE_ENTRIES)

    # |f'| along orbits across the benchmark's control ranges
    terms = []
    for kind, lo, hi in [(MapKind.AHYB, 0.05, 1.95), (MapKind.LOGISTIC, 2.5, 4.0),
                         (MapKind.SINE, 0.5, 4.0)]:
        for mode in BranchMode:
            for a in np.linspace(lo, hi, 5).tolist():
                params = MapParams(kind, a, mode)
                d = [abs(map_derivative(params, x)) for x in iterate(params, 0.37, 100, 50)]
                terms += [v for v in d if v >= DERIVATIVE_FLOOR]
    return {"pow(x, 0.9)": fill, "pow(x, 2.5)": schedule, "log10": schedule, "log": schedule,
            "cos": schedule, "log of Lyapunov terms": terms}


def make_fingerprint() -> dict:
    """A seeded sample of each call's arguments, and every misrounded one, with this libm's results."""
    rng = random.Random(20_261_021)
    calls = {}
    for name, pool in _arguments().items():
        pool = sorted(set(pool))
        call = CALLS[name]
        misrounded = [x for x in pool
                      if _correctly_rounded(name, x) not in (None, call(x))]
        xs = sorted(set(rng.sample(pool, min(SAMPLE, len(pool)))) | set(misrounded))
        calls[name] = {
            "misrounded": [x.hex() for x in misrounded],
            "pairs": [[x.hex(), call(x).hex()] for x in xs],
        }
    return {
        "about": "libm results the goldens rest on; see tests/test_libm_fingerprint.py",
        "calls": calls,
    }


PINNED = json.loads(FINGERPRINT.read_text())["calls"]


@pytest.mark.parametrize("name", list(CALLS))
def test_libm_reproduces_the_fingerprint(name):
    pairs = [(float.fromhex(x), float.fromhex(y)) for x, y in PINNED[name]["pairs"]]
    assert pairs
    differ = [(x, want, CALLS[name](x)) for x, want in pairs if CALLS[name](x) != want]
    if differ:
        x, want, got = differ[0]
        pytest.fail(f"libm {name} differs from the fingerprint on {len(differ)} of "
                    f"{len(pairs)} arguments, first at x={x.hex()}: got {got.hex()}, "
                    f"pinned {want.hex()}")


if __name__ == "__main__":
    text = json.dumps(make_fingerprint(), indent=1)
    # one [argument, result] pair a line
    FINGERPRINT.write_text(re.sub(r'\[\s+("[^"]*"),\s+("[^"]*")\s+\]', r"[\1, \2]", text) + "\n")
