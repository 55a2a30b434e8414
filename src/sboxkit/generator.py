"""Key-driven S-box construction.

Stage 1 fills a 256-entry table from a folded AHYB orbit: each step applies
the raw map, renormalizes with x <- 4 * frac(|round15(x)|), and extracts a
candidate byte V = round(x * b) mod 256.  Candidates already present in the
table are discarded and iteration continues until all 256 distinct bytes are
placed, so the result is always a permutation.

Stage 2 hill-climbs that permutation with a key-dependent swap schedule.  Two
independent scalar recurrences produce swap indices:

    x <- round15(|c + x^2.5 + 2*log10(x)*ln(x) + 1/cos(x)|), I = round(x) mod 256,
    x <- |x mod 256|
    y <- round15(|d + y^2.5 + log10(y)*ln(y) + cos(y)|),     J = round(y) mod 256,
    y <- |y mod 256|

Each iteration swaps table[I] and table[J], recomputes the nonlinearity
objective, and reverts the swap unless the objective strictly increased, so
the objective trace is monotone and the table stays a permutation.

That sequential accept/revert loop is the definition; `refine_sbox` computes
it in blocks.  The schedule depends only on c, d, e, f, and a rejected swap
leaves the table as it was, so every swap of a block of upcoming schedule
entries can be scored on its own against the current table: the first one
that beats the objective is exactly the swap the loop would accept next, and
scoring restarts at the entry after it.  No transform is recomputed: swapping
positions i and j changes the spectrum of each tracked component b by the
rank-one term (s_b(j) - s_b(i)) * (H[i] - H[j]), with s_b the component's
+-1 signs and H the 256x256 Hadamard matrix (Millan, ACISP 1998; Millan,
Clark and Dawson, EUROCRYPT 1998).

The recurrences are guarded: the state is clamped to >= 1e-12 before the log
terms, and if |cos(x)| < 1e-12 the state is nudged by 1e-9 before taking the
reciprocal.  Both stages are deterministic functions of the key.
"""

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    GenerationStall,
    NumericGuardTripped,
    ParamOutOfRange,
)
from .maps import BranchMode, MapKind, MapParams, _advance, round15
from .metrics import (
    COORD_MASKS,
    _hadamard,
    _nl_from_spectra,
    as_sbox,
    fwht,
    mask_sign_matrix,
)

# Key field ranges: (low, high, integer). All bounds are exclusive.
KEY_RANGES = {
    "x0": (0.0, 4.0, False),
    "a": (0.0, 2.0, False),
    "b": (1_000_000, 1_000_000_000, True),
    "c": (0, 1_000_000_000, True),
    "d": (0, 1_000_000_000, True),
    "e": (0.0, 1.0, False),
    "f": (0.0, 1.0, False),
}

# Candidate counts per key field used for key-space accounting.  The real
# fields carry 15 decimal digits, so an interval of width w contributes
# w * 10^15 candidates; the published count for b is 10^3.
KEYSPACE_COUNTS = {
    "x0": 4e15,
    "a": 2e15,
    "b": 1e3,
    "c": 1e9,
    "d": 1e9,
    "e": 1e15,
    "f": 1e15,
}

_STALL_LIMIT = 10**6


def _check_key_field(name: str, value) -> None:
    lo, hi, integer = KEY_RANGES[name]
    if isinstance(value, (bool, np.bool_)):
        raise ParamOutOfRange(f"key field {name} must be a number, got {value!r}")
    if integer and not isinstance(value, (int, np.integer)):
        raise ParamOutOfRange(f"key field {name} must be an integer, got {value!r}")
    if not (lo < value < hi):
        raise ParamOutOfRange(
            f"key field {name} must lie in ({lo:g}, {hi:g}), got {value!r}"
        )


def _key_field_value(name: str, raw):
    """Convert one JSON key field exactly, never truncating or coercing bools.

    Integer fields take integers, integral floats and integer strings; reals
    take numbers and decimal strings (which preserve all 15 digits).
    """
    integer = KEY_RANGES[name][2]
    if isinstance(raw, bool):
        raise ParamOutOfRange(f"key field {name} must be a number, got {raw!r}")
    try:
        if not integer:
            return float(raw)
        if isinstance(raw, float) and not raw.is_integer():
            raise ValueError
        return int(raw)
    except (TypeError, ValueError):
        kind = "an integer" if integer else "a number"
        raise ParamOutOfRange(f"key field {name} must be {kind}, got {raw!r}") from None


@dataclass(frozen=True)
class KeySpec:
    """The seven-parameter generation key.

    x0, a, b drive the chaotic fill (seed, control parameter, byte
    multiplier); c, d, e, f drive the refinement recurrences (integer
    offsets and real seeds).  Real fields are understood to carry 15
    decimal digits.
    """

    x0: float
    a: float
    b: int
    c: int
    d: int
    e: float
    f: float

    def __post_init__(self):
        for name in KEY_RANGES:
            _check_key_field(name, getattr(self, name))

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in KEY_RANGES}

    @classmethod
    def from_dict(cls, data: dict) -> "KeySpec":
        missing = [k for k in KEY_RANGES if k not in data]
        if missing:
            raise ParamOutOfRange(f"key object is missing fields: {', '.join(missing)}")
        extra = [k for k in data if k not in KEY_RANGES]
        if extra:
            raise ParamOutOfRange(f"key object has unknown fields: {', '.join(extra)}")
        return cls(**{name: _key_field_value(name, data[name]) for name in KEY_RANGES})


class Objective(enum.Enum):
    """Refinement objective over the table's nonlinearity profile."""

    SUM_COORDINATE_NL = "sum"
    MIN_COORDINATE_NL = "min"
    FULL_SPECTRUM_NL = "full"


@dataclass(frozen=True)
class RefineConfig:
    budget: int = 65536
    objective: Objective = Objective.SUM_COORDINATE_NL

    def __post_init__(self):
        if self.budget < 0:
            raise ParamOutOfRange(f"budget must be >= 0, got {self.budget}")


@dataclass(frozen=True)
class RefineStats:
    iterations: int
    accepted: int
    objective_initial: int
    objective_final: int


def _round_int(v: float) -> int:
    """Round to the nearest integer, halves away from zero (v >= 0 here)."""
    return int(math.floor(v + 0.5))


def initial_sbox(x0: float, a: float, b: int,
                 branch_mode: BranchMode = BranchMode.EQUATION1) -> np.ndarray:
    """Fill a fresh permutation of 0..255 from the folded chaotic orbit.

    Duplicate candidate bytes are discarded (the orbit simply advances);
    GenerationStall is raised if 10^6 consecutive candidates are discarded
    without placing a value.
    """
    _check_key_field("x0", x0)
    _check_key_field("b", int(b))
    params = MapParams(MapKind.AHYB, a, branch_mode)  # validates a

    table = np.empty(256, dtype=np.uint8)
    seen = bytearray(256)
    placed = 0
    misses = 0
    x = float(x0)
    while placed < 256:
        x = _advance(params, x, fold=True)
        v = _round_int(x * b) % 256
        if seen[v]:
            misses += 1
            if misses >= _STALL_LIMIT:
                raise GenerationStall(
                    f"discarded {misses} consecutive duplicate candidates "
                    f"({placed} of 256 placed); orbit is degenerate"
                )
        else:
            seen[v] = 1
            table[placed] = v
            placed += 1
            misses = 0
    return table


def _index_step(offset: int, state: float, reciprocal: bool) -> tuple:
    """One guarded recurrence step; returns (next_state, swap_index)."""
    s = state if state > 1e-12 else 1e-12
    if reciprocal:
        cs = math.cos(s)
        while abs(cs) < 1e-12:
            s += 1e-9
            cs = math.cos(s)
        v = offset + s**2.5 + 2.0 * math.log10(s) * math.log(s) + 1.0 / cs
    else:
        v = offset + s**2.5 + math.log10(s) * math.log(s) + math.cos(s)
    v = round15(abs(v))
    if not math.isfinite(v):
        raise NumericGuardTripped(f"index recurrence produced {v!r}")
    return abs(v % 256.0), _round_int(v) % 256


# Per objective: tracked output masks, how their nonlinearities aggregate,
# and how many scheduled swaps are scored per block.  A block holds
# block x len(masks) x 256 candidate spectrum cells, so the 255-mask
# objective takes small blocks.
_OBJECTIVES = {
    Objective.SUM_COORDINATE_NL: (COORD_MASKS, np.sum, 64),
    Objective.MIN_COORDINATE_NL: (COORD_MASKS, np.min, 64),
    Objective.FULL_SPECTRUM_NL: (np.arange(1, 256), np.min, 4),
}


def _swap_schedule(c: int, d: int, e: float, f: float, budget: int):
    """Yield the budget's (I, J) swap pairs; they depend on the key alone."""
    x, y = float(e), float(f)
    for _ in range(budget):
        x, i = _index_step(c, x, reciprocal=True)
        y, j = _index_step(d, y, reciprocal=False)
        yield i, j


def refine_sbox(box, c: int, d: int, e: float, f: float,
                config: RefineConfig = RefineConfig()) -> tuple:
    """Hill-climb a permutation with the key-dependent swap schedule.

    Returns (refined table, RefineStats).  The objective never decreases:
    a swap is kept only when it strictly improves the objective, so
    objective_final >= objective_initial always, and budget 0 returns the
    input unchanged.
    """
    table = as_sbox(box).copy()
    _check_key_field("c", c)
    _check_key_field("d", d)
    _check_key_field("e", e)
    _check_key_field("f", f)

    masks, agg, block = _OBJECTIVES[config.objective]
    hadamard = _hadamard().astype(np.int16)
    signs = mask_sign_matrix(table, masks).astype(np.int16)
    walsh = fwht(signs).astype(np.int16)
    best = initial = int(agg(_nl_from_spectra(walsh)))
    accepted = 0
    schedule = _swap_schedule(c, d, e, f, config.budget)
    pending = []
    while True:
        pending += itertools.islice(schedule, block - len(pending))
        if not pending:
            break
        i, j = np.array(pending).T
        # rank-one update of every tracked spectrum, one candidate per pair;
        # an i == j entry scores the current table and is never accepted,
        # just as the loop skips it
        delta = (signs[:, j] - signs[:, i]).T
        cand = walsh + delta[:, :, None] * (hadamard[i] - hadamard[j])[:, None, :]
        nls = _nl_from_spectra(cand.reshape(-1, 256)).reshape(len(pending), -1)
        scores = agg(nls, axis=1)
        hits = np.flatnonzero(scores > best)
        if not hits.size:
            pending.clear()
            continue
        k = int(hits[0])
        p, q = int(i[k]), int(j[k])
        table[p], table[q] = table[q], table[p]
        signs[:, [p, q]] = signs[:, [q, p]]
        walsh = cand[k].copy()
        best = int(scores[k])
        accepted += 1
        del pending[:k + 1]
    return table, RefineStats(config.budget, accepted, initial, best)


def generate(key: KeySpec, config: RefineConfig = RefineConfig(),
             branch_mode: BranchMode = BranchMode.EQUATION1) -> np.ndarray:
    """Full pipeline: chaotic fill, then key-dependent refinement."""
    box = initial_sbox(key.x0, key.a, key.b, branch_mode)
    refined, _ = refine_sbox(box, key.c, key.d, key.e, key.f, config)
    return refined


def keyspace_bits(counts: dict = None) -> float:
    """log2 of the number of admissible keys (product of per-field counts)."""
    counts = KEYSPACE_COUNTS if counts is None else counts
    return sum(math.log2(v) for v in counts.values())


def keyspace_report() -> dict:
    """Key-space accounting, including the published-versus-computed delta.

    The per-field candidate counts multiply out to 8e81 (~2^272.1); the
    accompanying published total is quoted as ~6e81 ~ 2^272, so the report
    carries both and their ratio.
    """
    bits = keyspace_bits()
    mantissa = 1.0
    exponent = 0
    for v in KEYSPACE_COUNTS.values():
        e = int(math.floor(math.log10(v)))
        mantissa *= v / 10.0**e
        exponent += e
    while mantissa >= 10.0:
        mantissa /= 10.0
        exponent += 1
    return {
        "counts": dict(KEYSPACE_COUNTS),
        "product_mantissa": mantissa,
        "product_exponent10": exponent,
        "bits": bits,
        "published_mantissa": 6.0,
        "published_exponent10": 81,
        "published_bits_claim": 272.0,
        "mantissa_ratio": mantissa / 6.0,
    }
