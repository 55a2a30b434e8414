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
it exactly.  The schedule depends on c, d, e, f alone, so one scalar loop
(same libm calls, same order) computes it into byte arrays, one block at a
time as the climb reaches each block.  A rejected swap leaves the table as
it was, so a block of upcoming entries is scored against the current table:
the first that beats the objective is the swap the loop accepts next, and
scoring resumes after it.  Swapping i and j adds
(s_b(j) - s_b(i)) * (H[i] - H[j]) to the spectrum of component b (s_b its
+-1 signs, H the 256x256 Hadamard matrix), so each cell moves by 0 or +-4
(Millan, ACISP 1998; Clark and Jacob, ACISP 2000).  The start state comes
from the same H: s_b(x) = H[b, S(x)], and the spectra are the battery's
product H[b, S] @ H.  With M a peak (a row's max |W| for the sum, the max
over all rows for min and full), a cell at most M - 8 ends at most at
M - 4 and a cell at M at least at M - 4.  So only the critical cells,
|W| > M - 8, can set the new peak, whether or not W is divisible by 4, and
blocks are scored at those few cells alone.

The same rank-one term gives an exact stop.  A swap (p, q) lowers a peak
cell (b, a) only if s_b(p) != s_b(q) and s_b(x) * H[x, a] = sign W_b(a) for
x = p and x = q.  A gain lowers every peak cell of some row for the sum,
and every cell at the global peak for min and full, so only the few pairs
that meet both conditions at all those cells can gain.  Once 2,048 entries
pass without an accept, those pairs are scored once at the critical cells;
if none beats the objective, no swap of the current table can, every entry
left is a rejection, and the climb is over.

So the climb is one pass over the schedule.  Each block is scanned for
accepts; each accept builds the next table's view (its critical cells,
scorer and stop-test candidates) once; after a block, the stop test may
run; and a proof or the end of the budget leads to the one exit, with the
stats of the whole budget.  Most climbs stop before the budget ends: on the
golden key the climb computes 7,168 schedule entries for the sum, 2,560 for
min and 2,304 for full, of 65,536.  An entry costs about 1.2-2.1 us of
scalar libm, most of a refine.  Over the first 30 keys of the benchmark's
seed-42 `keygen` workload, a default-budget refine took a median of
40-60 ms for the sum and 4-8 ms for min and full (one BLAS thread, a 2-core
x86-64 machine, Python 3.11, numpy 2.4), against 0.09-0.18 s when every
entry is computed; `generate` adds under a millisecond for the fill.

The recurrences are guarded: the state is clamped to >= 1e-12 before the log
terms, and if |cos(x)| < 1e-12 the state is nudged by 1e-9 before taking the
reciprocal.  Both stages are deterministic functions of the key.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import GenerationStall, ParamOutOfRange, check_member, check_number
from .maps import BranchMode, MapKind, MapParams, _kernel
from .metrics import COORD_MASKS, _all_mask_spectra, _hadamard, _nl_from_spectra, as_sbox

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
    check_number(f"key field {name}", value, *KEY_RANGES[name])


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
        """The key a JSON object holds; fields are read by `_key_field_value`."""
        if not isinstance(data, dict):
            raise ParamOutOfRange(f"key must be a JSON object, got {type(data).__name__}")
        missing = [k for k in KEY_RANGES if k not in data]
        if missing:
            raise ParamOutOfRange(f"missing key fields: {', '.join(missing)}")
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
        if check_number("budget", self.budget, integer=True) < 0:
            raise ParamOutOfRange(f"budget must be >= 0, got {self.budget}")
        check_member("objective", self.objective, Objective)


@dataclass(frozen=True)
class RefineStats:
    iterations: int
    accepted: int
    objective_initial: int
    objective_final: int


def initial_sbox(x0: float, a: float, b: int,
                 branch_mode: BranchMode = BranchMode.EQUATION1) -> np.ndarray:
    """Fill a fresh permutation of 0..255 from the folded chaotic orbit.

    Duplicate candidate bytes are discarded (the orbit simply advances);
    GenerationStall is raised if 10^6 consecutive candidates are discarded
    without placing a value.
    """
    _check_key_field("x0", x0)
    _check_key_field("b", b)
    stretch = _kernel(MapParams(MapKind.AHYB, a, branch_mode))  # validates a

    table = bytearray(256)
    seen = bytearray(256)
    placed = 0
    misses = 0
    limit = _STALL_LIMIT
    floor = math.floor
    scale = float(b)  # exact (b < 2**53), so s * scale rounds as s * b
    x = float(x0)
    while placed < 256:
        # each step places one byte or adds one miss, so a stretch of this
        # many steps ends at the last placement or the stall at the latest
        count = 256 - placed
        if misses > limit - count:
            count = limit - misses
        states = []
        x = stretch(x, count, states)
        for s in states:
            v = floor(s * scale + 0.5) % 256  # round half up; s * b >= 0
            if seen[v]:
                misses += 1
                if misses >= limit:
                    raise GenerationStall(
                        f"discarded {misses} consecutive duplicate candidates "
                        f"({placed} of 256 placed); orbit is degenerate"
                    )
            else:
                seen[v] = 1
                table[placed] = v
                placed += 1
                misses = 0
    return np.frombuffer(table, dtype=np.uint8)


_BLOCK = 256  # schedule entries computed, and candidate swaps scored, at once
_STOP_AFTER = 2048  # entries scanned without an accept before the stop test


def _swap_schedule(c: int, d: int, e: float, f: float, budget: int):
    """Yield the budget's swap indices (I, J) as uint8 arrays of _BLOCK entries.

    Both recurrences advance only as blocks are drawn, so a climb that stops
    early never computes the rest; the last block may be shorter.  The
    rounded values are never negative, so round15 and the index rounding
    are floor(v + 0.5), and |v mod 256| is v mod 256.  They are also always
    finite: a state s is clamped into [1e-12, 256) (plus at most a 1e-9
    nudge), the nudge leaves |cos(s)| >= 1e-12, and c, d < 1e9, so
    |v| < 1.01e12 and v * 1e15 is far below the float range.
    """
    floor, log10, log, cos = math.floor, math.log10, math.log, math.cos
    x, y = float(e), float(f)
    for start in range(0, budget, _BLOCK):
        size = min(_BLOCK, budget - start)
        si, sj = bytearray(size), bytearray(size)
        for k in range(size):
            s = x if x > 1e-12 else 1e-12
            cs = cos(s)
            while abs(cs) < 1e-12:
                s += 1e-9
                cs = cos(s)
            v = floor(abs(c + s**2.5 + 2.0 * log10(s) * log(s) + 1.0 / cs) * 1e15 + 0.5) / 1e15
            x, si[k] = v % 256.0, floor(v + 0.5) & 255
            s = y if y > 1e-12 else 1e-12
            v = floor(abs(d + s**2.5 + log10(s) * log(s) + cos(s)) * 1e15 + 0.5) / 1e15
            y, sj[k] = v % 256.0, floor(v + 0.5) & 255
        yield np.frombuffer(si, np.uint8), np.frombuffer(sj, np.uint8)


def _climb_view(walsh, signs, hadamard, per_row) -> tuple:
    """The scorer of one table's swaps, and its stop test's candidate pairs.

    Returns (score, candidates).  `score(i, j)` gives the objective after
    each swap (i[k], j[k]), read at the critical cells alone; `candidates()`
    gives the swaps (p, q), p < q, that lower every peak cell of some row
    (sum) or every cell at the global peak (min, full), as two index arrays:
    no other swap can gain (module docstring).  Built once per accepted table.
    """
    # the critical cells, |W| > M - 8 for each peak M (module docstring)
    mag = np.abs(walsh)
    peak = mag.max(axis=1)
    if not per_row:
        peak[:] = peak.max()
    critical = mag > (peak - 8)[:, None]
    rows, cols = np.nonzero(critical)
    # one row of cell numbers per peak, padded with its last cell
    counts = critical.sum(axis=1, keepdims=True) if per_row else np.array([[len(rows)]])
    ends = np.cumsum(counts)[:, None]
    groups = np.minimum(ends - counts + np.arange(counts.max()), ends - 1)
    # row x: s_b(x), then H[x, a], of each cell (b, a)
    cell_w, n = walsh[rows, cols], len(rows)
    cell_sh = np.concatenate([signs[rows], hadamard[cols]]).T.copy()

    def score(i, j):
        # W + (s(j) - s(i)) * (H[i] - H[j]) at every cell, one row per
        # swap; an i == j entry scores the current table, never a gain
        diff = cell_sh[j] - cell_sh[i]
        moved = np.abs(cell_w - diff[:, :n] * diff[:, n:])
        return ((256 - moved[:, groups].max(axis=2)) // 2).sum(axis=1)

    def candidates():
        at = np.flatnonzero(np.abs(cell_w) == peak[rows])  # the peak cells
        # lowers[x, k]: s_b(x) * H[x, a] = sign W_b(a) at peak cell k = (b, a)
        lowers = cell_sh[:, at] * cell_sh[:, n + at] == np.sign(cell_w[at])
        at_rows = rows[at]
        codes = []
        for cells in [at_rows == b for b in np.unique(at_rows)] if per_row else [slice(None)]:
            x = np.flatnonzero(lowers[:, cells].all(axis=1))
            s = signs[np.unique(at_rows[cells])][:, x]
            # s_b(p) != s_b(q) in each of the group's rows
            p, q = np.nonzero(np.triu(s.T @ s == -len(s)))
            codes.append(x[p] * 256 + x[q])
        codes = np.unique(np.concatenate(codes))
        return codes >> 8, codes & 255

    return score, candidates


def refine_sbox(box, c: int, d: int, e: float, f: float,
                config: RefineConfig = RefineConfig()) -> tuple:
    """Hill-climb a permutation with the key-dependent swap schedule.

    Returns (refined table, RefineStats).  The objective never decreases:
    a swap is kept only when it strictly improves the objective, so
    objective_final >= objective_initial always, and budget 0 returns the
    input unchanged.
    """
    table = as_sbox(box).copy()
    for name, value in zip("cdef", (c, d, e, f)):
        _check_key_field(name, value)
    full = config.objective is Objective.FULL_SPECTRUM_NL
    per_row = config.objective is Objective.SUM_COORDINATE_NL
    hadamard = _hadamard().astype(np.int16)
    masks = np.arange(1, 256) if full else np.array(COORD_MASKS)
    signs = hadamard[masks][:, table]
    walsh = _all_mask_spectra(table, masks).astype(np.int16)
    best = initial = int((np.sum if per_row else np.min)(_nl_from_spectra(walsh)))
    accepted = 0
    score, candidates = _climb_view(walsh, signs, hadamard, per_row)
    quiet, tested = 0, False  # entries scanned since the last accept
    for i, j in _swap_schedule(c, d, e, f, config.budget):
        while len(i):
            scores = score(i, j)
            hits = np.flatnonzero(scores > best)
            if not hits.size:
                quiet += len(i)
                break
            k = int(hits[0])
            p, q = int(i[k]), int(j[k])
            walsh += (signs[:, q] - signs[:, p])[:, None] * (hadamard[p] - hadamard[q])
            table[p], table[q] = table[q], table[p]
            signs[:, [p, q]] = signs[:, [q, p]]
            best = int(scores[k])
            accepted += 1
            score, candidates = _climb_view(walsh, signs, hadamard, per_row)
            quiet, tested = 0, False
            i, j = i[k + 1:], j[k + 1:]
        if not tested and quiet >= _STOP_AFTER:
            # once per table: if no swap at all can gain, every entry left
            # is a rejection and the climb is over
            tested = True
            p, q = candidates()
            if not any((score(p[k:k + _BLOCK], q[k:k + _BLOCK]) > best).any()
                       for k in range(0, len(p), _BLOCK)):
                break
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
    product = math.prod(int(v) for v in KEYSPACE_COUNTS.values())
    exponent = len(str(product)) - 1
    mantissa = product / 10**exponent
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
