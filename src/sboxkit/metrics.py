"""Cryptanalytic battery for 8x8 substitution boxes.

Implements the standard metric suite over a 256-entry byte permutation S:

* nonlinearity of Boolean components via the Walsh-Hadamard spectrum,
  NL(f) = (2^8 - max_a |W(a)|) / 2 with W(a) = sum_x (-1)^(f(x) XOR a.x);
* strict avalanche criterion as the 8x8 dependency matrix
  P(output bit j flips | input bit i flipped);
* bit-independence (BIC-NL): nonlinearity of f_i XOR f_j for every pair of
  coordinate functions;
* linear approximation probability
  LP = max_{b!=0, a} |#{x : a.x = b.S(x)} / 256 - 1/2| = max |W_b(a)| / 512;
* the full difference distribution table, differential uniformity
  DU = max_{dc!=0, dy} DDT[dc][dy] and DP = DU/256;
* fixed points and bijectivity.

An S-box is represented as a numpy uint8 array of length 256.  All functions
are pure; identical inputs give identical outputs.

The battery runs in one pass per table.  Row b of the component sign matrix
is H[b, S(x)] for the 256x256 Hadamard matrix H[i, a] = (-1)^(i.a), so the
spectra of all 255 nonzero output masks (the linear approximation table, the
correlation matrix of Daemen & Rijmen, The Design of Rijndael, 2002) are the
single product H[1:, S] @ H.  It runs in float32 and is exact: every term is
+-1 and every partial sum is an integer of magnitude at most 256, far inside
float32's 24-bit significand, in whatever order or with whatever fused
multiply-adds BLAS sums.  DDT rows are counted by one bincount over the
cells (dc << 8) | (S(x) XOR S(x XOR dc)); DU needs only each row's maximum,
so it counts the rows a block at a time and never holds the whole table.
H is built from its definition by Sylvester doubling, and it and the
x XOR dc index grid are built on first use and shared read-only.  H is the
one source of component signs and the one Walsh route: `walsh_spectrum` is
the sign row (-1)^f(x) times H, the generator's start spectrum and its
rank-one swap updates use the same H, and so does `component_bits`.

Coordinate ("per output bit") aggregation is the default nonlinearity
presentation; the rigorous minimum over all 255 nonzero output masks is
available as NLMode.FULL_SPECTRUM.
"""

import enum
import functools
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NonBijectiveWarning, NotBijective, check_member, check_number

N = 256
COORD_MASKS = tuple(1 << k for k in range(8))


class NLMode(enum.Enum):
    COORDINATE = "coord"
    FULL_SPECTRUM = "full"


class NLSummary(NamedTuple):
    minimum: int
    maximum: int
    average: float
    per_coordinate: tuple


class SacResult(NamedTuple):
    matrix: np.ndarray  # (8, 8) float64, entries are multiples of 1/256
    average: float
    offset: float


class BicNlResult(NamedTuple):
    matrix: np.ndarray  # (8, 8) int, zero diagonal, symmetric
    average: float


class DuResult(NamedTuple):
    du: int
    dp: float
    grid: np.ndarray  # (16, 16) row maxima for dc = 1..255, final cell 0


def _table(box) -> np.ndarray:
    """`box` as a uint8 array, if it holds exactly 256 integers in 0..255.

    The one table check: every function that takes a table calls it, and
    anything else raises NotBijective rather than being coerced.
    """
    t = np.asarray(box)
    if t.shape != (N,):
        raise NotBijective(f"S-box must have exactly {N} entries, got shape {t.shape}")
    if not np.issubdtype(t.dtype, np.integer):
        raise NotBijective("S-box entries must be integers")
    if t.min() < 0 or t.max() > 255:
        raise NotBijective("S-box entries must lie in [0, 255]")
    return t.astype(np.uint8)


def _truth_table(f) -> np.ndarray:
    """`f` as a uint8 array, if it holds exactly 256 bits (0/1 integers or bools).

    The one truth-table check, as `_table` is for tables: anything else
    raises ValueError rather than being coerced.
    """
    bits = np.asarray(f)
    if bits.shape != (N,):
        raise ValueError(f"truth table must have {N} entries, got shape {bits.shape}")
    if bits.dtype.kind not in "biu":
        raise ValueError("truth table entries must be integers or bools")
    if bits.min() < 0 or bits.max() > 1:
        raise ValueError("truth table entries must be 0 or 1")
    return bits.astype(np.uint8)


def is_bijective(table) -> bool:
    try:
        return len(np.unique(_table(table))) == N
    except NotBijective:
        return False


def as_sbox(table, allow_non_bijective: bool = False) -> np.ndarray:
    """Validate and return `table` as a uint8 array of length 256.

    Raises NotBijective for a non-permutation unless allow_non_bijective is
    set, in which case a NonBijectiveWarning is emitted and the raw table is
    returned.
    """
    t = _table(table)
    if len(np.unique(t)) != N:
        if not allow_non_bijective:
            raise NotBijective("table is not a permutation of 0..255")
        warnings.warn(
            "computing metrics for a non-bijective table",
            NonBijectiveWarning,
            stacklevel=3,
        )
    return t


def component_bits(box, mask: int) -> np.ndarray:
    """Truth table of component `mask`: bits[x] = parity(mask & S(x)), i.e. H[mask, S(x)] < 0."""
    check_number("output mask", mask, 0, 255, integer=True, hi_closed=True)
    return (_hadamard()[mask, _table(box)] < 0).astype(np.uint8)


def walsh_spectrum(f) -> np.ndarray:
    """Exact integer spectrum W(a) = sum_x (-1)^(f(x) XOR a.x) of a truth table, as (-1)^f @ H."""
    signs = 1 - 2 * _truth_table(f).astype(np.float32)
    return (signs @ _hadamard()).astype(np.int32)


def nonlinearity(f) -> int:
    """Hamming distance of a truth table to the nearest affine function."""
    w = walsh_spectrum(f)
    return int((N - np.abs(w).max()) // 2)


# ---------------------------------------------------------------------------
# Internals shared by the aggregate report (operate on validated tables)

@functools.cache
def _hadamard() -> np.ndarray:
    """The 256x256 Hadamard matrix, H[i, a] = (-1)^(i.a), built on first use.

    Sylvester's doubling H <- [[H, H], [H, -H]] from [[1]]: the top bit of
    i and a flips the sign exactly when both are set.
    """
    h = np.ones((1, 1), dtype=np.float32)
    while len(h) < N:
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False  # one shared instance
    return h


@functools.cache
def _xor_table() -> np.ndarray:
    """x ^ dc at [dc, x], the input pairs of every DDT row, built on first use."""
    x = np.arange(N)
    table = x[:, None] ^ x
    table.flags.writeable = False
    return table


def _all_mask_spectra(t: np.ndarray, masks=slice(1, None)) -> np.ndarray:
    """Walsh spectra of the output masks `masks`, by default every nonzero one (row m-1 is mask m).

    H[m, t] is the sign table of component m; the float32 product is exact
    (see the module docstring).
    """
    h = _hadamard()
    return (h[masks][:, t] @ h).astype(np.int32)


def _nl_from_spectra(spectra: np.ndarray) -> np.ndarray:
    return (N - np.abs(spectra).max(axis=1)) // 2


def _lp_from_nls(nls: np.ndarray) -> float:
    """max |W| / 512, from NL = (256 - max |W|) / 2; exact since every W is even."""
    return (N - 2 * int(nls.min())) / 512


def _nl_summary(nls: np.ndarray, mode: NLMode) -> NLSummary:
    check_member("nl_mode", mode, NLMode)
    coord = tuple(int(nls[m - 1]) for m in COORD_MASKS)
    pool = np.array(coord) if mode is NLMode.COORDINATE else nls
    return NLSummary(int(pool.min()), int(pool.max()), float(pool.mean()), coord)


def _sac(t: np.ndarray) -> SacResult:
    bits = np.arange(8)
    d = t ^ t[np.arange(N) ^ (1 << bits)[:, None]]  # d[i, x] = S(x) XOR S(x XOR 2^i)
    m = ((d[:, None, :] >> bits[:, None]) & 1).sum(axis=2) / N
    avg = float(m.mean())
    return SacResult(m, avg, abs(avg - 0.5))


def _bic_nl_matrix(nls: np.ndarray) -> BicNlResult:
    masks = np.array(COORD_MASKS)
    m = nls[(masks[:, None] | masks) - 1].astype(np.int64)
    np.fill_diagonal(m, 0)
    return BicNlResult(m, float(m.sum() / 56))


# DU counts the DDT this many rows at a time.  A block's int64 cells and
# counts are 64 KiB each, well under glibc's 128 KiB mmap threshold, so they
# are reused from the heap.  The whole table's two 512 KiB arrays would be
# mapped and handed back to the kernel on every call, costing about 220
# page faults per table.  Blocks of 24 to 64 rows ran equally fast.
_DDT_BLOCK_ROWS = 32


def _ddt(t: np.ndarray, rows=slice(None)) -> np.ndarray:
    """DDT rows `rows` (all 256 by default) in one bincount over the cells (dc << 8) | dy."""
    pairs = _xor_table()[rows]
    cells = (np.arange(len(pairs)) << 8)[:, None] | (t ^ t[pairs])
    return np.bincount(cells.ravel(), minlength=pairs.size).reshape(-1, N)


def _du(t: np.ndarray) -> DuResult:
    """DU from the row maxima for dc = 1..255, counted `_DDT_BLOCK_ROWS` rows at a time."""
    row_max = np.concatenate([_ddt(t, slice(dc, dc + _DDT_BLOCK_ROWS)).max(axis=1)
                              for dc in range(1, N, _DDT_BLOCK_ROWS)])
    du = int(row_max.max())
    return DuResult(du, du / N, np.append(row_max, 0).reshape(16, 16))


# ---------------------------------------------------------------------------
# Public per-metric operations

def sbox_nonlinearity(box, mode: NLMode = NLMode.COORDINATE,
                      allow_non_bijective: bool = False) -> NLSummary:
    """Nonlinearity summary of an S-box.

    COORDINATE mode aggregates over the 8 single-bit output masks (the
    conventional per-output-bit presentation); FULL_SPECTRUM aggregates over
    all 255 nonzero masks.  per_coordinate always holds the 8 single-bit
    values.
    """
    t = as_sbox(box, allow_non_bijective)
    return _nl_summary(_nl_from_spectra(_all_mask_spectra(t)), mode)


def sac_matrix(box, allow_non_bijective: bool = False) -> SacResult:
    """Strict-avalanche dependency matrix.

    entry(i, j) = (1/256) * #{x : bit_j(S(x) XOR S(x XOR 2^i)) = 1}, the
    probability that output bit j flips when input bit i is flipped.
    """
    return _sac(as_sbox(box, allow_non_bijective))


def bic_nl(box, allow_non_bijective: bool = False) -> BicNlResult:
    """Bit-independence matrix: entry (i, j) = NL(f_i XOR f_j), diagonal 0."""
    t = as_sbox(box, allow_non_bijective)
    return _bic_nl_matrix(_nl_from_spectra(_all_mask_spectra(t)))


def linear_probability(box, allow_non_bijective: bool = False) -> float:
    """Maximum bias of any linear approximation a.x = b.S(x), b != 0.

    Equals max |W_b(a)| / 512 over all nonzero output masks b; a multiple of
    1/256 in [0, 0.5].
    """
    t = as_sbox(box, allow_non_bijective)
    return _lp_from_nls(_nl_from_spectra(_all_mask_spectra(t)))


def difference_distribution(box) -> np.ndarray:
    """Full 256x256 DDT: counts[dc][dy] = #{x : S(x) XOR S(x XOR dc) = dy}.

    Defined for any table of 256 bytes; bijectivity is not required.
    """
    return _ddt(_table(box))


def differential_uniformity(box, allow_non_bijective: bool = False) -> DuResult:
    """DU, DP = DU/256 and the 16x16 grid of row maxima for dc = 1..255.

    The final grid cell (dc = 256 = 0 mod 256) is a structural zero; the
    scalar DU is independent of that layout choice.
    """
    t = as_sbox(box, allow_non_bijective)
    return _du(t)


def fixed_points(box) -> list:
    """All indices i with S(i) = i, ascending."""
    return [int(i) for i in np.nonzero(_table(box) == np.arange(N))[0]]


@dataclass(eq=False)
class MetricReport:
    """Aggregated results of the full battery for one S-box.

    Fields are declared in the order the JSON report lists them.
    """

    bijective: bool
    nl_mode: NLMode
    nl_min: int
    nl_max: int
    nl_avg: float
    nl_per_coordinate: tuple
    sac_avg: float
    sac_offset: float
    sac_matrix: np.ndarray
    bic_nl_avg: float
    bic_nl_matrix: np.ndarray
    lp: float
    du: int
    dp: float
    du_grid: np.ndarray
    fixed_point_count: int
    fixed_points: tuple


def full_report(box, nl_mode: NLMode = NLMode.COORDINATE,
                allow_non_bijective: bool = False) -> MetricReport:
    """Run the whole battery and aggregate it into one MetricReport."""
    t = as_sbox(box, allow_non_bijective)

    nls = _nl_from_spectra(_all_mask_spectra(t))
    nl = _nl_summary(nls, nl_mode)
    bic = _bic_nl_matrix(nls)
    sac = _sac(t)
    du = _du(t)
    fp = fixed_points(t)

    return MetricReport(
        nl_min=nl.minimum,
        nl_max=nl.maximum,
        nl_avg=nl.average,
        nl_per_coordinate=nl.per_coordinate,
        nl_mode=nl_mode,
        sac_matrix=sac.matrix,
        sac_avg=sac.average,
        sac_offset=sac.offset,
        bic_nl_matrix=bic.matrix,
        bic_nl_avg=bic.average,
        lp=_lp_from_nls(nls),
        du=du.du,
        dp=du.dp,
        du_grid=du.grid,
        fixed_point_count=len(fp),
        fixed_points=tuple(fp),
        bijective=is_bijective(t),
    )
