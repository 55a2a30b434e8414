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
multiply-adds BLAS sums.  The DDT is one bincount over the cells
(dc << 8) | (S(x) XOR S(x XOR dc)).  H and the x XOR dc index grid are built
on first use and shared read-only; the generator's rank-one swap updates use
the same H.

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

from .errors import NonBijectiveWarning, NotBijective

N = 256
COORD_MASKS = tuple(1 << k for k in range(8))

# parity[v] = popcount(v) mod 2 for v in 0..255
_PARITY = np.array([bin(v).count("1") & 1 for v in range(N)], dtype=np.uint8)


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


def is_bijective(table) -> bool:
    t = np.asarray(table)
    return t.shape == (N,) and len(np.unique(t)) == N


def as_sbox(table, allow_non_bijective: bool = False) -> np.ndarray:
    """Validate and return `table` as a uint8 array of length 256.

    Raises NotBijective for a non-permutation unless allow_non_bijective is
    set, in which case a NonBijectiveWarning is emitted and the raw table is
    returned.
    """
    t = np.asarray(table)
    if t.shape != (N,):
        raise NotBijective(f"S-box must have exactly {N} entries, got shape {t.shape}")
    if not np.issubdtype(t.dtype, np.integer):
        raise NotBijective("S-box entries must be integers")
    if t.min() < 0 or t.max() > 255:
        raise NotBijective("S-box entries must lie in [0, 255]")
    t = t.astype(np.uint8)
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
    """Truth table of one component function: bits[x] = parity(mask & S(x))."""
    if not 1 <= mask <= 255:
        raise ValueError(f"output mask must lie in [1, 255], got {mask}")
    t = np.asarray(box, dtype=np.uint8)
    return _PARITY[t & np.uint8(mask)]


def fwht(values) -> np.ndarray:
    """Fast Walsh-Hadamard transform along the last axis (natural order)."""
    out = np.ascontiguousarray(values, dtype=np.int32).copy()
    n = out.shape[-1]
    if n & (n - 1):
        raise ValueError("transform length must be a power of two")
    h = 1
    while h < n:
        shaped = out.reshape(-1, n // (2 * h), 2, h)
        top = shaped[:, :, 0, :] + shaped[:, :, 1, :]
        bot = shaped[:, :, 0, :] - shaped[:, :, 1, :]
        shaped[:, :, 0, :] = top
        shaped[:, :, 1, :] = bot
        h *= 2
    return out


def walsh_spectrum(f) -> np.ndarray:
    """Exact integer spectrum W(a) = sum_x (-1)^(f(x) XOR a.x) of a truth table."""
    bits = np.asarray(f)
    if bits.shape != (N,):
        raise ValueError(f"truth table must have {N} entries, got shape {bits.shape}")
    signs = 1 - 2 * bits.astype(np.int32)
    return fwht(signs)


def nonlinearity(f) -> int:
    """Hamming distance of a truth table to the nearest affine function."""
    w = walsh_spectrum(f)
    return int((N - np.abs(w).max()) // 2)


# ---------------------------------------------------------------------------
# Internals shared by the aggregate report (operate on validated tables)

def mask_sign_matrix(t: np.ndarray, masks) -> np.ndarray:
    """+-1 sign tables of the component functions for the given output masks.

    Row k is (-1)^parity(masks[k] & S(x)) over x = 0..255.
    """
    masks = np.asarray(masks, dtype=np.uint8)
    bits = _PARITY[np.bitwise_and.outer(masks, np.asarray(t, dtype=np.uint8))]
    return 1 - 2 * bits.astype(np.int32)


@functools.cache
def _hadamard() -> np.ndarray:
    """The 256x256 Hadamard matrix, H[i, a] = (-1)^(i.a), built on first use."""
    h = fwht(np.eye(N, dtype=np.int32)).astype(np.float32)
    h.flags.writeable = False  # one shared instance
    return h


@functools.cache
def _xor_table() -> np.ndarray:
    """x ^ dc at [dc, x], the input pairs of every DDT row, built on first use."""
    x = np.arange(N)
    table = x[:, None] ^ x
    table.flags.writeable = False
    return table


def _all_mask_spectra(t: np.ndarray) -> np.ndarray:
    """Walsh spectra of every nonzero output mask; row m-1 is mask m.

    H[m, t] is the sign table of component m; the float32 product is exact
    (see the module docstring).
    """
    h = _hadamard()
    return (h[1:, t] @ h).astype(np.int32)


def _nl_from_spectra(spectra: np.ndarray) -> np.ndarray:
    return (N - np.abs(spectra).max(axis=1)) // 2


def _lp_from_nls(nls: np.ndarray) -> float:
    """max |W| / 512, from NL = (256 - max |W|) / 2; exact since every W is even."""
    return (N - 2 * int(nls.min())) / 512


def _nl_summary(nls: np.ndarray, mode: NLMode) -> NLSummary:
    coord = tuple(int(nls[m - 1]) for m in COORD_MASKS)
    pool = np.array(coord) if mode is NLMode.COORDINATE else nls
    return NLSummary(int(pool.min()), int(pool.max()), float(pool.mean()), coord)


def _sac(t: np.ndarray) -> SacResult:
    x = np.arange(N)
    m = np.empty((8, 8), dtype=np.float64)
    for i in range(8):
        d = t[x] ^ t[x ^ (1 << i)]
        for j in range(8):
            m[i, j] = np.count_nonzero(d & (1 << j)) / N
    avg = float(m.mean())
    return SacResult(m, avg, abs(avg - 0.5))


def _bic_nl_matrix(nls: np.ndarray) -> BicNlResult:
    m = np.zeros((8, 8), dtype=np.int64)
    for i in range(8):
        for j in range(i + 1, 8):
            v = int(nls[((1 << i) | (1 << j)) - 1])
            m[i, j] = m[j, i] = v
    return BicNlResult(m, float(m.sum() / 56))


def _ddt(t: np.ndarray) -> np.ndarray:
    """All 256 rows in one bincount over the cells (dc << 8) | dy."""
    cells = np.arange(0, N * N, N)[:, None] | (t ^ t[_xor_table()])
    return np.bincount(cells.ravel(), minlength=N * N).reshape(N, N)


def _du(ddt: np.ndarray) -> DuResult:
    row_max = ddt[1:].max(axis=1)
    du = int(row_max.max())
    grid = np.zeros(N, dtype=np.int64)
    grid[:255] = row_max
    return DuResult(du, du / N, grid.reshape(16, 16))


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

    Defined for any 256-entry table; bijectivity is not required.
    """
    t = np.asarray(box)
    if t.shape != (N,):
        raise ValueError(f"S-box must have {N} entries, got shape {t.shape}")
    return _ddt(t.astype(np.uint8))


def differential_uniformity(box, allow_non_bijective: bool = False) -> DuResult:
    """DU, DP = DU/256 and the 16x16 grid of row maxima for dc = 1..255.

    The final grid cell (dc = 256 = 0 mod 256) is a structural zero; the
    scalar DU is independent of that layout choice.
    """
    t = as_sbox(box, allow_non_bijective)
    return _du(_ddt(t))


def fixed_points(box) -> list:
    """All indices i with S(i) = i, ascending."""
    t = np.asarray(box)
    if t.shape != (N,):
        raise ValueError(f"S-box must have {N} entries, got shape {t.shape}")
    return [int(i) for i in np.nonzero(t == np.arange(N))[0]]


@dataclass(eq=False)
class MetricReport:
    """Aggregated results of the full battery for one S-box."""

    nl_min: int
    nl_max: int
    nl_avg: float
    nl_per_coordinate: tuple
    nl_mode: NLMode
    sac_matrix: np.ndarray
    sac_avg: float
    sac_offset: float
    bic_nl_matrix: np.ndarray
    bic_nl_avg: float
    lp: float
    du: int
    dp: float
    du_grid: np.ndarray
    fixed_point_count: int
    fixed_points: tuple
    bijective: bool


def full_report(box, nl_mode: NLMode = NLMode.COORDINATE,
                allow_non_bijective: bool = False) -> MetricReport:
    """Run the whole battery and aggregate it into one MetricReport."""
    t = as_sbox(box, allow_non_bijective)

    nls = _nl_from_spectra(_all_mask_spectra(t))
    nl = _nl_summary(nls, nl_mode)
    bic = _bic_nl_matrix(nls)
    sac = _sac(t)
    du = _du(_ddt(t))
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
