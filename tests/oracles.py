"""Reference implementations used to cross-check the fast paths.

The metric oracles follow the definitions directly (enumeration and
counting), with one exception: `spectra_reference` runs this module's
butterfly fast Walsh transform, `fwht`, over each component's sign table, a
second route to the library's single Hadamard matrix product for all 255
output masks.  Those sign tables come from `mask_sign_matrix`, which reads
component signs from this module's own `PARITY` table, never from the
library's Hadamard matrix (the library's one sign source and one Walsh
route), so the two routes share no code: the library has no butterfly, and
its H is built from the definition by Sylvester doubling.  `fwht` of the
identity matrix must give H's bytes.
The spectra-derived metrics (nonlinearity in both modes, linear probability)
are checked against it.  `lp_direct` is itself a matrix product, so it is not
an independent route for linear probability.  `_index_step` is one step of a
swap-schedule recurrence, with `round15` and the index rounding as separate
calls, and `swap_schedule_reference` pairs the two recurrences; the
library's fused schedule loop must give the same indices.
`refine_reference` is the defining sequential hill climb: one full transform
per scheduled swap, reverted unless the objective strictly improves.  The
library's critical-cell climb must match it exactly.  `iterate_reference`
and `lyapunov_reference` are the orbit loops written with the public
`map_step`, `map_derivative` and `renormalize`, one call each per step; the
library's single-orbit kernel must match them bit for bit, warnings and
errors included.
`bifurcation_reference` and `lyapunov_sweep_reference` run one such orbit per
parameter value, which the lockstep sweeps must match in the same way.
`parse_tokens_reference` is the grid parser's line-by-line token loop; the
library's one-pass path for a clean grid must give the same array, and the
same ParseError message for any other text.
"""

import math
import warnings

import numpy as np

from sboxkit.generator import (
    Objective,
    RefineConfig,
    RefineStats,
    _check_key_field,
)
from sboxkit.boxfile import _DIGITS, _STRAY
from sboxkit.errors import (
    DegenerateOrbitWarning,
    DerivativeSkipWarning,
    DerivativeZero,
    ParseError,
)
from sboxkit.maps import (
    DERIVATIVE_FLOOR,
    RESEED,
    MapKind,
    MapParams,
    map_derivative,
    map_step,
    renormalize,
    round15,
)
from sboxkit.metrics import as_sbox


def parse_tokens_reference(text: str, base: int) -> np.ndarray:
    """A grid's 256 values, token by token and line by line; errors name the row and column."""
    digits = _DIGITS[base] if _STRAY[base].search(text) else None
    values = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        room = 256 - len(values)
        for col_no, token in enumerate(tokens[:room], start=1):
            if digits and token.strip(digits):  # holds a character that is not a digit
                raise ParseError(f"invalid value {token!r} at row {line_no}, column {col_no}")
            v = int(token, base)  # never negative: a token has no sign
            if v > 255:
                raise ParseError(
                    f"value {v} out of range [0, 255] at row {line_no}, column {col_no}"
                )
            values.append(v)
        if len(tokens) > room:
            raise ParseError(f"expected 256 values, found more (line {line_no})")
    if len(values) != 256:
        raise ParseError(f"expected 256 values, got {len(values)}")
    return np.array(values, dtype=np.uint8)


def parity(v: int) -> int:
    return bin(v).count("1") & 1


PARITY = np.array([parity(v) for v in range(256)], dtype=np.uint8)

# All 512 affine truth tables over 8 bits: parity(a & x) and its complement.
_LINEAR = PARITY[np.bitwise_and.outer(np.arange(256), np.arange(256))]
AFFINE = np.vstack([_LINEAR, 1 - _LINEAR]).astype(np.uint8)


def fwht(values) -> np.ndarray:
    """Butterfly fast Walsh-Hadamard transform along the last axis (natural order)."""
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


def mask_sign_matrix(t, masks) -> np.ndarray:
    """+-1 sign tables of the component functions for the given output masks.

    Row k is (-1)^parity(masks[k] & S(x)) over x = 0..255.
    """
    masks = np.asarray(masks, dtype=np.uint8)
    bits = PARITY[np.bitwise_and.outer(masks, np.asarray(t, dtype=np.uint8))]
    return 1 - 2 * bits.astype(np.int32)


def walsh_direct(f) -> np.ndarray:
    """O(N^2) direct summation of W(a) = sum_x (-1)^(f(x) XOR a.x)."""
    f = [int(v) for v in f]
    return np.array(
        [sum(1 - 2 * (f[x] ^ parity(a & x)) for x in range(256)) for a in range(256)],
        dtype=np.int64,
    )


def nonlinearity_affine(f) -> int:
    """Minimum Hamming distance to the 512 affine functions, by enumeration."""
    f = np.asarray(f, dtype=np.uint8)
    return int((AFFINE != f[None, :]).sum(axis=1).min())


def coordinate_nl_direct(box) -> list:
    box = np.asarray(box, dtype=np.uint8)
    return [nonlinearity_affine((box >> k) & 1) for k in range(8)]


def sac_direct(box) -> np.ndarray:
    """Definitional triple loop over input bit, input value, output bit."""
    box = [int(v) for v in box]
    m = np.zeros((8, 8), dtype=np.float64)
    for i in range(8):
        for x in range(256):
            dy = box[x] ^ box[x ^ (1 << i)]
            for j in range(8):
                if (dy >> j) & 1:
                    m[i, j] += 1
    return m / 256.0


def bic_nl_direct(box) -> np.ndarray:
    box = np.asarray(box, dtype=np.uint8)
    coords = [(box >> k) & 1 for k in range(8)]
    m = np.zeros((8, 8), dtype=np.int64)
    for i in range(8):
        for j in range(i + 1, 8):
            m[i, j] = m[j, i] = nonlinearity_affine(coords[i] ^ coords[j])
    return m


def spectra_reference(box, masks=np.arange(1, 256)) -> np.ndarray:
    """Walsh spectra of the output masks by per-row FWHT; by default row m-1 is mask m.

    `box` may be a stack of tables: row k then holds mask k's spectrum of each.
    """
    return fwht(mask_sign_matrix(box, masks))


def lp_direct(box) -> float:
    """Maximum bias by direct agreement counting over all mask pairs.

    corr[a, b] = sum_x (-1)^(a.x) * (-1)^(b.S(x)) counts agreements minus
    disagreements of the parities, so the bias is |corr| / 512.  The b = 0
    column is the trivial output mask and is excluded.
    """
    box = np.asarray(box, dtype=np.uint8)
    u = 1.0 - 2.0 * PARITY[np.bitwise_and.outer(np.arange(256), np.arange(256))]
    v = 1.0 - 2.0 * PARITY[np.bitwise_and.outer(np.arange(256), box)]
    corr = u @ v.T
    return float(np.abs(corr[:, 1:]).max() / 512.0)


def ddt_direct(box) -> np.ndarray:
    """Pure-Python difference-distribution counting."""
    box = [int(v) for v in box]
    ddt = [[0] * 256 for _ in range(256)]
    for dc in range(256):
        row = ddt[dc]
        for x in range(256):
            row[box[x] ^ box[x ^ dc]] += 1
    return np.array(ddt, dtype=np.int64)


def du_direct(box) -> int:
    return int(ddt_direct(box)[1:].max())


def _make_objective(table: np.ndarray, objective: Objective):
    """Return (evaluate, swap_columns) closures over a maintained sign matrix.

    The sign matrix has one row per tracked output mask and one column per
    input; swapping two table entries permutes two columns, so the matrix is
    maintained incrementally and the objective is a batch Walsh transform.
    """
    if objective is Objective.FULL_SPECTRUM_NL:
        masks = np.arange(1, 256)
        agg = np.min
    else:
        masks = np.array([1 << k for k in range(8)])
        agg = np.sum if objective is Objective.SUM_COORDINATE_NL else np.min
    signs = mask_sign_matrix(table, masks)

    def evaluate() -> int:
        w = fwht(signs)
        nls = (256 - np.abs(w).max(axis=1)) // 2
        return int(agg(nls))

    def swap_columns(i: int, j: int) -> None:
        signs[:, [i, j]] = signs[:, [j, i]]

    return evaluate, swap_columns


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
    assert math.isfinite(v), f"index recurrence produced {v!r}"  # the guards bound |v|
    return abs(v % 256.0), int(math.floor(v + 0.5)) % 256


def swap_schedule_reference(c: int, d: int, e: float, f: float, budget: int) -> list:
    """The budget's (I, J) swap pairs, one `_index_step` of each recurrence per entry."""
    x, y = float(e), float(f)
    pairs = []
    for _ in range(budget):
        x, i = _index_step(c, x, reciprocal=True)
        y, j = _index_step(d, y, reciprocal=False)
        pairs.append((i, j))
    return pairs


def refine_reference(box, c: int, d: int, e: float, f: float,
                     config: RefineConfig = RefineConfig()) -> tuple:
    """Sequential hill climb: swap, re-transform, keep only strict gains."""
    table = as_sbox(box).copy()
    _check_key_field("c", c)
    _check_key_field("d", d)
    _check_key_field("e", e)
    _check_key_field("f", f)

    evaluate, swap_columns = _make_objective(table, config.objective)
    best = evaluate()
    initial = best
    accepted = 0
    for i, j in swap_schedule_reference(c, d, e, f, config.budget):
        if i == j:
            continue
        table[i], table[j] = table[j], table[i]
        swap_columns(i, j)
        cand = evaluate()
        if cand > best:
            best = cand
            accepted += 1
        else:
            table[i], table[j] = table[j], table[i]
            swap_columns(i, j)
    return table, RefineStats(config.budget, accepted, initial, best)


def _advance(params, x: float) -> float:
    """One orbit step: the raw map, then for AHYB the fold and the reseed of a 0."""
    x = map_step(params, x)
    if params.kind is MapKind.AHYB:
        x = renormalize(x)
        if x == 0.0:
            warnings.warn(
                "folded state hit 0 exactly; reseeding to 1e-12",
                DegenerateOrbitWarning,
                stacklevel=3,
            )
            x = RESEED
    return x


def iterate_reference(params, x0, transient, n) -> np.ndarray:
    """The `n` states after `transient` discarded steps, one `_advance` per step."""
    if transient < 0 or n < 0:
        raise ValueError("transient and n must be non-negative")
    x = float(x0)
    for _ in range(transient):
        x = _advance(params, x)
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        x = _advance(params, x)
        out[i] = x
    return out


def lyapunov_reference(params, x0, transient, n) -> float:
    """Mean of ln|map_derivative| over `n` states after `transient` steps."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if transient < 0:
        raise ValueError("transient must be non-negative")
    x = float(x0)
    for _ in range(transient):
        x = _advance(params, x)
    total = 0.0
    used = 0
    skipped = 0
    for _ in range(n):
        d = abs(map_derivative(params, x))
        if d < DERIVATIVE_FLOOR:
            skipped += 1
        else:
            total += math.log(d)
            used += 1
        x = _advance(params, x)
    if skipped:
        if skipped > 0.01 * n:
            raise DerivativeZero(
                f"{skipped} of {n} samples had |f'| < {DERIVATIVE_FLOOR:g}"
            )
        warnings.warn(
            f"skipped {skipped} of {n} Lyapunov samples with |f'| < {DERIVATIVE_FLOOR:g}",
            DerivativeSkipWarning,
            stacklevel=2,
        )
    return total / used


def bifurcation_reference(kind, param_lo, param_hi, steps, x0, transient, samples,
                          branch_mode) -> np.ndarray:
    """The parameter scan as a loop of single orbits: one `iterate_reference` per value."""
    values = np.linspace(param_lo, param_hi, steps)
    out = np.empty((steps * samples, 2), dtype=np.float64)
    for k, p in enumerate(values):
        block = out[k * samples:(k + 1) * samples]
        block[:, 0] = p
        block[:, 1] = iterate_reference(MapParams(kind, float(p), branch_mode), x0, transient,
                                        samples)
    return out


def lyapunov_sweep_reference(kind, values, x0, transient, n, branch_mode) -> np.ndarray:
    """One `lyapunov_reference` per parameter value, in order."""
    return np.array([lyapunov_reference(MapParams(kind, float(p), branch_mode), x0, transient, n)
                     for p in values], dtype=np.float64)
