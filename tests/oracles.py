"""Reference implementations used to cross-check the fast paths.

The metric oracles follow the definitions directly (enumeration and
counting), with one exception: `spectra_reference` runs the butterfly fast
Walsh transform over each component's sign table, a second route to the
library's single Hadamard matrix product for all 255 output masks.  The
spectra-derived metrics (nonlinearity in both modes, linear probability) are
checked against it.  `lp_direct` is itself a matrix product, so it is not an
independent route for linear probability.  `refine_reference` is the defining
sequential hill climb: one full transform per scheduled swap, reverted unless
the objective strictly improves.  The library's block-scored climb must match
it exactly.  `bifurcation_reference` and `lyapunov_sweep_reference` run one
scalar orbit per parameter value, which the lockstep sweeps must match bit
for bit, warnings and errors included.
"""

import numpy as np

from sboxkit.generator import (
    Objective,
    RefineConfig,
    RefineStats,
    _check_key_field,
    _index_step,
)
from sboxkit.maps import MapParams, iterate, lyapunov
from sboxkit.metrics import as_sbox, fwht, mask_sign_matrix


def parity(v: int) -> int:
    return bin(v).count("1") & 1


PARITY = np.array([parity(v) for v in range(256)], dtype=np.uint8)

# All 512 affine truth tables over 8 bits: parity(a & x) and its complement.
_LINEAR = PARITY[np.bitwise_and.outer(np.arange(256), np.arange(256))]
AFFINE = np.vstack([_LINEAR, 1 - _LINEAR]).astype(np.uint8)


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


def spectra_reference(box) -> np.ndarray:
    """Walsh spectra of every nonzero output mask by per-row FWHT; row m-1 is mask m."""
    return fwht(mask_sign_matrix(np.asarray(box, dtype=np.uint8), np.arange(1, 256)))


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
    x, y = float(e), float(f)
    for _ in range(config.budget):
        x, i = _index_step(c, x, reciprocal=True)
        y, j = _index_step(d, y, reciprocal=False)
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


def bifurcation_reference(kind, param_lo, param_hi, steps, x0, transient, samples,
                          branch_mode) -> np.ndarray:
    """The parameter scan as a loop of single orbits: one `iterate` per value."""
    values = np.linspace(param_lo, param_hi, steps)
    out = np.empty((steps * samples, 2), dtype=np.float64)
    for k, p in enumerate(values):
        block = out[k * samples:(k + 1) * samples]
        block[:, 0] = p
        block[:, 1] = iterate(MapParams(kind, float(p), branch_mode), x0, transient, samples)
    return out


def lyapunov_sweep_reference(kind, values, x0, transient, n, branch_mode) -> np.ndarray:
    """One `lyapunov` per parameter value, in order."""
    return np.array([lyapunov(MapParams(kind, float(p), branch_mode), x0, transient, n)
                     for p in values], dtype=np.float64)
