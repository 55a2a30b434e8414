"""Definitional metric battery used to check ``analyze`` and ``compare``.

It computes every report field straight from the definitions, vectorised
so that it can check thousands of tables in a run: nonlinearity and LP from
the full correlation matrix of all 256 linear input masks against all 255
component functions (a matrix product, no Walsh transform), the DDT by
counting all 65,536 input pairs, SAC by counting flipped bits.  The smoke
test shows that it agrees with the brute-force oracles in ``tests/oracles.py``.
"""

import numpy as np

_X = np.arange(256)
_PARITY = np.array([bin(v).count("1") & 1 for v in range(256)], dtype=np.int64)
# _LINEAR_SIGNS[a, x] = (-1)^(a.x)
_LINEAR_SIGNS = (1 - 2 * _PARITY[np.bitwise_and.outer(_X, _X)]).astype(np.float64)
_BITS = (_X[:, None] >> np.arange(8)) & 1          # _BITS[v, j] = bit j of v
_PAIR = np.bitwise_xor.outer(_X, _X)                # _PAIR[dc, x] = x ^ dc
_ROW = _X[:, None] * 256


def battery(table, nl_mode: str = "coord") -> dict:
    """Every field of the CLI's JSON report, by definition."""
    t = np.asarray(table, dtype=np.int64)
    component = 1 - 2 * _PARITY[np.bitwise_and.outer(np.arange(1, 256), t)]
    corr = _LINEAR_SIGNS @ component.T.astype(np.float64)  # corr[a, m - 1]
    peak = np.abs(corr).max(axis=0).astype(np.int64)
    nls = (256 - peak) // 2                                # nls[m - 1] = NL(m.S)
    coord = [int(nls[(1 << k) - 1]) for k in range(8)]
    pool = coord if nl_mode == "coord" else [int(v) for v in nls]

    sac = np.empty((8, 8))
    for i in range(8):
        flips = t ^ t[_X ^ (1 << i)]
        sac[i] = _BITS[flips].sum(axis=0) / 256
    sac_avg = float(sac.mean())

    bic = np.zeros((8, 8), dtype=np.int64)
    for i in range(8):
        for j in range(i + 1, 8):
            bic[i, j] = bic[j, i] = nls[((1 << i) | (1 << j)) - 1]

    dy = t[None, :] ^ t[_PAIR]                              # dy[dc, x]
    ddt = np.bincount((_ROW + dy).ravel(), minlength=65536)
    row_max = ddt.reshape(256, 256)[1:].max(axis=1)
    du = int(row_max.max())
    fixed = [int(i) for i in np.nonzero(t == _X)[0]]

    return {
        "bijective": len(set(t.tolist())) == 256,
        "nl_mode": nl_mode,
        "nl_min": min(pool),
        "nl_max": max(pool),
        "nl_avg": sum(pool) / len(pool),
        "nl_per_coordinate": coord,
        "sac_avg": sac_avg,
        "sac_offset": abs(sac_avg - 0.5),
        "sac_matrix": sac.tolist(),
        "bic_nl_avg": float(bic.sum() / 56),
        "bic_nl_matrix": bic.tolist(),
        "lp": float(peak.max() / 512),
        "du": du,
        "dp": du / 256,
        "du_grid": np.append(row_max, 0).reshape(16, 16).tolist(),
        "fixed_point_count": len(fixed),
        "fixed_points": fixed,
    }
