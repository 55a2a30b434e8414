"""Seeded operations of the three workloads.

Operation ``i`` of a workload is a pure function of (workload, seed, i):
its CLI argv, the input files it reads and the facts its checker needs.
The worker process and the checking process both call ``make_op`` and get
the same operation, so nothing but the index has to pass between them.

Every workload is made of whole rounds (``ROUND[workload]`` operations), and
the operation mix is the same in every round.
"""

import functools
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("keygen", "analyze", "dynamics")
ROUND = {"keygen": 1, "analyze": 16, "dynamics": 6}
MAPS = ("ahyb", "logistic", "sine")

# analyze round: 12 fresh random bijections in every (format, nl-mode)
# pairing, the AES and published boxes, and one compare.
_ANALYZE_RANDOM = 12
_ANALYZE_FIXED = (("aes", "dec", "coord"), ("aes", "hex", "full"),
                  ("paper", "dec", "full"))


@dataclass
class Op:
    workload: str
    index: int
    kind: str                   # generate | analyze | compare | bifurcate | lyapunov
    argv: list
    inputs: dict = field(default_factory=dict)   # file name -> text to write first
    info: dict = field(default_factory=dict)     # facts for the checker

    @property
    def name(self) -> str:
        return f"{self.workload}-{self.index}"


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


@functools.cache
def aes_table() -> tuple:
    """The AES S-box from its definition: GF(2^8) inverse, then the affine map."""
    def mul(a, b):
        r = 0
        while b:
            if b & 1:
                r ^= a
            a = (a << 1) ^ (0x11B if a & 0x80 else 0)
            b >>= 1
        return r

    inv = [0] * 256
    for a in range(1, 256):
        inv[a] = next(b for b in range(1, 256) if mul(a, b) == 1)

    def rotl(v, k):
        return ((v << k) | (v >> (8 - k))) & 0xFF

    return tuple(s ^ rotl(s, 1) ^ rotl(s, 2) ^ rotl(s, 3) ^ rotl(s, 4) ^ 0x63 for s in inv)


@functools.cache
def paper_table() -> tuple:
    """The published box, read from the package data without the package."""
    text = (SRC / "sboxkit" / "data" / "paper_proposed.sbox").read_text(encoding="ascii")
    return tuple(int(tok) for tok in text.split())


def grid_text(table, fmt: str) -> str:
    cells = [format(v, "02x") if fmt == "hex" else str(v) for v in table]
    return "\n".join(" ".join(cells[r * 16:(r + 1) * 16]) for r in range(16)) + "\n"


# The fixed boxes (AES, published) are tuples and fresh random ones are
# lists; the checker keeps its oracle results for tuples only.
def random_bijection(*parts) -> list:
    rng = np.random.default_rng(list(_rng(*parts).getrandbits(32) for _ in range(4)))
    return [int(v) for v in rng.permutation(256)]


def _keygen(seed: int, i: int, tiny: bool) -> Op:
    r = _rng("keygen", seed, i)
    key = {
        "x0": r.uniform(0.05, 3.95), "a": r.uniform(0.05, 1.95),
        "b": r.randrange(1_000_001, 999_999_999),
        "c": r.randrange(1, 999_999_999), "d": r.randrange(1, 999_999_999),
        "e": r.uniform(0.01, 0.99), "f": r.uniform(0.01, 0.99),
    }
    argv = ["generate"]
    for name, value in key.items():
        argv += ["--" + name, repr(value)]
    out, report = f"keygen-{i}.sbox", f"keygen-{i}.json"
    argv += ["--out", out, "--report", report]
    if tiny:
        argv += ["--budget", "512"]
    return Op("keygen", i, "generate", argv,
              info={"key": key, "out": out, "report": report})


def _analyze(seed: int, i: int, tiny: bool) -> Op:
    slot = i % ROUND["analyze"]
    which = "random"
    if slot < _ANALYZE_RANDOM:
        box, fmt = random_bijection("analyze", seed, i), ("dec", "hex")[slot % 2]
        mode = ("coord", "full")[(slot // 2) % 2]
    elif slot < _ANALYZE_RANDOM + len(_ANALYZE_FIXED):
        which, fmt, mode = _ANALYZE_FIXED[slot - _ANALYZE_RANDOM]
        box = aes_table() if which == "aes" else paper_table()
    else:
        box = random_bijection("analyze", seed, i)
        grid = f"cand-{i}.sbox"
        return Op("analyze", i, "compare",
                  ["compare", "--csv", "aes", "paper-proposed", grid],
                  inputs={grid: grid_text(box, "dec")},
                  info={"rows": [("aes", aes_table()), ("paper-proposed", paper_table()),
                                 (f"cand-{i}", box)]})
    grid = f"analyze-{i}.{fmt}"
    return Op("analyze", i, "analyze",
              ["analyze", grid, "--json", "--format", fmt, "--nl-mode", mode],
              inputs={grid: grid_text(box, fmt)},
              info={"table": box, "mode": mode, "aes": which == "aes"})


# Parameter ranges of each map's scan and sweep.  They are fixed so that
# every seed asks for the same amount of work; the seed moves x0.  The
# logistic range covers the r = 2.5 and r = 4 anchors of the checks.
RANGES = {"ahyb": (0.05, 1.95), "logistic": (2.5, 4.0), "sine": (0.5, 4.0)}


# Scan and sweep sizes; the full ones are the CLI defaults for bifurcate
# (1,000 parameters x 1,200 steps) and a 50-point sweep at n = 10,000.
_SIZES = {
    ("bifurcate", False): {"steps": 1000, "samples": 200, "transient": 1000},
    ("bifurcate", True): {"steps": 20, "samples": 20, "transient": 100},
    ("lyapunov", False): {"steps": 50, "n": 10000, "transient": 1000},
    ("lyapunov", True): {"steps": 5, "n": 500, "transient": 100},
}


def _dynamics(seed: int, i: int, tiny: bool) -> Op:
    slot = i % ROUND["dynamics"]
    kind = MAPS[slot // 2]
    command = ("bifurcate", "lyapunov")[slot % 2]
    lo, hi = RANGES[kind]
    x0 = _rng("x0", seed, i).uniform(0.1, 0.9)
    out = f"dynamics-{i}.csv"
    sizes = _SIZES[command, tiny]
    argv = [command, "--map", kind, "--param-lo", repr(lo), "--param-hi", repr(hi),
            "--x0", repr(x0), "--out", out]
    for name, value in sizes.items():
        argv += ["--" + name, str(value)]
    return Op("dynamics", i, command, argv,
              info={"map": kind, "lo": lo, "hi": hi, "out": out, **sizes})


_MAKERS = {"keygen": _keygen, "analyze": _analyze, "dynamics": _dynamics}


def make_op(workload: str, seed: int, index: int, tiny: bool = False) -> Op:
    return _MAKERS[workload](seed, index, tiny)
