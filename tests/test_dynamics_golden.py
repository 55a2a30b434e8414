"""SHA-256 pins of the dynamics outputs: the CSV bytes of scans and sweeps.

`golden/dynamics_golden.json` pins, per case, the SHA-256 of the CSV that
``sboxkit bifurcate`` or ``sboxkit lyapunov`` writes.  Each map is scanned
once wide enough to step in lockstep and once narrow enough to run one
orbit per parameter (AHYB in both branch modes), and swept with `n` large
enough for periodic orbits to close their cycles.  The bytes rest on the
libm calls that `test_libm_fingerprint.py` pins: a platform whose ``sin``,
``cos``, ``log`` or ``pow`` rounds differently fails here on a named case.

To pin a new platform's results deliberately, run this file as a script
(``PYTHONPATH=src python tests/test_dynamics_golden.py``); it rewrites the
pins from the code and the libm that run it.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from sboxkit import cli

GOLDEN = Path(__file__).parent / "golden" / "dynamics_golden.json"

# The benchmark's control ranges per map.
RANGES = {"ahyb": ("0.05", "1.95"), "logistic": ("2.5", "4.0"), "sine": ("0.5", "4.0")}
# Sweep sizes: a scan of 40 parameters steps every map in lockstep, one of 6
# none; a sweep of 3,000 samples lets most periodic orbits close a cycle.
SIZES = {
    "bifurcate-wide": ["bifurcate", "--steps", "40", "--transient", "300", "--samples", "150"],
    "bifurcate-narrow": ["bifurcate", "--steps", "6", "--transient", "300", "--samples", "150"],
    "lyapunov": ["lyapunov", "--steps", "8", "--transient", "300", "--n", "3000"],
}


def _cases() -> dict:
    cases = {}
    for kind, (lo, hi) in RANGES.items():
        for mode in ("eq1", "alg1") if kind == "ahyb" else ("eq1",):
            for size, (command, *flags) in SIZES.items():
                cases[f"{size}-{kind}-{mode}"] = [
                    command, "--map", kind, "--param-lo", lo, "--param-hi", hi,
                    "--x0", "0.37", "--branch-mode", mode, *flags]
    return cases


CASES = _cases()


def csv_digest(argv, directory) -> str:
    """SHA-256 of the CSV that the CLI writes for `argv`."""
    out = Path(directory) / "out.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", list(CASES))
def test_dynamics_csv_matches_golden(name, tmp_path):
    pinned = json.loads(GOLDEN.read_text())["sha256"]
    assert csv_digest(CASES[name], tmp_path) == pinned[name], (
        f"{name}: `sboxkit {' '.join(CASES[name])}` wrote other bytes than the pinned CSV")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        digests = {name: csv_digest(argv, directory) for name, argv in CASES.items()}
    GOLDEN.write_text(json.dumps({
        "about": "SHA-256 of dynamics CSV outputs; see tests/test_dynamics_golden.py",
        "sha256": digests,
    }, indent=1) + "\n")
