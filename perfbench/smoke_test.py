"""Smoke test of the benchmark itself (not part of the Tier-1 suite).

    python3 perfbench/smoke_test.py

Runs every workload at ``--tiny`` size and checks the printed schema against
``BENCHMARK.json``, repeats a run to compare digests and counts, feeds each
checker one corrupted output, and runs the benchmark in a directory that
holds only the benchmark's own files.  Takes about a minute.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

import numpy as np

from ops import ROOT, ROUND, SRC, WORKLOADS, aes_table, make_op, paper_table, random_bijection

sys.path.insert(0, str(SRC))
import calibrate  # noqa: E402
import checks  # noqa: E402
import oracle  # noqa: E402
import oracles  # noqa: E402  (tests/oracles.py, put on sys.path by checks)
import sboxkit.cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("generator.attempts", "generator.accepted", "metrics.spectra_rows",
          "metrics.ddt_cells", "maps.steps", "cli.rows_written", "trace.spans")
SCRATCH = ROOT / ".perfbench_out"


def scratch_dir() -> tempfile.TemporaryDirectory:
    """A temporary directory inside the checkout (runs remove an empty .perfbench_out)."""
    SCRATCH.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=SCRATCH)


def bench(workload: str, seed: int, trace: int = 0, cwd: Path = ROOT):
    """Run the benchmark at tiny size from ``cwd``; return the finished process."""
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=180)


def parse(proc) -> tuple:
    """(digest, result) from a finished run."""
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0, proc.stderr
    assert lines[-2].startswith("digest "), lines[-2]
    return lines[-2].split()[1], json.loads(lines[-1])


class Schema(unittest.TestCase):
    def check_result(self, result, spec_key):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
            self.assertGreater(m["value"], 0, name)

    def test_end_to_end_runs_repeat(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                digest, result = parse(bench(workload, 5))
                self.check_result(result, "end_to_end")
                self.assertEqual(result["attempted"] % ROUND[workload], 0)
                again, _ = parse(bench(workload, 5))
                self.assertEqual(again, digest)
                other, _ = parse(bench(workload, 6))
                self.assertNotEqual(other, digest)

    def test_traced_run_counts_repeat(self):
        digest, first = parse(bench("dynamics", 5, trace=1))
        self.check_result(first, "per_layer")
        _, second = parse(bench("dynamics", 5, trace=1))
        for name in COUNTS:
            self.assertEqual(first["metrics"][name], second["metrics"][name], name)
        untraced, _ = parse(bench("dynamics", 5))
        self.assertEqual(digest, untraced)

    def test_refuses_without_the_program(self):
        with scratch_dir() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(tmp) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("keygen", 1, cwd=Path(tmp))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


class Calibration(unittest.TestCase):
    def test_scale_uses_the_mean_probe_near_the_op(self):
        samples = [(0.0, 1e-3), (0.5, 2e-3), (1.0, 3e-3), (9.0, 9e-3)]
        factor = calibrate.scale(0.2, 0.4, samples, fallback=5e-3)
        self.assertAlmostEqual(factor, calibrate.NOMINAL_PROBE_S / 2e-3)
        self.assertAlmostEqual(calibrate.scale(5.0, 5.1, samples, fallback=5e-3),
                               calibrate.NOMINAL_PROBE_S / 5e-3)

    def test_sampler_probes_and_accounts_its_time(self):
        with calibrate.Sampler() as sampler:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 5 * calibrate.SAMPLE_INTERVAL_S:
                sum(range(1000))
        self.assertGreaterEqual(len(sampler.samples), 3)
        self.assertGreater(sampler.spent, sum(p for _, p in sampler.samples))


def run_in(workdir: Path, op) -> str:
    for name, text in op.inputs.items():
        (workdir / name).write_text(text)
    out = io.StringIO()
    with contextlib.chdir(workdir), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        assert sboxkit.cli.main(op.argv) == 0
    return out.getvalue()


def _edit(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text, old
    path.write_text(text.replace(old, new, 1))


class CheckersReject(unittest.TestCase):
    """Each checker passes the real output and rejects one corruption of it."""

    def setUp(self):
        self._tmp = scratch_dir()
        self.workdir = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def assert_rejects(self, op, corrupt):
        stdout = run_in(self.workdir, op)
        checks.check(op, self.workdir, stdout)
        stdout = corrupt(stdout) or stdout
        with self.assertRaises(checks.CheckFailed):
            checks.check(op, self.workdir, stdout)

    def test_generate(self):
        op = make_op("keygen", 2, 0, tiny=True)
        self.assert_rejects(op, lambda out: _edit(self.workdir / op.info["report"],
                                                  '"lp": 0.', '"lp": 1.'))

    def test_analyze(self):
        op = make_op("analyze", 2, 12, tiny=True)         # the AES box
        self.assert_rejects(op, lambda out: out.replace('"du": 4', '"du": 6'))

    def test_compare(self):
        op = make_op("analyze", 2, ROUND["analyze"] - 1, tiny=True)
        self.assertEqual(op.kind, "compare")
        self.assert_rejects(op, lambda out: out.replace("aes,112,112", "aes,110,112"))

    def test_bifurcate(self):
        op = make_op("dynamics", 2, 2, tiny=True)          # logistic scan
        path = self.workdir / op.info["out"]

        def corrupt(out):
            lines = path.read_text().splitlines()
            p, x = lines[-1].split(",")
            lines[-1] = f"{float(np.nextafter(float(p), 0.0))!r},{x}"
            path.write_text("\n".join(lines) + "\n")
        self.assert_rejects(op, corrupt)

    def test_lyapunov(self):
        op = make_op("dynamics", 2, 3, tiny=True)          # logistic sweep
        self.assert_rejects(op, lambda out: _edit(self.workdir / op.info["out"],
                                                  "param,le", "param,lyapunov"))


class OracleAgrees(unittest.TestCase):
    """The vectorised oracle equals the brute-force one of the test suite."""

    def test_battery_matches_brute_force(self):
        for table in (aes_table(), paper_table(), random_bijection("smoke", 1),
                      random_bijection("smoke", 2)):
            b = oracle.battery(table)
            self.assertEqual(b["nl_per_coordinate"], oracles.coordinate_nl_direct(table))
            self.assertEqual(b["sac_matrix"], oracles.sac_direct(table).tolist())
            self.assertEqual(b["bic_nl_matrix"], oracles.bic_nl_direct(table).tolist())
            self.assertEqual(b["lp"], oracles.lp_direct(table))
            self.assertEqual(b["du"], oracles.du_direct(table))
            full = oracle.battery(table, "full")
            bits = [oracles.PARITY[np.bitwise_and(m, table)] for m in range(1, 256)]
            self.assertEqual(full["nl_min"], min(oracles.nonlinearity_affine(f) for f in bits))


def tearDownModule():
    with contextlib.suppress(OSError):
        SCRATCH.rmdir()


if __name__ == "__main__":
    unittest.main()
