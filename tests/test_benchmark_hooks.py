"""The benchmark's traced runs still find every name they hook.

`perfbench/spans.py` times layers by patching names in the package (such as
`cli.generate` and `corpus.builtin_corpus`), and a traced run fails if a span
it expects is never recorded.  One tiny traced run per workload of
`BENCHMARK.json` catches a renamed or bypassed hook here, in a few seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_tiny_run_finds_its_hooks(workload):
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1", "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=180)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    assert result["correct"] is True, result
