"""The benchmark's runs still find every name they hook and check their outputs.

`perfbench/spans.py` times layers by patching names in the package (such as
`cli.generate` and `corpus.builtin_corpus`), and a traced run fails if a span
it expects is never recorded.  One tiny traced run per workload of
`BENCHMARK.json` catches a renamed or bypassed hook here, in a few seconds.
The end-to-end metrics come from untraced runs, which take their own path
through `perfbench/run.py` (calibration probes and set-up timing), so one
tiny untraced run per workload must be correct and fail no operation too.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def tiny_run(workload, trace):
    """The result line of a one-second tiny run of `workload`, after a clean exit."""
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", trace, "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=180)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_tiny_run_finds_its_hooks(workload):
    result = tiny_run(workload, "1")
    assert result["correct"] is True, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_tiny_run_is_correct(workload):
    result = tiny_run(workload, "0")
    assert result["correct"] is True and result["failed"] == 0, result
