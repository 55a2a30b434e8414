"""Environment for subprocesses that must import this checkout's sboxkit.

A relative ``PYTHONPATH=src`` only resolves from the repository root, so a
child started with another ``cwd`` would not find the package.  The child
gets the absolute ``src`` directory first on ``PYTHONPATH`` instead; any
existing entries follow it.  `run_cli` runs the CLI that way, and
`strip_timestamp` drops the one field of a JSON report that is not
deterministic.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def checkout_env() -> dict:
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
    )
    return env


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "sboxkit", *map(str, args)],
        capture_output=True, text=True, cwd=cwd, env=checkout_env(),
    )


def strip_timestamp(report_text: str) -> dict:
    payload = json.loads(report_text)
    payload["manifest"].pop("timestamp")
    return payload
