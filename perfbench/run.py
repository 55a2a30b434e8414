"""Benchmark of the sboxkit CLI: one workload per run.

    python3 perfbench/run.py --workload {keygen,analyze,dynamics} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The run measures set-up time with fresh
interpreters, starts one single-threaded workload process (``worker.py``)
that drives ``sboxkit.cli.main`` in-process, then checks every operation's
output against definitions (``checks.py``) outside the timed region.  It
prints a ``digest`` line over the first round's outputs, then, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics: end-to-end ones with ``--trace 0``, per-layer ones with
``--trace 1``.  ``--tiny`` shrinks every operation for the smoke test.

End-to-end times are calibrated to a nominal machine speed
(``calibrate.py``); with ``--trace 0`` a ``measured`` line before the
digest gives the same figures uncalibrated, with the run's mean probe time.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
from ops import ROOT, ROUND, SRC, WORKLOADS, make_op

SETUP_PROBES = 7
SETUP_CALIBRATION_PROBES = 20
WORKER_TIMEOUT_S = 170
OUT_DIR = ROOT / ".perfbench_out"


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def setup_seconds(env: dict) -> tuple:
    """Median time for a fresh interpreter to import sboxkit and report ready.

    Returns (calibrated, measured).  After its ``ready`` line each
    interpreter times reference probes and prints their mean, which scales
    its own set-up time.
    """
    code = ("import sboxkit.cli; print('ready', flush=True); import sys; "
            f"sys.path.insert(0, {str(ROOT / 'perfbench')!r}); import calibrate; "
            f"print(calibrate.mean_probe({SETUP_CALIBRATION_PROBES}))")
    times, scaled = [], []
    for k in range(SETUP_PROBES + 1):       # probe 0 warms the bytecode cache
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              env=env, cwd=ROOT) as proc:
            ready = proc.stdout.readline().strip() == b"ready"
            elapsed = time.perf_counter() - t0
            rest = proc.stdout.read()
        if not ready or proc.returncode:
            raise RuntimeError("set-up probe could not import sboxkit")
        if k:
            times.append(elapsed)
            scaled.append(elapsed * calibrate.NOMINAL_PROBE_S / float(rest))
    return statistics.median(scaled), statistics.median(times)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="shrink every operation (smoke test)")
    args = p.parse_args()

    needed = [SRC / "sboxkit" / "cli.py", ROOT / "tests" / "oracles.py"]
    missing = [str(path) for path in needed if not path.is_file()]
    if missing:
        print(f"not a sboxkit checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks

    workdir = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        env = child_env()
        setup = (None, None) if args.trace else setup_seconds(env)
        worker = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
                  "--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--workdir", str(workdir)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(worker, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=WORKER_TIMEOUT_S)
        if done.returncode:
            print(f"workload process exited with {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads((workdir / "result.json").read_text())
        with (workdir / "ops.jsonl").open() as lines:
            records = [json.loads(line) for line in lines]

        failed = wrong = 0
        digest = hashlib.sha256()
        for rec in records:
            op = make_op(rec["workload"], args.seed, rec["index"], args.tiny)
            stdout = (workdir / f"{op.name}.stdout").read_text()
            if rec["rc"] != 0:
                failed += 1
                print(f"{op.name} {op.argv} exited {rec['rc']}: {rec['stderr']}", file=sys.stderr)
                continue
            try:
                checks.check(op, workdir, stdout)
            except checks.CheckFailed as exc:
                failed += 1
                wrong += 1
                print(f"{op.name} {op.argv} output rejected: {exc!r}", file=sys.stderr)
                continue
            if op.workload == args.workload and op.index < ROUND[op.workload]:
                digest.update(checks.digest_text(op, workdir, stdout).encode())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            OUT_DIR.rmdir()
        except OSError:
            pass                            # another run still uses it

    if args.trace:
        metrics = {name: metric(value, unit) for name, (value, unit) in result["layers"].items()}
    else:
        probes = result["probes"]
        typical = (statistics.fmean(p for _, p in probes) if probes
                   else calibrate.NOMINAL_PROBE_S)
        measured = [rec["seconds"] for rec in records]
        seconds = [rec["seconds"] * calibrate.scale(rec["start"], rec["end"], probes, typical)
                   for rec in records]
        metrics = {
            "ops_per_s": metric(len(seconds) / sum(seconds), "1/s"),
            "op_p50_s": metric(statistics.median(seconds), "s"),
            "setup_s": metric(setup[0], "s"),
            "peak_rss_mib": metric(result["peak_rss_mib"], "MiB"),
        }
        print("measured " + json.dumps({
            "ops_per_s": len(measured) / sum(measured), "op_p50_s": statistics.median(measured),
            "setup_s": setup[1], "probe_s": typical, "probes": len(probes)}))
    print(f"digest {digest.hexdigest()}")
    print(json.dumps({"correct": wrong == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
