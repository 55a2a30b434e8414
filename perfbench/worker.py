"""The workload process: runs operations through ``sboxkit.cli.main``.

Started by ``run.py`` as a fresh, single-threaded interpreter with the
checkout's ``src`` on ``PYTHONPATH``.  It runs whole rounds of one
workload's operations back to back (closed loop, one caller) until
``--seconds`` have passed, timing each ``cli.main(argv)`` call alone; input
files are written and captured output is saved outside the timed region.
A ``calibrate.Sampler`` times a reference probe throughout, and the probes'
own time is taken out of each operation's.
With ``--trace 1`` it instead runs a fixed plan under the tracer (see
``trace_plan``).  It writes one line per operation to ``ops.jsonl`` and
the run's totals to ``result.json`` in ``--workdir``; ``run.py`` checks the
outputs.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import calibrate
import spans
from ops import ROUND, SRC, WORKLOADS, make_op

# Rounds of the traced workload itself in the traced plan; each other
# workload adds one round so that every layer gets measured.
TRACE_ROUNDS = {"keygen": 1, "analyze": 8, "dynamics": 1}


def trace_plan(workload: str) -> list:
    plan = [(workload, i) for i in range(TRACE_ROUNDS[workload] * ROUND[workload])]
    for other in WORKLOADS:
        if other != workload:
            plan += [(other, i) for i in range(ROUND[other])]
    return plan


def run_op(call, op, sampler=None) -> dict:
    """Run one op in the current directory; only ``call(op.argv)`` is timed.

    Time the ``sampler``'s probes spent inside the call is taken out.
    """
    for name, text in op.inputs.items():
        Path(name).write_text(text, encoding="ascii")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        spent0 = sampler.spent if sampler else 0.0
        t0 = time.perf_counter()
        try:
            rc = call(op.argv)
        except SystemExit as exc:        # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:                # a crash fails this op, not the run
            rc = -1
            err.write(traceback.format_exc())
        t1 = time.perf_counter()
        spent = (sampler.spent if sampler else 0.0) - spent0
    Path(f"{op.name}.stdout").write_text(out.getvalue())
    return {"workload": op.workload, "index": op.index, "rc": rc,
            "start": t0, "end": t1, "seconds": t1 - t0 - spent,
            "stderr": err.getvalue()[-2000:] if rc else ""}


class Log:
    """Per-op records, appended to ``ops.jsonl`` so that memory stays flat."""

    def __init__(self, path: Path):
        self.file = path.open("w")
        self.count = 0

    def add(self, record: dict) -> None:
        self.file.write(json.dumps(record) + "\n")
        self.count += 1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--workdir", type=Path, required=True)
    args = p.parse_args()

    import sboxkit.cli as cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"imported sboxkit from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 1
    os.chdir(args.workdir)                # ops name their files relative to it
    result = {}
    with Log(Path("ops.jsonl")) as log:
        if args.trace:
            tracer = spans.Tracer()
            spans.install(tracer)
            roots = []
            traced_main = lambda argv: tracer.call("cli.main", cli.main, (argv,), {})  # noqa: E731
            for workload, index in trace_plan(args.workload):
                op = make_op(workload, args.seed, index, args.tiny)
                first = len(tracer.spans)
                log.add(run_op(traced_main, op))
                rows = op.info.get("steps", 0) * op.info.get("samples", 1)
                roots.append((op.kind, rows, tracer.spans[first]))
            tracer.unpatch()
            result["layers"] = spans.layer_metrics(tracer, roots)
        else:
            # One untimed round at tiny size first, on inputs of its own
            # (negative indices), so lazy imports and first calls are paid.
            for index in range(-ROUND[args.workload], 0):
                run_op(cli.main, make_op(args.workload, args.seed, index, tiny=True))
            with calibrate.Sampler() as sampler:
                start = time.perf_counter()
                index = 0
                while not log.count or time.perf_counter() - start < args.seconds:
                    for _ in range(ROUND[args.workload]):
                        op = make_op(args.workload, args.seed, index, args.tiny)
                        log.add(run_op(cli.main, op, sampler))
                        index += 1
            result["probes"] = sampler.samples
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path("result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
