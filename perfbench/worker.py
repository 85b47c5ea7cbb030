"""One fresh benchmark process: set up, run whole blocks in a closed loop.

Started by ``perfbench/run.py``; prints one JSON line with its samples.

Set-up runs from the moment the parent started this process (``--spawn``, a
``time.monotonic`` reading, which is system-wide on Linux) until the first
timed operation: interpreter start, imports, input generation and one
warm-up operation on a fixed input.  The loop then runs one operation at a
time, checks it, and starts the next; it stops at the first block boundary
after ``--seconds``; with ``--seconds 0`` the process only sets up.  With
``--trace 1`` it runs every input block untraced and then traced.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from perfbench import calibration
from perfbench import tracer as tracing
from perfbench.workloads import WORKLOADS, Context, blocks, load_riaho


def _describe(exc) -> str:
    return "".join(traceback.format_exception_only(exc)).strip()


def _clear(workdir: Path):
    for path in workdir.iterdir():
        path.unlink()


def run_phase(workload, ctx, schedule, seconds, first_op=0, tracer=None):
    """Run whole blocks until ``seconds`` have passed; return the samples.

    Every operation is attempted, timed and checked; an operation that
    raises or fails its check is counted in ``failures`` and kept in the
    samples, never dropped.  The speed probe runs between operations, and
    each operation's ``scale`` comes from the probes just before and after
    it (see ``perfbench.calibration``).
    """
    samples, failures = [], []
    op_id = first_op
    start = time.perf_counter()
    before = calibration.probe()
    while True:
        for inp in next(schedule):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = workload.run(ctx, inp)
                else:
                    out = tracer.operation(op_id, workload.run, ctx, inp)
            except Exception as exc:  # one failed operation must not end the run
                t1 = time.perf_counter()
                failures.append({"op": op_id, "input": inp, "error": _describe(exc)})
            else:
                t1 = time.perf_counter()
                try:
                    workload.check(ctx, inp, out)
                except Exception as exc:
                    failures.append({"op": op_id, "input": inp, "error": _describe(exc)})
            t2 = time.perf_counter()
            _clear(ctx.workdir)
            after = calibration.probe()
            samples.append({"op_s": t1 - t0, "check_s": t2 - t1,
                            "scale": calibration.scale([before, after])})
            before = after
            op_id += 1
        if time.perf_counter() - start >= seconds:
            break
    return {"samples": samples, "failures": failures}


def traced_run(workload, ctx, schedule, seconds, spans_path=None) -> dict:
    """Run each input block untraced, then again traced, until ``seconds``.

    Both runs of a block see the same inputs and nearly the same host
    conditions, so their difference is the tracing overhead.
    """
    tr = tracing.Tracer()
    phases = {"untraced": {"samples": [], "failures": []},
              "traced": {"samples": [], "failures": []}}
    scales = {}
    start = time.perf_counter()
    op_id = 0
    while time.perf_counter() - start < seconds or not scales:
        inputs = next(schedule)
        for name in phases:
            if name == "traced":
                tr.install(tracing.riaho_hooks())
            try:
                block = run_phase(workload, ctx, iter([inputs]), 0, op_id,
                                  tr if name == "traced" else None)
            finally:
                tr.uninstall()
            phases[name]["samples"] += block["samples"]
            phases[name]["failures"] += block["failures"]
            if name == "traced":
                scales.update((op_id + i, s["scale"]) for i, s in enumerate(block["samples"]))
            op_id += len(block["samples"])
    if spans_path:
        tr.write(spans_path)
    return {**phases, "spans": len(tr.spans),
            "layers": tracing.layer_metrics(tr.spans, tr.counters, len(scales), scales)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--stream", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None, help="file for the traced spans")
    args = ap.parse_args(argv)

    riaho = load_riaho()
    workload = WORKLOADS[args.workload]
    schedule = blocks(workload, args.seed, args.stream)
    schedule = itertools.chain([next(schedule)], schedule)  # generated during set-up
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(riaho=riaho, workdir=workdir)
    result = {"stream": args.stream, "riaho_file": riaho.cli.__file__,
              "versions": {"python": platform.python_version(),
                           "numpy": riaho.numpy.__version__, "scipy": riaho.scipy.__version__}}
    try:
        try:
            workload.check(ctx, workload.warmup, workload.run(ctx, workload.warmup))
            result["warmup_error"] = None
        except Exception as exc:
            result["warmup_error"] = _describe(exc)
        _clear(workdir)
        result["setup_raw_s"] = time.monotonic() - args.spawn
        calibration.probe()  # the first call in a process pays one-time costs
        result["setup_probe"] = calibration.probe()
        result["reference"] = ctx.reference and hashlib.sha256(ctx.reference).hexdigest()

        if args.trace:
            result.update(traced_run(workload, ctx, schedule, args.seconds, args.spans))
        elif args.seconds > 0:
            result["untraced"] = run_phase(workload, ctx, schedule, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
