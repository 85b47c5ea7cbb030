"""riaho benchmark: closed-loop runs of four seeded workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --out FILE

One client drives riaho's public API; each operation starts after the
previous one finished and passed its check.  ``--trace 0`` starts a fresh
worker process that sets up and measures for ``--seconds``, then two more
that only set up, and reports the end-to-end metrics.  ``--trace 1`` starts one worker
that runs every input block untraced and then again with spans around
riaho's module entry points, and reports the per-layer metrics and the
tracing overhead (traced over untraced time per operation).
``--workload all`` runs every workload both ways and, with ``--out``, writes
the combined result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every operation passed its check, 1 when one did not, and 2 when the
directory holds no riaho source to benchmark.  Detail (per-operation
latencies, failures, provenance) goes to ``.bench_out/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

BLAS_THREADS = 1     # thread cap for the benchmark's own processes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# set before numpy loads, here and in every worker (they inherit it)
os.environ.update({name: str(min(BLAS_THREADS, os.cpu_count() or 1)) for name in THREAD_VARS})

from perfbench import calibration, stats  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

OUT = ROOT / ".bench_out"
SETUPS = 3           # fresh processes set up per untraced run; setup_s is their median
RUN_LIMIT_S = 170.0  # a run that has not finished by then is stopped

END_TO_END = (
    ("throughput_ops_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# per-layer metrics that the traced run adds to the tracer's own
TRACE_METRICS = (
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count/op"),
)


class WorkerError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn_worker(workload, seed, stream, seconds, trace, deadline) -> dict:
    """Start one worker, wait for it, and return its parsed result."""
    workdir = OUT / "work" / f"{workload}-{os.getpid()}-{stream}"
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
           "--seed", str(seed), "--stream", str(stream), "--seconds", repr(seconds),
           "--trace", str(trace), "--workdir", str(workdir)]
    if trace:
        spans = OUT / "trace" / f"{workload}.spans.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    probe = calibration.probe()
    spawn = time.monotonic()
    proc = subprocess.Popen([*cmd, "--spawn", repr(spawn)], cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{workload} worker {stream} did not finish in time")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload} worker {stream} exited {proc.returncode}")
    result = json.loads(lines[-1])
    # set-up is bracketed by probes like an operation: one here before the
    # process starts, one in the process once it has set up
    result["setup_scale"] = calibration.scale([probe, result["setup_probe"]])
    return result


def _git_commit():
    """HEAD of the checkout's own .git, read directly (no parent lookup)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed, worker) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": min(BLAS_THREADS, os.cpu_count() or 1),
        **worker["versions"],
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
        "git_commit": _git_commit(),
        "seed": seed,
        "src_py_lines": src_lines,
    }


def _problems(workers) -> list:
    """Whole-run checks: warm-ups passed, riaho came from this checkout,
    and every process produced the same verify-all report."""
    problems = [f"warm-up: {w['warmup_error']}" for w in workers if w["warmup_error"]]
    src = (ROOT / "src").resolve()
    problems += [f"riaho imported from {w['riaho_file']}" for w in workers
                 if not Path(w["riaho_file"]).resolve().is_relative_to(src)]
    if len({w["reference"] for w in workers}) > 1:
        problems.append("worker processes produced different reports")
    return problems


def _scaled(samples, key="op_s"):
    return [s[key] * s["scale"] for s in samples]


def _timings(samples, completed, setups) -> dict:
    """End-to-end times in reference seconds; ``raw`` keeps the wall seconds."""
    scaled = {"latency": _scaled(samples),
              "busy": sum(_scaled(samples)) + sum(_scaled(samples, "check_s")),
              "setup": [w["setup_raw_s"] * w["setup_scale"] for w in setups]}
    raw = {"latency": [s["op_s"] for s in samples],
           "busy": sum(s["op_s"] + s["check_s"] for s in samples),
           "setup": [w["setup_raw_s"] for w in setups]}
    out = {}
    for name, t in (("scaled", scaled), ("raw", raw)):
        out[name] = {
            "throughput_ops_s": completed / t["busy"],
            "latency_p50_s": stats.median(t["latency"]),
            "tail": stats.tail(t["latency"]),
            "setup_s": stats.median(t["setup"]),
        }
    return out


def run_untraced(workload, seed, seconds, deadline) -> dict:
    """One measuring process, then SETUPS - 1 processes that only set up."""
    measured = spawn_worker(workload, seed, 0, seconds, 0, deadline)
    workers = [measured] + [spawn_worker(workload, seed, stream, 0, 0, deadline)
                            for stream in range(1, SETUPS)]
    samples, failures = measured["untraced"]["samples"], measured["untraced"]["failures"]
    timings = _timings(samples, len(samples) - len(failures), workers)
    t = timings["scaled"]
    values = {
        "throughput_ops_s": t["throughput_ops_s"],
        "latency_p50_s": t["latency_p50_s"],
        "latency_tail_s": t["tail"]["value"],
        "setup_s": t["setup_s"],
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    return {
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
        "tail": t["tail"],
        "raw": timings["raw"],
        "fail_rate": len(failures) / len(samples),
        "attempted": len(samples),
        "failures": failures,
        "problems": _problems(workers),
        "samples": samples,
        "setups": [{k: w[k] for k in ("setup_raw_s", "setup_scale")} for w in workers],
        "provenance": provenance(seed, measured),
    }


def run_traced(workload, seed, seconds, deadline) -> dict:
    worker = spawn_worker(workload, seed, 0, seconds, 1, deadline)
    plain, traced = worker["untraced"]["samples"], worker["traced"]["samples"]
    per_op = lambda samples: sum(_scaled(samples)) / len(samples)
    values = {"trace.overhead_pct": 100.0 * (per_op(traced) / per_op(plain) - 1.0),
              "trace.spans": worker["spans"] / len(traced)}
    metrics = dict(worker["layers"])
    metrics.update({name: {"value": values[name], "unit": unit} for name, unit in TRACE_METRICS})
    failures = worker["untraced"]["failures"] + worker["traced"]["failures"]
    attempted = len(plain) + len(traced)
    return {
        "metrics": metrics,
        "fail_rate": len(failures) / attempted,
        "attempted": attempted,
        "failures": failures,
        "problems": _problems([worker]),
        "untraced_s_per_op": per_op(plain),
        "traced_s_per_op": per_op(traced),
        "provenance": provenance(seed, worker),
    }


def run_one(workload, seed, seconds, trace, deadline) -> dict:
    run = run_traced if trace else run_untraced
    result = run(workload, seed, seconds, deadline)
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                  correct=not result["failures"] and not result["problems"])
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    return result


def print_report(result):
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"seconds {result['seconds']}  trace {result['trace']}  "
          f"attempted {result['attempted']}  fail_rate {result['fail_rate']:.6g}")
    for name, metric in result["metrics"].items():
        extra = ""
        if name == "latency_tail_s":
            t = result["tail"]
            extra = (f"  (p{t['percentile']:.1f} of {t['samples']} samples, "
                     f"{t['beyond']} beyond)")
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}{extra}")
    if "raw" in result:
        raw = result["raw"]
        print(f"  wall seconds, unscaled: latency_p50_s {raw['latency_p50_s']:.6g}, "
              f"throughput_ops_s {raw['throughput_ops_s']:.6g}, setup_s {raw['setup_s']:.6g}")
    if result["trace"]:
        print(f"  tracing overhead: {result['untraced_s_per_op']:.6g} s/op untraced, "
              f"{result['traced_s_per_op']:.6g} s/op traced")
    for failure in result["failures"][:5]:
        print(f"  FAILED op {failure['op']}: {failure['error']}")
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None,
                    help="with --workload all: write the combined result to this file")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "riaho" / "cli.py").is_file():
        print(f"error: no riaho source under {ROOT / 'src'}; run from a riaho checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    calibration.probe()  # the first call in a process pays one-time costs
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    results = []
    for workload, trace in runs:
        try:
            result = run_one(workload, args.seed, args.seconds, trace,
                             time.monotonic() + RUN_LIMIT_S)
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_report(result)
        results.append(result)

    if args.workload == "all":
        metrics = {f"{r['workload']}.{name}": m for r in results for name, m in r["metrics"].items()}
    else:
        metrics = results[0]["metrics"]
    if args.out:
        keep = ("workload", "trace", "seconds", "correct", "attempted", "fail_rate", "metrics",
                "tail", "raw", "setups", "untraced_s_per_op", "traced_s_per_op", "failures")
        Path(args.out).write_text(json.dumps({
            "command": ["python3", "perfbench/run.py", *(argv or sys.argv[1:])],
            "provenance": results[0]["provenance"],
            "results": [{k: r[k] for k in keep if k in r} for r in results],
        }, indent=1) + "\n")
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(len(r["failures"]) for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
