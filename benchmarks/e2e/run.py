"""End-to-end benchmark of the path a user runs: fit -> serve -> ingest.

::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py [--seed N] [--out FILE] [--smoke]     # all four
    python3 benchmarks/e2e/run.py compare A.json B.json

One run builds its inputs from ``--seed``, drives one workload against
the product at its defaults, checks every output, prints each metric
by name with its unit, and ends with one JSON line (``correct``,
``attempted``, ``failed``, ``metrics``).  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json`` with tracing off; ``--trace
1`` is a separate traced run that reports the per-layer metrics and
writes ``trace-<workload>.json``.  The exit code is non-zero when an
output check failed.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC_DIR = os.path.join(REPO_ROOT, "src")
#: Scratch space inside the checkout (ignored by git); per-run
#: directories under it are removed when the run ends.
WORK_ROOT = os.path.join(REPO_ROOT, ".bench_work")
#: The driver allows a run 180 s; give up before that.
RUN_DEADLINE_S = 170
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names, units and bounds."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def environment(seed: int) -> dict:
    """What a result must record to be comparable across commits."""
    import numpy

    commit = "unknown"
    if os.path.isdir(os.path.join(REPO_ROOT, ".git")):
        probe = subprocess.run(
            ["git", "-C", REPO_ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    return {
        "commit": commit,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "blas_threads": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def _deadline_passed(signum, frame):
    raise TimeoutError(f"the run did not finish within {RUN_DEADLINE_S}s")


def _shm_names() -> set:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def run_one(workload: str, seed: int, seconds: float, trace: bool, smoke: bool, spec: dict) -> dict:
    """One run of one workload; returns its result record."""
    from workloads import Tally, run_workload

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    shm_before = _shm_names()
    extra, phases = {}, {}
    # A hung server must not hang the run: the alarm raises in this
    # thread, and the context managers on the way out kill the children.
    signal.signal(signal.SIGALRM, _deadline_passed)
    signal.alarm(RUN_DEADLINE_S)
    try:
        if trace:
            from layers import trace_workload

            tally = Tally()
            metrics = trace_workload(
                workload, seconds, seed, work, tally, smoke,
                os.path.join(WORK_ROOT, f"trace-{workload}.json"),
            )
            wanted = spec["per_layer"]
        else:
            metrics, extra, tally = run_workload(workload, seconds, seed, work, smoke)
            phases = tally.phases
            wanted = spec["end_to_end"]
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
    tally.check(not os.path.exists(work), f"work directory {work} was not removed")
    leaked = _shm_names() - shm_before
    tally.check(not leaked, f"left /dev/shm segments behind: {sorted(leaked)}")
    try:
        os.waitpid(-1, os.WNOHANG)
        tally.check(False, "a child process is still around at the end of the run")
    except ChildProcessError:
        pass  # no children left: every subprocess was waited for
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    tally.check(not missing, f"metrics not produced: {missing}")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "correct": not tally.problems,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "problems": tally.problems,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in metrics
        },
        "extra": extra,
        "phases": phases,
    }


def report(result: dict) -> None:
    """Print every metric by name with its unit, then the contract line."""
    print(f"== {result['workload']} (seed {result['seed']}, {result['seconds']:g}s, "
          f"trace {result['trace']}) ==")
    for name, metric in result["metrics"].items():
        print(f"{name:<40} {metric['value']:>14.4f} {metric['unit']}")
    for name, value in result["extra"].items():
        print(f"{name:<40} {value:>14.4f} (not bounded)")
    for name, phase in result["phases"].items():
        detail = " ".join(
            f"{key}={value:.4g}" if isinstance(value, float) else f"{key}={value}"
            for key, value in phase.items()
        )
        print(f"  phase {name}: {detail}")
    share = result["failed"] / result["attempted"]
    print(f"failed_share {share:.6f} ({result['failed']} failed of {result['attempted']} attempted)")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    sys.stdout.flush()


def append_result(path: str, result: dict, seed: int) -> None:
    """Append ``result`` to the runs recorded in ``path`` (created if absent)."""
    document = {"environment": environment(seed), "runs": []}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    document["runs"].append(result)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from compare import main as compare_main

        return compare_main(argv[1:], load_spec())
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all four, in order")
    parser.add_argument("--seed", type=int, default=0, help="drives the generated traffic")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="nominal length of the measured traffic phases")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run reporting the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="small scales and ~2 s of traffic per workload, all checks on")
    parser.add_argument("--out", metavar="FILE", help="append the full result to FILE")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"error: the product's source is not at {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    seconds = min(args.seconds, 2.0) if args.smoke else args.seconds
    correct = True
    for workload in [args.workload] if args.workload else names:
        result = run_one(workload, args.seed, seconds, bool(args.trace), args.smoke, spec)
        report(result)
        if args.out:
            append_result(args.out, result, args.seed)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
