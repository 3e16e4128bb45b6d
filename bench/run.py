"""The repository benchmark: seeded workloads, checked outputs, and
end-to-end or per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload rd-curve --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the current directory and
called in-process by one caller in a closed loop: each call starts when
the previous one has returned and been checked.  A run sets the
workload up several times (import, instance generation, problem files),
then makes passes over the instance list.  The number of passes is
``--seconds`` divided by the workload's planned pass length, not read
off the clock, so every run of a workload makes the same number of
passes however busy the machine is; at least one pass always runs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes one
pass without shims, then two passes with the shims of ``tracing.py``
installed, and prints the per-layer metrics, the tracing overhead and
whether the deterministic counts repeated.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report
and the run metadata.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing     # noqa: E402  (the benchmark's own modules)
import workloads   # noqa: E402

SETUP_REPEATS = 9
WORK_DIR = os.path.join(HERE, ".work")
SPANS_DIR = os.path.join(HERE, "out")

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "solve_s_p50": "s", "solve_s_p90": "s",
    "solved_share": "ratio", "certified_share": "ratio",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("rd-curve", "engine", "qrd", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fresh_import(src: str):
    """Import ``bregman_em`` from ``src`` anew, dropping earlier copies."""
    for name in [m for m in sys.modules if m == "bregman_em"
                 or m.startswith("bregman_em.")]:
        del sys.modules[name]
    import bregman_em
    if os.path.dirname(os.path.dirname(
            os.path.abspath(bregman_em.__file__))) != src:
        raise ImportError(f"bregman_em was not imported from {src}")
    return bregman_em


def set_up(workload: str, seed: int, src: str):
    """Time SETUP_REPEATS set-ups; keep the last one's package, cases
    and problem-file directory."""
    times, directories = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        api = _fresh_import(src)
        directory = tempfile.mkdtemp(prefix=f"{workload}-{seed}-",
                                     dir=WORK_DIR)
        builder, _ = workloads.BUILDERS[workload]
        cases = builder(workloads.Source(seed), api, directory)
        times.append(time.perf_counter() - start)
        directories.append(directory)
    for directory in directories[:-1]:
        shutil.rmtree(directory)
    return api, cases, directories[-1], times


class Tally:
    """Outcomes of every call of a run."""

    def __init__(self):
        self.attempted = 0
        self.failures = Counter()
        self.wrong = 0
        self.certifiable = 0
        self.certified = 0
        self.worst_gap = 0.0

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def add(self, case, outcome) -> None:
        self.attempted += 1
        if outcome.cause is not None:
            self.failures[outcome.cause] += 1
            self.wrong += outcome.wrong
        if case.certifiable:
            self.certifiable += 1
            self.certified += outcome.certified
            if outcome.gap is not None and outcome.cause is None:
                self.worst_gap = max(self.worst_gap, outcome.gap)


def call_and_check(api, case):
    """One closed-loop call: (seconds in the call, Outcome, rounds);
    None when the case skipped itself."""
    start = time.perf_counter()
    try:
        result = case.call(api)
    except Exception as exc:      # every failure is counted by its class
        elapsed = time.perf_counter() - start
        name = type(exc).__name__
        return elapsed, (workloads.Outcome() if name == case.expect
                         else workloads.Outcome(cause=f"raise:{name}")), None
    elapsed = time.perf_counter() - start
    if result is workloads.SKIPPED:
        return None
    if case.expect is not None:
        return elapsed, workloads.Outcome(
            cause=f"invariant:no_{case.expect}", wrong=True), None
    trace = getattr(result, "trace", None)
    rounds = len(trace.records) if trace is not None else None
    return elapsed, case.check(result), rounds


def one_pass(api, cases, tally, signature=None):
    """Call every case once; per-call seconds.  ``signature`` collects
    each call's failure cause and round count.

    Garbage is collected before each call, outside the timed region:
    the solvers' system objects sit in reference cycles (bound methods
    stored on the instance), so without it their arrays stay alive
    until the collector happens to run, and the peak RSS depends on
    when that is."""
    latencies = []
    for case in cases:
        gc.collect()
        called = call_and_check(api, case)
        if called is None:
            continue
        elapsed, outcome, rounds = called
        latencies.append(elapsed)
        tally.add(case, outcome)
        if signature is not None:
            signature.append((outcome.cause, rounds))
    return latencies


def quantile(values, q: float) -> float:
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (position - low) * (ordered[high] - ordered[low])


def measure(api, cases, count):
    """``count`` passes; also whether every pass had the same failures
    and round counts."""
    tally = Tally()
    passes, signatures = [], []
    for _ in range(count):
        signatures.append([])
        passes.append(one_pass(api, cases, tally, signatures[-1]))
    steady = all(s == signatures[0] for s in signatures)
    return passes, tally, steady


def end_to_end(passes, tally, setup_times) -> dict:
    """Timings are best-of-passes: the fastest pass, and each call's
    fastest time across passes, which filters out passes slowed by
    other load on the machine."""
    best = [min(times) for times in zip(*passes)]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": min(sum(p) for p in passes),
        "solve_s_p50": quantile(best, 0.5),
        "solve_s_p90": quantile(best, 0.9),
        "solved_share": 1.0 - tally.failed / tally.attempted,
        "certified_share": (tally.certified / tally.certifiable
                            if tally.certifiable else 1.0),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(api, cases, workload, seed):
    """One plain pass, then two traced passes; per-layer metrics of the
    first traced pass, the overhead, and whether counts repeated."""
    tally = Tally()
    plain = sum(one_pass(api, cases, tally))
    recorders, walls = [], []
    for _ in range(2):
        recorder = tracing.Recorder()
        saved = tracing.install(recorder)
        try:
            walls.append(sum(one_pass(api, cases, tally)))
        finally:
            tracing.uninstall(saved)
        recorders.append(recorder)
    first, second = recorders
    drift = {key: (first.counts.get(key, 0), second.counts.get(key, 0))
             for key in tracing.DETERMINISTIC
             if first.counts.get(key, 0) != second.counts.get(key, 0)}
    metrics = tracing.per_layer(first)
    metrics["trace.overhead_share"] = ((walls[0] - plain) / plain, "ratio")
    metrics["trace.spans"] = (len(first.spans), "count")
    path = os.path.join(SPANS_DIR, f"spans-{workload}-{seed}.csv.gz")
    first.write(path)
    return metrics, tally, drift, path


def _git_commit(root: str) -> str:
    """Commit of a git checkout at ``root``, read without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(root, args, api) -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with ThreadPoolExecutor() as pool:   # no thread starts before submit
        sweep_workers = pool._max_workers
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_commit": _git_commit(root),
        "package": os.path.relpath(api.__file__, root),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": {"name": config.get("name"), "version": config.get("version"),
                 "threads_env": {k: os.environ[k] for k in (
                     "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS") if k in os.environ}},
        "sweep_workers": sweep_workers,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bregman_em", "__init__.py")):
        print(f"error: no package at {src}/bregman_em; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.makedirs(WORK_DIR, exist_ok=True)

    api, cases, directory, setup_times = set_up(args.workload, args.seed,
                                                src)
    # what set-up built lives for the whole run; freezing it keeps the
    # collections between calls cheap
    gc.collect()
    gc.freeze()
    try:
        meta = metadata(root, args, api)
        if args.trace:
            metrics, tally, drift, path = traced(api, cases, args.workload,
                                                 args.seed)
            meta["spans_file"] = os.path.relpath(path, root)
            meta["steady"] = not drift
            meta["count_drift"] = drift
        else:
            planned = workloads.BUILDERS[args.workload][1]
            passes, tally, steady = measure(
                api, cases, max(1, int(args.seconds // planned)))
            metrics = {name: (value, END_TO_END_UNITS[name])
                       for name, value in end_to_end(
                           passes, tally, setup_times).items()}
            meta["passes"] = len(passes)
            meta["solves_per_pass"] = len(cases)
            meta["samples_above_p90"] = sum(
                1 for v in passes[0] if v > quantile(passes[0], 0.9))
            meta["steady"] = steady
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    meta["failed_share"] = tally.failed / tally.attempted
    meta["uncertified_share"] = (1.0 - tally.certified / tally.certifiable
                                 if tally.certifiable else 0.0)
    meta["failures"] = dict(sorted(tally.failures.items()))
    meta["wrong_answers"] = tally.wrong
    meta["worst_certified_gap"] = tally.worst_gap
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
