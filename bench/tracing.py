"""Span recorder and the timing shims of the traced run.

The shims wrap package functions on the names their callers bind (for
example ``bregman_em.rate_distortion.bisect_to_tolerance``, which is
what ``solve_rd`` looks up), so no file of the package changes.  Each
call becomes a span with a name, start, end and parent; counts are
taken from the callbacks a shim receives and from returned values.

Spans stay in memory and are written once, at the end.  Each thread
keeps its own parent stack.  A span opened on a worker thread with an
empty stack (the ``--sweep`` pool) takes as parent the innermost span
open on the thread that installed the recorder, which is the
``cli.main`` call waiting on the pool.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import sys
import threading
import time
from collections import defaultdict


class Recorder:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent]
        self.counts: dict = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._owner = threading.get_ident()
        self._owner_stack: list = []
        self._local.stack = self._owner_stack

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._owner_stack:
            parent = self._owner_stack[-1]
        else:
            parent = -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def count(self, key: str, n=1) -> None:
        with self._lock:
            self.counts[key] += n

    def current_name(self) -> str | None:
        """Name of the innermost open span of this thread."""
        stack = self._stack()
        return self.spans[stack[-1]][0] if stack else None

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is the span minus the union of its children's
        intervals, so children running in parallel threads are not
        subtracted twice.
        """
        children = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, start, end, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered
        return dict(out)

    def write(self, path: str) -> None:
        """All spans as gzipped CSV: index, name, start, end, parent."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as handle:
            handle.write("index,name,start,end,parent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{index},{name},{start!r},{end!r},{parent}\n")


# --------------------------------------------------------------- shims

def _counting(recorder, key, fn):
    def counted(*args, **kwargs):
        recorder.count(key)
        return fn(*args, **kwargs)
    return counted


def _wrap_arg(args, kwargs, position, keyword, wrap):
    if len(args) > position:
        args = args[:position] + (wrap(args[position]),) \
            + args[position + 1:]
    elif keyword in kwargs:
        kwargs = dict(kwargs, **{keyword: wrap(kwargs[keyword])})
    return args, kwargs


def _on_convex(recorder, args, kwargs):
    return _wrap_arg(args, kwargs, 0, "fprime", lambda f: _counting(
        recorder, "convex.fprime_evals", f))


def _on_newton(recorder, args, kwargs):
    return _wrap_arg(args, kwargs, 1, "grad", lambda f: _counting(
        recorder, "core.newton_grad_evals", f))


def _rounds(key, tilt=False):
    def after(recorder, result):
        trace = getattr(result, "trace", result)
        recorder.count(key, len(trace.records))
        if tilt:
            recorder.count("rate_distortion.tilt_rounds",
                           len(trace.records))
    return after


def _after_m_project(recorder, result):
    if result.used_fallback:
        recorder.count("families.fallbacks")
    # runs after the m_project span ended, so the open span is its caller
    if recorder.current_name() == "families.m_project_closed_convex":
        recorder.count("families.facets_projected")


def _after_closed_convex(recorder, result):
    recorder.count("families.winners")
    recorder.count("families.facet_candidates", result.candidates_tried)


# (module, attribute, span name, before(recorder, args, kwargs),
#  after(recorder, result))
_RD = "bregman_em.rate_distortion"
SHIMS = [
    ("bregman_em", "solve_rd", "rate_distortion.solve_rd", None,
     _rounds("rate_distortion.rounds", tilt=True)),
    ("bregman_em", "solve_rd_side_info", "rate_distortion.solve_rd_side_info",
     None, _rounds("rate_distortion.rounds", tilt=True)),
    ("bregman_em", "solve_rd_bisection", "rate_distortion.solve_rd_bisection",
     None, _rounds("rate_distortion.rounds", tilt=True)),
    ("bregman_em", "solve_rd_fulldim", "rate_distortion.solve_rd_fulldim",
     None, _rounds("rate_distortion.rounds")),
    ("bregman_em", "solve_rd_multi", "rate_distortion.solve_rd_multi",
     None, _rounds("rate_distortion.rounds")),
    ("bregman_em.cli", "solve_rd", "rate_distortion.solve_rd", None,
     _rounds("rate_distortion.rounds", tilt=True)),
    ("bregman_em.cli", "solve_rd_bisection",
     "rate_distortion.solve_rd_bisection", None,
     _rounds("rate_distortion.rounds", tilt=True)),
    (_RD, "bisect_to_tolerance", "convex.bisect_to_tolerance", _on_convex,
     None),
    (_RD, "expand_bracket", "convex.expand_bracket", _on_convex, None),
    (_RD, "bisect", "convex.bisect", _on_convex, None),
    (_RD, "kl_divergence", "classical.kl_divergence", None, None),
    ("bregman_em.classical", "kl_divergence", "classical.kl_divergence",
     None, None),
    ("bregman_em.classical.ConditionalSystem", "theta_of_channel",
     "classical.theta_of_channel", None, None),
    (_RD, "run_em", "em.run_em", None, _rounds("em.rounds")),
    (_RD, "run_em_approx", "em.run_em_approx", None, _rounds("em.rounds")),
    (_RD, "run_em_closed_convex", "em.run_em_closed_convex", None,
     _rounds("em.rounds")),
    ("bregman_em", "run_em", "em.run_em", None, _rounds("em.rounds")),
    ("bregman_em.em", "m_project", "families.m_project", None,
     _after_m_project),
    ("bregman_em.families", "m_project", "families.m_project", None,
     _after_m_project),
    ("bregman_em.em", "m_project_closed_convex",
     "families.m_project_closed_convex", None, _after_closed_convex),
    ("bregman_em.em", "e_project", "families.e_project", None, None),
    ("bregman_em.families", "damped_newton", "core.damped_newton",
     _on_newton, None),
    ("bregman_em.core", "damped_newton", "core.damped_newton", _on_newton,
     None),
    ("bregman_em.core", "divergence", "core.divergence", None, None),
    ("bregman_em", "solve_qrd", "quantum.solve_qrd", None,
     _rounds("quantum.rounds")),
    ("bregman_em.cli", "solve_qrd", "quantum.solve_qrd", None,
     _rounds("quantum.rounds")),
    ("bregman_em.quantum", "matrix_log", "quantum.matrix_log", None, None),
    ("bregman_em.quantum", "relative_entropy", "quantum.relative_entropy",
     None, None),
    ("bregman_em.quantum", "partial_trace", "quantum.partial_trace", None,
     None),
    ("bregman_em.cli", "partial_trace", "quantum.partial_trace", None,
     None),
    ("bregman_em.cli", "main", "cli.main", None, None),
    ("bregman_em.cli", "load_problem", "cli.load_problem", None, None),
    ("bregman_em.cli", "verify_bounds", "cli.verify_bounds", None, None),
]


def _resolve(path: str):
    """Module or class at a dotted path."""
    try:
        return importlib.import_module(path)
    except ImportError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


def _shim(recorder, name, fn, before, after):
    @functools.wraps(fn)
    def shim(*args, **kwargs):
        if before is not None:
            args, kwargs = before(recorder, args, kwargs)
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if after is not None:
            after(recorder, result)
        return result
    return shim


def _print_counter(recorder):
    def counted_print(*args, sep=" ", end="\n", file=None, flush=False):
        if file is None:
            recorder.count("cli.stdout_bytes", len(
                (sep.join(map(str, args)) + end).encode()))
        print(*args, sep=sep, end=end, file=file, flush=flush)
    return counted_print


def _trace_writer(recorder, fn):
    """Counts the bytes of each CLI trace file ``fn(path, ...)`` writes."""
    @functools.wraps(fn)
    def writer(path, *args, **kwargs):
        fn(path, *args, **kwargs)
        recorder.count("cli.trace_bytes", os.path.getsize(path))
    return writer


def install(recorder) -> list:
    """Wrap every name in SHIMS; returns what :func:`uninstall` needs."""
    saved = []
    for path, attr, name, before, after in SHIMS:
        owner = _resolve(path)
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _shim(recorder, name, original, before, after))
    cli = sys.modules["bregman_em.cli"]
    saved.append((cli, "_write_cli_trace", cli._write_cli_trace))
    cli._write_cli_trace = _trace_writer(recorder, cli._write_cli_trace)
    # cli.print resolves to this module global before the builtin
    saved.append((cli, "print", None))
    cli.print = _print_counter(recorder)
    return saved


def uninstall(saved) -> None:
    for owner, attr, original in reversed(saved):
        if original is None:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)


# ------------------------------------------------------------- report

# per-layer metric -> span names it sums; "self" sums self time,
# "total" inclusive time
TIMED = {
    "convex.self_s": ("self", ("convex.bisect_to_tolerance",
                               "convex.expand_bracket", "convex.bisect")),
    "rate_distortion.self_s": ("self", tuple(
        f"rate_distortion.{s}" for s in (
            "solve_rd", "solve_rd_side_info", "solve_rd_bisection",
            "solve_rd_fulldim", "solve_rd_multi"))),
    "classical.theta_of_channel_s": ("total",
                                     ("classical.theta_of_channel",)),
    "classical.kl_s": ("total", ("classical.kl_divergence",)),
    "core.newton_s": ("total", ("core.damped_newton",)),
    "core.divergence_s": ("total", ("core.divergence",)),
    "families.m_project_s": ("total", ("families.m_project",)),
    "families.e_project_s": ("total", ("families.e_project",)),
    "em.self_s": ("self", ("em.run_em", "em.run_em_approx",
                           "em.run_em_closed_convex")),
    "quantum.self_s": ("self", ("quantum.solve_qrd",)),
    "quantum.matrix_log_s": ("total", ("quantum.matrix_log",)),
    "quantum.relative_entropy_s": ("total", ("quantum.relative_entropy",)),
    "quantum.partial_trace_s": ("total", ("quantum.partial_trace",)),
    "cli.self_s": ("self", ("cli.main",)),
    "cli.load_problem_s": ("total", ("cli.load_problem",)),
    "cli.verify_bounds_s": ("total", ("cli.verify_bounds",)),
}

COUNTED = ("rate_distortion.rounds", "core.newton_grad_evals",
           "families.fallbacks", "em.rounds", "quantum.rounds",
           "cli.stdout_bytes", "cli.trace_bytes")

# counts that must repeat exactly when the same inputs run again
DETERMINISTIC = ("rate_distortion.rounds", "em.rounds", "quantum.rounds",
                 "convex.fprime_evals", "core.newton_grad_evals",
                 "families.facet_candidates")


def calls_name(metric: str) -> str:
    """``convex.self_s`` -> ``convex.calls``,
    ``core.newton_s`` -> ``core.newton.calls``."""
    stem = metric[:-2]
    return stem[:-len(".self")] + ".calls" if stem.endswith(".self") \
        else stem + ".calls"


def per_layer(recorder) -> dict:
    """Every per-layer metric, by name, as (value, unit)."""
    totals = recorder.totals()
    counts = recorder.counts
    out = {}
    for metric, (kind, names) in TIMED.items():
        rows = [totals[n] for n in names if n in totals]
        out[metric] = (sum(r[2 if kind == "self" else 1] for r in rows),
                       "s")
        out[calls_name(metric)] = (sum(r[0] for r in rows), "count")
    for key in COUNTED:
        out[key] = (counts.get(key, 0),
                    "bytes" if key.endswith("_bytes") else "count")
    tilt_rounds = counts.get("rate_distortion.tilt_rounds", 0)
    out["convex.fprime_evals_per_round"] = (
        counts.get("convex.fprime_evals", 0) / tilt_rounds
        if tilt_rounds else 0.0, "count")
    projected = counts.get("families.facets_projected", 0)
    out["families.facet_useful_ratio"] = (
        counts.get("families.winners", 0) / projected if projected else 0.0,
        "ratio")
    return out
