"""Command-line front end.

``bregman-em run problem.json`` solves the problem described by a JSON
file and prints a JSON summary to stdout; ``--trace`` writes the
deterministic per-round CSV of ``em.write_trace_csv``, one format for
every kind, ``--sweep D0:D1:STEPS`` solves a grid of distortion levels
one after another, and ``--bits`` adds base-2 display
fields next to the nats values.  ``bregman-em verify-bounds trace.csv
--reference R`` checks every recorded objective against its bound
column (or against log(cardinality)/(t-1) with ``--cardinality``).

Exit codes for ``run``: 0 converged, 1 malformed input or invalid
arguments, 2 infeasible constraints, 3 the iteration ran out of budget
before the tolerance or failed numerically (``ConvergenceError``,
``SupportError``).  A problem-file field that does not convert to a
number is malformed input.  For ``rd`` without ``--eps``,
``rd_side_info`` and ``rd_multi``, "converged" means that ``gap_nats``,
the rate minus a dual lower bound, is within the tolerance, and their
``--trace`` files end in a ``gap`` column; the other solvers stop when
the objective stops moving (or, with ``--eps``, after the budget) and
report ``gap_nats`` as null.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .classical import canonical_simplex_system, simplex_system
from .em import EmOptions, EmTrace, run_em, write_trace_csv
from .errors import (ArgumentError, BregmanEmError, ConvergenceError,
                     FormatError, InfeasibleError, SchemaError, SupportError)
from .families import ExponentialSubfamily, MixtureSubfamily
# partial_trace is unused here; the benchmark's timing shims wrap it
from .quantum import DensityMatrix, partial_trace, solve_qrd  # noqa: F401
from .rate_distortion import (solve_rd, solve_rd_bisection, solve_rd_fulldim,
                              solve_rd_multi, solve_rd_side_info)

__all__ = ["BoundsReport", "load_problem", "main", "verify_bounds"]

KINDS = ("rd", "rd_side_info", "rd_multi", "rd_fulldim", "qrd", "em_generic")

_TOP_KEYS = {"schema_version", "kind", "payload", "options"}
_PAYLOAD_KEYS = {
    "rd": {"p_x", "distortion", "level", "mode"},
    "rd_side_info": {"p_xs", "distortion", "level", "mode"},
    "rd_multi": {"p_x", "distortions", "levels"},
    "rd_fulldim": {"p_x", "distortion", "level", "mode"},
    "qrd": {"rho_r", "d_r", "d_b", "delta", "level", "mode"},
    "em_generic": {"features", "n_points", "exp_anchor", "exp_generators",
                   "mix_directions", "mix_targets", "theta_init"},
}
_REQUIRED_KEYS = {
    "rd": {"p_x", "distortion", "level"},
    "rd_side_info": {"p_xs", "distortion", "level"},
    "rd_multi": {"p_x", "distortions", "levels"},
    "rd_fulldim": {"p_x", "distortion", "level"},
    "qrd": {"rho_r", "d_r", "d_b", "delta", "level"},
    "em_generic": {"exp_anchor", "exp_generators", "mix_directions",
                   "mix_targets", "theta_init"},
}
_OPTION_KEYS = {"seed", "max_iterations", "objective_tolerance", "eps",
                "low_memory", "reference_divergence", "t1", "zeta_minus"}


def load_problem(path) -> dict:
    """Parse and schema-check a problem file.

    Unknown fields are rejected by name so that typos cannot silently
    change a run; the payload's numerical content is validated by the
    solvers themselves.
    """
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise FormatError(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"problem file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError("", "the problem file must hold a JSON object")
    for key in data:
        if key not in _TOP_KEYS:
            raise SchemaError(key, f"unknown field {key!r}")
    for key in ("schema_version", "kind", "payload"):
        if key not in data:
            raise SchemaError(key, f"missing required field {key!r}")
    if data["schema_version"] != "1":
        raise SchemaError("schema_version",
                          "unsupported schema_version "
                          f"{data['schema_version']!r}; expected '1'")
    kind = data["kind"]
    if kind not in KINDS:
        raise SchemaError("kind", f"unknown kind {kind!r}; expected one of "
                          f"{KINDS}")
    payload = data["payload"]
    if not isinstance(payload, dict):
        raise SchemaError("payload", "payload must be a JSON object")
    allowed = _PAYLOAD_KEYS[kind]
    for key in payload:
        if key not in allowed:
            raise SchemaError(f"payload.{key}",
                              f"unknown field {key!r} for kind {kind!r}")
    for key in _REQUIRED_KEYS[kind]:
        if key not in payload:
            raise SchemaError(f"payload.{key}",
                              f"missing required field {key!r} for kind "
                              f"{kind!r}")
    if kind == "em_generic":
        if ("features" in payload) == ("n_points" in payload):
            raise SchemaError("payload.features",
                              "exactly one of 'features' and 'n_points' "
                              "must be given")
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise SchemaError("options", "options must be a JSON object")
    for key in options:
        if key not in _OPTION_KEYS:
            raise SchemaError(f"options.{key}", f"unknown option {key!r}")
    data["options"] = options
    return data


def _complex_matrix(values, dim: int, name: str) -> np.ndarray:
    flat = np.asarray(values, dtype=float).ravel()
    if flat.size != 2 * dim * dim:
        raise SchemaError(f"payload.{name}",
                          "expected %d interleaved entries for dimension "
                          "%d, got %d" % (2 * dim * dim, dim, flat.size))
    return (flat[0::2] + 1.0j * flat[1::2]).reshape(dim, dim)


def _number(value, field: str, kind=float):
    """``kind(value)``, or a ``SchemaError`` naming ``field`` when the
    problem file's value does not convert."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise SchemaError(field, f"expected a number, got {value!r}") \
            from exc


def _merge_options(file_options: dict, args) -> tuple[EmOptions,
                                                      Optional[float], dict]:
    """File options overridden by command-line flags; returns the
    engine options, the bisection eps (None for the exact solver), and
    the leftover protocol settings."""
    max_iterations = file_options.get("max_iterations", 1000)
    tolerance = file_options.get("objective_tolerance", 1e-10)
    if args.max_iter is not None:
        max_iterations = args.max_iter
    if args.tol is not None:
        tolerance = args.tol
    reference = file_options.get("reference_divergence")
    options = EmOptions(
        max_iterations=_number(max_iterations, "options.max_iterations",
                               int),
        objective_tolerance=_number(tolerance,
                                    "options.objective_tolerance"),
        low_memory=bool(file_options.get("low_memory", False)),
        reference_divergence=None if reference is None else _number(
            reference, "options.reference_divergence"))
    eps = args.eps if args.eps is not None else file_options.get("eps")
    t1, zeta = file_options.get("t1"), file_options.get("zeta_minus")
    extra = {"t1": None if t1 is None else _number(t1, "options.t1", int),
             "zeta_minus": None if zeta is None else _number(
                 zeta, "options.zeta_minus"),
             "seed": file_options.get("seed")}
    return options, (None if eps is None else _number(eps, "options.eps")), \
        extra


def _payload_mode(payload: dict, args) -> str:
    if args.mode is not None:
        return args.mode
    return payload.get("mode", "equality")


def _floats(array):
    """A float, or nested lists of floats, for the JSON output."""
    return np.asarray(array, dtype=float).tolist()


def _interleaved(matrix) -> list:
    a = np.asarray(matrix, dtype=complex).ravel()
    out = np.empty(2 * a.size)
    out[0::2] = a.real
    out[1::2] = a.imag
    return out.tolist()


def _solve_single(kind: str, payload: dict, mode: str, options: EmOptions,
                  eps: Optional[float], extra: dict, level: float):
    """Dispatch one solve at the given distortion level."""
    if kind == "rd":
        if eps is not None:
            return solve_rd_bisection(
                payload["p_x"], payload["distortion"], level, eps,
                mode=mode, t1=extra["t1"], zeta_minus=extra["zeta_minus"],
                options=options)
        return solve_rd(payload["p_x"], payload["distortion"], level,
                        mode=mode, options=options)
    if kind == "rd_side_info":
        return solve_rd_side_info(payload["p_xs"], payload["distortion"],
                                  level, mode=mode, options=options)
    if kind == "rd_fulldim":
        return solve_rd_fulldim(payload["p_x"], payload["distortion"],
                                level, mode=mode, options=options)
    if kind == "qrd":
        d_r = _number(payload["d_r"], "payload.d_r", int)
        d_b = _number(payload["d_b"], "payload.d_b", int)
        rho_r = DensityMatrix.from_interleaved(payload["rho_r"], d_r)
        delta = _complex_matrix(payload["delta"], d_r * d_b, "delta")
        return solve_qrd(rho_r.matrix, delta, level, mode=mode,
                         options=options)
    raise ArgumentError(f"kind {kind!r} does not take a distortion level")


def _summarize(kind: str, mode: str, solution, bits: bool, seed) -> dict:
    summary = {
        "status": "converged" if solution.converged else "did_not_converge",
        "kind": kind,
        "mode": mode,
        "rate_nats": float(solution.rate),
    }
    if bits:
        summary["rate_bits"] = float(solution.rate) / math.log(2.0)
    summary["tau"] = _floats(solution.tau)
    summary["distortion"] = _floats(solution.distortion)
    summary["constraint_residual"] = float(solution.constraint_residual)
    summary["iterations"] = int(solution.iterations)
    summary["converged"] = bool(solution.converged)
    summary["gap_nats"] = _gap(solution.trace)
    summary["seed"] = seed
    if kind == "qrd":
        summary["output_state_interleaved"] = _interleaved(
            solution.output_state)
        summary["state_interleaved"] = _interleaved(solution.state)
        return summary
    if solution.guarantee is not None:
        summary["guarantee_nats"] = float(solution.guarantee)
        if bits:
            summary["guarantee_bits"] = float(solution.guarantee) \
                / math.log(2.0)
    if solution.active_constraints is not None:
        summary["active_constraints"] = list(solution.active_constraints)
    summary["output_marginal"] = _floats(solution.output_marginal)
    summary["channel"] = _floats(solution.channel)
    return summary


def _gap(trace: EmTrace) -> Optional[float]:
    """The last round's certified gap; 0 for a rate-zero answer (no
    rounds), which is optimal, and None for solvers without a bound."""
    if not trace.records:
        return 0.0
    gap = trace.records[-1].gap
    return None if math.isnan(gap) else float(gap)


def _write_cli_trace(path, trace: EmTrace) -> None:
    """Write a ``--trace`` file; every kind uses the engine's format."""
    write_trace_csv(trace, path)


def _parse_sweep(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ArgumentError("--sweep expects D0:D1:STEPS")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError as exc:
        raise ArgumentError(f"--sweep expects numbers: {exc}") from exc
    if steps < 1:
        raise ArgumentError("--sweep needs at least one step")
    return np.linspace(lo, hi, steps)


def _run_em_generic(payload: dict, options: EmOptions) -> dict:
    if "features" in payload:
        system = simplex_system(np.asarray(payload["features"],
                                           dtype=float))
    else:
        system = canonical_simplex_system(
            _number(payload["n_points"], "payload.n_points", int))
    anchor = np.asarray(payload["exp_anchor"], dtype=float)
    generators = np.asarray(payload["exp_generators"], dtype=float)
    if generators.ndim != 2:
        raise SchemaError("payload.exp_generators",
                          "expected a list of generator vectors")
    exp_family = ExponentialSubfamily(anchor, generators.T)
    mix_family = MixtureSubfamily(
        np.asarray(payload["mix_directions"], dtype=float),
        np.asarray(payload["mix_targets"], dtype=float))
    theta_init = np.asarray(payload["theta_init"], dtype=float)
    trace = run_em(system, exp_family, mix_family, theta_init, options)
    record = trace.record_for(trace.final_index)
    return {
        "status": "converged" if trace.converged else "did_not_converge",
        "kind": "em_generic",
        "objective_nats": float(record.objective),
        "final_theta": _floats(trace.final_theta),
        "constraint_residual": float(record.constraint_residual),
        "iterations": int(trace.records[-1].t),
        "converged": bool(trace.converged),
    }, trace


def _command_run(args) -> int:
    data = load_problem(args.problem)
    kind = data["kind"]
    payload = data["payload"]
    options, eps, extra = _merge_options(data["options"], args)
    if eps is not None and kind != "rd":
        raise ArgumentError("--eps selects the budgeted bisection solver, "
                            "which handles the rd kind only")

    if args.sweep is not None and kind in ("em_generic", "rd_multi"):
        raise ArgumentError("--sweep applies to solvers with a single "
                            "distortion level")
    mode = _payload_mode(payload, args)
    seed = extra.get("seed")

    if args.sweep is not None:
        if args.trace is not None:
            raise ArgumentError("--trace records a single run, not a sweep")
        levels = _parse_sweep(args.sweep)

        def solve_at(level):
            try:
                solution = _solve_single(kind, payload, mode, options, eps,
                                         extra, float(level))
            except InfeasibleError as exc:
                return {"level": float(level), "status": "infeasible",
                        "error": str(exc)}
            except (ConvergenceError, SupportError) as exc:
                return {"level": float(level),
                        "status": "did_not_converge", "error": str(exc)}
            entry = {"level": float(level),
                     "status": ("converged" if solution.converged
                                else "did_not_converge"),
                     "rate_nats": float(solution.rate)}
            if args.bits:
                entry["rate_bits"] = float(solution.rate) / math.log(2.0)
            entry["tau"] = _floats(solution.tau)
            entry["distortion"] = _floats(solution.distortion)
            entry["iterations"] = int(solution.iterations)
            return entry

        entries = [solve_at(level) for level in levels]
        statuses = {e["status"] for e in entries}
        overall = ("infeasible" if "infeasible" in statuses else
                   "did_not_converge" if "did_not_converge" in statuses
                   else "converged")
        print(json.dumps({"status": overall, "kind": kind, "mode": mode,
                          "seed": seed, "sweep": entries}, indent=2))
        return {"converged": 0, "infeasible": 2,
                "did_not_converge": 3}[overall]

    if kind == "em_generic":
        if args.mode is not None:
            raise ArgumentError("--mode does not apply to em_generic")
        summary, trace = _run_em_generic(payload, options)
    elif kind == "rd_multi":
        if args.mode is not None and args.mode != "inequality":
            raise ArgumentError("several simultaneous constraints run in "
                                "inequality mode")
        solution = solve_rd_multi(payload["p_x"], payload["distortions"],
                                  payload["levels"], options=options)
        summary = _summarize(kind, "inequality", solution, args.bits, seed)
        trace = solution.trace
    else:
        solution = _solve_single(kind, payload, mode, options, eps, extra,
                                 _number(payload["level"], "payload.level"))
        summary = _summarize(kind, mode, solution, args.bits, seed)
        trace = solution.trace
    if args.trace is not None:
        _write_cli_trace(args.trace, trace)
    print(json.dumps(summary, indent=2))
    return 0 if summary["converged"] else 3


@dataclass(frozen=True)
class BoundsReport:
    """Result of checking a trace against a reference value."""

    rows: int
    max_slack: float
    max_slack_t: Optional[int]
    first_violation_t: Optional[int]
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.first_violation_t is None


def verify_bounds(trace_path, reference: float,
                  cardinality: Optional[int] = None,
                  tolerance: float = 1e-9) -> BoundsReport:
    """Check objective(t) - reference <= bound(t) + tolerance per row.

    The bound comes from the trace's own bound column, or is recomputed
    as log(cardinality)/(t-1) when ``cardinality`` is given.  Reads the
    objective from ``objective``, the column ``write_trace_csv`` writes,
    or from ``objective_nats``, that of older command-line traces.
    """
    try:
        with open(trace_path, newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise FormatError(f"cannot read trace: {exc}") from exc
    if not rows:
        raise FormatError("trace file is empty")
    header = rows[0]
    try:
        t_col = header.index("t")
    except ValueError:
        raise FormatError("trace header lacks a 't' column") from None
    objective_col = None
    for name in ("objective_nats", "objective"):
        if name in header:
            objective_col = header.index(name)
            break
    if objective_col is None:
        raise FormatError("trace header lacks an objective column")
    bound_col = header.index("bound") if "bound" in header else None
    if bound_col is None and cardinality is None:
        raise FormatError("trace has no bound column; pass a cardinality "
                          "to recompute the bound")
    if cardinality is not None and cardinality < 2:
        raise ArgumentError("cardinality must be at least 2")

    count = 0
    max_slack = -math.inf
    max_slack_t = None
    first_violation = None
    for row in rows[1:]:
        if not row:
            continue
        try:
            t = int(row[t_col])
            objective = float(row[objective_col])
        except (ValueError, IndexError) as exc:
            raise FormatError(f"malformed trace row: {row!r}") from exc
        if cardinality is not None:
            if t < 2:
                raise FormatError("bound recomputation needs iterate "
                                  "indices of at least 2")
            bound = math.log(cardinality) / (t - 1)
        else:
            cell = row[bound_col] if bound_col < len(row) else ""
            if cell == "":
                raise FormatError(f"row t={t} has no bound; pass a "
                                  "cardinality to recompute it")
            bound = float(cell)
        slack = objective - reference - bound
        count += 1
        if slack > max_slack:
            max_slack = slack
            max_slack_t = t
        if slack > tolerance and first_violation is None:
            first_violation = t
    if count == 0:
        raise FormatError("trace has no data rows")
    return BoundsReport(rows=count, max_slack=max_slack,
                        max_slack_t=max_slack_t,
                        first_violation_t=first_violation,
                        tolerance=tolerance)


def _command_verify(args) -> int:
    report = verify_bounds(args.trace, args.reference,
                           cardinality=args.cardinality,
                           tolerance=args.tolerance)
    print(f"rows checked: {report.rows}")
    print("max slack: %.6e at t=%d" % (report.max_slack,
                                       report.max_slack_t))
    if report.ok:
        print("all objectives within bound + %.1e of the reference"
              % report.tolerance)
        return 0
    print("first violation: t=%d" % report.first_violation_t)
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bregman-em",
        description="Alternating divergence minimization for "
                    "rate-distortion problems.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser(
        "run", help="solve a problem file and print a JSON summary")
    run_parser.add_argument("problem", type=Path,
                            help="problem description (JSON)")
    run_parser.add_argument("--mode", choices=("equality", "inequality"),
                            help="override the payload's constraint mode")
    run_parser.add_argument("--max-iter", type=int, default=None,
                            help="highest iterate index")
    run_parser.add_argument("--eps", type=float, default=None,
                            help="total slack of the budgeted bisection "
                                 "solver (rd kind)")
    run_parser.add_argument("--tol", type=float, default=None,
                            help="stopping tolerance: the certified gap "
                                 "for rd and rd_side_info, the objective "
                                 "change elsewhere")
    run_parser.add_argument("--trace", type=Path, default=None,
                            help="write a per-round CSV trace here")
    run_parser.add_argument("--bits", action="store_true",
                            help="add base-2 display fields to the summary")
    run_parser.add_argument("--sweep", default=None, metavar="D0:D1:STEPS",
                            help="solve a grid of distortion levels")
    verify_parser = sub.add_parser(
        "verify-bounds", help="check a trace against a reference value")
    verify_parser.add_argument("trace", type=Path)
    verify_parser.add_argument("--reference", type=float, required=True,
                               help="reference objective value in nats")
    verify_parser.add_argument("--cardinality", type=int, default=None,
                               help="recompute bounds as log(n)/(t-1)")
    verify_parser.add_argument("--tolerance", type=float, default=1e-9)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _command_run(args)
        return _command_verify(args)
    except InfeasibleError as exc:
        print(json.dumps({"status": "infeasible", "error": str(exc)},
                         indent=2))
        return 2
    except (ConvergenceError, SupportError) as exc:
        print(json.dumps({"status": "did_not_converge", "error": str(exc)},
                         indent=2))
        return 3
    except BregmanEmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
