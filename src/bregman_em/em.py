"""Alternating divergence minimization between two subfamilies.

Each round m-projects the current point onto the mixture family and
e-projects the result back onto the exponential family.  The recorded
objective D(m-iterate || e-iterate) descends monotonically in exact
mode and approaches the divergence between the families at rate
reference/(t-1); with an additional non-expansiveness property of the
composed projections the rate is geometric.

Approximate m-steps are supported through a caller-supplied oracle that
returns both a raw iterate (objective within eps1 of the exact
projection) and a repaired in-family iterate within divergence eps2 of
it; the e-step consumes the raw iterate, which shares its mixture
coordinates along the generator directions, and the returned estimate
is the repaired iterate at the best recorded round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional

import numpy as np

from . import core
from .core import BregmanSystem
from .errors import ArgumentError, NonMembershipError, OracleContractError
from .families import (ClosedConvexMixtureFamily, ExponentialSubfamily,
                       MixtureSubfamily, e_project, m_project,
                       m_project_closed_convex)

__all__ = [
    "EmIterate",
    "EmOptions",
    "EmTrace",
    "convergence_bound",
    "exponential_bound",
    "run_em",
    "run_em_approx",
    "run_em_closed_convex",
    "write_trace_csv",
]

@dataclass
class EmOptions:
    """Options shared by the em entry points.

    ``max_iterations`` is the highest iterate index t1 (so t1 - 1
    alternation rounds run).  A loop that records a dual lower bound
    (the tilt solvers ``solve_rd``, ``solve_rd_side_info`` and
    ``solve_rd_multi``) stops once the gap between objective and bound
    is at most ``objective_tolerance``, so its ``converged`` is a
    certificate; the others (``run_em*`` and the solvers built on them,
    ``solve_qrd``) stop once the objective decreases by less than it,
    which certifies nothing.  So a tolerance of 0 runs every round of
    the latter, but stops a certified loop at the first round whose gap
    rounds to at most 0.  The tilt solvers default to 1000 iterations
    when given no options; a near-zero-rate level may need several
    hundred rounds, so a ``max_iterations`` below that can leave it
    uncertified (``converged`` False).  ``divergence_slack`` is the
    repair budget of :func:`run_em_approx`.  ``reference_divergence``
    feeds the bound column of the trace; ``low_memory`` keeps only
    scalars per round, which disables final-round selection (the
    records of ``solve_qrd`` and of the tilt solvers hold scalars only
    either way).  ``iteration_hook`` receives each recorded round (for
    contraction-ratio logging and the like).
    """

    max_iterations: int = 200
    objective_tolerance: float = 1e-10
    divergence_slack: float = 0.0
    low_memory: bool = False
    reference_divergence: Optional[float] = None
    iteration_hook: Optional[Callable] = None


@dataclass
class EmIterate:
    """One recorded round.

    ``t`` is the iterate index (first round is t=2).  ``theta_m`` is
    the m-step output (the repaired iterate in approximate mode),
    ``theta_e`` the e-step output, ``theta_bar`` the raw approximate
    iterate when applicable.  ``selection_value`` is the final-round
    selection criterion D(theta_m||previous e) - D(theta_m||theta_bar).
    The tilt solvers (``solve_rd``, ``solve_rd_side_info``,
    ``solve_rd_multi``) and ``solve_qrd`` leave ``theta_m`` and
    ``theta_e`` empty: their records hold scalars and slopes only.
    The tilt solvers also fill ``lower_bound``, Blahut's dual bound on
    the optimum at the round's output law and tilt (NaN elsewhere), and
    ``gap`` is the objective minus that bound; ``finish`` marks a round
    that is the KKT point of the finishing Newton step rather than an
    alternation round.
    """

    t: int
    objective: float
    pre_e_objective: float
    bound: float
    tau: np.ndarray
    constraint_residual: float
    selection_value: float
    theta_m: Optional[np.ndarray] = None
    theta_e: Optional[np.ndarray] = None
    theta_bar: Optional[np.ndarray] = None
    facet_index: Optional[int] = None
    lower_bound: float = math.nan
    finish: bool = False

    @property
    def gap(self) -> float:
        return self.objective - self.lower_bound


@dataclass
class EmTrace:
    """Recorded history plus the selected final estimate."""

    records: list = dataclass_field(default_factory=list)
    final_index: int = 0
    final_theta: Optional[np.ndarray] = None
    converged: bool = False
    mode: str = "exact"
    selection_enabled: bool = True

    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.records])

    def pre_e_objectives(self) -> np.ndarray:
        return np.array([r.pre_e_objective for r in self.records])

    def record_for(self, t: int) -> EmIterate:
        for r in self.records:
            if r.t == t:
                return r
        raise ArgumentError(f"no record for iterate {t}")


def convergence_bound(t: int, reference_divergence: float) -> float:
    """Objective-gap bound reference/(t-1) for iterate index t >= 2."""
    if int(t) != t or t < 2:
        raise ArgumentError("the bound applies from iterate index 2 on")
    if reference_divergence < 0.0:
        raise ArgumentError("reference divergence must be non-negative")
    return reference_divergence / (t - 1)


def exponential_bound(contraction: float, t: int,
                      initial_divergence: float) -> float:
    """Geometric bound contraction^(t-2) * initial for t >= 2, under a
    strict non-expansiveness factor in (0, 1)."""
    if not 0.0 < contraction < 1.0:
        raise ArgumentError("contraction factor must lie in (0, 1)")
    if int(t) != t or t < 2:
        raise ArgumentError("the bound applies from iterate index 2 on")
    if initial_divergence < 0.0:
        raise ArgumentError("initial divergence must be non-negative")
    return contraction ** (t - 2) * initial_divergence


def _options(options: Optional[EmOptions],
             default_iterations: int = 200) -> EmOptions:
    """The caller's options, or the defaults with ``default_iterations``;
    checks the fields every alternation reads."""
    if options is None:
        options = EmOptions(max_iterations=default_iterations)
    if options.max_iterations < 2:
        raise ArgumentError("max_iterations is the highest iterate index "
                            "and must be at least 2")
    if options.objective_tolerance < 0.0:
        raise ArgumentError("objective tolerance must be non-negative")
    return options


def _bound_at(options: EmOptions, t: int) -> float:
    if options.reference_divergence is None:
        return math.nan
    return options.reference_divergence / (t - 1)


class _Loop:
    """Shared bookkeeping for every alternation: the records, the bound
    column, ``iteration_hook``, the stop rule and the final selection.

    A round recorded with a ``lower_bound`` stops the loop once its gap
    is at most ``objective_tolerance``; a round without one stops it
    once |delta objective| falls below it.

    ``selection_enabled`` defaults to ``not options.low_memory``.  A
    record keeps the natural coordinates it is given (and none under
    ``low_memory``); a loop that gives none records scalars only.
    """

    def __init__(self, options: EmOptions, mode: str,
                 selection_enabled: Optional[bool] = None):
        self.options = options
        if selection_enabled is None:
            selection_enabled = not options.low_memory
        self.trace = EmTrace(mode=mode, selection_enabled=selection_enabled)
        self._previous_objective = None
        self._best_value = math.inf
        self._best_index = 0
        self._best_theta = None
        self._last_theta = None

    def record(self, t: int, theta_m, theta_e, theta_bar, tau,
               pre_e: float, objective: float, residual: float,
               bar_divergence: float, facet_index=None,
               lower_bound: Optional[float] = None,
               finish: bool = False) -> bool:
        """Store one round; returns True when iteration should stop."""
        options = self.options
        selection_value = pre_e - bar_divergence
        certified = lower_bound is not None
        if lower_bound is None:
            lower_bound = math.nan
        keep_arrays = not options.low_memory

        def kept(theta):
            return np.array(theta) if keep_arrays and theta is not None \
                else None

        record = EmIterate(
            t=t, objective=objective, pre_e_objective=pre_e,
            bound=_bound_at(options, t), tau=np.asarray(tau, dtype=float),
            constraint_residual=residual, selection_value=selection_value,
            theta_m=kept(theta_m), theta_e=kept(theta_e),
            theta_bar=kept(theta_bar), facet_index=facet_index,
            lower_bound=lower_bound, finish=finish)
        self.trace.records.append(record)
        theta = None if theta_m is None else np.array(theta_m)
        self._last_theta = theta
        if selection_value < self._best_value:
            self._best_value = selection_value
            self._best_index = t
            self._best_theta = theta
        if options.iteration_hook is not None:
            options.iteration_hook(record)
        previous = self._previous_objective
        self._previous_objective = objective
        if certified:
            # a NaN or infinite bound certifies nothing
            gap = record.gap
            stop = math.isfinite(gap) and gap <= options.objective_tolerance
        else:
            stop = previous is not None and abs(previous - objective) \
                < options.objective_tolerance
        self.trace.converged = stop
        return stop

    def finish(self) -> EmTrace:
        """The trace with its final round: the best selection value when
        selection is enabled, the last round otherwise."""
        trace = self.trace
        if trace.selection_enabled:
            trace.final_index = self._best_index
            trace.final_theta = self._best_theta
        else:
            trace.final_index = trace.records[-1].t if trace.records else 0
            trace.final_theta = self._last_theta
        return trace


def _require_member(exp_family: ExponentialSubfamily, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if not exp_family.contains(theta):
        raise NonMembershipError("the initial point must lie in the "
                                 "exponential subfamily")
    return theta


def _newton_seed(exp_family: ExponentialSubfamily, theta_e):
    """Coefficients that seed the next e-step's Newton solve; None for
    families whose e-projection is in closed form and needs no seed."""
    if exp_family._closed_e_projection is not None:
        return None
    return exp_family.coefficients_of(theta_e)[0]


def run_em(system: BregmanSystem, exp_family: ExponentialSubfamily,
           mix_family: MixtureSubfamily, theta_init,
           options: Optional[EmOptions] = None) -> EmTrace:
    """Exact alternation between the two projections.

    The objective D(m-iterate || e-iterate) descends monotonically; the
    returned estimate is the m-iterate at the round with the smallest
    pre-e-step objective.
    """
    options = _options(options)
    theta_e = _require_member(exp_family, theta_init)
    loop = _Loop(options, "exact")
    tau = None
    beta = None
    for t in range(2, options.max_iterations + 1):
        projection = m_project(system, mix_family, theta_e, tau_init=tau)
        tau = projection.tau
        theta_m = projection.theta
        pre_e = core.divergence(system, theta_m, theta_e)
        theta_e = e_project(system, exp_family, theta_m, beta_init=beta)
        beta = _newton_seed(exp_family, theta_e)
        objective = core.divergence(system, theta_m, theta_e)
        if loop.record(t, theta_m, theta_e, None, tau, pre_e, objective,
                       projection.constraint_residual, 0.0):
            break
    return loop.finish()


def run_em_approx(system: BregmanSystem, exp_family: ExponentialSubfamily,
                  mix_family: MixtureSubfamily, theta_init,
                  m_step_oracle: Callable,
                  options: Optional[EmOptions] = None) -> EmTrace:
    """Alternation with a caller-supplied approximate m-step.

    ``m_step_oracle(system, mix_family, theta, t)`` returns a triple
    ``(theta_bar, theta_repaired, tau)``: the raw iterate, whose
    objective should be near the exact projection value, and a repaired
    family member within divergence ``options.divergence_slack`` of it.
    The cheap halves of that contract (repair distance and family
    membership) are verified and raise OracleContractError on
    violation.
    """
    options = _options(options)
    if options.divergence_slack < 0.0:
        raise ArgumentError("divergence slack must be non-negative")
    theta_e = _require_member(exp_family, theta_init)
    loop = _Loop(options, "approx_m_step")
    beta = None
    for t in range(2, options.max_iterations + 1):
        theta_bar, theta_repaired, tau = m_step_oracle(
            system, mix_family, theta_e, t)
        bar_divergence = core.divergence(system, theta_repaired, theta_bar)
        if bar_divergence > options.divergence_slack + 1e-12:
            raise OracleContractError(
                "repair divergence %.3e exceeds the declared slack %.3e"
                % (bar_divergence, options.divergence_slack))
        if not mix_family.contains(system, theta_repaired, tol=1e-8):
            raise OracleContractError(
                "the repaired iterate is not a family member")
        pre_e = core.divergence(system, theta_repaired, theta_e)
        theta_e = e_project(system, exp_family, theta_bar, beta_init=beta)
        beta = _newton_seed(exp_family, theta_e)
        objective = core.divergence(system, theta_repaired, theta_e)
        residual = float(np.max(np.abs(
            mix_family.residuals(system, theta_repaired))))
        if loop.record(t, theta_repaired, theta_e, theta_bar, tau, pre_e,
                       objective, residual, bar_divergence):
            break
    return loop.finish()


def run_em_closed_convex(system: BregmanSystem,
                         exp_family: ExponentialSubfamily,
                         family: ClosedConvexMixtureFamily, theta_init,
                         options: Optional[EmOptions] = None) -> EmTrace:
    """Alternation whose m-step projects onto a closed convex mixture
    family through its facet cover."""
    options = _options(options)
    theta_e = _require_member(exp_family, theta_init)
    loop = _Loop(options, "closed_convex")
    beta = None
    inits: dict = {}
    for t in range(2, options.max_iterations + 1):
        projection = m_project_closed_convex(system, family, theta_e,
                                             tau_inits=inits)
        if projection.tau.size:
            inits[projection.facet_index] = projection.tau
        theta_m = projection.theta
        pre_e = core.divergence(system, theta_m, theta_e)
        theta_e = e_project(system, exp_family, theta_m, beta_init=beta)
        beta = _newton_seed(exp_family, theta_e)
        objective = core.divergence(system, theta_m, theta_e)
        if loop.record(t, theta_m, theta_e, None, projection.tau, pre_e,
                       objective, projection.constraint_residual, 0.0,
                       facet_index=projection.facet_index):
            break
    return loop.finish()


def _format_cell(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return format(value, ".17g")


def write_trace_csv(trace: EmTrace, path) -> None:
    """Serialize a trace deterministically.

    Columns: t, objective, pre_e_objective, bound, one column per dual
    coefficient, constraint_residual_max, and gap when the trace records
    a dual bound.  Floats carry 17 significant digits, the decimal
    separator is '.', rows end in LF; absent bounds are empty cells.
    """
    n_tau = max((r.tau.size for r in trace.records), default=0)
    gaps = any(not math.isnan(r.lower_bound) for r in trace.records)
    header = ["t", "objective", "pre_e_objective", "bound"]
    header += [f"tau_{i}" for i in range(n_tau)]
    header += ["constraint_residual_max"] + ["gap"] * gaps
    lines = [",".join(header)]
    for r in trace.records:
        cells = [str(r.t), _format_cell(r.objective),
                 _format_cell(r.pre_e_objective), _format_cell(r.bound)]
        for i in range(n_tau):
            cells.append(_format_cell(float(r.tau[i]))
                         if i < r.tau.size else "")
        cells.append(_format_cell(r.constraint_residual))
        if gaps:
            cells.append(_format_cell(r.gap))
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w", newline="") as handle:
            handle.write(text)
