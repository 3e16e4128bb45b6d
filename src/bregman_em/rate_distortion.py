"""Rate-distortion solvers built on alternating divergence minimization.

All solvers share one geometry: the exponential family of product (or
conditionally product) distributions meets the mixture family of joint
distributions with the source marginal and the prescribed mean
distortion.  The m-step tilts the current output distribution by an
exponential weight in the distortion and solves a one-dimensional
convex root-finding problem for the tilt parameter; the e-step
marginalizes.  :func:`solve_rd_side_info` runs that alternation on a
joint source law ``p_xs[x, s]``, and :func:`solve_rd` runs the same
side-information loop with one side symbol.  Its root comes from a
safeguarded Newton iteration on the mean distortion, whose derivative
is the tilted variance of the distortion (bisection takes over when a
step leaves the sign-change bracket or the steps run out).  Rates are
reported in nats.

That loop is certified.  Every round records Blahut's dual lower bound
(Blahut 1972, IEEE Trans. IT 18(4)) at its output law and tilt, and
the loop stops once the rate exceeds it by at most the tolerance, so
``converged`` there means a proven gap.  The alternation converges
geometrically only when the optimal output support is the whole
alphabet; on a sparse optimum it crawls.  So every few rounds the loop
guesses the support from the bound and solves the optimality
conditions on it by Newton's method, and keeps that point only when
its gap over the whole alphabet meets the tolerance.
:func:`solve_rd_multi` runs the same loop with one slope per distortion
ceiling, each kept non-positive.  The other solvers have no bound;
their ``converged`` means the objective stopped moving.

Every solver, :func:`bregman_em.quantum.solve_qrd` too, first checks its
level (:func:`_check_level`: not finite is an ``ArgumentError``, out of
reach an ``InfeasibleError``) and returns rate zero without a round when
an answer that ignores the input meets it (:func:`_zero_rate_weight`).

Variants: a budgeted solver whose m-step runs a fixed number of
bisection halvings and repairs the iterate by a two-point mixture, a
side-information solver over conditionally product families, a solver
for several simultaneous distortion ceilings (a tilt slope per ceiling,
found by projected Newton on the concave dual), and a full-dimensional
route that runs the generic engine on the simplex of joint
distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .classical import (ConditionalSystem, FeasibilityReport,
                        _channel_theta, _check_distribution,
                        canonical_simplex_system,
                        conditional_expectation_constraint,
                        distortion_feasibility, kl_divergence,
                        mutual_information, simplex_expectation_constraint)
from .convex import bisect, bisect_to_tolerance, expand_bracket
from .core import _ARMIJO_SLOPE, _BLOWUP_NORM
# run_em_closed_convex is unused here; the benchmark's timing shims wrap it
from .em import (EmOptions, EmTrace, _Loop, _options, run_em,  # noqa: F401
                 run_em_approx, run_em_closed_convex)
from .errors import (ArgumentError, ConvergenceError, InfeasibleError,
                     SupportError)
from .families import ExponentialSubfamily, MixtureSubfamily

__all__ = [
    "DistortionConstraint",
    "ExpConvergenceReport",
    "MODES",
    "RateDistortionProblem",
    "RdSolution",
    "check_exp_convergence",
    "solve_rd",
    "solve_rd_bisection",
    "solve_rd_fulldim",
    "solve_rd_multi",
    "solve_rd_side_info",
]

MODES = ("equality", "inequality")

_FEAS_TOL = 1e-12
_ROOT_TOL = 1e-12
_NEWTON_STEPS = 8
_FINISH_EVERY = 5
_FINISH_DELTAS = (0.05, 5e-3, 5e-4)
_FINISH_STEPS = 30
_FINISH_TOL = 1e-13
_TILT_STEPS = 100
_ARMIJO_HALVINGS = 60
_HELD = 1e-6
_RIDGE = 1e-12
_STEP_GROWTH = 10.0
_PHI_ROUND = 1e-14
_DEPENDENT = 1e-9
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class DistortionConstraint:
    """One distortion matrix (inputs as rows, outputs as columns) and
    its level; both must be finite."""

    matrix: np.ndarray
    level: float

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] < 2:
            raise ArgumentError("a distortion matrix needs two dimensions "
                                "and at least two outputs")
        if not np.all(np.isfinite(matrix)):
            raise ArgumentError("distortion entries must be finite")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "level", _check_level(
            self.level, -math.inf, math.inf, "inequality"))


@dataclass(frozen=True)
class RateDistortionProblem:
    """Validated problem container: source, constraints, mode.

    A single constraint dispatches to :func:`solve_rd`; several
    constraints require inequality mode and dispatch to
    :func:`solve_rd_multi`.
    """

    p_x: np.ndarray
    constraints: tuple
    mode: str = "equality"

    def __post_init__(self):
        p_x = _check_distribution(np.asarray(self.p_x, dtype=float), "p_x")
        constraints = tuple(self.constraints)
        if not constraints:
            raise ArgumentError("at least one distortion constraint is "
                                "required")
        for c in constraints:
            if not isinstance(c, DistortionConstraint):
                raise ArgumentError("constraints must be "
                                    "DistortionConstraint instances")
            if c.matrix.shape[0] != p_x.size:
                raise ArgumentError("distortion rows must match the source "
                                    "alphabet")
        n_outputs = constraints[0].matrix.shape[1]
        for c in constraints[1:]:
            if c.matrix.shape[1] != n_outputs:
                raise ArgumentError("all constraints must share the output "
                                    "alphabet")
        _check_mode(self.mode)
        if len(constraints) > 1 and self.mode != "inequality":
            raise ArgumentError("several simultaneous constraints are "
                                "supported in inequality mode only")
        object.__setattr__(self, "p_x", p_x)
        object.__setattr__(self, "constraints", constraints)

    @property
    def n_inputs(self) -> int:
        return self.p_x.size

    @property
    def n_outputs(self) -> int:
        return self.constraints[0].matrix.shape[1]

    def solve(self, options: Optional[EmOptions] = None,
              eps: Optional[float] = None) -> "RdSolution":
        if len(self.constraints) == 1:
            c = self.constraints[0]
            if eps is not None:
                return solve_rd_bisection(self.p_x, c.matrix, c.level, eps,
                                          mode=self.mode, options=options)
            return solve_rd(self.p_x, c.matrix, c.level, mode=self.mode,
                            options=options)
        if eps is not None:
            raise ArgumentError("the budgeted bisection protocol handles a "
                                "single constraint")
        return solve_rd_multi(self.p_x,
                              [c.matrix for c in self.constraints],
                              [c.level for c in self.constraints],
                              options=options)


@dataclass
class RdSolution:
    """Solver output.

    ``channel`` is row-stochastic with inputs as rows (for the
    side-information solver it is indexed [s][x][y] and
    ``output_marginal`` is per-s).  ``rate`` is the mutual information
    of the returned channel in nats; ``tau`` is the exponential tilt of
    the final m-step (for the multi-constraint solver, the non-positive
    slopes of ``active_constraints``, in that order).  ``guarantee`` is
    the certified objective value of the selected round for the
    budgeted protocol, None elsewhere.  ``converged`` is a certificate
    for :func:`solve_rd`, :func:`solve_rd_side_info` and
    :func:`solve_rd_multi` (the last record's ``gap``, rate minus
    Blahut's bound, is at most ``objective_tolerance``); for the other
    solvers it means the objective stopped moving, and their records'
    ``gap`` is NaN.
    """

    rate: float
    channel: np.ndarray
    output_marginal: np.ndarray
    tau: Union[float, np.ndarray]
    distortion: Union[float, np.ndarray]
    constraint_residual: float
    iterations: int
    converged: bool
    mode: str
    trace: EmTrace
    feasibility: Optional[FeasibilityReport] = None
    guarantee: Optional[float] = None
    active_constraints: Optional[tuple] = None


@dataclass(frozen=True)
class ExpConvergenceReport:
    """Rank diagnostic for the geometric-rate precondition.

    The alternation contracts geometrically only when the channel's
    columns span the full output space; ``holds`` records whether the
    numerical rank reaches the number of outputs.
    """

    singular_values: np.ndarray
    rank: int
    required_rank: int
    threshold: float
    holds: bool


def check_exp_convergence(channel, rtol: float = 1e-10
                          ) -> ExpConvergenceReport:
    """Singular-value rank test of a candidate channel."""
    w = np.asarray(channel, dtype=float)
    if w.ndim != 2:
        raise ArgumentError("channel must be a matrix")
    if not np.all(np.isfinite(w)):
        raise ArgumentError("channel entries must be finite")
    svals = np.linalg.svd(w, compute_uv=False)
    threshold = rtol * float(svals[0]) if svals.size else 0.0
    rank = int(np.sum(svals > threshold))
    required = w.shape[1]
    return ExpConvergenceReport(singular_values=svals, rank=rank,
                                required_rank=required, threshold=threshold,
                                holds=rank >= required)


def _check_mode(mode: str):
    if mode not in MODES:
        raise ArgumentError(f"mode must be one of {MODES}")


def _check_matrix(d, n_inputs: int) -> np.ndarray:
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[0] != n_inputs or d.shape[1] < 2:
        raise ArgumentError("distortion must have one row per input symbol "
                            "and at least two outputs")
    if not np.all(np.isfinite(d)):
        raise ArgumentError("distortion entries must be finite")
    return d


def _with_reference(options: EmOptions, value: Optional[float]) -> EmOptions:
    if options.reference_divergence is None and value is not None:
        return replace(options, reference_divergence=value)
    return options


def _check_level(level, lo: float, hi: float, mode: str) -> float:
    """``level`` as a float once it is finite and reachable: at least
    ``lo``, and in equality mode at most ``hi``, within ``_FEAS_TOL``."""
    level = float(level)
    if not math.isfinite(level):
        raise ArgumentError("the distortion level must be finite, got %r"
                            % level)
    if level < lo - _FEAS_TOL:
        raise InfeasibleError(
            "no channel reaches mean distortion %.6g; the achievable "
            "minimum is %.6g" % (level, lo))
    if mode == "equality" and level > hi + _FEAS_TOL:
        raise InfeasibleError(
            "mean distortion %.6g is outside the achievable range "
            "[%.6g, %.6g]" % (level, lo, hi))
    return level


def _zero_rate_weight(lo: float, hi: float, level: float,
                      mode: str) -> Optional[float]:
    """Weight on the dearest product answer of a rate-zero solution, or
    None when the constraint forces dependence on the input.

    ``lo`` and ``hi`` are the least and greatest distortions of the
    answers that ignore the input (Blahut 1972: such an answer is
    optimal once it meets the level).  Inequality mode: the cheapest
    one works as soon as it meets the ceiling, weight 0.  Equality
    mode: the mixture of the cheapest and dearest ones with this weight
    interpolates any level inside ``[lo, hi]``.
    """
    if level < lo - _FEAS_TOL or (mode == "equality"
                                  and level > hi + _FEAS_TOL):
        return None
    if mode == "inequality" or hi - lo <= _FEAS_TOL:
        return 0.0
    return float(np.clip((level - lo) / (hi - lo), 0.0, 1.0))


def _zero_rate_marginal(report: FeasibilityReport,
                        level: float, mode: str) -> Optional[np.ndarray]:
    """Output distribution of a rate-zero solution (one per side symbol
    when ``report.per_output`` has a row per side symbol), or None: the
    mixture of the cheapest and dearest outputs weighted by
    :func:`_zero_rate_weight`, with one weight for every side symbol."""
    lam = _zero_rate_weight(report.min_product, report.max_product, level,
                            mode)
    if lam is None:
        return None
    per_output = np.atleast_2d(report.per_output)
    rows = np.arange(per_output.shape[0])
    q = np.zeros(per_output.shape)
    q[rows, per_output.argmin(axis=1)] += 1.0 - lam
    q[rows, per_output.argmax(axis=1)] += lam
    return q.reshape(report.per_output.shape)


def _start(p, distortion, level, mode: str):
    """``(d, level, report, q0)`` of a single-constraint problem on the
    source law ``p`` (a joint ``p_xs[x, s]`` with side information): the
    checked matrix and level, the feasibility report and the rate-zero
    output law of :func:`_zero_rate_marginal`, or None."""
    d = _check_matrix(distortion, p.shape[0])
    _check_mode(mode)
    report = distortion_feasibility(p, d, level)
    level = _check_level(level, report.achievable_min, report.achievable_max,
                         mode)
    return d, level, report, _zero_rate_marginal(report, level, mode)


def _zero_rate_solution(p, d, q, level, mode, report,
                        engine_mode: str) -> RdSolution:
    """Rate-zero answer in which every input row of a side symbol gets
    that symbol's output law; ``p`` is the source law, side-major
    ``p[s, x]`` with ``q[s, y]`` for side information."""
    w = np.broadcast_to(q[..., None, :], p.shape + d.shape[1:]).copy()
    distortion = _mean_distortion(p, w, d)
    return RdSolution(
        rate=0.0, channel=w, output_marginal=q, tau=0.0,
        distortion=distortion,
        constraint_residual=(abs(distortion - level)
                             if mode == "equality" else 0.0),
        iterations=0, converged=True, mode=mode,
        trace=EmTrace(records=[], final_index=0, final_theta=None,
                      converged=True, mode=engine_mode),
        feasibility=report)


def _tilted_channel(log_q, tau: float, d) -> np.ndarray:
    """Row-normalized q_y * exp(tau * d(x, y)) from ``log_q``; a stack
    of output laws ``log_q[s, y]`` gives one channel per side symbol.
    Each row is shifted by its largest exponent ``tau d + log q``, so
    no row underflows to 0/0 however large ``|tau|`` grows, even where
    ``q`` has zeros (``log q = -inf``)."""
    a = tau * d + log_q[..., None, :]
    w = np.exp(a - a.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def _log(q) -> np.ndarray:
    """``log q`` with ``-inf`` for the zeros, without a warning."""
    with np.errstate(divide="ignore"):
        return np.log(q)


def _mean_distortion(p, w, d) -> float:
    return float(np.sum(p[..., None] * w * d))


def _newton_tilt(tilt, tau: float,
                 step0: float) -> tuple[float, np.ndarray]:
    """Root of the increasing residual ``g(tau) = E_tau[d] - level``.

    ``tilt(tau)`` returns ``(g, g', w)``: the residual, its derivative
    (the tilted variance of the distortion) and the tilted channel.
    Safeguarded Newton in the style of ``rtsafe``: the root is
    bracketed by :func:`expand_bracket` from ``tau`` with ``step0``,
    a Newton step that leaves the shrinking sign-change bracket is
    replaced by the bracket's midpoint, and :func:`bisect_to_tolerance`
    finishes on the bracket when ``|g| <= _ROOT_TOL`` is still unmet
    after ``_NEWTON_STEPS`` steps.  Returns the root and the channel
    computed at exactly that root.
    """
    seen = {}

    def evaluate(x):
        # the last three points: the bracket ends and the newest iterate
        if x not in seen:
            if len(seen) == 3:
                del seen[next(iter(seen))]
            seen[x] = tilt(x)
        return seen[x]

    def g(x):
        return evaluate(x)[0]

    a = b = tau
    if not abs(g(tau)) <= _ROOT_TOL:    # a NaN residual brackets too
        a, b = expand_bracket(g, tau, step0)
        for x, (gx, _, _) in seen.items():
            if gx < 0.0:
                a = max(a, x)
            elif gx > 0.0:
                b = min(b, x)
    x = min(seen, key=lambda v: abs(seen[v][0]))
    gx, slope, w = seen[x]
    steps = 0
    while not abs(gx) <= _ROOT_TOL:
        if gx < 0.0:
            a = x
        else:
            b = x
        if steps == _NEWTON_STEPS:
            x = bisect_to_tolerance(g, a, b, value_tolerance=_ROOT_TOL).x
            return x, evaluate(x)[2]
        steps += 1
        x = x - gx / slope if slope > 0.0 else math.nan
        if not a < x < b:
            x = 0.5 * (a + b)
        gx, slope, w = evaluate(x)
    return x, w


def _tilt_at(p, log_q, d, level: float, tau: float):
    """``(g, g', w)`` of the tilt ``tau`` for :func:`_newton_tilt`: the
    residual ``E_tau[d] - level``, the tilted variance and the channel.
    ``p`` is the source law flattened side-major to match ``w``."""
    w = _tilted_channel(log_q, tau, d)
    mean = (w * d).sum(axis=-1)
    variance = (w * (d - mean[..., None]) ** 2).sum(axis=-1)
    return (float(p @ mean.ravel()) - level, float(p @ variance.ravel()),
            w)


def _log_partition(log_q, tau, d):
    """``(a, log Z)``: the tilt exponent ``a = sum_i tau_i d_i`` (``tau *
    d`` for one slope and one matrix, else the contraction of the slope
    vector with the stack ``d[i]``) and ``log Z[s, x] = log sum_y q[s, y]
    e^{a(x, y)}`` at the output laws ``log_q[s, y]``, each row shifted by
    its largest term."""
    a = np.tensordot(tau, d, 1) if isinstance(tau, np.ndarray) else tau * d
    b = a + log_q[:, None, :]
    top = b.max(axis=-1)
    return a, top + np.log(np.exp(b - top[..., None]).sum(axis=-1))


def _blahut_terms(p_cond, log_q, tau, d):
    """``(log Z, c)`` of the tilt ``tau`` at the output laws ``q[s, y]``:
    ``Z[s, x] = sum_y q[s, y] e^{a(x, y)}`` and ``c[s, y] = sum_x p(x|s)
    e^{a(x, y)} / Z[s, x]`` (``q_next / q`` where ``q > 0``), with the
    exponent ``a`` of :func:`_log_partition`.  ``c`` comes from the kernel,
    not from that quotient, so an output with ``q = 0`` gets its ``c``
    too; an overflowing kernel gives an infinite ``c``, never a
    warning."""
    a, log_z = _log_partition(log_q, tau, d)
    with np.errstate(over="ignore"):
        c = np.einsum("sx,sxy->sy", p_cond, np.exp(a - log_z[..., None]))
    return log_z, c


def _ceiling_dual(p, log_q, d, level, tau):
    """``(phi, grad, cov, w)`` at the slopes ``tau`` of the dual of the
    ceilings ``E d_i <= level_i`` at one output law ``log_q[0]``:
    ``phi = tau . level - sum_x p(x) log Z(x)``, its gradient ``level -
    E_tau[d]``, the tilted covariance matrix of the stack ``d`` (minus
    the Hessian) and the tilted channel ``w[0, x, y]``."""
    a, log_z = _log_partition(log_q, tau, d)
    w = np.exp(a + log_q[:, None, :] - log_z[..., None])
    mean = (w * d).sum(axis=-1)
    spread = d - mean[..., None]
    cov = np.einsum("x,ixy,jxy->ij", p, w * spread, spread)
    return (float(tau @ level - p @ log_z[0]), level - mean @ p, cov, w)


def _ceiling_tilt(p, log_q, d, level, tau) -> tuple[np.ndarray, np.ndarray]:
    """Slopes ``tau <= 0`` that maximize the concave dual of the ceilings
    ``E d_i <= level_i`` at one output law (:func:`_ceiling_dual`), and
    their channel: the channel nearest in KL to the product with ``q``
    that meets every ceiling, with equality wherever ``tau_i < 0``.

    Projected Newton (Bertsekas 1982, SIAM J. Control Optim. 20(2))
    from ``tau``.  A slope whose ceiling holds and that lies within
    ``_HELD`` (or the projected gradient, if smaller) of 0 is set to 0;
    the others take the Newton step on their tilted covariance, with a
    ridge of ``_RIDGE`` times its mean variance so that dependent
    ceilings (a duplicate, say) still give a step, or the gradient
    where no curvature is left, at most ``_STEP_GROWTH * (1 + max
    |tau|)`` long.  An Armijo search
    along the projection onto ``tau <= 0`` keeps the dual rising.  It
    stops once the projected gradient is at most ``_ROOT_TOL``: every
    ceiling met, and every one with a negative slope met with equality,
    within that tolerance.  A dual without a maximum has diverging
    slopes: once the dual exceeds ``max_y log(1 / q_y)``, the largest KL
    of any channel from the product, or a slope passes
    ``core._BLOWUP_NORM``, the ceilings are jointly unreachable, an
    ``InfeasibleError``.  A search that stalls raises
    ``ConvergenceError``.
    """
    phi, grad, cov, w = _ceiling_dual(p, log_q, d, level, tau)
    # no channel is further than this from the product in KL, so a dual
    # value above it proves the ceilings unreachable (weak duality)
    most = -float(log_q[np.isfinite(log_q)].min())
    for _ in range(_TILT_STEPS):
        move = np.abs(np.minimum(tau + grad, 0.0) - tau).max()
        if move <= _ROOT_TOL:
            return tau, w
        held = (tau >= -min(move, _HELD)) & (grad > 0.0)
        free = ~held
        step = np.zeros_like(tau)
        if free.any():
            c = cov[np.ix_(free, free)]
            ridge = _RIDGE * float(np.trace(c)) / c.shape[0]
            cap = _STEP_GROWTH * (1.0 + np.abs(tau).max())
            try:
                newton = np.linalg.solve(c + ridge * np.eye(c.shape[0]),
                                         grad[free])
            except np.linalg.LinAlgError:
                newton = np.full(c.shape[0], np.nan)
            if not np.all(np.isfinite(newton)):
                # no curvature left: the dual is linear here
                newton = grad[free] * (cap / np.abs(grad[free]).max())
            longest = np.abs(newton).max()
            step[free] = newton * (cap / longest if longest > cap else 1.0)
        slack = _PHI_ROUND * (1.0 + abs(phi)
                              + float(np.abs(tau) @ np.abs(level)))
        alpha = 1.0
        for _ in range(_ARMIJO_HALVINGS):
            trial = np.where(held, 0.0, np.minimum(tau + alpha * step, 0.0))
            point = _ceiling_dual(p, log_q, d, level, trial)
            if point[0] >= phi + _ARMIJO_SLOPE * float(grad @ (trial - tau)) \
                    - slack:
                break
            alpha *= 0.5
        else:
            raise ConvergenceError("the slopes of the distortion ceilings "
                                   "stalled: no step raises the dual")
        tau = trial
        phi, grad, cov, w = point
        if phi > most + slack or np.abs(tau).max() > _BLOWUP_NORM:
            raise InfeasibleError("no channel meets every distortion "
                                  "ceiling at once: the dual slopes "
                                  "diverge")
    raise ConvergenceError("the slopes of the distortion ceilings did not "
                           "converge in %d Newton steps" % _TILT_STEPS)


def _independent(cov, order) -> np.ndarray:
    """Mask of a linearly independent set of the constraints whose
    tilted covariance is ``cov``, taken greedily in ``order``: one joins
    when more than ``_DEPENDENT`` of its variance is left after
    projecting out the members."""
    keep = np.zeros(cov.shape[0], bool)
    for i in order:
        members = np.flatnonzero(keep)
        left = cov[i, i] - cov[i, members] @ np.linalg.solve(
            cov[np.ix_(members, members)], cov[members, i])
        keep[i] = left > _DEPENDENT * cov[i, i]
    return keep


def _product_point(per_output, level, q, active) -> Optional[np.ndarray]:
    """An output law whose product channel meets every ceiling, or None:
    ``q`` moved the least (in Euclid's norm) onto the ceilings
    ``active``, each met with equality, and onto the simplex.  Outputs
    that turn negative leave the support one at a time, the most
    negative first; ``per_output[i, y]`` is the mean of ``d_i`` on
    output ``y``."""
    support = q > 0.0
    while support.any():
        rows = np.vstack([per_output[active][:, support],
                          np.ones(support.sum())])
        target = np.append(level[active], 1.0)
        u = q[support] + np.linalg.lstsq(rows, target - rows @ q[support],
                                         rcond=None)[0]
        if u.min() >= 0.0:
            point = np.zeros_like(q)
            point[support] = u
            # more rows than outputs leave a least-squares misfit
            met = abs(u.sum() - 1.0) <= _FEAS_TOL and np.all(
                per_output @ point <= level + _FEAS_TOL)
            return point if met else None
        support[np.flatnonzero(support)[np.argmin(u)]] = False
    return None


def _kkt_point(p_joint, p_cond, d, level, support, q, tau):
    """Output laws and tilt that solve the optimality conditions on
    ``support`` (a mask shaped like ``q[s, y]``), or None.

    A scalar ``tau`` pins the level of the one matrix ``d``; a slope
    vector goes with the ceilings ``E d_i <= level_i`` of a stack
    ``d[i]``, and the active ones are those with ``tau_i < 0``.  Newton's
    method on ``c[s, y](q, tau) = 1`` for ``y`` in the support together
    with ``E[d_i] = level_i`` for each active ``i``, in the unknowns
    ``(q[s, support], tau_active)`` with ``q = 0`` off the support and
    the other slopes 0, started from ``(q, tau)``.  The Jacobian is
    closed-form: ``dc_y/dq_j = -sum_x p(x|s) e_xy e_xj / Z_x^2``,
    ``dc_y/dtau_i`` and ``dE[d_i]/dq_y`` are tilted covariances of ``e_y
    / Z`` with ``d_i``, and ``dE[d_i]/dtau_j`` is the tilted covariance
    of ``d_i`` and ``d_j``.  The solve restarts on a smaller problem
    when the solution has a negative ``q`` (the most negative output
    leaves the support) and, under ceilings, when it has a positive
    slope (the largest leaves the active set) or when the active
    ceilings are linearly dependent on the support: all but an
    independent set, kept greedily from the steepest slope, leave, and
    the kept slopes absorb theirs by regression on the covariance.  A
    solution that breaks an inactive ceiling by more than ``_FEAS_TOL``
    makes the most broken one active.  A singular or non-finite step, a
    side with an empty support, no active constraint, a support and
    active set met before and a solve that does not reach the residual
    target give None.  The tilt comes back shaped as it was given.
    """
    pinned = np.ndim(tau) == 0
    stack = np.reshape(d, (-1,) + d.shape[-2:])
    levels = np.atleast_1d(level)
    slopes = np.atleast_1d(tau)
    active = np.ones(1, bool) if pinned else slopes < 0.0
    support = support.copy()
    tried = set()
    with np.errstate(all="ignore"):
        while support.any(axis=1).all() and active.any():
            key = (active.tobytes(), support.tobytes())
            if key in tried:
                return None
            tried.add(key)
            rows = np.flatnonzero(active)
            sides = [np.flatnonzero(row) for row in support]
            chosen = stack[rows]
            columns = [chosen[:, :, idx] for idx in sides]
            bounds = np.cumsum([0] + [idx.size for idx in sides])
            u = np.concatenate([q[s, idx] for s, idx in enumerate(sides)])
            x = slopes[rows].astype(float)
            target = levels[rows]
            n, k = u.size, rows.size
            dependent = None
            ws = [None] * len(sides)
            for it in range(_FINISH_STEPS):
                f = np.empty(n + k)
                jac = np.zeros((n + k, n + k))
                f[n:] = -target
                for s, ds in enumerate(columns):
                    part = slice(bounds[s], bounds[s + 1])
                    a = x[0] * ds[0]
                    for i in range(1, k):
                        a = a + x[i] * ds[i]
                    e = np.exp(a - a.max(axis=1, keepdims=True))
                    e /= (e @ u[part])[:, None]
                    ws[s] = w = e * u[part]
                    f[part] = p_cond[s] @ e - 1.0
                    jac[part, part] = -(e.T * p_cond[s]) @ e
                    means = (w * ds).sum(axis=-1)
                    spread = ds - means[..., None]
                    for i in range(k):
                        dev = e * spread[i]
                        jac[part, n + i] = p_cond[s] @ dev
                        jac[n + i, part] = p_joint[s] @ dev
                        f[n + i] += p_joint[s] @ means[i]
                        for j in range(i, k):
                            jac[n + i, n + j] += p_joint[s] @ (
                                dev * u[part] * spread[j]).sum(axis=1)
                            jac[n + j, n + i] = jac[n + i, n + j]
                if not np.all(np.isfinite(f)):
                    return None
                if it == 0 and not pinned:
                    # at the start u = q >= 0, so this block is a covariance
                    dependent = ~_independent(jac[n:, n:], np.argsort(x))
                    if dependent.any():
                        break
                if np.abs(f).max() <= _FINISH_TOL:
                    break
                try:
                    step = np.linalg.solve(jac, -f)
                except np.linalg.LinAlgError:
                    return None
                if not np.all(np.isfinite(step)):
                    return None
                u += step[:n]
                x += step[n:]
            else:
                return None
            if dependent is not None and dependent.any():
                # the kept slopes take over the tilt of the dropped ones
                cov, keep = jac[n:, n:], ~dependent
                slopes = slopes.astype(float)
                slopes[rows[keep]] = x[keep] + np.linalg.solve(
                    cov[np.ix_(keep, keep)],
                    cov[np.ix_(keep, dependent)]) @ x[dependent]
                active[rows[dependent]] = False
                continue
            worst = int(np.argmin(u))
            if u[worst] < 0.0:
                s = int(np.searchsorted(bounds, worst, side="right")) - 1
                support[s, sides[s][worst - bounds[s]]] = False
                continue
            if not pinned:
                if x.max() > 0.0:
                    active[rows[np.argmax(x)]] = False
                    continue
                excess = sum((w * stack[:, :, idx]).sum(axis=-1) @ p_joint[s]
                             for s, (w, idx) in enumerate(zip(ws, sides)))
                excess = np.where(active, -np.inf, excess - levels)
                if excess.max() > _FEAS_TOL:
                    active[np.argmax(excess)] = True
                    continue
            point = np.zeros_like(q)
            point[support] = u
            if pinned:
                return point, float(x[0])
            slopes = np.zeros_like(slopes, dtype=float)
            slopes[rows] = x
            return point, slopes
    return None


class _Round(NamedTuple):
    """One round of :func:`_tilt_loop`: the tilt, its channel, the next
    output laws, the two divergences, the distortion and its residual,
    Blahut's bound and the ``c`` it came from."""

    tau: Union[float, np.ndarray]
    channel: np.ndarray
    output_marginal: np.ndarray
    pre_e: float
    objective: float
    distortion: Union[float, np.ndarray]
    residual: float
    lower_bound: float
    c: np.ndarray


def _tilt_loop(p_xs, p_x_given_s, d, level, q, mode: str,
               report: Optional[FeasibilityReport],
               options: EmOptions) -> RdSolution:
    """The alternation of :func:`solve_rd_side_info` on the joint source
    ``p_xs[x, s]`` from the output laws ``q[s, y]``, with a certified
    stop and a finishing Newton step.

    A scalar ``level`` pins the mean of the one matrix ``d``; a vector
    of levels sets ceilings ``E d_i <= level_i`` on a stack ``d[i]``
    (one side symbol).  Each round tilts every ``q[s]`` by the exponent
    ``a = sum_i tau_i d_i``, one shared slope per constraint, and
    replaces ``q[s]`` by the output law of the tilted channel under the
    source law ``p_x_given_s[:, s]``.  The slope meets a pinned level
    by :func:`_newton_tilt`; slopes ``tau <= 0`` for ceilings come from
    :func:`_ceiling_tilt`.  The round records Blahut's bound ``tau .
    level - sum p(x, s) log Z[s, x] - sum_s p(s) max_y log c[s, y]`` at
    its ``(q, tau)`` (:func:`_blahut_terms`), and the loop stops once
    objective minus bound is at most ``objective_tolerance``.  Every
    ``_FINISH_EVERY`` rounds it guesses the optimal support as ``{y :
    c[s, y] >= 1 - delta}`` for each ``delta`` in ``_FINISH_DELTAS``,
    solves the optimality conditions there and on the ceilings with a
    negative slope (:func:`_kkt_point`), and keeps the result as one
    more round, flagged ``finish``, only when its gap over the whole
    output alphabet meets the tolerance and it meets every ceiling
    within ``_FEAS_TOL``; so a wrong guess costs time, never accuracy.
    Under ceilings it first tries the output law nearest ``q`` whose
    product channel meets every ceiling (:func:`_product_point`): at
    rate zero the slopes only vanish in the limit, so the alternation
    alone would crawl there.

    The records hold scalars and the slopes only, and
    ``trace.final_theta`` is None.  ``channel`` is ``w[s, x, y]``, the
    channel at exactly the returned tilt, and ``rate`` is the KL of its
    joint against the product with ``output_marginal``.
    """
    p_joint = np.ascontiguousarray(p_xs.T)
    p_flat = p_joint.ravel()
    p_cond = np.ascontiguousarray(p_x_given_s.T)
    p_s = p_joint.sum(axis=1)
    product = p_joint[:, :, None]
    ceilings = np.ndim(level) == 1
    per_output = p_flat @ d if ceilings else None
    loop = _Loop(options, "exact", selection_enabled=False)
    tolerance = options.objective_tolerance
    max_t = options.max_iterations

    def alternate(q, tau, step0) -> _Round:
        log_q = _log(q)
        if ceilings:
            tau, w = _ceiling_tilt(p_flat, log_q, d, level, tau)
        else:
            tau, w = _newton_tilt(
                lambda x: _tilt_at(p_flat, log_q, d, level, x), tau, step0)
        joint = product * w
        q_next = (p_cond[:, None, :] @ w)[:, 0]
        log_z, c = _blahut_terms(p_cond, log_q, tau, d)
        max_log_c = _log(c).max(axis=1)
        # under a ceiling the bound needs tau <= 0, which holds: a
        # binding pinned level lies below the product channels' mean
        # distortion, and _ceiling_tilt keeps its slopes non-positive
        bound = (float(tau @ level) if ceilings else tau * level) \
            - float(p_flat @ log_z.ravel()) - float(p_s @ max_log_c)
        if ceilings:
            distortion = np.einsum("sxy,ixy->i", joint, d)
            residual = max(0.0, float((distortion - level).max()))
        else:
            distortion = float(np.sum(joint * d))
            residual = abs(distortion - level)
        return _Round(
            tau, w, q_next, kl_divergence(joint, product * q[:, None, :]),
            kl_divergence(joint, product * q_next[:, None, :]),
            distortion, residual, bound, c)

    def candidates(r: _Round):
        """The points ``(q, tau)`` that :func:`finish` tries."""
        if ceilings:
            # slopes that vanish in the limit: a product may meet them
            q0 = _product_point(per_output, level, r.output_marginal[0],
                                r.tau < 0.0)
            if q0 is not None:
                yield q0[None], np.zeros_like(r.tau)
        support = None
        for delta in _FINISH_DELTAS:
            guess = r.c >= 1.0 - delta
            if support is not None and np.array_equal(guess, support):
                continue
            support = guess
            point = _kkt_point(p_joint, p_cond, d, level, support,
                               r.output_marginal, r.tau)
            if point is not None:
                yield point

    def finish(r: _Round, step0) -> Optional[_Round]:
        for point in candidates(r):
            try:
                candidate = alternate(*point, step0)
            except (ConvergenceError, InfeasibleError):
                # ceilings that no channel on the guessed support meets
                continue
            gap = candidate.objective - candidate.lower_bound
            if math.isfinite(gap) and gap <= tolerance and not (
                    ceilings and candidate.residual > _FEAS_TOL):
                return candidate
        return None

    def record(t, r: _Round, finish: bool = False) -> bool:
        return loop.record(t, None, None, None,
                           r.tau if ceilings else [r.tau],
                           r.pre_e, r.objective, r.residual, 0.0,
                           lower_bound=r.lower_bound, finish=finish)

    tau = np.zeros(len(level)) if ceilings else 0.0
    step0 = 1.0
    t = 1
    while t < max_t:
        t += 1
        r = alternate(q, tau, step0)
        if not ceilings:
            step0 = max(1e-8, 4.0 * abs(r.tau - tau))
        stop = record(t, r)
        if not (stop or t == max_t or (t - 1) % _FINISH_EVERY):
            kkt = finish(r, step0)
            if kkt is not None:
                t += 1
                r = kkt
                stop = record(t, r, finish=True)
        tau, q = r.tau, r.output_marginal
        if stop:
            break
    trace = loop.finish()
    last = trace.records[-1]
    return RdSolution(
        rate=last.objective, channel=r.channel, output_marginal=q, tau=tau,
        distortion=r.distortion,
        constraint_residual=last.constraint_residual, iterations=last.t,
        converged=trace.converged, mode=mode, trace=trace,
        feasibility=report)


def solve_rd(p_x, distortion, level: float, mode: str = "equality",
             options: Optional[EmOptions] = None,
             initial_marginal=None) -> RdSolution:
    """Minimize mutual information under a mean-distortion constraint.

    Each round tilts the current output marginal exponentially in the
    distortion, solving for the tilt that meets the level exactly by a
    safeguarded Newton iteration (:func:`_newton_tilt`), and then
    replaces the marginal by the tilted channel's output distribution.
    This is the side-information loop of :func:`solve_rd_side_info`
    run with one side symbol.  Monotone descent with gap bounded by
    log(n_outputs)/(t-1) from the uniform start.  It stops once the
    rate is within ``objective_tolerance`` of Blahut's lower bound, and
    every five rounds tries to finish with Newton's method on the
    optimality conditions over a guessed support (see
    :func:`_tilt_loop`).  Inequality mode returns a rate-zero
    product solution whenever the ceiling is slack; otherwise the
    constraint binds and the equality iteration runs.

    The records hold scalars only (``theta_m``/``theta_e`` stay None,
    whatever ``low_memory`` says, and selection is off).
    ``trace.final_theta`` holds the natural coordinates of the final
    channel when every cell is positive and is None when an output is
    empty.
    """
    p_x = _check_distribution(np.asarray(p_x, dtype=float), "p_x")
    options = _options(options, 1000)
    d, level, report, q0 = _start(p_x, distortion, level, mode)
    if q0 is not None:
        return _zero_rate_solution(p_x, d, q0, level, mode, report, "exact")

    n2 = d.shape[1]
    if initial_marginal is None:
        q = np.full(n2, 1.0 / n2)
        options = _with_reference(options, math.log(n2))
    else:
        q = _check_distribution(np.asarray(initial_marginal, dtype=float),
                                "initial_marginal")
        if q.size != n2:
            raise ArgumentError("initial_marginal must have one entry per "
                                "output")

    p = p_x[:, None]
    solution = _tilt_loop(p, p, d, level, q[None, :], mode, report, options)
    w = solution.channel[0]
    solution.trace.final_theta = (_channel_theta(w) if np.all(w > 0.0)
                                  else None)
    return replace(solution, channel=w,
                   output_marginal=solution.output_marginal[0])


class _ProductFamily(ExponentialSubfamily):
    """Products of the source law with a free output distribution.

    ``output_marginal(system, theta)`` is the output law of the point
    ``theta``.  The e-projection onto products is that marginal
    (Blahut 1972), so it needs no Newton solve.
    """

    def __init__(self, anchor, generators, output_marginal):
        super().__init__(anchor, generators)
        self._output_marginal = output_marginal

    def _closed_e_projection(self, system, theta) -> np.ndarray:
        with np.errstate(under="ignore"):
            q = self._output_marginal(system, theta)
        if not np.all(q >= _TINY):
            raise SupportError("an output cell of the marginal is empty or "
                               "underflowed; the optimal support is smaller "
                               "than the output alphabet")
        log_q = np.log(q)
        return log_q[1:] - log_q[0]


def _product_family(system: ConditionalSystem) -> ExponentialSubfamily:
    """Product channels inside a conditional system: every input row
    shares one output distribution."""
    k = system.n_outputs - 1
    anchor = np.zeros(system.n_inputs * k)
    generators = np.tile(np.eye(k), (system.n_inputs, 1))
    return _ProductFamily(anchor, generators,
                          lambda sys, theta: sys.p_x @ sys.channel(theta))


def _joint_product_family(p_x, n2: int) -> ExponentialSubfamily:
    """Products ``p_x(x) q(y)`` inside the canonical simplex system of
    joints on ``n1 * n2`` cells, laid out input-major with cell (0, 0)
    as the reference."""
    n1 = p_x.size
    anchor = np.repeat(np.log(p_x / p_x[0]), n2)[1:]
    generators = np.tile(np.eye(n2)[:, 1:], (n1, 1))[1:, :]
    return _ProductFamily(
        anchor, generators,
        lambda sys, theta: sys.distribution(theta).reshape(n1, n2).sum(
            axis=0))


def solve_rd_bisection(p_x, distortion, level: float, eps: float,
                       mode: str = "equality", t1: Optional[int] = None,
                       zeta_minus: Optional[float] = None,
                       options: Optional[EmOptions] = None) -> RdSolution:
    """Budgeted solver with certified per-round m-step accuracy.

    The total slack ``eps`` is split in three: a per-round objective
    slack, a per-round repair slack, and the bisection value target.
    Each m-step brackets the tilt, runs a precomputed number of
    halvings k chosen from the bracket's endpoint derivatives, the
    squared distortion spread and a curvature floor (``zeta_minus``,
    estimated from 17 bracket samples when not supplied), keeps the
    right endpoint as the tilt, and repairs the constraint exactly by
    mixing the two endpoint channels.  The e-step consumes the tilted
    (unrepaired) channel; the returned estimate is the repaired channel
    of the round with the best certified value, and ``guarantee``
    carries that value, which exceeds the optimal rate by at most
    log(n_outputs)/(t1 - 1) plus the two slacks.
    """
    p_x = _check_distribution(np.asarray(p_x, dtype=float), "p_x")
    if not eps > 0.0:
        raise ArgumentError("eps must be positive")
    d, level, report, q0 = _start(p_x, distortion, level, mode)
    if q0 is not None:
        return _zero_rate_solution(p_x, d, q0, level, mode, report,
                                   "approx_m_step")

    n2 = d.shape[1]
    eps_slack = eps / 3.0
    if t1 is None:
        t1 = math.ceil(3.0 * math.log(n2) / eps) + 1
    if t1 < 2:
        raise ArgumentError("the iteration budget must be at least 2")
    if options is None:
        options = EmOptions(max_iterations=t1)
    options = replace(options, max_iterations=t1, objective_tolerance=0.0,
                      divergence_slack=eps_slack)
    options = _with_reference(options, math.log(n2))

    system = ConditionalSystem(p_x, n2)
    exp_family = _product_family(system)
    direction, target = conditional_expectation_constraint(p_x, d, level)
    mix_family = MixtureSubfamily(direction[None, :], [target])

    excess = level - d
    zeta_plus = float(np.max(excess ** 2))
    state = {"tau": 0.0}

    def oracle(sys, family, theta, t):
        log_q = _log(sys.channel(theta)[0])
        # the bracket ends, the curvature samples and the refined
        # bisections revisit points; each is evaluated once
        tilt = lru_cache(maxsize=None)(
            lambda tau: _tilt_at(p_x, log_q, excess, 0.0, tau))

        def g(tau):
            return tilt(tau)[0]

        a, b = expand_bracket(g, state["tau"], 1.0)
        if a == b:
            w_bar = tilt(a)[2]
            state["tau"] = a
            theta_bar = sys.theta_of_channel(w_bar)
            return theta_bar, theta_bar, np.array([-a])
        floor = zeta_minus
        if floor is None:
            samples = [tilt(x)[1] for x in np.linspace(a, b, 17)]
            floor = min(samples)
        if not floor > 0.0:
            raise ConvergenceError(
                "the curvature floor on the bracket is not positive; "
                "supply zeta_minus")
        g_a, g_b = g(a), g(b)
        g0 = max(abs(g_a), abs(g_b))
        k = math.ceil(math.log2(g0 ** 2 * zeta_plus / floor ** 2)
                      - math.log2(eps_slack))
        k = max(1, min(k, 120))
        for _ in range(6):
            result = bisect(g, a, b, k)
            w_bar = tilt(result.b)[2]
            gb = result.derivative_at_b
            ga = g(result.a)
            if gb <= 0.0 or ga == gb:
                w_rep = w_bar
            else:
                kappa = gb / (gb - ga)
                w_rep = (1.0 - kappa) * w_bar \
                    + kappa * tilt(result.a)[2]
            repair = kl_divergence((p_x[:, None] * w_rep).ravel(),
                                   (p_x[:, None] * w_bar).ravel())
            if repair <= eps_slack:
                state["tau"] = result.b
                return (sys.theta_of_channel(w_bar),
                        sys.theta_of_channel(w_rep),
                        np.array([-result.b]))
            k += 4
        raise ConvergenceError("the repair distance stayed above the slack "
                               "after refining the bisection budget")

    trace = run_em_approx(system, exp_family, mix_family,
                          np.zeros(system.dim), oracle, options)
    theta_final = trace.final_theta
    w = system.channel(theta_final)
    q = p_x @ w
    rate = mutual_information(p_x[:, None] * w)
    distortion_value = _mean_distortion(p_x, w, d)
    final_record = trace.record_for(trace.final_index)
    return RdSolution(
        rate=rate, channel=w, output_marginal=q,
        tau=float(final_record.tau[0]), distortion=distortion_value,
        constraint_residual=abs(distortion_value - level),
        iterations=trace.records[-1].t, converged=True, mode=mode,
        trace=trace, feasibility=report,
        guarantee=float(final_record.selection_value))


def solve_rd_side_info(p_xs, distortion, level: float,
                       mode: str = "equality",
                       options: Optional[EmOptions] = None,
                       initial_marginal=None) -> RdSolution:
    """Rate distortion when the decoder observes side information.

    ``p_xs[x, s]`` is the joint source law; the channel may depend on
    both the input and the side symbol, while the rate is the
    conditional mutual information I(input; output | side).  One global
    tilt parameter couples the per-side subproblems because they share
    the distortion budget; each round finds it by the same safeguarded
    Newton iteration as :func:`solve_rd`.  The stop is the same
    certified gap, with Blahut's bound summed over side symbols under
    the shared tilt, and the finishing Newton step solves one system
    over every side symbol's support and the shared tilt.  The records
    hold scalars only and ``trace.final_theta`` is None.
    """
    p_xs = np.asarray(p_xs, dtype=float)
    if p_xs.ndim != 2:
        raise ArgumentError("p_xs must be a joint matrix over input and "
                            "side symbols")
    _check_distribution(p_xs.ravel(), "p_xs")
    options = _options(options, 1000)
    d, level, report, q0 = _start(p_xs, distortion, level, mode)
    if q0 is not None:
        return _zero_rate_solution(p_xs.T, d, q0, level, mode, report,
                                   "exact")

    ns, n2 = p_xs.shape[1], d.shape[1]
    if initial_marginal is None:
        q = np.full((ns, n2), 1.0 / n2)
        options = _with_reference(options, math.log(n2))
    else:
        q = np.asarray(initial_marginal, dtype=float)
        if q.shape != (ns, n2):
            raise ArgumentError("initial_marginal must be one distribution "
                                "per side symbol")
        for row in q:
            _check_distribution(row, "initial_marginal")

    return _tilt_loop(p_xs, p_xs / p_xs.sum(axis=0), d, level, q, mode,
                      report, options)


def solve_rd_multi(p_x, distortions: Sequence, levels: Sequence,
                   options: Optional[EmOptions] = None) -> RdSolution:
    """Minimize mutual information under several simultaneous
    distortion ceilings ``E d_i <= levels[i]``, any number of them.

    The certified loop of :func:`solve_rd` (:func:`_tilt_loop`) with one
    slope per ceiling: each round tilts the output law by
    ``exp(sum_i tau_i d_i)`` with every ``tau_i <= 0``, the maximizer of
    the concave dual found by projected Newton (:func:`_ceiling_tilt`),
    which makes the tilted channel the KL-projection of the product
    onto the ceilings.  The loop stops once the rate is within
    ``objective_tolerance`` of Blahut's bound for several ceilings, and
    every five rounds tries to finish with Newton's method on the
    optimality conditions over a guessed support and the ceilings with
    a negative slope.

    ``active_constraints`` are the ceilings with a negative slope, and
    ``tau`` holds their slopes in that order: Blahut slopes, each <= 0,
    so ``tau . levels - sum_x p(x) log sum_y q(y) e^{tau . d(x, y)} -
    max_y log c_y`` over those ceilings is a lower bound on the rate.
    The records hold all m slopes.  ``distortion`` holds one mean per
    ceiling and ``constraint_residual`` the largest excess over a
    ceiling, at least 0.  Ceilings that no channel meets together raise
    ``InfeasibleError``.  When one output meets every ceiling the rate
    is zero and no round runs.
    """
    p_x = _check_distribution(np.asarray(p_x, dtype=float), "p_x")
    matrices = [_check_matrix(d, p_x.size) for d in distortions]
    m = len(matrices)
    if m == 0:
        raise ArgumentError("at least one constraint is required")
    if m != len(levels):
        raise ArgumentError("one level per distortion matrix")
    n2 = matrices[0].shape[1]
    for d in matrices[1:]:
        if d.shape[1] != n2:
            raise ArgumentError("all constraints must share the output "
                                "alphabet")
    levels = np.array([_check_level(level, float(p_x @ d.min(axis=1)),
                                    math.inf, "inequality")
                       for d, level in zip(matrices, levels)])
    d = np.stack(matrices)

    per_output = p_x @ d
    slack_columns = np.all(per_output <= levels[:, None] + _FEAS_TOL, axis=0)
    if np.any(slack_columns):
        y = int(np.argmax(slack_columns))
        q = np.zeros(n2)
        q[y] = 1.0
        return RdSolution(
            rate=0.0, channel=np.tile(q, (p_x.size, 1)), output_marginal=q,
            tau=np.zeros(0), distortion=per_output[:, y].copy(),
            constraint_residual=0.0, iterations=0, converged=True,
            mode="inequality",
            trace=EmTrace(records=[], final_index=0, final_theta=None,
                          converged=True, mode="exact"),
            active_constraints=())

    options = _with_reference(_options(options, 1000), math.log(n2))
    p = p_x[:, None]
    solution = _tilt_loop(p, p, d, levels, np.full((1, n2), 1.0 / n2),
                          "inequality", None, options)
    active = np.flatnonzero(solution.tau < 0.0)
    return replace(solution, channel=solution.channel[0],
                   output_marginal=solution.output_marginal[0],
                   tau=solution.tau[active],
                   active_constraints=tuple(active.tolist()))


def solve_rd_fulldim(p_x, distortion, level: float, mode: str = "equality",
                     options: Optional[EmOptions] = None) -> RdSolution:
    """Same problem as :func:`solve_rd` run through the generic engine
    on the full simplex of joint distributions.

    The mixture family pins the input marginal and the mean distortion;
    the exponential family holds the products of the source law with a
    free output distribution.  Useful as an independent cross-check of
    the specialized iteration.
    """
    p_x = _check_distribution(np.asarray(p_x, dtype=float), "p_x")
    options = _options(options, 1000)
    d, level, report, q0 = _start(p_x, distortion, level, mode)
    if q0 is not None:
        return _zero_rate_solution(p_x, d, q0, level, mode, report, "exact")

    n1, n2 = d.shape
    system = canonical_simplex_system(n1 * n2)
    directions = []
    targets = []
    for i in range(1, n1):
        indicator = np.zeros(n1 * n2)
        indicator[i * n2:(i + 1) * n2] = 1.0
        direction, target = simplex_expectation_constraint(indicator,
                                                           p_x[i])
        directions.append(direction)
        targets.append(target)
    direction, target = simplex_expectation_constraint(d.ravel(), level)
    directions.append(direction)
    targets.append(target)
    mix_family = MixtureSubfamily(np.stack(directions), np.array(targets))

    exp_family = _joint_product_family(p_x, n2)
    trace = run_em(system, exp_family, mix_family, exp_family.anchor,
                   options)
    joint = system.distribution(trace.final_theta).reshape(n1, n2)
    w = joint / joint.sum(axis=1, keepdims=True)
    q = joint.sum(axis=0)
    rate = mutual_information(joint)
    if not (np.all(q > 0.0) and math.isfinite(rate)):
        raise SupportError("the final joint has an empty output cell or "
                           "a rate that is not finite; the optimal support "
                           "is smaller than the output alphabet")
    distortion_value = float(np.sum(joint * d))
    final_record = trace.record_for(trace.final_index)
    return RdSolution(
        rate=rate, channel=w, output_marginal=q, tau=final_record.tau,
        distortion=distortion_value,
        constraint_residual=abs(distortion_value - level),
        iterations=trace.records[-1].t, converged=trace.converged,
        mode=mode, trace=trace, feasibility=report)
