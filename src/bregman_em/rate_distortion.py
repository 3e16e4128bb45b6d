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
its gap over the whole alphabet meets the tolerance.  The other
solvers have no bound; their ``converged`` means the
objective stopped moving.

Every solver, :func:`bregman_em.quantum.solve_qrd` too, first checks its
level (:func:`_check_level`: not finite is an ``ArgumentError``, out of
reach an ``InfeasibleError``) and returns rate zero without a round when
an answer that ignores the input meets it (:func:`_zero_rate_weight`).

Variants: a budgeted solver whose m-step runs a fixed number of
bisection halvings and repairs the iterate by a two-point mixture, a
side-information solver over conditionally product families, a solver
for several simultaneous distortion ceilings (projection onto a closed
convex set through its facet cover), and a full-dimensional route that
runs the generic engine on the simplex of joint distributions.
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
from .em import (EmOptions, EmTrace, _Loop, _options, run_em, run_em_approx,
                 run_em_closed_convex)
from .errors import (ArgumentError, ConvergenceError, InfeasibleError,
                     RankError, SupportError)
from .families import (ClosedConvexMixtureFamily, ExponentialSubfamily,
                       LinearInequality, MixtureSubfamily)

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
    the final m-step (an array of facet coefficients for the
    multi-constraint solver).  ``guarantee`` is the certified objective
    value of the selected round for the budgeted protocol, None
    elsewhere.  ``converged`` is a certificate for :func:`solve_rd` and
    :func:`solve_rd_side_info` (the last record's ``gap``, rate minus
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


def _blahut_terms(p_cond, log_q, tau: float, d):
    """``(log Z, c)`` of the tilt ``tau`` at the output laws ``q[s, y]``:
    ``Z[s, x] = sum_y q[s, y] e^{tau d(x, y)}`` and ``c[s, y] =
    sum_x p(x|s) e^{tau d(x, y)} / Z[s, x]`` (``q_next / q`` where
    ``q > 0``).  ``c`` comes from the kernel, not from that quotient,
    so an output with ``q = 0`` gets its ``c`` too; an overflowing
    kernel gives an infinite ``c``, never a warning."""
    a = tau * d
    b = a + log_q[:, None, :]
    top = b.max(axis=-1)
    log_z = top + np.log(np.exp(b - top[..., None]).sum(axis=-1))
    with np.errstate(over="ignore"):
        c = np.einsum("sx,sxy->sy", p_cond, np.exp(a - log_z[..., None]))
    return log_z, c


def _kkt_point(p_joint, p_cond, d, level: float, support, q, tau: float):
    """Output laws and tilt that solve the optimality conditions on
    ``support`` (a mask shaped like ``q[s, y]``), or None.

    Newton's method on ``c[s, y](q, tau) = 1`` for ``y`` in the
    support together with ``E[d] = level``, in the unknowns
    ``(q[s, support], tau)`` with ``q = 0`` off the support, started
    from ``(q, tau)``.  The Jacobian is closed-form: ``dc_y/dq_j =
    -sum_x p(x|s) e_xy e_xj / Z_x^2``, ``dc_y/dtau`` and ``dE[d]/dq_y``
    are tilted covariances of ``e_y / Z`` with ``d``, and
    ``dE[d]/dtau`` is the tilted variance.  When the solution has a
    negative ``q``, the most negative output leaves the support and the
    solve restarts.  A singular or non-finite step, a side with an
    empty support and a solve that does not reach the residual target
    give None.
    """
    support = support.copy()
    with np.errstate(all="ignore"):
        while support.any(axis=1).all():
            sides = [np.flatnonzero(row) for row in support]
            columns = [d[:, idx] for idx in sides]
            bounds = np.cumsum([0] + [idx.size for idx in sides])
            u = np.concatenate([q[s, idx] for s, idx in enumerate(sides)])
            x = tau
            n = u.size
            for _ in range(_FINISH_STEPS):
                f = np.empty(n + 1)
                jac = np.zeros((n + 1, n + 1))
                f[n] = -level
                for s, ds in enumerate(columns):
                    part = slice(bounds[s], bounds[s + 1])
                    a = x * ds
                    k = np.exp(a - a.max(axis=1, keepdims=True))
                    k /= (k @ u[part])[:, None]
                    w = k * u[part]
                    mean = (w * ds).sum(axis=1)
                    dev = k * (ds - mean[:, None])
                    f[part] = p_cond[s] @ k - 1.0
                    jac[part, part] = -(k.T * p_cond[s]) @ k
                    jac[part, n] = p_cond[s] @ dev
                    jac[n, part] = p_joint[s] @ dev
                    f[n] += p_joint[s] @ mean
                    jac[n, n] += p_joint[s] @ (
                        dev * u[part] * (ds - mean[:, None])).sum(axis=1)
                if not np.all(np.isfinite(f)):
                    return None
                if np.abs(f).max() <= _FINISH_TOL:
                    break
                try:
                    step = np.linalg.solve(jac, -f)
                except np.linalg.LinAlgError:
                    return None
                if not np.all(np.isfinite(step)):
                    return None
                u += step[:n]
                x += step[n]
            else:
                return None
            worst = int(np.argmin(u))
            if u[worst] >= 0.0:
                point = np.zeros_like(q)
                point[support] = u
                return point, float(x)
            s = int(np.searchsorted(bounds, worst, side="right")) - 1
            support[s, sides[s][worst - bounds[s]]] = False
    return None


class _Round(NamedTuple):
    """One round of :func:`_tilt_loop`: the tilt, its channel, the next
    output laws, the two divergences, the distortion, Blahut's bound
    and the ``c`` it came from."""

    tau: float
    channel: np.ndarray
    output_marginal: np.ndarray
    pre_e: float
    objective: float
    distortion: float
    lower_bound: float
    c: np.ndarray


def _tilt_loop(p_xs, p_x_given_s, d, level: float, q, mode: str,
               report: FeasibilityReport, options: EmOptions) -> RdSolution:
    """The alternation of :func:`solve_rd_side_info` on the joint source
    ``p_xs[x, s]`` from the output laws ``q[s, y]``, with a certified
    stop and a finishing Newton step.

    Each round tilts every ``q[s]`` by one shared parameter, found by
    :func:`_newton_tilt` so that the mean distortion meets ``level``,
    and replaces ``q[s]`` by the output law of the tilted channel under
    the source law ``p_x_given_s[:, s]``.  It records Blahut's bound
    ``tau*level - sum p(x, s) log Z[s, x] - sum_s p(s) max_y log
    c[s, y]`` at the round's ``(q, tau)`` (:func:`_blahut_terms`), and
    the loop stops once objective minus bound is at most
    ``objective_tolerance``.  Every ``_FINISH_EVERY`` rounds it guesses
    the optimal support as ``{y : c[s, y] >= 1 - delta}`` for each
    ``delta`` in ``_FINISH_DELTAS``, solves the optimality conditions
    there (:func:`_kkt_point`), and keeps the result as one more round,
    flagged ``finish``, only when its gap over the whole output
    alphabet meets the tolerance; so a wrong guess costs time, never
    accuracy.

    The records hold scalars only and ``trace.final_theta`` is None.
    ``channel`` is ``w[s, x, y]``, the channel at exactly the returned
    tilt, and ``rate`` is the KL of its joint against the product with
    ``output_marginal``.
    """
    p_joint = np.ascontiguousarray(p_xs.T)
    p_flat = p_joint.ravel()
    p_cond = np.ascontiguousarray(p_x_given_s.T)
    p_s = p_joint.sum(axis=1)
    product = p_joint[:, :, None]
    loop = _Loop(options, "exact", selection_enabled=False)
    tolerance = options.objective_tolerance
    max_t = options.max_iterations

    def alternate(q, tau, step0) -> _Round:
        log_q = _log(q)
        tau, w = _newton_tilt(
            lambda x: _tilt_at(p_flat, log_q, d, level, x), tau, step0)
        joint = product * w
        q_next = (p_cond[:, None, :] @ w)[:, 0]
        log_z, c = _blahut_terms(p_cond, log_q, tau, d)
        max_log_c = _log(c).max(axis=1)
        # under a ceiling the bound needs tau <= 0, which holds: a
        # binding level lies below the product channels' mean distortion
        bound = tau * level - float(p_flat @ log_z.ravel()) \
            - float(p_s @ max_log_c)
        return _Round(
            tau, w, q_next, kl_divergence(joint, product * q[:, None, :]),
            kl_divergence(joint, product * q_next[:, None, :]),
            float(np.sum(joint * d)), bound, c)

    def finish(r: _Round, step0) -> Optional[_Round]:
        support = None
        for delta in _FINISH_DELTAS:
            guess = r.c >= 1.0 - delta
            if support is not None and np.array_equal(guess, support):
                continue
            support = guess
            point = _kkt_point(p_joint, p_cond, d, level, support,
                               r.output_marginal, r.tau)
            if point is None:
                continue
            candidate = alternate(*point, step0)
            gap = candidate.objective - candidate.lower_bound
            if math.isfinite(gap) and gap <= tolerance:
                return candidate
        return None

    def record(t, r: _Round, finish: bool = False) -> bool:
        return loop.record(t, None, None, None, [r.tau], r.pre_e,
                           r.objective, abs(r.distortion - level), 0.0,
                           lower_bound=r.lower_bound, finish=finish)

    tau = 0.0
    step0 = 1.0
    t = 1
    while t < max_t:
        t += 1
        r = alternate(q, tau, step0)
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
    """Several simultaneous distortion ceilings (inequality mode).

    The feasible joints form a closed convex mixture set; its
    m-projection enumerates the subsets of constraints as boundary
    facets (the empty subset first, then subsets in binary-counter
    order).  Subsets whose directions are linearly dependent cannot
    host a projection and are skipped at construction.
    """
    p_x = _check_distribution(np.asarray(p_x, dtype=float), "p_x")
    matrices = [_check_matrix(d, p_x.size) for d in distortions]
    m = len(matrices)
    if m == 0:
        raise ArgumentError("at least one constraint is required")
    if m != len(levels):
        raise ArgumentError("one level per distortion matrix")
    if m > 20:
        raise ArgumentError("at most 20 simultaneous constraints are "
                            "supported")
    n2 = matrices[0].shape[1]
    for d in matrices[1:]:
        if d.shape[1] != n2:
            raise ArgumentError("all constraints must share the output "
                                "alphabet")
    levels = [_check_level(level, float(p_x @ d.min(axis=1)), math.inf,
                           "inequality")
              for d, level in zip(matrices, levels)]

    per_output = np.stack([p_x @ d for d in matrices])
    slack_columns = np.all(
        per_output <= np.asarray(levels)[:, None] + _FEAS_TOL, axis=0)
    if np.any(slack_columns):
        y = int(np.argmax(slack_columns))
        q = np.zeros(n2)
        q[y] = 1.0
        w = np.tile(q, (p_x.size, 1))
        distortion_value = per_output[:, y].copy()
        return RdSolution(
            rate=0.0, channel=w, output_marginal=q, tau=np.zeros(0),
            distortion=distortion_value, constraint_residual=0.0,
            iterations=0, converged=True, mode="inequality",
            trace=EmTrace(records=[], final_index=0, final_theta=None,
                          converged=True, mode="closed_convex"),
            active_constraints=())

    options = _options(options, 1000)
    options = _with_reference(options, math.log(n2))
    system = ConditionalSystem(p_x, n2)
    exp_family = _product_family(system)
    pairs = [conditional_expectation_constraint(p_x, d, level)
             for d, level in zip(matrices, levels)]
    inequalities = tuple(LinearInequality(direction, target)
                         for direction, target in pairs)
    facets = []
    subsets: list[tuple] = [()]
    for mask in range(1, 2 ** m):
        active = tuple(i for i in range(m) if mask >> i & 1)
        try:
            base = MixtureSubfamily(
                np.stack([pairs[i][0] for i in active]),
                np.array([pairs[i][1] for i in active]))
        except RankError:
            continue
        facets.append(ClosedConvexMixtureFamily(
            base=base, label="{" + ",".join(map(str, active)) + "}"))
        subsets.append(active)
    family = ClosedConvexMixtureFamily(base=None, inequalities=inequalities,
                                       facets=tuple(facets), label="all")

    trace = run_em_closed_convex(system, exp_family, family,
                                 np.zeros(system.dim), options)
    theta_final = trace.final_theta
    w = system.channel(theta_final)
    q = p_x @ w
    rate = mutual_information(p_x[:, None] * w)
    distortion_value = np.array([_mean_distortion(p_x, w, d)
                                 for d in matrices])
    final_record = trace.record_for(trace.final_index)
    active = subsets[final_record.facet_index] \
        if final_record.facet_index is not None else None
    return RdSolution(
        rate=rate, channel=w, output_marginal=q, tau=final_record.tau,
        distortion=distortion_value,
        constraint_residual=final_record.constraint_residual,
        iterations=trace.records[-1].t, converged=trace.converged,
        mode="inequality", trace=trace, active_constraints=active)


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
