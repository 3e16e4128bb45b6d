"""Seeded instances of the four benchmark workloads.

Every workload is a list of :class:`Case` objects built from one
:class:`Source`; the same seed gives the same list.  A case's ``call``
reaches the package only through the module it is handed, so the
traced run sees the calls on the names it has wrapped; its ``check``
turns the returned value into an :class:`Outcome`.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import checks

EXACT_TARGET = 1e-6          # certificate target of the exact solvers, nats
BISECTION_EPS = 0.05         # slack handed to solve_rd_bisection

REF_P = [0.5, 0.3, 0.2]
REF_D = [[0.0, 1.0, 2.0], [1.0, 2.0, 0.0], [3.0, 0.0, 1.0]]
REF_LEVEL = 1.5
REF_RATE = 0.100039028
REF_MAX_ITER = 2000
REF_TOL = 1e-12
BELL_RATE = 0.5 * math.log(4.0 / 3.0)


@dataclass
class Outcome:
    """Checked result of one call.

    ``cause`` names why the call failed (None when it did not);
    ``wrong`` marks a returned answer that broke a check, as opposed to
    a raised error.  ``gap`` is ``rate - lower_bound`` where the case
    has a dual certificate, and ``target`` the accuracy it must meet.
    """

    cause: Optional[str] = None
    wrong: bool = False
    gap: Optional[float] = None
    target: Optional[float] = None

    @property
    def certified(self) -> bool:
        return self.cause is None and self.gap is not None \
            and self.gap <= self.target


@dataclass
class Case:
    name: str
    call: Callable          # call(api) -> result
    check: Callable         # check(result) -> Outcome
    certifiable: bool = False
    expect: Optional[str] = None   # exception class name that is a pass


# returned by a call that depends on an earlier failed one; it is not
# counted as an attempt
SKIPPED = object()


# Broken invariants that contradict an independent reference: a rate off
# its closed form or below the dual lower bound, or a reported rate that
# is not the mutual information of the reported channel.  These make the
# run incorrect.  The other broken invariants (non-finite values, a
# distortion off its level, rows not stochastic) are failed solves, as
# is a raised error; the known defects produce them.
WRONG_ANSWERS = {"reference_off", "rate_off", "rate_below_dual_bound",
                 "trace_rows_off"}


def invariant(cause, gap=None, target=EXACT_TARGET) -> Outcome:
    if cause is None and gap is not None and gap < -1e-9:
        cause = "rate_below_dual_bound"
    if cause is not None:
        return Outcome(cause=f"invariant:{cause}",
                       wrong=cause in WRONG_ANSWERS)
    return Outcome(gap=gap, target=target)


# ------------------------------------------------------------ generators

CORPUS_SEED = 2201_02447
JITTER = 1e-3


class Source:
    """Random draws of a workload: a fixed corpus jittered by the seed.

    Every value is drawn from a generator with a fixed seed, so each run
    solves the same corpus of problems, and is then perturbed by about
    0.1% from the run's own seed.  Different seeds thus give different
    inputs of the same size and spread of difficulty.  Fresh draws per
    seed moved the median solve latency by 15-25% from seed to seed,
    more than any bound worth enforcing; the perturbation still flips
    the outcome of a few solves, which the bounds absorb.
    """

    def __init__(self, seed: int):
        self.corpus = np.random.default_rng(CORPUS_SEED)
        self.jitter = np.random.default_rng(seed)

    def dirichlet(self, alpha) -> np.ndarray:
        p = self.corpus.dirichlet(alpha) * np.exp(
            JITTER * self.jitter.normal(size=len(alpha)))
        return p / p.sum()

    def uniform(self, low=0.0, high=1.0, size=None):
        value = self.corpus.uniform(low, high, size) \
            + JITTER * (high - low) * self.jitter.normal(size=size)
        return np.clip(value, low, high)

    def normal(self, size=None):
        return self.corpus.normal(size=size) \
            + JITTER * self.jitter.normal(size=size)


def d2_problem(rng, n: int):
    """Source law from Dirichlet(1), distortion uniform on [0, 1)."""
    return rng.dirichlet(np.ones(n)), rng.uniform(0.0, 1.0, (n, n))


def feasible_range(p, d):
    """(achievable_min, min_product) of a classical problem."""
    return float(p @ d.min(axis=1)), float((p @ d).min())


def _rd_case(name, p, d, level, mode="equality", options=None,
             expect=None, reference=None):
    def call(api):
        opts = None if options is None else api.EmOptions(**options)
        return api.solve_rd(p, d, level, mode=mode, options=opts)

    def check(sol):
        cause = checks.check_channel(p, d, level, mode, sol.rate,
                                     sol.channel, sol.output_marginal)
        if cause is None and reference is not None \
                and abs(sol.rate - reference) > EXACT_TARGET:
            cause = "reference_off"
        slope = sol.tau if mode == "equality" else min(sol.tau, 0.0)
        gap = sol.rate - checks.blahut_lower_bound(
            p, d, sol.output_marginal, slope, level)
        return invariant(cause, gap)

    return Case(name, call, check, certifiable=expect is None,
                expect=expect)


def _side_info_case(name, p_xs, d, level):
    def call(api):
        return api.solve_rd_side_info(p_xs, d, level)

    def check(sol):
        cause = checks.check_side_info(p_xs, d, level, "equality", sol.rate,
                                       sol.channel, sol.output_marginal)
        gap = sol.rate - checks.side_info_lower_bound(
            p_xs, d, sol.output_marginal, sol.tau, level)
        return invariant(cause, gap)

    return Case(name, call, check, certifiable=True)


def spread_fractions(rng, count: int, lo=0.0, hi=1.0) -> np.ndarray:
    """One uniform draw in each of ``count`` equal slices of [lo, hi],
    so the levels of a workload cover the whole range on every seed."""
    return lo + (hi - lo) * (np.arange(count) + rng.uniform(
        0.0, 1.0, count)) / count


# D2 recipe: (alphabet size, problems); one level per problem
D2_PLAN = ((8, 80), (32, 4), (128, 2))


def rd_curve(rng, api, directory) -> list[Case]:
    """RD curves through solve_rd and solve_rd_side_info."""
    cases = []
    for n, problems in D2_PLAN:
        for k, f in enumerate(spread_fractions(rng, problems, 0.05, 0.95)):
            p, d = d2_problem(rng, n)
            lo, hi = feasible_range(p, d)
            cases.append(_rd_case(f"d2-n{n}-{k}", p, d, lo + f * (hi - lo)))
    for k, f in enumerate(spread_fractions(rng, 10, 0.1, 0.9)):
        p, d = d2_problem(rng, 8)
        lo, hi = feasible_range(p, d)
        top = float((p @ d).max())
        cases.append(_rd_case(f"ineq-n8-{k}-bind", p, d, lo + f * (hi - lo),
                              mode="inequality"))
        cases.append(_rd_case(f"ineq-n8-{k}-slack", p, d,
                              hi + f * (top - hi), mode="inequality"))
        cases.append(_rd_case(f"ineq-n8-{k}-slack-eq", p, d,
                              hi + f * (top - hi)))
        cases.append(_rd_case(f"ineq-n8-{k}-infeasible", p, d,
                              lo - 0.1 * f - 1e-3, mode="inequality",
                              expect="InfeasibleError"))
    cases.append(_rd_case("reference-3x3", REF_P, REF_D, REF_LEVEL,
                          options={"max_iterations": REF_MAX_ITER,
                                   "objective_tolerance": REF_TOL},
                          reference=REF_RATE))
    for k, level in enumerate(spread_fractions(rng, 12, 0.02, 0.45)):
        cases.append(_rd_case(f"binary-hamming-{k}", [0.5, 0.5],
                              [[0.0, 1.0], [1.0, 0.0]], level,
                              reference=checks.binary_hamming_rate(level)))
    for k, f in enumerate(spread_fractions(rng, 20, 0.1, 0.9)):
        p_xs = rng.dirichlet(np.ones(12)).reshape(4, 3)
        d = rng.uniform(0.0, 1.0, (4, 5))
        p_x = p_xs.sum(axis=1)
        p_s = p_xs.sum(axis=0)
        lo = float(p_x @ d.min(axis=1))
        hi = float(p_s @ ((p_xs / p_s).T @ d).min(axis=1))
        cases.append(_side_info_case(f"side-info-4x3-5-{k}", p_xs, d,
                                     lo + f * (hi - lo)))
    return cases


# ---------------------------------------------------------------- engine

def _fulldim_case(name, p, d, level):
    def call(api):
        return api.solve_rd_fulldim(p, d, level)

    def check(sol):
        cause = checks.check_channel(p, d, level, "equality", sol.rate,
                                     sol.channel, sol.output_marginal)
        slope = float(np.asarray(sol.tau).ravel()[-1]) \
            if np.size(sol.tau) else 0.0
        gap = sol.rate - checks.blahut_lower_bound(
            p, d, sol.output_marginal, slope, level)
        return invariant(cause, gap)

    return Case(name, call, check, certifiable=True)


def _bisection_case(name, p, d, level):
    def call(api):
        return api.solve_rd_bisection(p, d, level, BISECTION_EPS)

    def check(sol):
        cause = checks.check_channel(p, d, level, "equality", sol.rate,
                                     sol.channel, sol.output_marginal)
        # the zero-rate path returns its exact answer without a guarantee
        if cause is None and sol.iterations > 0 and not (
                sol.guarantee is not None and math.isfinite(sol.guarantee)):
            cause = "no_guarantee"
        gap = sol.rate - checks.blahut_lower_bound(
            p, d, sol.output_marginal, float(sol.tau), level)
        return invariant(cause, gap, BISECTION_EPS)

    return Case(name, call, check, certifiable=True)


def multi_levels(rng, p, ds):
    """Ceilings met by a seeded channel that favours cheap outputs, so
    they are jointly feasible; the tilt is raised until no single
    output meets every ceiling, so at least one of them binds."""
    total = sum(ds)
    noise = rng.uniform(0.0, 1.0, total.shape)
    for beta in (2.0, 4.0, 8.0, 16.0, 32.0):
        w = np.exp(-beta * (total - total.min(axis=1, keepdims=True))
                   + noise)
        w /= w.sum(axis=1, keepdims=True)
        levels = np.array([float(np.sum(p[:, None] * w * d)) for d in ds])
        per_output = np.stack([p @ d for d in ds])
        if not np.any(np.all(per_output <= levels[:, None], axis=0)):
            return levels
    return levels


def _multi_case(name, p, ds, levels):
    def call(api):
        return api.solve_rd_multi(p, ds, levels)

    def check(sol):
        w = np.asarray(sol.channel)
        q = np.asarray(sol.output_marginal)
        cause = None
        for d, level in zip(ds, levels):
            cause = cause or checks.check_channel(
                p, d, level, "inequality", sol.rate, w, q)
        slopes = np.zeros(len(ds))
        if sol.active_constraints:
            slopes[list(sol.active_constraints)] = np.asarray(sol.tau)
        gap = sol.rate - checks.multi_lower_bound(p, ds, levels, q, slopes)
        return invariant(cause, gap)

    return Case(name, call, check, certifiable=True)


def _run_em_case():
    """The generic example of the package README."""
    def call(api):
        system = api.canonical_simplex_system(4)
        exp_family = api.ExponentialSubfamily(np.zeros(3),
                                              [[1.0], [-0.5], [0.25]])
        mix_family = api.MixtureSubfamily([[0.0, 1.0, 2.0]], [0.8])
        return system, api.run_em(system, exp_family, mix_family,
                                  np.zeros(3))

    def check(result):
        system, trace = result
        objectives = [r.objective for r in trace.records]
        if not all(math.isfinite(v) for v in objectives):
            return invariant("non_finite")
        if any(b > a + 1e-12 for a, b in zip(objectives, objectives[1:])):
            return invariant("objective_increased")
        eta = np.asarray(system.gradient(trace.final_theta))
        if abs(float(np.array([0.0, 1.0, 2.0]) @ eta) - 0.8) > 1e-7:
            return invariant("distortion_off")
        return Outcome()

    return Case("readme-run-em", call, check)


def engine(rng, api, directory) -> list[Case]:
    """The generic Bregman path: full-dimensional, multi-constraint and
    budgeted solvers, and run_em."""
    cases = []
    for n in (3, 6, 8):
        for k, f in enumerate(spread_fractions(rng, 60, 0.1, 0.9)):
            p, d = d2_problem(rng, n)
            lo, hi = feasible_range(p, d)
            cases.append(_fulldim_case(f"fulldim-n{n}-{k}", p, d,
                                       lo + f * (hi - lo)))
    for k in range(12):
        p = rng.dirichlet(np.ones(3))
        ds = [rng.uniform(0.0, 1.0, (3, 3)) for _ in range(3)]
        cases.append(_multi_case(f"multi-n3-{k}", p, ds,
                                 multi_levels(rng, p, ds)))
    for k, f in enumerate(spread_fractions(rng, 120, 0.1, 0.9)):
        n = 3 + k % 3
        p, d = d2_problem(rng, n)
        lo, hi = feasible_range(p, d)
        cases.append(_bisection_case(f"bisection-n{n}-{k}", p, d,
                                     lo + f * (hi - lo)))
    for _ in range(20):
        cases.append(_run_em_case())
    return cases


# ------------------------------------------------------------------- qrd

BELL_DELTA = np.eye(4)
BELL_DELTA[np.ix_([0, 3], [0, 3])] -= 0.5


def _partial_trace_b(rho, d_r, d_b):
    return np.einsum("ijkj->ik", rho.reshape(d_r, d_b, d_r, d_b))


def _random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def _random_state(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _power(m, exponent):
    lam, u = np.linalg.eigh(m)
    return (u * lam ** exponent) @ u.conj().T


def qrd_instance(rng, d_r, d_b):
    """Seeded observable, reference marginal and a feasible level.

    The ground state of the observable is moved onto the seeded
    marginal by a local operator on the reference factor; the level
    sits halfway between that state's distortion and the product
    minimum, so it is reachable by construction.
    """
    delta = _random_hermitian(rng, d_r * d_b)
    rho_r = _random_state(rng, d_r)
    ground = np.linalg.eigh(delta)[1][:, 0]
    g = np.outer(ground, ground.conj())
    move = np.kron(_power(rho_r, 0.5) @ _power(
        _partial_trace_b(g, d_r, d_b), -0.5), np.eye(d_b))
    state = move @ g @ move.conj().T
    delta_b = np.einsum("ijik->jk", (delta @ np.kron(
        rho_r, np.eye(d_b))).reshape(d_r, d_b, d_r, d_b))
    product_min = float(np.linalg.eigvalsh(delta_b)[0])
    level = 0.5 * (float(np.trace(state @ delta).real) + product_min)
    return rho_r, delta, level


def _qrd_case(name, rho_r, delta, level, reference=None, classical=None):
    """``classical = (p, d)`` marks a diagonal instance, which gets
    Blahut's certificate from the diagonal of the output state."""
    def call(api):
        return api.solve_qrd(rho_r, delta, level)

    def check(sol):
        cause = checks.check_state(rho_r, delta, level, "equality",
                                   sol.rate, sol.state)
        if cause is None and reference is not None \
                and abs(sol.rate - reference) > EXACT_TARGET:
            cause = "reference_off"
        gap = None
        if classical is not None:
            p, d = classical
            q = np.clip(np.diag(np.asarray(sol.output_state)).real, 0, None)
            slope = float(np.asarray(sol.tau)[-1]) if np.size(sol.tau) \
                else 0.0
            gap = sol.rate - checks.blahut_lower_bound(p, d, q / q.sum(),
                                                       slope, level)
        return invariant(cause, gap)

    return Case(name, call, check, certifiable=classical is not None)


def qrd(rng, api, directory) -> list[Case]:
    """solve_qrd on the Bell instance, diagonal (classical) instances
    and seeded entangled instances.  The diagonal 3x3 instance must
    agree with solve_rd on the same classical problem."""
    cases = [_qrd_case("qrd-bell", np.eye(2, dtype=complex) / 2.0,
                       BELL_DELTA, 0.5, reference=BELL_RATE)]
    p, d = np.array(REF_P), np.array(REF_D)
    classical_rate = api.solve_rd(p, d, REF_LEVEL).rate
    cases.append(_qrd_case("qrd-diagonal-3x3", np.diag(p).astype(complex),
                           np.diag(d.ravel()), REF_LEVEL,
                           reference=classical_rate, classical=(p, d)))
    for k, f in enumerate(spread_fractions(rng, 80, 0.1, 0.9)):
        n = 2 + k % 2
        p, d = d2_problem(rng, n)
        lo, hi = feasible_range(p, d)
        cases.append(_qrd_case(f"qrd-diagonal-n{n}-{k}",
                               np.diag(p).astype(complex),
                               np.diag(d.ravel()), lo + f * (hi - lo),
                               classical=(p, d)))
    for k in range(24):
        for d_r, d_b in ((2, 2), (2, 3), (3, 3), (2, 4), (4, 4)):
            rho_r, delta, level = qrd_instance(rng, d_r, d_b)
            cases.append(_qrd_case(f"qrd-{d_r}x{d_b}-{k}", rho_r, delta,
                                   level))
    return cases


# ------------------------------------------------------------------- cli

def _problem(kind, payload, options=None) -> dict:
    return {"schema_version": "1", "kind": kind, "payload": payload,
            "options": options or {}}


def _write(directory, name, data) -> str:
    path = os.path.join(directory, name)
    with open(path, "w") as handle:
        json.dump(data, handle)
    return path


def _main(api, argv):
    """One in-process ``bregman-em`` call: exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = api.cli.main(argv)
    return code, out.getvalue()


_STATUS_OF_CODE = {0: "converged", 2: "infeasible", 3: "did_not_converge"}


def _cli_status(code, summary) -> Optional[Outcome]:
    """Failure outcome when the exit code is an error, disagrees with
    the JSON status, or reports a raised error, else None."""
    if code not in _STATUS_OF_CODE:
        return Outcome(cause=f"cli_exit:{code}")
    if summary.get("status") != _STATUS_OF_CODE[code]:
        return Outcome(cause="cli_json:status_disagrees", wrong=True)
    if "error" in summary:
        return Outcome(cause=f"cli_error:{summary['status']}")
    return None


def _parse(stdout):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return None


def _cli_rd_outcome(code, stdout, p, d, level, target=EXACT_TARGET):
    summary = _parse(stdout)
    if summary is None:
        return Outcome(cause=f"cli_exit:{code}" if code else
                       "cli_json:unparsable", wrong=code == 0), None
    failed = _cli_status(code, summary)
    if failed is not None:
        return failed, summary
    if summary["status"] == "infeasible":
        return Outcome(cause="cli_json:unexpected_infeasible"), summary
    w = np.asarray(summary["channel"])
    q = np.asarray(summary["output_marginal"])
    cause = checks.check_channel(p, d, level, "equality",
                                 summary["rate_nats"], w, q)
    gap = summary["rate_nats"] - checks.blahut_lower_bound(
        p, d, q, float(summary["tau"]), level)
    return invariant(cause, gap, target), summary


def _cli_trace_pair(directory, name, p, d, level):
    """``run --trace`` on a problem, then ``verify-bounds`` on the
    trace against the reported rate.  The second case reads what the
    first one stored, and is skipped when the first one failed."""
    problem = _write(directory, f"{name}.json", _problem(
        "rd", {"p_x": p.tolist(), "distortion": d.tolist(),
               "level": level}))
    trace = os.path.join(directory, f"{name}.csv")
    shared = {}

    def run(api):
        return _main(api, ["run", problem, "--trace", trace])

    def check_run(result):
        code, stdout = result
        outcome, summary = _cli_rd_outcome(code, stdout, p, d, level)
        shared["summary"] = summary if outcome.cause is None else None
        return outcome

    def verify(api):
        summary = shared.get("summary")
        if summary is None:
            return SKIPPED
        return _main(api, ["verify-bounds", trace, "--reference",
                           repr(summary["rate_nats"])])

    def check_verify(result):
        code, stdout = result
        if code != 0:
            return Outcome(cause=f"cli_exit:{code}")
        rows = int(stdout.split("rows checked:")[1].split()[0])
        if rows != shared["summary"]["iterations"] - 1:
            return invariant("trace_rows_off")
        return Outcome()

    return [Case(f"{name}-run-trace", run, check_run, certifiable=True),
            Case(f"{name}-verify-bounds", verify, check_verify)]


def cli(rng, api, directory) -> list[Case]:
    """In-process ``cli.main`` calls on problem files written to
    ``directory``."""
    cases = []
    # The sweep's time and memory swing by 1.7x with the level and round
    # at which a solve first fails, which even the seed's small jitter
    # moves, so its problem comes from the corpus alone.
    p, d = d2_problem(rng.corpus, 24)
    lo, hi = feasible_range(p, d)
    sweep_lo, sweep_hi = lo + 0.05 * (hi - lo), lo + 0.95 * (hi - lo)
    sweep = _write(directory, "sweep-24.json", _problem(
        "rd", {"p_x": p.tolist(), "distortion": d.tolist(),
               "level": sweep_lo}))
    spec = f"{sweep_lo!r}:{sweep_hi!r}:16"

    def check_sweep(result):
        code, stdout = result
        summary = _parse(stdout)
        if summary is None:
            return Outcome(cause=f"cli_exit:{code}")
        failed = _cli_status(code, summary)
        if failed is not None:
            return failed
        entries = summary["sweep"]
        if len(entries) != 16:
            return invariant("sweep_length")
        for entry in entries:
            if entry["status"] != "infeasible" and not math.isfinite(
                    entry["rate_nats"]):
                return invariant("non_finite")
        return Outcome()

    cases.append(Case("sweep-24x24-16", lambda api: _main(
        api, ["run", sweep, "--sweep", spec]), check_sweep))

    for k, f in enumerate(spread_fractions(rng, 92, 0.1, 0.9)):
        n = 3 + k % 4
        p, d = d2_problem(rng, n)
        lo, hi = feasible_range(p, d)
        cases += _cli_trace_pair(directory, f"trace-n{n}-{k}", p, d,
                                 lo + f * (hi - lo))

    for k, level in enumerate(spread_fractions(rng, 64, 0.02, 0.45)):
        path = _write(directory, f"binary-{k}.json", _problem(
            "rd", {"p_x": [0.5, 0.5], "distortion": [[0.0, 1.0],
                                                     [1.0, 0.0]],
                   "level": level}))

        def check_bits(result, level=level):
            code, stdout = result
            outcome, summary = _cli_rd_outcome(
                code, stdout, np.array([0.5, 0.5]),
                np.array([[0.0, 1.0], [1.0, 0.0]]), level)
            if outcome.cause is None and (
                    abs(summary["rate_nats"]
                        - checks.binary_hamming_rate(level)) > EXACT_TARGET
                    or abs(summary["rate_bits"] * math.log(2.0)
                           - summary["rate_nats"]) > 1e-12):
                return invariant("reference_off")
            return outcome

        cases.append(Case(f"bits-binary-{k}", lambda api, path=path: _main(
            api, ["run", path, "--bits"]), check_bits, certifiable=True))

    for k, f in enumerate(spread_fractions(rng, 45, 0.1, 0.9)):
        n = 3 + k % 3
        p, d = d2_problem(rng, n)
        lo, hi = feasible_range(p, d)
        level = lo + f * (hi - lo)
        path = _write(directory, f"eps-n{n}-{k}.json", _problem(
            "rd", {"p_x": p.tolist(), "distortion": d.tolist(),
                   "level": level}))

        def check_eps(result, p=p, d=d, level=level):
            code, stdout = result
            outcome, summary = _cli_rd_outcome(code, stdout, p, d, level,
                                               BISECTION_EPS)
            if outcome.cause is None and summary["iterations"] > 0 \
                    and not math.isfinite(summary.get("guarantee_nats",
                                                      math.nan)):
                return invariant("no_guarantee")
            return outcome

        cases.append(Case(f"eps-n{n}-{k}", lambda api, path=path: _main(
            api, ["run", path, "--eps", repr(BISECTION_EPS)]), check_eps,
            certifiable=True))

    bell = _write(directory, "qrd_bell.json", _problem(
        "qrd", {"rho_r": [0.5, 0, 0, 0, 0, 0, 0.5, 0], "d_r": 2, "d_b": 2,
                "delta": np.stack([BELL_DELTA.ravel(),
                                   np.zeros(16)], axis=1).ravel().tolist(),
                "level": 0.5}))

    def check_bell(result):
        code, stdout = result
        summary = _parse(stdout)
        if summary is None:
            return Outcome(cause=f"cli_exit:{code}")
        failed = _cli_status(code, summary)
        if failed is not None:
            return failed
        flat = np.asarray(summary["state_interleaved"])
        state = (flat[0::2] + 1j * flat[1::2]).reshape(4, 4)
        cause = checks.check_state(np.eye(2) / 2.0, BELL_DELTA, 0.5,
                                   "equality", summary["rate_nats"], state)
        if cause is None and abs(summary["rate_nats"] - BELL_RATE) \
                > EXACT_TARGET:
            cause = "reference_off"
        return invariant(cause)

    for k in range(64):
        cases.append(Case(f"qrd-bell-{k}", lambda api: _main(
            api, ["run", bell]), check_bell))
    return cases


# workload -> (builder, planned seconds of one pass on a 2-core x86 VM)
BUILDERS = {"rd-curve": (rd_curve, 10.0), "engine": (engine, 18.0),
            "qrd": (qrd, 9.0), "cli": (cli, 7.0)}
