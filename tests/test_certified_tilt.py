"""Certified stop and finishing Newton step of the tilt solvers.

Every answer of ``solve_rd`` and ``solve_rd_side_info`` is checked
against Blahut's dual bound computed here, independently of the
library's own bound: a converged answer must sit within the solver's
tolerance of it.  A seeded battery covers n from 2 to 40, both modes
and side information; fixed regressions replay sparse-support problems
of the benchmark on which plain em needs thousands of rounds.
"""

import io
import math
import warnings

import numpy as np
import pytest

from bregman_em import (BregmanEmError, EmOptions, ExponentialSubfamily,
                        InfeasibleError, MixtureSubfamily,
                        canonical_simplex_system, rate_distortion, run_em,
                        solve_rd, solve_rd_side_info, write_trace_csv)
from bregman_em.rate_distortion import _kkt_point

TOL = 1e-10          # the default objective_tolerance of the tilt solvers

# the benchmark's corpus recipe (bench/workloads.py): a fixed corpus
# jittered by the run's seed
CORPUS_SEED = 2201_02447
JITTER = 1e-3


def rd_curve_problems(seed):
    """The sparse-support problems ``d2-n{n}-{k}`` of the rd-curve
    workload at ``seed``: (name, p, d, level)."""
    corpus = np.random.default_rng(CORPUS_SEED)
    jitter = np.random.default_rng(seed)

    def uniform(size):
        return np.clip(corpus.uniform(0.0, 1.0, size)
                       + JITTER * jitter.normal(size=size), 0.0, 1.0)

    def dirichlet(n):
        p = corpus.dirichlet(np.ones(n)) * np.exp(
            JITTER * jitter.normal(size=n))
        return p / p.sum()

    for n, count in ((8, 80), (32, 4), (128, 2)):
        fractions = 0.05 + (0.95 - 0.05) * (
            np.arange(count) + uniform(count)) / count
        for k, f in enumerate(fractions):
            p = dirichlet(n)
            d = uniform((n, n))
            lo, hi = p @ d.min(axis=1), (p @ d).min()
            yield f"d2-n{n}-{k}", p, d, lo + f * (hi - lo)


def sweep_top_level():
    """The last level of the cli workload's 16-level sweep on a 24x24
    problem, at 0.95 of its range."""
    corpus = np.random.default_rng(CORPUS_SEED)
    p = corpus.dirichlet(np.ones(24))
    d = corpus.uniform(0.0, 1.0, (24, 24))
    lo, hi = p @ d.min(axis=1), (p @ d).min()
    levels = np.linspace(lo + 0.05 * (hi - lo), lo + 0.95 * (hi - lo), 16)
    return p, d, float(levels[-1])


def blahut_bound(p_xs, d, q, tau, level):
    """Blahut's lower bound on the (conditional) rate-distortion
    function: ``tau*level - sum_s p(s) [E log Z + max_y log c_y]`` with
    one shared tilt and an output law ``q[s]`` per side symbol."""
    total = tau * level
    a = tau * d
    top = a.max(axis=1)
    for s in range(p_xs.shape[1]):
        p_s = p_xs[:, s].sum()
        p = p_xs[:, s] / p_s
        log_z = top + np.log((q[s] * np.exp(a - top[:, None])).sum(axis=1))
        c = (p[:, None] * np.exp(a - log_z[:, None])).sum(axis=0)
        total -= p_s * (p @ log_z + np.log(c).max())
    return total


def check_certified(sol, p_xs, d, level, mode, tol=TOL):
    """Invariants of a converged answer and its gap under the bound
    above at the returned output laws and tilt."""
    ns = p_xs.shape[1]
    w = np.asarray(sol.channel).reshape(ns, *d.shape)
    q = np.asarray(sol.output_marginal).reshape(ns, d.shape[1])
    assert sol.converged
    assert math.isfinite(sol.rate)
    assert np.all(np.isfinite(w)) and w.min() >= 0.0
    assert np.max(np.abs(w.sum(axis=-1) - 1.0)) <= 1e-12
    p_s = p_xs.sum(axis=0)
    assert np.max(np.abs(np.einsum("xs,sxy->sy", p_xs / p_s, w) - q)) \
        <= 1e-12
    distortion = float(np.einsum("xs,sxy,xy->", p_xs, w, d))
    if mode == "equality":
        assert abs(distortion - level) <= 1e-9
    else:
        assert distortion <= level + 1e-9
    tau = sol.tau if mode == "equality" else min(sol.tau, 0.0)
    gap = sol.rate - blahut_bound(p_xs, d, q, tau, level)
    assert -1e-9 <= gap <= tol
    if sol.iterations:
        assert sol.trace.records[-1].gap <= tol
    return gap


def random_instance(rng, i):
    n1 = int(rng.integers(2, 41))
    n2 = int(rng.integers(2, 41))
    ns = int(rng.integers(1, 4)) if i % 3 == 2 else 0
    d = rng.uniform(0.0, 1.0, (n1, n2)) * rng.choice([0.1, 1.0, 10.0])
    alpha = 0.2 if rng.random() < 0.3 else 1.0
    p = np.maximum(rng.dirichlet(np.full(n1 * max(ns, 1), alpha)), 1e-12)
    p /= p.sum()
    mode = "equality" if rng.random() < 0.6 else "inequality"
    p_xs = p.reshape(n1, max(ns, 1))
    p_s = p_xs.sum(axis=0)
    lo = float(p_xs.sum(axis=1) @ d.min(axis=1))
    hi = float(p_s @ ((p_xs / p_s).T @ d).min(axis=1))
    level = lo + rng.uniform(-0.05, 1.2) * (hi - lo)
    return ns, p_xs, d, level, mode, lo


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seeded_battery_is_certified_or_raises_a_named_error(seed):
    rng = np.random.default_rng(seed)
    for i in range(100):
        ns, p_xs, d, level, mode, lo = random_instance(rng, i)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                if ns:
                    sol = solve_rd_side_info(p_xs, d, level, mode=mode)
                else:
                    sol = solve_rd(p_xs[:, 0], d, level, mode=mode)
            except BregmanEmError as exc:
                # only levels below the achievable minimum may fail
                assert isinstance(exc, InfeasibleError) and level < lo
                continue
        check_certified(sol, p_xs, d, level, mode)


@pytest.mark.parametrize("name", ["d2-n8-62", "d2-n128-0", "d2-n128-1"])
def test_sparse_support_regressions_finish_in_few_rounds(name):
    # plain em leaves these uncertified after 1000 rounds
    _, p, d, level = next(case for case in rd_curve_problems(1)
                          if case[0] == name)
    sol = solve_rd(p, d, level)
    check_certified(sol, p[:, None], d, level, "equality")
    assert sol.iterations <= 25
    assert sol.trace.records[-1].finish
    assert np.any(sol.output_marginal == 0.0)


def test_sweep_top_level_needs_more_than_one_support_guess(monkeypatch):
    # an output off the optimal support has c_y within 5e-4 of 1 here
    p, d, level = sweep_top_level()
    sol = solve_rd(p, d, level)
    check_certified(sol, p[:, None], d, level, "equality")
    assert sol.iterations <= 25
    monkeypatch.setattr(rate_distortion, "_FINISH_DELTAS", (0.05,))
    assert not solve_rd(p, d, level,
                        options=EmOptions(max_iterations=60)).converged


def test_finish_round_is_flagged_last_and_keeps_descent():
    _, p, d, level = next(rd_curve_problems(1))
    sol = solve_rd(p, d, level)
    flags = [r.finish for r in sol.trace.records]
    assert flags[-1] and not any(flags[:-1])
    assert [r.t for r in sol.trace.records] == list(
        range(2, sol.iterations + 1))
    assert np.diff(sol.trace.objectives()).max() <= 1e-12
    assert min(r.gap for r in sol.trace.records) >= -1e-12


def test_zero_tolerance_stops_only_on_a_nonpositive_gap():
    # a certified loop with objective_tolerance=0 stops at the first round
    # whose gap rounds to at most 0, else it runs every round unconverged
    p = np.array([0.5, 0.3, 0.2])
    d = np.array([[0.0, 1.0, 2.0], [1.0, 2.0, 0.0], [3.0, 0.0, 1.0]])
    _, p62, d62, level62 = next(case for case in rd_curve_problems(1)
                                if case[0] == "d2-n8-62")
    for p, d, level in ((p, d, 1.5), (p62, d62, level62)):
        # five rounds end before the first finish, and em alone is not exact
        short = solve_rd(p, d, level, options=EmOptions(
            max_iterations=5, objective_tolerance=0.0))
        assert not short.converged and short.iterations == 5
        assert all(r.gap > 0.0 for r in short.trace.records)
        sol = solve_rd(p, d, level, options=EmOptions(
            max_iterations=40, objective_tolerance=0.0))
        records = sol.trace.records
        assert all(r.gap > 0.0 for r in records[:-1])
        assert sol.converged == (records[-1].gap <= 0.0)
        if sol.converged:
            check_certified(sol, p[:, None], d, level, "equality")
        else:
            assert sol.iterations == 40


def test_side_information_finish_shares_one_tilt():
    rng = np.random.default_rng(4)
    p_xs = rng.dirichlet(np.ones(12)).reshape(4, 3)
    d = rng.uniform(0.0, 1.0, (4, 5))
    p_s = p_xs.sum(axis=0)
    lo = float(p_xs.sum(axis=1) @ d.min(axis=1))
    hi = float(p_s @ ((p_xs / p_s).T @ d).min(axis=1))
    level = lo + 0.3 * (hi - lo)
    sol = solve_rd_side_info(p_xs, d, level)
    check_certified(sol, p_xs, d, level, "equality")
    assert sol.trace.records[-1].finish


def test_kkt_point_rejects_without_raising():
    p = np.array([0.5, 0.3, 0.2])
    d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [2.0, 0.5, 0.5]])
    q = np.full((1, 3), 1.0 / 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # two equal columns make the Jacobian singular
        assert _kkt_point(p[None], p[None], d, 0.6,
                          np.ones((1, 3), bool), q, -1.0) is None
        # a side symbol with an empty support guess
        assert _kkt_point(p[None], p[None], d, 0.6,
                          np.zeros((1, 3), bool), q, -1.0) is None
        # a tilt so large that every kernel entry overflows
        assert _kkt_point(p[None], p[None], d, 0.6,
                          np.array([[True, True, False]]), q, 1e308) is None


def test_kkt_point_drops_outputs_that_turn_negative():
    _, p, d, level = next(case for case in rd_curve_problems(1)
                          if case[0] == "d2-n8-62")
    sol = solve_rd(p, d, level)
    support = sol.output_marginal > 0.0
    assert support.sum() == 3
    # start from the uniform output law and its tilt, guessing the three
    # optimal outputs and the one off the support whose c_y is 0.9996 at
    # the optimum
    q = np.full((1, p.size), 1.0 / p.size)
    tau, _ = rate_distortion._newton_tilt(
        lambda x: rate_distortion._tilt_at(p, np.log(q), d, level, x),
        0.0, 1.0)
    guess = support.copy()
    guess[4] = True
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point = _kkt_point(p[None], p[None], d, level, guess[None], q, tau)
    assert point is not None
    q_kkt, tau = point
    assert q_kkt.min() >= 0.0
    assert np.array_equal(q_kkt[0] > 0.0, support)
    assert tau == pytest.approx(sol.tau, abs=1e-9)
    assert np.allclose(q_kkt[0], sol.output_marginal, atol=1e-12)


def test_trace_csv_gap_column_only_for_certified_loops():
    p = np.array([0.5, 0.3, 0.2])
    d = np.array([[0.0, 1.0, 2.0], [1.0, 2.0, 0.0], [3.0, 0.0, 1.0]])
    out = io.StringIO()
    sol = solve_rd(p, d, 1.5)
    write_trace_csv(sol.trace, out)
    lines = out.getvalue().splitlines()
    assert lines[0].split(",")[-1] == "gap"
    assert len(lines) == sol.iterations
    assert float(lines[-1].split(",")[-1]) == sol.trace.records[-1].gap

    system = canonical_simplex_system(3)
    exp_family = ExponentialSubfamily(np.zeros(2), np.array([[1.0], [0.0]]))
    mix_family = MixtureSubfamily(np.array([[0.0, 1.0]]), [0.2])
    trace = run_em(system, exp_family, mix_family, np.zeros(2))
    out = io.StringIO()
    write_trace_csv(trace, out)
    assert "gap" not in out.getvalue().splitlines()[0]
    assert all(math.isnan(r.gap) and math.isnan(r.lower_bound)
               for r in trace.records)
