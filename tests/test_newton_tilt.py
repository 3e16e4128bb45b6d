"""The safeguarded Newton tilt of solve_rd and solve_rd_side_info:
seeded random instances against a bisection oracle, the reduction of
the side-information solver to one side symbol, and a sparse-support
instance whose optimal output law has empty cells."""

import math
import warnings

import numpy as np
import pytest

from bregman_em import (ConditionalSystem, EmOptions, UnboundedError,
                        bisect_to_tolerance, distortion_feasibility,
                        expand_bracket, mutual_information, solve_rd,
                        solve_rd_side_info)
from bregman_em import rate_distortion
from bregman_em.rate_distortion import (_ROOT_TOL, _mean_distortion,
                                        _newton_tilt, _tilt_at,
                                        _tilted_channel)

# A sparse-support instance whose optimum leaves an output empty, so
# the tilted channel has exact-zero cells.  Its tilt solver used to
# raise SupportError ("channel must be strictly positive") while it
# converted every round's channel to natural coordinates.
D2_P = np.array([
    0.004865544060443695, 0.6587461097234916, 0.03835079325494362,
    0.01797964916608557, 0.09520057927654269, 0.07655209521978834,
    0.05327400808281824, 0.0550312212158862])
D2_D = np.array([
    [0.6304538247876944, 0.7540845711290838, 0.9873507063571011,
     0.9487964055991583, 0.1123560457268057, 0.06653503684045325,
     0.263898133521778, 0.8995097687958925],
    [0.7396493733510919, 0.2903158795721044, 0.14378318632807632,
     0.6135476264508168, 0.06456083453295583, 0.8293344911769818,
     0.2621764279497119, 0.1409593566682545],
    [0.8229046038456077, 0.9130758908159201, 0.774691479209282,
     0.1871595877533317, 0.7266300291247645, 0.15715260536736714,
     0.8831132141108458, 0.11105220170698078],
    [0.5203282566262556, 0.44531822137144134, 0.6167903304520279,
     0.7152013394506319, 0.726117445286175, 0.2777695827361784,
     0.24820369523996436, 0.8722993359290588],
    [0.931213131358474, 0.6813325145962298, 0.10166756862097291,
     0.4503552531385527, 0.19559492393982192, 0.4225958381779555,
     0.9928659833744508, 0.6938714216896734],
    [0.24453489076415097, 0.7829178058885002, 0.4974433731360399,
     0.8744151287270029, 0.8793571563960813, 0.5861722560821082,
     0.8943377964668723, 0.049781778229051485],
    [0.03539480611818705, 0.12583657155003977, 0.7181457438450372,
     0.27672671025732015, 0.326991435432097, 0.14719411397154597,
     0.722415656448962, 0.7204245872715932],
    [0.6767498326695502, 0.8838668738089969, 0.08618613311573234,
     0.899628141417764, 0.3580262855333916, 0.48432243404389663,
     0.45470725795283445, 0.7184226029334629],
])
D2_LEVEL = 0.14526850964984123


def random_tilt_case(rng):
    """Source, distortion, output law and a level strictly between the
    achievable minimum and the cheapest product channel."""
    n1 = int(rng.integers(2, 33))
    n2 = int(rng.integers(2, 33))
    p = rng.dirichlet(np.ones(n1))
    d = rng.uniform(0.0, 1.0, (n1, n2)) * rng.choice([0.1, 1.0, 10.0])
    if rng.random() < 0.5:
        q = rng.dirichlet(np.ones(n2))
    else:
        # near-deterministic: one dominant output, the rest down to 1e-300
        q = 10.0 ** -rng.uniform(1.0, 300.0, n2)
        q[rng.integers(n2)] = 1.0
        q /= q.sum()
    report = distortion_feasibility(p, d, 0.0)
    lo, hi = report.achievable_min, report.min_product
    level = lo + rng.uniform(0.01, 0.99) * (hi - lo)
    return p, d, q, level


def residual(p, q, d, level):
    return lambda tau: _mean_distortion(
        p, _tilted_channel(np.log(q), tau, d), d) - level


def find_tilt(p, q, d, level, tau0, step0):
    """The tilt search of one round of the solve_rd loop: one side
    symbol, so the output laws are the single row ``q[None, :]``."""
    log_q = np.log(q)[None, :]
    tau, w = _newton_tilt(lambda x: _tilt_at(p, log_q, d, level, x),
                          tau0, step0)
    return tau, w[0]


def oracle_tilt(p, q, d, level):
    g = residual(p, q, d, level)
    a, b = expand_bracket(g, 0.0, 1.0)
    return bisect_to_tolerance(g, a, b, value_tolerance=_ROOT_TOL).x


def starts(rng):
    """A cold start, as in the first round, and a warm one with a short
    step, as in later rounds."""
    return [(0.0, 1.0), (float(-rng.exponential(5.0)),
                         float(10.0 ** rng.uniform(-8.0, 0.0)))]


def test_newton_tilt_matches_the_bisection_oracle():
    rng = np.random.default_rng(20220107)
    for _ in range(150):
        p, d, q, level = random_tilt_case(rng)
        g = residual(p, q, d, level)
        tau_ref = oracle_tilt(p, q, d, level)
        assert abs(g(tau_ref)) <= _ROOT_TOL
        for tau0, step0 in starts(rng):
            tau, w = find_tilt(p, q, d, level, tau0, step0)
            assert abs(g(tau)) <= _ROOT_TOL
            assert abs(tau - tau_ref) <= 1e-8 * (1.0 + abs(tau))
            assert np.array_equal(w, _tilted_channel(np.log(q), tau, d))


def test_newton_tilt_evaluates_few_points(monkeypatch):
    rng = np.random.default_rng(7)
    p, d, q, level = random_tilt_case(rng)
    tau_ref = oracle_tilt(p, q, d, level)
    calls = []

    def counted(q, tau, d):
        calls.append(tau)
        return _tilted_channel(q, tau, d)

    monkeypatch.setattr(rate_distortion, "_tilted_channel", counted)
    tau, _ = find_tilt(p, q, d, level, tau_ref + 1e-3, 4e-3)
    assert abs(tau - tau_ref) <= 1e-8 * (1.0 + abs(tau))
    # the start, one bracketing trial and a few Newton steps, none twice
    assert len(calls) <= 6
    assert len(set(calls)) == len(calls)


def test_newton_tilt_returns_a_root_at_the_start():
    def tilt(tau):
        return tau - 0.25, 1.0, np.array([tau])

    tau, w = _newton_tilt(tilt, 0.25, 1.0)
    assert tau == 0.25 and w[0] == 0.25


def test_newton_tilt_falls_back_to_bisection():
    # a zero slope rejects every Newton step, so the bracket midpoints
    # run out before the tolerance is met and bisection finishes
    def tilt(tau):
        return tau ** 3 - 2.0, 0.0, np.array([tau])

    tau, w = _newton_tilt(tilt, 0.0, 1.0)
    assert abs(tau ** 3 - 2.0) <= _ROOT_TOL
    assert w[0] == tau


def test_newton_tilt_does_not_return_a_nan_residual():
    def tilt(tau):
        return math.nan, 1.0, np.array([tau])

    with pytest.raises(UnboundedError):
        _newton_tilt(tilt, 0.0, 1.0)


def test_side_info_with_one_side_symbol_matches_solve_rd():
    rng = np.random.default_rng(31)
    options = EmOptions(max_iterations=5000, objective_tolerance=1e-13)
    for _ in range(12):
        n1 = int(rng.integers(2, 9))
        n2 = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(n1))
        d = rng.uniform(0.0, 1.0, (n1, n2))
        report = distortion_feasibility(p, d, 0.0)
        level = report.achievable_min + rng.uniform(0.05, 0.95) * (
            report.min_product - report.achievable_min)
        plain = solve_rd(p, d, level, options=options)
        side = solve_rd_side_info(p[:, None], d, level, options=options)
        assert plain.converged and side.converged
        assert side.rate == pytest.approx(plain.rate, abs=1e-9)


def blahut_bound(p, d, q, tau, level):
    """Blahut's dual bound tau*D - E log Z - max_y log c_y at (q, tau)."""
    a = tau * d
    top = a.max(axis=1)
    log_z = top + np.log((q * np.exp(a - top[:, None])).sum(axis=1))
    c = (p[:, None] * np.exp(a - log_z[:, None])).sum(axis=0)
    return tau * level - float(p @ log_z) - float(np.log(c).max())


def test_sparse_support_instance_returns_a_certified_answer():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_rd(D2_P, D2_D, D2_LEVEL)
    w = sol.channel
    assert math.isfinite(sol.rate)
    assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
    assert np.max(np.abs(D2_P @ w - sol.output_marginal)) <= 1e-15
    assert abs(_mean_distortion(D2_P, w, D2_D) - D2_LEVEL) <= 1e-9
    assert sol.rate == pytest.approx(
        mutual_information(D2_P[:, None] * w), abs=1e-12)
    assert sol.rate >= blahut_bound(D2_P, D2_D, sol.output_marginal,
                                    sol.tau, D2_LEVEL) - 1e-9
    assert np.any(w == 0.0)
    assert sol.trace.final_theta is None


def test_solve_rd_keeps_no_natural_coordinates_per_round():
    p = np.array([0.5, 0.3, 0.2])
    d = np.array([[0.0, 1.0, 2.0], [1.0, 2.0, 0.0], [3.0, 0.0, 1.0]])
    for low_memory in (False, True):
        sol = solve_rd(p, d, 1.5, options=EmOptions(low_memory=low_memory))
        assert all(r.theta_m is None and r.theta_e is None
                   for r in sol.trace.records)
        assert not sol.trace.selection_enabled
        system = ConditionalSystem(p, 3)
        assert np.allclose(system.channel(sol.trace.final_theta),
                           sol.channel, atol=1e-12)
    lean = solve_rd(p, d, 1.5, options=EmOptions(low_memory=True))
    assert lean.rate == solve_rd(p, d, 1.5).rate


def test_tilt_solvers_do_not_convert_channels_per_round(monkeypatch):
    def refuse(self, w):
        raise AssertionError("theta_of_channel called")

    monkeypatch.setattr(ConditionalSystem, "theta_of_channel", refuse)
    solve_rd(D2_P, D2_D, D2_LEVEL)
    solve_rd_side_info(D2_P[:, None], D2_D, D2_LEVEL)
