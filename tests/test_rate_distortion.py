"""Rate-distortion solvers against closed forms, frozen constants, and
cross-route consistency."""

import math
import warnings

import numpy as np
import pytest

from bregman_em import (ArgumentError, DistortionConstraint, EmOptions,
                        InfeasibleError, RateDistortionProblem, SupportError,
                        check_exp_convergence, solve_qrd, solve_rd,
                        solve_rd_bisection, solve_rd_fulldim, solve_rd_multi,
                        solve_rd_side_info)

P_X = np.array([0.5, 0.3, 0.2])
D_MATRIX = np.array([[0.0, 1.0, 2.0],
                     [1.0, 2.0, 0.0],
                     [3.0, 0.0, 1.0]])
LEVEL = 1.5

# frozen reference solution of the three-symbol instance above
RATE_REF = 0.10003902845238391
TAU_REF = 0.522814
MARGINAL_REF = np.array([0.185555, 0.288401, 0.526045])
CHANNEL_REF = np.array([[0.0855598, 0.22431, 0.69013],
                        [0.188594, 0.494433, 0.316974],
                        [0.430983, 0.139579, 0.429438]])


@pytest.fixture(scope="module")
def three_symbol():
    return solve_rd(P_X, D_MATRIX, LEVEL,
                    options=EmOptions(max_iterations=2000,
                                      objective_tolerance=1e-12))


def binary_entropy(p):
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


# ------------------------------------------------------------ solve_rd


def test_three_symbol_instance(three_symbol):
    s = three_symbol
    assert s.converged
    assert s.mode == "equality"
    assert s.rate == pytest.approx(RATE_REF, abs=1e-7)
    assert s.tau == pytest.approx(TAU_REF, abs=1e-4)
    assert np.allclose(s.output_marginal, MARGINAL_REF, atol=1e-3)
    assert np.allclose(s.channel, CHANNEL_REF, atol=2e-3)
    assert s.constraint_residual <= 1e-9
    assert np.allclose(s.channel.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(P_X @ s.channel, s.output_marginal, atol=1e-12)
    assert s.distortion == pytest.approx(LEVEL, abs=1e-9)


def test_three_symbol_trace_bound_and_descent(three_symbol):
    records = three_symbol.trace.records
    objectives = np.array([r.objective for r in records])
    assert np.all(np.diff(objectives) <= 1e-12)
    log3 = math.log(3.0)
    for r in records:
        assert r.bound == pytest.approx(log3 / (r.t - 1), abs=1e-15)
        assert r.objective - three_symbol.rate <= r.bound + 1e-9


def test_binary_hamming_closed_form():
    p = np.array([0.5, 0.5])
    hamming = 1.0 - np.eye(2)
    for level in (0.05, 0.1, 0.2, 0.3):
        s = solve_rd(p, hamming, level)
        assert s.rate == pytest.approx(
            math.log(2.0) - binary_entropy(level), abs=1e-8)
        assert s.converged
        assert s.iterations <= 10


def test_zero_rate_inequality():
    s = solve_rd(P_X, D_MATRIX, LEVEL, mode="inequality")
    assert s.rate == 0.0
    assert s.iterations == 0
    assert s.converged
    assert np.allclose(s.output_marginal, [1.0, 0.0, 0.0])
    assert np.allclose(s.channel, np.tile(s.output_marginal, (3, 1)))
    assert s.distortion == pytest.approx(0.9)
    assert s.constraint_residual == 0.0


def test_zero_rate_equality_two_point_mixture():
    # inside the product range a mixture of the cheapest and dearest
    # outputs meets the level without looking at the input
    s = solve_rd(P_X, D_MATRIX, 1.0, mode="equality")
    assert s.rate == 0.0
    assert np.allclose(s.output_marginal, [2.0 / 3.0, 0.0, 1.0 / 3.0])
    assert s.distortion == pytest.approx(1.0, abs=1e-12)
    assert s.feasibility.equality_achievable_by_product


def test_infeasible_levels():
    with pytest.raises(InfeasibleError):
        solve_rd(P_X, D_MATRIX, -0.1)
    with pytest.raises(InfeasibleError):
        solve_rd(P_X, D_MATRIX, 10.0)
    with pytest.raises(InfeasibleError):
        solve_rd(P_X, D_MATRIX, -0.1, mode="inequality")
    s = solve_rd(P_X, D_MATRIX, 10.0, mode="inequality")
    assert s.rate == 0.0


def test_solve_rd_validation():
    with pytest.raises(SupportError):
        solve_rd([0.5, 0.5, 0.0], D_MATRIX, 1.5)
    with pytest.raises(ArgumentError):
        solve_rd([0.5, 0.4], D_MATRIX, 1.5)
    with pytest.raises(ArgumentError):
        solve_rd(P_X, D_MATRIX[:2], 1.5)
    with pytest.raises(ArgumentError):
        solve_rd(P_X, D_MATRIX, 1.5, mode="at_most")
    with pytest.raises(ArgumentError):
        solve_rd(P_X, D_MATRIX, 1.5, initial_marginal=[0.5, 0.5])
    with pytest.raises(ArgumentError):
        solve_rd(P_X, D_MATRIX[:, :1], 1.5)
    bad = D_MATRIX.copy()
    bad[0, 0] = np.inf
    with pytest.raises(ArgumentError):
        solve_rd(P_X, bad, 1.5)


def test_warm_start_from_optimal_marginal(three_symbol):
    s = solve_rd(P_X, D_MATRIX, LEVEL,
                 initial_marginal=three_symbol.output_marginal)
    assert s.rate == pytest.approx(three_symbol.rate, abs=1e-10)
    assert s.iterations <= 5
    # no reference divergence is known for a custom start
    assert math.isnan(s.trace.records[0].bound)


# ------------------------------------------------- problem container


def test_problem_dispatch(three_symbol):
    problem = RateDistortionProblem(
        P_X, (DistortionConstraint(D_MATRIX, LEVEL),))
    assert problem.n_inputs == 3
    assert problem.n_outputs == 3
    s = problem.solve(options=EmOptions(max_iterations=2000,
                                        objective_tolerance=1e-12))
    assert s.rate == pytest.approx(three_symbol.rate, abs=1e-12)
    budgeted = problem.solve(eps=5e-2)
    assert budgeted.guarantee is not None


def test_problem_validation():
    c = DistortionConstraint(D_MATRIX, 0.5)
    with pytest.raises(ArgumentError):
        RateDistortionProblem(P_X, ())
    with pytest.raises(ArgumentError):
        RateDistortionProblem(P_X, (c, c))             # needs inequality
    with pytest.raises(ArgumentError):
        RateDistortionProblem(P_X, (D_MATRIX,))
    with pytest.raises(ArgumentError):
        RateDistortionProblem(np.full(4, 0.25), (c,))
    with pytest.raises(ArgumentError):
        RateDistortionProblem(
            P_X, (c, DistortionConstraint(D_MATRIX[:, :2], 0.5)),
            mode="inequality")
    with pytest.raises(ArgumentError):
        RateDistortionProblem(P_X, (c, c), mode="inequality").solve(eps=0.1)
    with pytest.raises(ArgumentError):
        DistortionConstraint(np.zeros(3), 0.5)
    for level in (math.nan, math.inf):
        with pytest.raises(ArgumentError):
            DistortionConstraint(D_MATRIX, level)


# ------------------------------------------------- budgeted bisection


def test_bisection_certified_budget(three_symbol):
    eps = 1e-2
    s = solve_rd_bisection(P_X, D_MATRIX, LEVEL, eps)
    t1 = math.ceil(3.0 * math.log(3.0) / eps) + 1
    assert s.iterations == t1
    budget = math.log(3.0) / (t1 - 1) + 2.0 * eps / 3.0
    assert s.guarantee - three_symbol.rate <= budget
    # the certificate may undershoot by at most the repair slack
    assert s.guarantee >= three_symbol.rate - eps / 3.0 - 1e-8
    assert s.rate <= three_symbol.rate + eps
    assert s.constraint_residual <= 1e-9
    assert np.allclose(s.channel.sum(axis=1), 1.0, atol=1e-12)


def test_bisection_explicit_budget_and_curvature_floor():
    s = solve_rd_bisection(P_X, D_MATRIX, LEVEL, 5e-2, t1=40,
                           zeta_minus=1e-3)
    assert s.iterations == 40
    assert s.guarantee is not None


def test_bisection_zero_rate_and_validation():
    s = solve_rd_bisection(P_X, D_MATRIX, LEVEL, 1e-2, mode="inequality")
    assert s.rate == 0.0
    assert s.iterations == 0
    with pytest.raises(ArgumentError):
        solve_rd_bisection(P_X, D_MATRIX, LEVEL, 0.0)
    with pytest.raises(ArgumentError):
        solve_rd_bisection(P_X, D_MATRIX, LEVEL, 1e-2, t1=1)
    with pytest.raises(InfeasibleError):
        solve_rd_bisection(P_X, D_MATRIX, -1.0, 1e-2)


# ------------------------------------------------- side information


def test_side_info_single_symbol_collapses(three_symbol):
    s = solve_rd_side_info(P_X[:, None], D_MATRIX, LEVEL,
                           options=EmOptions(max_iterations=2000,
                                             objective_tolerance=1e-12))
    assert s.rate == pytest.approx(three_symbol.rate, abs=1e-8)
    assert s.channel.shape == (1, 3, 3)
    assert s.distortion == pytest.approx(LEVEL, abs=1e-9)


def test_side_info_independent_side_collapses(three_symbol):
    p_xs = np.outer(P_X, [0.6, 0.4])
    s = solve_rd_side_info(p_xs, D_MATRIX, LEVEL,
                           options=EmOptions(max_iterations=2000,
                                             objective_tolerance=1e-12))
    assert s.rate == pytest.approx(three_symbol.rate, abs=1e-6)
    assert s.channel.shape == (2, 3, 3)
    for side in range(2):
        assert np.allclose(s.channel[side], three_symbol.channel,
                           atol=1e-4)
        assert np.allclose(s.output_marginal[side],
                           three_symbol.output_marginal, atol=1e-4)


def test_side_info_zero_rate_and_validation():
    p_xs = np.outer(P_X, [0.6, 0.4])
    s = solve_rd_side_info(p_xs, D_MATRIX, LEVEL, mode="inequality")
    assert s.rate == 0.0
    assert s.channel.shape == (2, 3, 3)
    for side in range(2):
        assert np.allclose(s.channel[side],
                           np.tile(s.output_marginal[side], (3, 1)))
    with pytest.raises(ArgumentError):
        solve_rd_side_info(P_X, D_MATRIX, LEVEL)
    with pytest.raises(ArgumentError):
        solve_rd_side_info(p_xs, D_MATRIX, LEVEL,
                           initial_marginal=np.full(3, 1.0 / 3.0))
    with pytest.raises(InfeasibleError):
        solve_rd_side_info(p_xs, D_MATRIX, -2.0)


# ------------------------------------------- simultaneous constraints


def test_multi_single_constraint_reduction():
    single = solve_rd(P_X, D_MATRIX, 0.5, mode="inequality")
    multi = solve_rd_multi(P_X, [D_MATRIX], [0.5])
    assert multi.rate == pytest.approx(single.rate, abs=1e-6)
    assert multi.active_constraints == (0,)
    assert multi.constraint_residual <= 1e-8


def test_multi_duplicate_constraint():
    single = solve_rd(P_X, D_MATRIX, 0.5, mode="inequality")
    multi = solve_rd_multi(P_X, [D_MATRIX, D_MATRIX], [0.5, 0.5])
    assert multi.rate == pytest.approx(single.rate, abs=1e-6)
    assert 0 in multi.active_constraints or 1 in multi.active_constraints


def test_multi_slack_second_constraint():
    single = solve_rd(P_X, D_MATRIX, 0.5, mode="inequality")
    multi = solve_rd_multi(P_X, [D_MATRIX, D_MATRIX], [0.5, 5.0])
    assert multi.rate == pytest.approx(single.rate, abs=1e-6)
    assert multi.active_constraints == (0,)
    assert np.all(multi.distortion <= np.array([0.5, 5.0]) + 1e-8)


def test_multi_two_binding_constraints():
    # the squared distortion shares its zero cells with the original,
    # so any pair of nonnegative levels stays jointly feasible; the
    # second ceiling is set to cut off the single-constraint optimum
    d2 = D_MATRIX ** 2
    first = solve_rd(P_X, D_MATRIX, 0.5, mode="inequality")
    cut = 0.9 * float(np.sum(P_X[:, None] * first.channel * d2))
    levels = [0.5, cut]
    multi = solve_rd_multi(P_X, [D_MATRIX, d2], levels)
    assert np.all(multi.distortion <= np.array(levels) + 1e-8)
    floor = max(first.rate, solve_rd(P_X, d2, cut, mode="inequality").rate)
    assert multi.rate >= floor - 1e-8
    assert multi.active_constraints
    assert multi.converged


def test_multi_zero_rate_and_validation():
    s = solve_rd_multi(P_X, [D_MATRIX], [2.0])
    assert s.rate == 0.0
    assert s.active_constraints == ()
    assert s.iterations == 0
    with pytest.raises(ArgumentError):
        solve_rd_multi(P_X, [], [])
    with pytest.raises(ArgumentError):
        solve_rd_multi(P_X, [D_MATRIX], [0.5, 0.6])
    with pytest.raises(ArgumentError):
        solve_rd_multi(P_X, [D_MATRIX, D_MATRIX[:, :2]], [0.5, 0.6])
    with pytest.raises(InfeasibleError):
        solve_rd_multi(P_X, [D_MATRIX], [-1.0])
    # any number of ceilings: 21 copies of one give its single rate
    toy = 1.0 - np.eye(2)
    many = solve_rd_multi([0.5, 0.5], [toy] * 21, [0.4] * 21)
    single = solve_rd([0.5, 0.5], toy, 0.4, mode="inequality")
    assert many.rate == pytest.approx(single.rate, abs=1e-9)


# --------------------------------------------- full-simplex cross run


def test_fulldim_agrees_with_specialized_route(three_symbol):
    full = solve_rd_fulldim(P_X, D_MATRIX, LEVEL,
                            options=EmOptions(max_iterations=2000,
                                              objective_tolerance=1e-12))
    assert full.rate == pytest.approx(three_symbol.rate, abs=1e-6)
    assert np.allclose(full.channel, three_symbol.channel, atol=1e-3)
    assert np.allclose(full.output_marginal, three_symbol.output_marginal,
                       atol=1e-3)
    # multiplier vector: input-marginal facets first, distortion last
    assert full.tau.shape == (3,)
    assert full.tau[-1] == pytest.approx(three_symbol.tau, abs=1e-4)
    assert full.distortion == pytest.approx(LEVEL, abs=1e-8)


def test_fulldim_zero_rate_shortcut():
    s = solve_rd_fulldim(P_X, D_MATRIX, LEVEL, mode="inequality")
    assert s.rate == 0.0
    assert s.iterations == 0


# ------------------------------------------------- rank diagnostic


def test_rank_diagnostic(three_symbol):
    report = check_exp_convergence(three_symbol.channel)
    assert report.holds
    assert report.rank == 3
    assert report.required_rank == 3
    assert np.all(np.diff(report.singular_values) <= 0.0)

    flat = np.tile([0.2, 0.3, 0.5], (3, 1))
    report = check_exp_convergence(flat)
    assert not report.holds
    assert report.rank == 1

    with pytest.raises(ArgumentError):
        check_exp_convergence(np.array([0.2, 0.8]))
    with pytest.raises(ArgumentError):
        check_exp_convergence(np.array([[np.nan, 1.0], [0.5, 0.5]]))


# ---------------------------------------------------- non-finite levels

NON_FINITE_SOLVES = {
    "rd": lambda level, mode: solve_rd(P_X, D_MATRIX, level, mode=mode),
    "side_info": lambda level, mode: solve_rd_side_info(
        np.outer(P_X, [0.6, 0.4]), D_MATRIX, level, mode=mode),
    "bisection": lambda level, mode: solve_rd_bisection(
        P_X, D_MATRIX, level, 0.1, mode=mode),
    "fulldim": lambda level, mode: solve_rd_fulldim(P_X, D_MATRIX, level,
                                                    mode=mode),
    "multi": lambda level, mode: solve_rd_multi(
        P_X, [D_MATRIX, D_MATRIX.T], [1.5, level]),
    "qrd": lambda level, mode: solve_qrd(
        np.diag([0.6, 0.4]), np.diag([0.0, 1.0, 1.0, 0.0]), level,
        mode=mode),
}


@pytest.mark.parametrize("level", [math.nan, math.inf])
@pytest.mark.parametrize("solver, mode", [
    (solver, mode) for solver in NON_FINITE_SOLVES
    for mode in ("equality", "inequality")
    if solver != "multi" or mode == "inequality"])
def test_non_finite_level_is_an_argument_error(solver, mode, level):
    # every solver, before any numerical work: no warning, no numpy
    # exception and no "converged" rate-zero answer
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArgumentError) as caught:
            NON_FINITE_SOLVES[solver](level, mode)
    assert caught.type is ArgumentError
    assert "finite" in str(caught.value)
