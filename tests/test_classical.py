"""Discrete probability systems: KL identities, channel geometry, and
distortion feasibility."""

import warnings

import numpy as np
import pytest

from bregman_em import (ArgumentError, ConditionalSystem, DomainError,
                        RankError, SimplexSystem, SupportError,
                        canonical_simplex_system,
                        conditional_expectation_constraint,
                        conditional_system, distortion_feasibility,
                        divergence, floor_distribution, kl_divergence,
                        mutual_information, simplex_expectation_constraint,
                        simplex_system, to_mixture, to_natural)

P_X = np.array([0.5, 0.3, 0.2])
D_MATRIX = np.array([[0.0, 1.0, 2.0],
                     [1.0, 2.0, 0.0],
                     [3.0, 0.0, 1.0]])


# ------------------------------------------------------- kl utilities


def test_kl_divergence_values():
    want = 0.6 * np.log(0.6 / 0.5) + 0.4 * np.log(0.4 / 0.5)
    assert kl_divergence([0.6, 0.4], [0.5, 0.5]) == pytest.approx(
        want, abs=1e-15)
    assert kl_divergence([0.6, 0.4], [0.6, 0.4]) == 0.0
    assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == np.inf


def test_kl_divergence_handles_zero_in_first_slot():
    # 0 log 0 = 0 by continuity
    assert np.isfinite(kl_divergence([1.0, 0.0], [0.5, 0.5]))
    with pytest.raises(ArgumentError):
        kl_divergence([0.5, 0.5], [1.0, 0.0, 0.0])


def test_mutual_information_values():
    # independent -> 0; diagonal-heavy joint -> binary closed form
    outer = np.outer([0.4, 0.6], [0.3, 0.7])
    assert mutual_information(outer) == 0.0
    joint = np.array([[0.45, 0.05], [0.05, 0.45]])
    want = np.log(2.0) - (-0.9 * np.log(0.9) - 0.1 * np.log(0.1))
    assert mutual_information(joint) == pytest.approx(want, abs=1e-12)


def test_floor_distribution():
    out = floor_distribution([1.0, 0.0, 0.0], eps=1e-6)
    assert np.all(out > 0.0)
    assert out.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ArgumentError):
        floor_distribution([0.5, 0.5], eps=0.0)


# ----------------------------------------------------- simplex system


def test_simplex_divergence_is_kl():
    system = canonical_simplex_system(2)
    theta = np.array([np.log(0.6 / 0.4)])
    want = 0.6 * np.log(0.6 / 0.5) + 0.4 * np.log(0.4 / 0.5)
    assert want == pytest.approx(0.020135513550688857, abs=1e-15)
    assert divergence(system, theta, np.zeros(1)) == pytest.approx(
        want, abs=1e-12)


def test_simplex_divergence_random_matches_kl():
    system = canonical_simplex_system(3)
    rng = np.random.default_rng(7)
    for _ in range(30):
        t1 = rng.normal(size=2)
        t2 = rng.normal(size=2)
        p = system.distribution(t1)
        q = system.distribution(t2)
        assert divergence(system, t1, t2) == pytest.approx(
            kl_divergence(p, q), rel=1e-10, abs=1e-12)


def test_simplex_distribution_normalized():
    system = canonical_simplex_system(4)
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = system.distribution(rng.normal(size=3) * 5.0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p > 0.0)


def test_simplex_mixture_coordinates_are_expectations():
    features = np.array([[0.0, 1.0], [1.0, 0.5], [2.0, -1.0]])
    system = simplex_system(features)
    theta = np.array([0.3, -0.7])
    p = system.distribution(theta)
    want = features.T @ p
    assert np.allclose(to_mixture(system, theta), want, atol=1e-10)


def test_simplex_natural_round_trip():
    system = canonical_simplex_system(3)
    theta = np.array([0.4, -1.2])
    eta = to_mixture(system, theta)
    assert np.allclose(to_natural(system, eta), theta, atol=1e-10)
    with pytest.raises(DomainError):
        to_natural(system, np.array([0.7, 0.7]))   # sums past one


def test_simplex_rejects_degenerate_features():
    with pytest.raises(RankError):
        simplex_system(np.ones((3, 1)))            # constant feature
    with pytest.raises(RankError):
        simplex_system(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
    with pytest.raises(RankError):
        simplex_system(np.eye(3))                  # d = n not allowed
    assert isinstance(simplex_system(np.array([[0.], [1.], [3.]])),
                      SimplexSystem)


# ------------------------------------------------- conditional system


def test_conditional_divergence_weighted_kl():
    system = conditional_system(np.array([0.5, 0.5]), 2)
    w1 = np.array([[0.9, 0.1], [0.2, 0.8]])
    w2 = np.full((2, 2), 0.5)
    want = 0.5 * kl_divergence(w1[0], w2[0]) \
        + 0.5 * kl_divergence(w1[1], w2[1])
    assert want == pytest.approx(
        0.5 * 0.368064 + 0.5 * 0.192745, abs=1e-6)
    got = divergence(system, system.theta_of_channel(w1),
                     system.theta_of_channel(w2))
    assert got == pytest.approx(want, abs=1e-10)
    assert got == pytest.approx(0.280405, abs=1e-6)


def test_conditional_divergence_equals_joint_simplex_divergence():
    # the fixed-marginal geometry is the joint-simplex geometry
    # restricted to the matching-marginal slice
    p_x = np.array([0.3, 0.7])
    cond = conditional_system(p_x, 3)
    joint_sys = canonical_simplex_system(6)
    rng = np.random.default_rng(19)
    for _ in range(10):
        w1 = rng.dirichlet(np.ones(3), size=2)
        w2 = rng.dirichlet(np.ones(3), size=2)
        lhs = divergence(cond, cond.theta_of_channel(w1),
                         cond.theta_of_channel(w2))
        j1 = (p_x[:, None] * w1).ravel()
        j2 = (p_x[:, None] * w2).ravel()
        t1 = np.log(j1[1:] / j1[0])
        t2 = np.log(j2[1:] / j2[0])
        assert lhs == pytest.approx(divergence(joint_sys, t1, t2),
                                    rel=1e-9, abs=1e-9)


def test_conditional_channel_round_trip():
    system = conditional_system(P_X, 3)
    rng = np.random.default_rng(23)
    w = rng.dirichlet(np.ones(3), size=3)
    theta = system.theta_of_channel(w)
    assert np.allclose(system.channel(theta), w, atol=1e-12)
    joint = system.joint(theta)
    assert np.allclose(joint.sum(axis=1), P_X, atol=1e-12)
    assert joint.sum() == pytest.approx(1.0, abs=1e-12)


def test_conditional_theta_of_subnormal_reference_cell():
    system = conditional_system(P_X, 3)
    w = np.array([[1e-310, 0.4, 0.6],
                  [0.2, 0.5, 0.3],
                  [5e-324, 0.75, 0.25]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theta = system.theta_of_channel(w)
    assert np.all(np.isfinite(theta))
    assert np.allclose(system.channel(theta), w, rtol=0.0, atol=1e-12)


def test_conditional_same_channel_zero():
    system = conditional_system(P_X, 3)
    w = np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3], [0.25, 0.25, 0.5]])
    theta = system.theta_of_channel(w)
    assert divergence(system, theta, theta) == 0.0


def test_conditional_rejects_bad_inputs():
    with pytest.raises(SupportError):
        conditional_system(np.array([0.5, 0.5, 0.0]), 2)
    with pytest.raises(ArgumentError):
        conditional_system(np.array([0.5, 0.6]), 2)
    system = conditional_system(P_X, 3)
    with pytest.raises(SupportError):
        system.theta_of_channel(np.array([[1.0, 0.0, 0.0]] * 3))
    with pytest.raises(ArgumentError):
        system.theta_of_channel(np.full((2, 3), 1.0 / 3.0))


def test_data_processing_marginal_vs_joint():
    # coarse-graining a joint to the output marginal cannot increase
    # divergence
    p_x = np.array([0.5, 0.3, 0.2])
    rng = np.random.default_rng(29)
    for _ in range(50):
        w1 = rng.dirichlet(np.ones(4), size=3)
        w2 = rng.dirichlet(np.ones(4), size=3)
        joint_kl = sum(p_x[i] * kl_divergence(w1[i], w2[i])
                       for i in range(3))
        marginal_kl = kl_divergence(p_x @ w1, p_x @ w2)
        assert marginal_kl <= joint_kl + 1e-10


# ------------------------------------------------ linear constraints


def test_simplex_expectation_constraint_direction():
    system = canonical_simplex_system(3)
    values = np.array([1.0, 4.0, 9.0])
    direction, target = simplex_expectation_constraint(values, 3.0)
    theta = np.array([0.2, -0.4])
    p = system.distribution(theta)
    # direction @ eta - target == E_p[values] - 3.0 by construction
    got = float(direction @ to_mixture(system, theta)) - target
    assert got == pytest.approx(float(values @ p) - 3.0, abs=1e-12)


def test_conditional_expectation_constraint_direction():
    system = conditional_system(P_X, 3)
    direction, target = conditional_expectation_constraint(
        P_X, D_MATRIX, 1.5)
    rng = np.random.default_rng(31)
    w = rng.dirichlet(np.ones(3), size=3)
    theta = system.theta_of_channel(w)
    got = float(direction @ to_mixture(system, theta)) - target
    want = float(np.sum(P_X[:, None] * w * D_MATRIX)) - 1.5
    assert got == pytest.approx(want, abs=1e-12)
    with pytest.raises(ArgumentError):
        conditional_expectation_constraint(P_X, D_MATRIX[:2], 1.5)


# ------------------------------------------------------- feasibility


def test_distortion_feasibility_example_instance():
    report = distortion_feasibility(P_X, D_MATRIX, 1.5)
    assert np.allclose(report.per_output, [0.9, 1.1, 1.2], atol=1e-12)
    assert report.min_product == pytest.approx(0.9, abs=1e-12)
    assert report.max_product == pytest.approx(1.2, abs=1e-12)
    assert report.product_feasible            # 0.9 <= 1.5
    assert not report.equality_achievable_by_product   # 1.5 > 1.2
    # but a non-product channel reaches 1.5: the full range is [0, 5/3]
    assert report.achievable_min == pytest.approx(0.0, abs=1e-12)
    assert report.achievable_max == pytest.approx(
        0.5 * 2 + 0.3 * 2 + 0.2 * 3, abs=1e-12)
    assert report.equality_feasible


def test_distortion_feasibility_below_minimum():
    report = distortion_feasibility(P_X, D_MATRIX, -0.1)
    assert not report.equality_feasible
    assert not report.product_feasible


def test_distortion_feasibility_zero_matrix():
    report = distortion_feasibility(P_X, np.zeros((3, 3)), 0.0)
    assert report.product_feasible
    assert report.equality_feasible
