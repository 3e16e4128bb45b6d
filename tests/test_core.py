"""Bregman systems: divergence identities checked against closed
forms and an independent quadrature oracle."""

import math

import numpy as np
import pytest

from bregman_em import (ArgumentError, BregmanSystem, Chart, DomainError,
                        Point, SingularMatrixError, damped_newton,
                        divergence, dual_system, hessian, legendre_value,
                        potential_value, reparametrize, to_mixture,
                        to_natural)


def quadratic_system(A):
    A = np.asarray(A, dtype=float)
    return BregmanSystem(
        dim=A.shape[0],
        potential=lambda th: 0.5 * float(th @ A @ th),
        gradient=lambda th: A @ th,
        hessian=lambda th: A,
        inverse_gradient=lambda eta: np.linalg.solve(A, eta),
        name="quadratic")


def logistic_system(closed_form=True):
    # log-partition of a two-point family; the gradient is the success
    # probability and its inverse is the logit
    kwargs = {}
    if closed_form:
        def _inverse(eta):
            p = float(eta[0])
            if not 0.0 < p < 1.0:
                raise DomainError("mixture coordinate outside (0, 1)")
            return np.array([np.log(p / (1.0 - p))])
        kwargs["inverse_gradient"] = _inverse
    return BregmanSystem(
        dim=1,
        potential=lambda th: float(np.logaddexp(0.0, th[0])),
        gradient=lambda th: np.array([1.0 / (1.0 + np.exp(-th[0]))]),
        hessian=lambda th: np.array(
            [[np.exp(-np.abs(th[0]))
              / (1.0 + np.exp(-np.abs(th[0]))) ** 2]]),
        name="logistic", **kwargs)


SPD = np.array([[2.0, 0.3], [0.3, 1.0]])


# ------------------------------------------------------- divergence


def test_divergence_quadratic_closed_form():
    system = quadratic_system(SPD)
    rng = np.random.default_rng(3)
    for _ in range(30):
        t1 = rng.normal(size=2)
        t2 = rng.normal(size=2)
        want = 0.5 * float((t1 - t2) @ SPD @ (t1 - t2))
        got = divergence(system, t1, t2)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_divergence_gradient_at_first_slot():
    # definition check against the raw formula, asymmetric on purpose
    system = quadratic_system(np.array([[3.0]]))

    def cubic_free(t1, t2):
        g1 = system.gradient(np.array([t1]))
        return float(g1 @ (np.array([t1 - t2]))) \
            - system.potential(np.array([t1])) \
            + system.potential(np.array([t2]))

    assert divergence(system, [0.4], [-1.0]) == pytest.approx(
        cubic_free(0.4, -1.0), rel=1e-14)


def test_divergence_matches_bernoulli_kl():
    # two-point family: the potential divergence must equal the KL
    # divergence of the success probabilities
    system = logistic_system()
    theta_six = to_natural(system, np.array([0.6]))
    theta_half = to_natural(system, np.array([0.5]))
    assert theta_six[0] == pytest.approx(np.log(1.5), abs=1e-12)
    assert theta_half[0] == pytest.approx(0.0, abs=1e-12)
    want = 0.6 * np.log(0.6 / 0.5) + 0.4 * np.log(0.4 / 0.5)
    assert want == pytest.approx(0.020135513550688857, abs=1e-15)
    assert divergence(system, theta_six, theta_half) == pytest.approx(
        want, abs=1e-12)


def test_divergence_clamps_to_zero():
    system = quadratic_system(SPD)
    theta = np.array([0.3, -0.8])
    assert divergence(system, theta, theta) == 0.0
    assert divergence(system, theta, theta + 1e-9) == 0.0


def test_divergence_nonnegative_random():
    system = logistic_system()
    rng = np.random.default_rng(17)
    for _ in range(100):
        t1 = rng.normal(size=1) * 3.0
        t2 = rng.normal(size=1) * 3.0
        assert divergence(system, t1, t2) >= 0.0


def test_divergence_rejects_bad_points():
    system = quadratic_system(SPD)
    with pytest.raises(ArgumentError):
        divergence(system, [1.0], [0.0, 0.0])
    with pytest.raises(DomainError):
        divergence(system, [np.nan, 0.0], [0.0, 0.0])


# ---------------------------------------------- quadrature cross-check


def test_quadrature_potential_matches_closed_form():
    # log of the moment generating function of the uniform law on
    # [-1, 1]; Gauss-Legendre nodes give an independent potential whose
    # closed form is log(sinh(t)/t)
    nodes, weights = np.polynomial.legendre.leggauss(40)

    def potential(th):
        return float(np.log(0.5 * np.sum(weights * np.exp(th[0] * nodes))))

    def grad(th):
        w = weights * np.exp(th[0] * nodes)
        return np.array([np.sum(w * nodes) / np.sum(w)])

    def hess(th):
        w = weights * np.exp(th[0] * nodes)
        mean = np.sum(w * nodes) / np.sum(w)
        second = np.sum(w * nodes ** 2) / np.sum(w)
        return np.array([[second - mean ** 2]])

    system = BregmanSystem(1, potential, grad, hess, name="uniform-mgf")
    for t in (0.25, 1.0, 2.5):
        want = np.log(np.sinh(t) / t)
        assert potential_value(system, [t]) == pytest.approx(want, abs=1e-5)
    # divergence against the closed-form potential evaluated directly
    closed = BregmanSystem(
        1,
        potential=lambda th: float(np.log(np.sinh(th[0]) / th[0]))
        if th[0] != 0.0 else 0.0,
        gradient=grad, hessian=hess, name="uniform-closed")
    assert divergence(system, [1.5], [0.5]) == pytest.approx(
        divergence(closed, [1.5], [0.5]), abs=1e-5)
    # gradient inversion through the Newton path round-trips
    eta = to_mixture(system, [1.0])
    theta = to_natural(system, eta)
    assert theta[0] == pytest.approx(1.0, abs=1e-8)


def test_finite_difference_consistency():
    system = logistic_system()
    h = 1e-6
    for t in (-2.0, 0.3, 1.7):
        th = np.array([t])
        fd_grad = (potential_value(system, [t + h])
                   - potential_value(system, [t - h])) / (2 * h)
        assert to_mixture(system, th)[0] == pytest.approx(fd_grad, abs=1e-8)
        h2 = 1e-4
        fd_hess = (potential_value(system, [t + h2]) - 2 *
                   potential_value(system, [t]) +
                   potential_value(system, [t - h2])) / h2 ** 2
        assert hessian(system, th)[0, 0] == pytest.approx(fd_hess, abs=1e-6)


# ----------------------------------------------- coordinate conversion


def test_to_natural_round_trip():
    system = quadratic_system(SPD)
    rng = np.random.default_rng(29)
    for _ in range(20):
        theta = rng.normal(size=2)
        eta = to_mixture(system, theta)
        assert np.allclose(to_natural(system, eta), theta, atol=1e-10)


def test_to_natural_newton_path():
    system = logistic_system(closed_form=False)
    theta = to_natural(system, np.array([0.6]))
    assert theta[0] == pytest.approx(np.log(1.5), abs=1e-9)


def test_to_natural_rejects_unreachable_mixture():
    # mean parameters of this family fill (0, 1) only; 1.2 drives the
    # Newton iterates off to infinity
    system = logistic_system(closed_form=False)
    with pytest.raises(DomainError):
        to_natural(system, np.array([1.2]))
    with pytest.raises(DomainError):
        to_natural(logistic_system(), np.array([1.2]))


def test_point_chart_round_trip():
    system = quadratic_system(SPD)
    theta = np.array([0.7, -0.2])
    p = Point(theta, Chart.NATURAL, system)
    eta = p.mixture()
    assert eta.chart is Chart.MIXTURE
    back = eta.natural()
    assert np.allclose(back.coords, theta, atol=1e-10)
    assert p.natural() is p


# ------------------------------------------------- Legendre transform


def test_legendre_value_closed_forms():
    system = quadratic_system(SPD)
    eta = np.array([0.4, -1.1])
    want = 0.5 * float(eta @ np.linalg.solve(SPD, eta))
    assert legendre_value(system, eta) == pytest.approx(want, rel=1e-10)
    bern = logistic_system()
    want = 0.6 * np.log(0.6) + 0.4 * np.log(0.4)
    assert legendre_value(bern, np.array([0.6])) == pytest.approx(
        want, abs=1e-10)


def test_fenchel_young_inequality():
    system = logistic_system()
    rng = np.random.default_rng(31)
    for _ in range(40):
        theta = rng.normal(size=1) * 2.0
        eta = rng.uniform(0.05, 0.95, size=1)
        lhs = potential_value(system, theta) + legendre_value(system, eta)
        assert lhs >= float(theta @ eta) - 1e-10
    theta = np.array([0.8])
    eta = to_mixture(system, theta)
    gap = potential_value(system, theta) + legendre_value(system, eta) \
        - float(theta @ eta)
    assert abs(gap) < 1e-10


def test_dual_system_swaps_divergence():
    system = quadratic_system(SPD)
    dual = dual_system(system)
    rng = np.random.default_rng(37)
    for _ in range(10):
        t1, t2 = rng.normal(size=2), rng.normal(size=2)
        e1, e2 = to_mixture(system, t1), to_mixture(system, t2)
        assert divergence(dual, e1, e2) == pytest.approx(
            divergence(system, t2, t1), rel=1e-8, abs=1e-10)


# ----------------------------------------------------- reparametrize


def test_reparametrize_preserves_divergence():
    system = quadratic_system(SPD)
    U = np.array([[1.0, 2.0], [0.0, 1.5]])
    new = reparametrize(system, U)
    U_inv = np.linalg.inv(U)
    rng = np.random.default_rng(43)
    for _ in range(10):
        t1, t2 = rng.normal(size=2), rng.normal(size=2)
        assert divergence(new, U_inv @ t1, U_inv @ t2) == pytest.approx(
            divergence(system, t1, t2), rel=1e-10, abs=1e-12)


def test_reparametrize_inverse_gradient_round_trip():
    system = quadratic_system(SPD)
    new = reparametrize(system, np.array([[2.0, 0.0], [1.0, 1.0]]))
    phi = np.array([0.3, -0.6])
    eta = to_mixture(new, phi)
    assert np.allclose(to_natural(new, eta), phi, atol=1e-10)


def test_reparametrize_rejects_singular():
    system = quadratic_system(SPD)
    with pytest.raises(SingularMatrixError):
        reparametrize(system, np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ArgumentError):
        reparametrize(system, np.eye(3))


# ------------------------------------------------------ damped_newton


def test_damped_newton_solves_quadratic():
    A = np.diag([1.0, 10.0])
    b = np.array([1.0, -2.0])
    x = damped_newton(
        value=lambda x: 0.5 * float(x @ A @ x) - float(b @ x),
        grad=lambda x: A @ x - b,
        hess=lambda x: A,
        x0=np.zeros(2))
    assert np.allclose(x, np.linalg.solve(A, b), atol=1e-9)


def test_damped_newton_respects_domain():
    # minimize x - log(x): optimum at 1, domain is the positive axis
    x = damped_newton(
        value=lambda x: float(x[0] - np.log(x[0])),
        grad=lambda x: np.array([1.0 - 1.0 / x[0]]),
        hess=lambda x: np.array([[1.0 / x[0] ** 2]]),
        x0=np.array([3.0]),
        domain=lambda x: x[0] > 0.0)
    assert x[0] == pytest.approx(1.0, abs=1e-9)
    # -log(x) has no minimum on the positive axis; Newton steps double
    # the iterate, so divergence is detected by the blow-up guard
    with pytest.raises(DomainError):
        damped_newton(
            value=lambda x: float(-np.log(x[0])),
            grad=lambda x: np.array([-1.0 / x[0]]),
            hess=lambda x: np.array([[1.0 / x[0] ** 2]]),
            x0=np.array([1.0]),
            domain=lambda x: x[0] > 0.0)


def test_damped_newton_stops_on_the_gradient_rounding_floor():
    # minimize 1e8 (cosh x - 1) - c x: next to the minimizer the
    # computed gradient moves in steps of 1e8 cosh(x) ulp(x), about
    # 3e-8, and never reaches 1e-10 there; the Newton decrement drops
    # below the value's rounding instead
    scale, c = 1e8, 1.234567e8
    x = damped_newton(
        value=lambda x: scale * (math.cosh(x[0]) - 1.0) - c * x[0],
        grad=lambda x: np.array([scale * math.sinh(x[0]) - c]),
        hess=lambda x: np.array([[scale * math.cosh(x[0])]]),
        x0=np.array([0.0]))
    assert x[0] == pytest.approx(math.asinh(c / scale), abs=1e-15)
    assert abs(scale * math.sinh(x[0]) - c) > 1e-10


def test_system_validation():
    with pytest.raises(ArgumentError):
        BregmanSystem(0, None, None, None)
    system = quadratic_system(SPD)
    assert not system.contains([1.0])
    assert not system.contains([np.inf, 0.0])
    assert system.contains([1.0, 2.0])
