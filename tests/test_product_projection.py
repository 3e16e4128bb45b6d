"""Closed-form e-projection onto the product families of the
rate-distortion solvers, against the generic damped Newton, plus the
regression instances the closed form fixed."""

import math
import warnings

import numpy as np
import pytest

from bregman_em import (ConditionalSystem, ExponentialSubfamily,
                        SupportError, canonical_simplex_system, e_project,
                        mutual_information, solve_rd_bisection,
                        solve_rd_fulldim)
from bregman_em import rate_distortion
from bregman_em.rate_distortion import _joint_product_family, _product_family

SHAPES = [(2, 2), (3, 3), (4, 2), (3, 5)]


def conditional_case(n1, n2, rng):
    p_x = rng.dirichlet(np.ones(n1))
    system = ConditionalSystem(p_x, n2)
    return system, _product_family(system)


def joint_case(n1, n2, rng):
    p_x = rng.dirichlet(np.ones(n1))
    return canonical_simplex_system(n1 * n2), _joint_product_family(p_x, n2)


BUILDERS = [conditional_case, joint_case]


def newton_family(family):
    """The same slice without the closed form: the generic solve."""
    return ExponentialSubfamily(family.anchor, family.generators)


@pytest.mark.parametrize("build", BUILDERS)
def test_closed_form_matches_generic_newton(build):
    # Newton stops once its gradient, the marginal mismatch, is below
    # 1e-10, which leaves up to about 1e-10 / min(q) of error in theta:
    # the bound is 1e-9 wherever every output mass is at least 0.2
    rng = np.random.default_rng(20)
    for n1, n2 in SHAPES:
        for _ in range(5):
            system, family = build(n1, n2, rng)
            theta = rng.normal(scale=2.0, size=system.dim)
            closed = e_project(system, family, theta)
            newton = e_project(system, newton_family(family), theta)
            q = family._output_marginal(system, theta)
            tolerance = max(1e-9, 2e-10 / q.min())
            assert np.max(np.abs(closed - newton)) <= tolerance


@pytest.mark.parametrize("build", BUILDERS)
def test_closed_form_matches_mixture_coordinates(build):
    # the e-projection keeps the mixture coordinates along the
    # generators, here the output marginal, also far from uniform
    rng = np.random.default_rng(23)
    for n1, n2 in SHAPES:
        for _ in range(5):
            system, family = build(n1, n2, rng)
            theta = rng.normal(scale=4.0, size=system.dim)
            closed = e_project(system, family, theta)
            V = family.generators
            assert np.allclose(V.T @ system.gradient(closed),
                               V.T @ system.gradient(theta),
                               rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("build", BUILDERS)
def test_closed_form_is_idempotent(build):
    rng = np.random.default_rng(21)
    for n1, n2 in SHAPES:
        system, family = build(n1, n2, rng)
        theta = rng.normal(scale=2.0, size=system.dim)
        once = e_project(system, family, theta)
        twice = e_project(system, family, once)
        assert family.contains(once)
        assert np.allclose(twice, once, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("build", BUILDERS)
def test_underflowed_output_cell_raises_support_error(build):
    rng = np.random.default_rng(22)
    n1, n2 = 3, 4
    system, family = build(n1, n2, rng)
    theta = rng.normal(size=system.dim)
    if build is conditional_case:
        # output 2 is exp(-1000) times less likely than output 0 in
        # every row, so its marginal underflows to zero
        blocks = theta.reshape(n1, n2 - 1)
        blocks[:, 1] = -1000.0
    else:
        cells = np.concatenate([[0.0], theta]).reshape(n1, n2)
        cells[:, 2] = -1000.0
        theta = cells.ravel()[1:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            with pytest.raises(SupportError):
                e_project(system, family, theta)


# engine benchmark instance (bisection, n = 4): the generic e-step's
# Newton ran out of iterations on it, because one output's mass
# collapses to about 1e-50 and its natural coordinate runs off
D5_P = [0.4561754630091722, 0.18060999675935974, 0.07220547080991706,
        0.2910090694215509]
D5_D = [[0.5108133338064186, 0.26261994519505893, 0.7905849163691411,
         0.3433248818252203],
        [0.5011647302038515, 0.3563477704238929, 0.17408620686559312,
         0.17815330174325675],
        [0.6902679746718333, 0.44574628794890875, 0.9022270239025754,
         0.38556978688401033],
        [0.6932818001376332, 0.5050294493212072, 0.18175977274120425,
         0.586688329445412]]
D5_LEVEL = 0.2754784154070755


def test_d5_bisection_instance_solves():
    sol = solve_rd_bisection(D5_P, D5_D, D5_LEVEL, 0.05)
    p_x = np.array(D5_P)
    assert math.isfinite(sol.rate) and math.isfinite(sol.guarantee)
    assert sol.rate == pytest.approx(
        mutual_information(p_x[:, None] * sol.channel), abs=1e-12)
    assert np.allclose(sol.channel.sum(axis=1), 1.0, atol=1e-12)
    assert sol.constraint_residual <= 1e-9
    assert sol.rate <= sol.guarantee + 1e-12


# engine benchmark instance (fulldim, n = 6): with the Newton e-step
# the selected joint kept an output cell of mass 2.5e-323, whose
# product with the input marginal underflowed, so the solver returned
# rate = inf with converged = True
D2_P = [0.27708589829975727, 0.05194221196099114, 0.39222953303686303,
        0.007779442480212948, 0.020872246637125138, 0.25009066758505044]
D2_D = [[0.8317724668559667, 0.5195538671659738, 0.27029907648159907,
         0.9308985008867466, 0.28831558890378156, 0.2503438834467242],
        [0.48965419688865247, 0.6969621802221765, 0.08952060372249517,
         0.3181458542216192, 0.08053033948751882, 0.6077959851713147],
        [0.7311460099685423, 0.251332091486423, 0.21723987378909304,
         0.91935370625081, 0.7427377159752716, 0.1155313209864892],
        [0.20462554976343972, 0.1822333998897718, 0.974584822617454,
         0.45103643595065385, 0.2639076396038143, 0.4117709608989836],
        [0.6253015925635829, 0.8373270708321893, 0.47629657824939103,
         0.29402985258631414, 0.17016976212234367, 0.5913088910636314],
        [0.32540844354761017, 0.954699225404813, 0.409694103568377,
         0.698700280892933, 0.45782388395656093, 0.1631749139231029]]
D2_LEVEL = 0.19042773110300562


def test_d2_fulldim_instance_rate_is_finite():
    sol = solve_rd_fulldim(D2_P, D2_D, D2_LEVEL)
    assert sol.converged
    assert math.isfinite(sol.rate)
    assert np.all(sol.output_marginal > 0.0)


def test_fulldim_never_returns_a_non_finite_rate(monkeypatch):
    monkeypatch.setattr(rate_distortion, "mutual_information",
                        lambda joint: math.inf)
    with pytest.raises(SupportError):
        solve_rd_fulldim(D2_P, D2_D, D2_LEVEL)
