"""Several distortion ceilings on the certified tilt loop.

``solve_rd_multi`` tilts the output law by ``exp(sum_i tau_i d_i)`` with
every slope ``tau_i <= 0``.  Its answers are checked here against a
copy of Blahut's bound for several ceilings, against a linear program
that decides when some product channel meets every ceiling (rate zero)
or no channel at all does (infeasible), and against the facet engine
``run_em_closed_convex``, which projects onto every subset of the
ceilings.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from bregman_em import (BregmanEmError, ClosedConvexMixtureFamily, EmOptions,
                        InfeasibleError, LinearInequality, MixtureSubfamily,
                        RankError, mutual_information, run_em_closed_convex,
                        solve_rd, solve_rd_multi)
from bregman_em.classical import (ConditionalSystem,
                                  conditional_expectation_constraint)
from bregman_em.rate_distortion import _product_family

TOL = 1e-9

# the engine workload's twelve multi-n3 cases at seed 1
MULTI_N3 = json.loads((Path(__file__).resolve().parent / "data"
                       / "multi_n3_seed1.json").read_text())


def lower_bound(p, ds, levels, q, slopes):
    """Blahut's bound for the ceilings ``E d_i <= levels[i]`` at the
    output law ``q`` and the slopes, clipped to be non-positive."""
    slopes = np.minimum(np.asarray(slopes, dtype=float), 0.0)
    a = np.tensordot(slopes, np.asarray(ds), 1)
    top = a.max(axis=1)
    log_z = top + np.log((q * np.exp(a - top[:, None])).sum(axis=1))
    c = (p[:, None] * np.exp(a - log_z[:, None])).sum(axis=0)
    return float(slopes @ levels - p @ log_z - np.log(c).max())


def certified_gap(sol, p, ds, levels):
    slopes = np.zeros(len(ds))
    slopes[list(sol.active_constraints)] = sol.tau
    return sol.rate - lower_bound(p, ds, np.asarray(levels),
                                  sol.output_marginal, slopes)


def check(sol, p, ds, levels):
    """Every ceiling held, the rate the channel's mutual information
    and certified by the local bound."""
    joint = p[:, None] * sol.channel
    means = np.array([np.sum(joint * d) for d in ds])
    assert np.all(means <= np.asarray(levels) + TOL)
    assert np.allclose(sol.channel.sum(axis=1), 1.0)
    assert abs(sol.rate - mutual_information(joint)) <= 1e-12
    assert sol.converged
    assert certified_gap(sol, p, ds, levels) <= TOL
    assert np.all(sol.tau < 0.0)
    assert sol.constraint_residual == pytest.approx(
        max(0.0, float(np.max(means - levels))), abs=1e-15)


def feasible(p, ds, levels, product: bool) -> bool:
    """Whether some channel (some product channel when ``product``)
    meets every ceiling: a linear program in the channel's cells."""
    m, n1, n2 = np.shape(ds)
    if product:
        a_ub = np.einsum("x,ixy->iy", p, ds)
        a_eq = np.ones((1, n2))
    else:
        a_ub = np.einsum("x,ixy->ixy", p, ds).reshape(m, -1)
        a_eq = np.kron(np.eye(n1), np.ones(n2))
    result = linprog(np.zeros(a_ub.shape[1]), A_ub=a_ub, b_ub=levels,
                     A_eq=a_eq, b_eq=np.ones(a_eq.shape[0]), bounds=(0, None))
    return result.status == 0


def random_instance(rng):
    """Ceilings around the means of a random channel, scaled by 0.7 to
    1.1, so some bind, some are slack and some cannot be met together;
    one in five repeats its first ceiling, at the same or a looser
    level."""
    n1, n2, m = (int(v) for v in rng.integers((2, 2, 1), (9, 9, 5)))
    p = rng.dirichlet(np.ones(n1))
    ds = rng.uniform(0.0, 1.0, (m, n1, n2))
    w = rng.dirichlet(np.full(n2, 0.5), size=n1)
    levels = np.einsum("x,xy,ixy->i", p, w, ds) * rng.uniform(0.7, 1.1, m)
    if m > 1 and rng.random() < 0.2:
        ds[1] = ds[0]
        levels[1] = levels[0] * rng.choice([1.0, 1.05])
    return p, ds, levels


def test_battery_certifies_or_raises_a_named_error():
    rng = np.random.default_rng(20260503)
    outcomes = {"certified": 0, "zero": 0, "infeasible": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(200):
            p, ds, levels = random_instance(rng)
            reachable = feasible(p, ds, levels, product=False)
            try:
                sol = solve_rd_multi(p, list(ds), levels)
            except BregmanEmError as exc:
                # only ceilings that no channel meets together may fail
                assert isinstance(exc, InfeasibleError) and not reachable
                outcomes["infeasible"] += 1
                continue
            assert reachable
            check(sol, p, ds, levels)
            zero = feasible(p, ds, levels, product=True)
            assert (sol.rate <= 1e-12) == zero
            outcomes["zero" if zero else "certified"] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_rate_zero_that_no_single_output_shows():
    # engine seed 1's multi-n3-7: no output meets all three ceilings,
    # a mixture of the first two does
    case = next(c for c in MULTI_N3 if c["name"] == "multi-n3-7")
    p = np.array([0.1730684807778413, 0.8138993072429195,
                  0.01303221197923906])
    ds = [np.array([[0.9101048154921508, 0.10410753337879926,
                     0.94455578463182],
                    [0.3190286824323876, 0.35274292366519544,
                     0.48150037528388584],
                    [0.9793700156675508, 0.4818761678885841,
                     0.19778840107757295]]),
          np.array([[0.3407725281585843, 0.8700180400473256,
                     0.6188903348249808],
                    [0.254369065336966, 0.07989947444098933,
                     0.13988809026624374],
                    [0.07984484195352692, 0.8711780662601822,
                     0.42166280664953315]]),
          np.array([[0.4526221699211287, 0.6433167116919883,
                     0.5576251094031038],
                    [0.2775554978694149, 0.5437520519879648,
                     0.8784428910568266],
                    [0.8456613288591779, 0.6715201550618932,
                     0.9900171294442409]])]
    levels = np.array([0.4144443112619662, 0.23374748823700028,
                       0.5244039632792824])
    assert np.array_equal(p, case["p_x"])
    assert np.array_equal(levels, case["levels"])
    per_output = np.stack([p @ d for d in ds])
    assert not np.any(np.all(per_output <= levels[:, None], axis=0))
    sol = solve_rd_multi(p, ds, levels)
    assert sol.rate <= 1e-12
    assert sol.iterations <= 20
    check(sol, p, ds, levels)


def facet_engine(p, ds, levels, options):
    """The m-projection onto every subset of the ceilings: the final
    rate and the subset of the selected round."""
    system = ConditionalSystem(p, ds[0].shape[1])
    pairs = [conditional_expectation_constraint(p, d, level)
             for d, level in zip(ds, levels)]
    facets, subsets = [], [()]
    for mask in range(1, 2 ** len(ds)):
        active = tuple(i for i in range(len(ds)) if mask >> i & 1)
        try:
            base = MixtureSubfamily(np.stack([pairs[i][0] for i in active]),
                                    np.array([pairs[i][1] for i in active]))
        except RankError:
            continue
        facets.append(ClosedConvexMixtureFamily(base=base))
        subsets.append(active)
    family = ClosedConvexMixtureFamily(
        base=None, facets=tuple(facets),
        inequalities=tuple(LinearInequality(*pair) for pair in pairs))
    trace = run_em_closed_convex(system, _product_family(system), family,
                                 np.zeros(system.dim), options)
    w = system.channel(trace.final_theta)
    final = trace.record_for(trace.final_index)
    return mutual_information(p[:, None] * w), subsets[final.facet_index]


@pytest.mark.parametrize("case", [c for c in MULTI_N3
                                  if c["name"] != "multi-n3-7"],
                         ids=lambda c: c["name"])
def test_agrees_with_the_facet_engine(case):
    # multi-n3-7 is left out: its rate is 0, which the facet engine
    # approaches at rate 1/t.  A tolerance of 0 is left out too: on the
    # sparse optima the facet engine then runs until an output cell
    # underflows (SupportError).
    p = np.array(case["p_x"])
    ds = [np.array(d) for d in case["distortions"]]
    levels = np.array(case["levels"])
    sol = solve_rd_multi(p, ds, levels)
    check(sol, p, ds, levels)
    assert sol.iterations <= 20
    rate, active = facet_engine(p, ds, levels,
                                EmOptions(max_iterations=5000))
    assert sol.active_constraints == active
    assert sol.rate == pytest.approx(rate, abs=1e-8)


def test_duplicated_ceiling_is_one_ceiling():
    p = np.array([0.5, 0.3, 0.2])
    d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    single = solve_rd(p, d, 0.3, mode="inequality")
    twin = solve_rd_multi(p, [d, d], [0.3, 0.3])
    check(twin, p, [d, d], [0.3, 0.3])
    assert twin.rate == pytest.approx(single.rate, abs=1e-12)
    assert twin.iterations <= single.iterations
    # a looser copy leaves the active set
    loose = solve_rd_multi(p, [d, d], [0.3, 0.35])
    assert loose.active_constraints == (0,)
    assert loose.rate == pytest.approx(single.rate, abs=1e-12)


def test_jointly_unreachable_ceilings_are_infeasible():
    # each ceiling alone is reachable, but E d1 + E d2 = 1 > 0.4
    d1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(InfeasibleError, match="ceiling"):
        solve_rd_multi([0.5, 0.5], [d1, 1.0 - d1], [0.2, 0.2])


@pytest.mark.parametrize("m", [8, 25])
def test_many_ceilings(m):
    rng = np.random.default_rng(m)
    p = rng.dirichlet(np.ones(5))
    ds = rng.uniform(0.0, 1.0, (m, 5, 6))
    w = rng.dirichlet(np.ones(6), size=5)
    levels = np.einsum("x,xy,ixy->i", p, w, ds)
    sol = solve_rd_multi(p, list(ds), levels)
    check(sol, p, ds, levels)
    assert sol.rate > 1e-3
    assert len(sol.trace.records[-1].tau) == m


def test_records_hold_every_slope():
    case = MULTI_N3[2]
    p = np.array(case["p_x"])
    ds = [np.array(d) for d in case["distortions"]]
    sol = solve_rd_multi(p, ds, case["levels"])
    assert sol.trace.mode == "exact"
    for record in sol.trace.records:
        assert record.tau.shape == (3,)
        assert np.all(record.tau <= 0.0)
        assert record.constraint_residual >= 0.0
    last = sol.trace.records[-1]
    assert np.array_equal(last.tau[list(sol.active_constraints)], sol.tau)
    assert last.gap == sol.rate - last.lower_bound
