"""The alternation engine: toy geometries with known answers, oracle
contracts, selection, bounds, and trace serialization."""

import numpy as np
import pytest

from bregman_em import (ArgumentError, BregmanSystem,
                        ClosedConvexMixtureFamily, EmOptions,
                        ExponentialSubfamily, LinearInequality,
                        MixtureSubfamily, NonMembershipError,
                        OracleContractError, canonical_simplex_system,
                        convergence_bound, divergence, exponential_bound,
                        m_project, run_em, run_em_approx,
                        run_em_closed_convex, simplex_expectation_constraint,
                        to_mixture, write_trace_csv)


def euclidean_system(dim):
    return BregmanSystem(
        dim=dim,
        potential=lambda th: 0.5 * float(th @ th),
        gradient=lambda th: np.asarray(th, dtype=float),
        hessian=lambda th: np.eye(dim),
        inverse_gradient=lambda eta: np.asarray(eta, dtype=float),
        name="euclidean")


def simplex_setup():
    # 4-point simplex; exponential family = one tilt direction, mixture
    # family = one mean constraint; families do not intersect
    system = canonical_simplex_system(4)
    exp_family = ExponentialSubfamily(
        np.zeros(3), np.array([[1.0], [-0.5], [0.25]]))
    f = np.array([0.0, 1.0, 2.0, 4.0])
    direction, target = simplex_expectation_constraint(f, 2.4)
    mix_family = MixtureSubfamily(direction[None, :], [target])
    return system, exp_family, mix_family


# ------------------------------------------------------------ run_em


def test_em_orthogonal_affine_toy():
    # E is the first axis, M fixes the second coordinate at one; the
    # alternation settles immediately at distance 1/2
    system = euclidean_system(2)
    exp_family = ExponentialSubfamily(np.zeros(2), np.array([[1.0], [0.0]]))
    mix_family = MixtureSubfamily(np.array([[0.0, 1.0]]), [1.0])
    trace = run_em(system, exp_family, mix_family, np.zeros(2))
    assert trace.converged
    assert np.allclose(trace.final_theta, [0.0, 1.0], atol=1e-12)
    assert np.allclose(trace.objectives(), 0.5, atol=1e-12)
    assert trace.final_index == 2


def test_em_intersecting_families_reach_zero():
    system = euclidean_system(2)
    exp_family = ExponentialSubfamily(np.zeros(2), np.eye(2))
    mix_family = MixtureSubfamily(np.array([[0.0, 1.0]]), [0.5])
    theta_init = np.array([0.3, 0.5])      # already in both families
    trace = run_em(system, exp_family, mix_family, theta_init)
    assert trace.records[0].objective == 0.0
    assert trace.converged


def test_em_monotone_descent_and_membership():
    system, exp_family, mix_family = simplex_setup()
    options = EmOptions(max_iterations=60, objective_tolerance=0.0)
    trace = run_em(system, exp_family, mix_family, np.zeros(3), options)
    objectives = trace.objectives()
    assert np.all(np.diff(objectives) <= 1e-12)
    for record in trace.records:
        assert mix_family.contains(system, record.theta_m, tol=1e-8)
        assert exp_family.contains(record.theta_e, tol=1e-8)
    # budget exhausted without the tolerance firing
    assert not trace.converged
    assert trace.records[-1].t == 60


def test_em_fixed_point_characterizations():
    system, exp_family, mix_family = simplex_setup()
    trace = run_em(system, exp_family, mix_family, np.zeros(3),
                   EmOptions(max_iterations=500,
                             objective_tolerance=1e-14))
    assert trace.converged
    last = trace.records[-1]
    V = exp_family.generators
    # e-characterization: generator moments agree
    assert np.allclose(V.T @ to_mixture(system, last.theta_e),
                       V.T @ to_mixture(system, last.theta_m), atol=1e-7)
    # m-characterization: constraints met
    assert np.allclose(mix_family.directions
                       @ to_mixture(system, last.theta_m),
                       mix_family.targets, atol=1e-9)


def test_em_objective_bound_along_trajectory():
    system, exp_family, mix_family = simplex_setup()
    theta_init = np.zeros(3)
    trace = run_em(system, exp_family, mix_family, theta_init,
                   EmOptions(max_iterations=200,
                             objective_tolerance=1e-15))
    c_inf = trace.objectives()[-1]
    d_ref = divergence(system, trace.final_theta, theta_init)
    for record in trace.records:
        bound = convergence_bound(record.t, d_ref)
        assert record.objective - c_inf <= bound + 1e-9


def test_em_requires_member_start():
    system, exp_family, mix_family = simplex_setup()
    with pytest.raises(NonMembershipError):
        run_em(system, exp_family, mix_family, np.array([1.0, 1.0, 1.0]))


def test_em_option_validation():
    system, exp_family, mix_family = simplex_setup()
    with pytest.raises(ArgumentError):
        run_em(system, exp_family, mix_family, np.zeros(3),
               EmOptions(max_iterations=1))
    with pytest.raises(ArgumentError):
        run_em_approx(system, exp_family, mix_family, np.zeros(3),
                      exact_oracle(system, mix_family),
                      EmOptions(divergence_slack=-1.0))


def test_em_iteration_hook_and_low_memory():
    system, exp_family, mix_family = simplex_setup()
    seen = []
    options = EmOptions(max_iterations=12, objective_tolerance=0.0,
                        iteration_hook=seen.append)
    trace = run_em(system, exp_family, mix_family, np.zeros(3), options)
    assert [r.t for r in seen] == [r.t for r in trace.records]
    lean = run_em(system, exp_family, mix_family, np.zeros(3),
                  EmOptions(max_iterations=12, objective_tolerance=0.0,
                            low_memory=True))
    assert all(r.theta_m is None for r in lean.records)
    assert lean.final_index == lean.records[-1].t
    assert lean.final_theta is not None
    # scalar history identical either way
    assert np.allclose(lean.objectives(), trace.objectives(), atol=1e-14)


def test_trace_record_lookup():
    system, exp_family, mix_family = simplex_setup()
    trace = run_em(system, exp_family, mix_family, np.zeros(3),
                   EmOptions(max_iterations=8, objective_tolerance=0.0))
    assert trace.record_for(5).t == 5
    with pytest.raises(ArgumentError):
        trace.record_for(77)


# ------------------------------------------------------ run_em_approx


def exact_oracle(system, mix_family):
    def oracle(sys_, family, theta, t):
        proj = m_project(sys_, family, theta)
        return proj.theta, proj.theta, proj.tau
    return oracle


def test_approx_with_exact_oracle_matches_exact_run():
    system, exp_family, mix_family = simplex_setup()
    options = EmOptions(max_iterations=30, objective_tolerance=0.0)
    exact = run_em(system, exp_family, mix_family, np.zeros(3), options)
    approx = run_em_approx(system, exp_family, mix_family, np.zeros(3),
                           exact_oracle(system, mix_family),
                           options)
    assert np.allclose(exact.objectives(), approx.objectives(), atol=1e-12)
    assert np.allclose(exact.final_theta, approx.final_theta, atol=1e-10)


def test_approx_stalling_oracle_still_certifies():
    # an oracle that never moves: the selection value stays a valid
    # upper certificate for the divergence between the families
    system, exp_family, mix_family = simplex_setup()
    member = m_project(system, mix_family, np.zeros(3)).theta

    def oracle(sys_, family, theta, t):
        return member, member, np.zeros(1)

    trace = run_em_approx(system, exp_family, mix_family, np.zeros(3),
                          oracle, EmOptions(max_iterations=12,
                                            objective_tolerance=0.0))
    exact = run_em(system, exp_family, mix_family, np.zeros(3),
                   EmOptions(max_iterations=300,
                             objective_tolerance=1e-14))
    c_inf = exact.objectives()[-1]
    final = trace.record_for(trace.final_index)
    assert final.selection_value >= c_inf - 1e-9
    assert min(r.selection_value for r in trace.records) \
        == final.selection_value


def test_approx_oracle_contract_membership():
    system, exp_family, mix_family = simplex_setup()

    def bad_member(sys_, family, theta, t):
        return theta, theta, np.zeros(1)   # not in the mixture family

    with pytest.raises(OracleContractError):
        run_em_approx(system, exp_family, mix_family, np.zeros(3),
                      bad_member, EmOptions(max_iterations=5))


def test_approx_oracle_contract_repair_distance():
    system, exp_family, mix_family = simplex_setup()
    other_member = m_project(system, mix_family,
                             np.array([0.5, -0.5, 0.2])).theta

    def drifting(sys_, family, theta, t):
        proj = m_project(sys_, family, theta)
        # repaired iterate is a member but far from the raw output
        return proj.theta, other_member, proj.tau

    with pytest.raises(OracleContractError):
        run_em_approx(system, exp_family, mix_family, np.zeros(3),
                      drifting, EmOptions(max_iterations=5,
                                          divergence_slack=0.0))


# ----------------------------------------------- run_em_closed_convex


def test_closed_convex_single_facet_matches_plain():
    system, exp_family, mix_family = simplex_setup()
    family = ClosedConvexMixtureFamily(base=mix_family)
    options = EmOptions(max_iterations=25, objective_tolerance=0.0)
    plain = run_em(system, exp_family, mix_family, np.zeros(3), options)
    convex = run_em_closed_convex(system, exp_family, family, np.zeros(3),
                                  options)
    assert np.allclose(plain.objectives(), convex.objectives(), atol=1e-10)
    assert np.allclose(plain.final_theta, convex.final_theta, atol=1e-8)


def test_closed_convex_slack_constraint_reaches_zero():
    # the constraint set contains the exponential family member, so the
    # families intersect and the objective collapses
    system = canonical_simplex_system(3)
    exp_family = ExponentialSubfamily(np.zeros(2), np.array([[1.0],
                                                             [0.5]]))
    f = np.array([0.0, 1.0, 2.0])
    direction, _ = simplex_expectation_constraint(f, 0.0)
    family = ClosedConvexMixtureFamily(
        base=None,
        inequalities=(LinearInequality(direction, 5.0),),
        facets=(ClosedConvexMixtureFamily(
            base=MixtureSubfamily(direction[None, :], [5.0])),))
    trace = run_em_closed_convex(system, exp_family, family, np.zeros(2))
    assert trace.records[0].objective == 0.0
    assert trace.records[0].facet_index == 0
    assert trace.converged


# ------------------------------------------------------------- bounds


def test_convergence_bound_values():
    assert convergence_bound(101, np.log(3.0)) == pytest.approx(
        np.log(3.0) / 100.0, abs=1e-15)
    assert convergence_bound(2, 0.0) == 0.0
    assert convergence_bound(10 ** 9, 1.0) < 1.1e-9
    with pytest.raises(ArgumentError):
        convergence_bound(1, 1.0)
    with pytest.raises(ArgumentError):
        convergence_bound(5, -0.1)


def test_exponential_bound_values():
    assert exponential_bound(0.5, 2, 1.7) == 1.7
    assert exponential_bound(0.5, 12, 1.0) == 0.0009765625
    assert exponential_bound(0.9, 7, 0.0) == 0.0
    with pytest.raises(ArgumentError):
        exponential_bound(1.0, 5, 1.0)
    with pytest.raises(ArgumentError):
        exponential_bound(0.5, 1, 1.0)
    with pytest.raises(ArgumentError):
        exponential_bound(0.5, 5, -1.0)


# ---------------------------------------------------------- trace CSV


def test_trace_csv_golden(tmp_path):
    system = euclidean_system(2)
    exp_family = ExponentialSubfamily(np.zeros(2), np.array([[1.0], [0.0]]))
    mix_family = MixtureSubfamily(np.array([[0.0, 1.0]]), [1.0])
    trace = run_em(system, exp_family, mix_family, np.zeros(2),
                   EmOptions(reference_divergence=0.5))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    content = path.read_bytes()
    assert b"\r" not in content
    lines = content.decode("ascii").splitlines()
    assert lines[0] == ("t,objective,pre_e_objective,bound,tau_0,"
                        "constraint_residual_max")
    assert lines[1] == "2,0.5,0.5,0.5,1,0"
    assert lines[2].startswith("3,0.5,0.5,0.25,")


def test_trace_csv_blank_bound_without_reference(tmp_path):
    system, exp_family, mix_family = simplex_setup()
    trace = run_em(system, exp_family, mix_family, np.zeros(3),
                   EmOptions(max_iterations=5, objective_tolerance=0.0))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    row = path.read_text().splitlines()[1].split(",")
    assert row[3] == ""


def test_trace_csv_byte_determinism(tmp_path):
    system, exp_family, mix_family = simplex_setup()
    blobs = []
    for name in ("a.csv", "b.csv"):
        trace = run_em(system, exp_family, mix_family, np.zeros(3),
                       EmOptions(max_iterations=40,
                                 objective_tolerance=0.0,
                                 reference_divergence=np.log(4.0)))
        path = tmp_path / name
        write_trace_csv(trace, path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
