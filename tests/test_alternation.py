"""The shared alternation bookkeeping: the round recorder behind the tilt
loop of solve_rd and solve_rd_side_info and behind solve_qrd, the one
classical zero-rate path, the one options check, and systems that are
freed without the cycle collector."""

import gc
import math
import weakref

import numpy as np
import pytest

from bregman_em import (ArgumentError, BregmanSystem, ConditionalSystem,
                        EmOptions, QuantumSystem, SimplexSystem,
                        canonical_simplex_system, kl_divergence, solve_qrd,
                        solve_rd, solve_rd_side_info)
from bregman_em.em import _format_cell

P_X = np.array([0.5, 0.3, 0.2])
D_MATRIX = np.array([[0.0, 1.0, 2.0],
                     [1.0, 2.0, 0.0],
                     [3.0, 0.0, 1.0]])
# two side symbols with different source laws [0.6, 0.2, 0.2] and
# [0.4, 0.4, 0.2]; product distortions per side [0.8, 1.0, 1.4] and
# [1.0, 1.2, 1.0], so the product range is [0.9, 1.3]
P_XS = np.array([[0.3, 0.2], [0.1, 0.2], [0.1, 0.1]])

BELL = np.zeros(4)
BELL[0] = BELL[3] = 1.0 / math.sqrt(2.0)
ENTANGLED_DELTA = np.eye(4) - np.outer(BELL, BELL)


def run_rd(options):
    return solve_rd(P_X, D_MATRIX, 1.5, options=options)


def run_side_info(options):
    return solve_rd_side_info(P_XS, D_MATRIX, 0.5, options=options)


def run_qrd(options):
    return solve_qrd(np.eye(2) / 2.0, ENTANGLED_DELTA, 0.5, options=options)


SOLVERS = {"solve_rd": run_rd, "solve_rd_side_info": run_side_info,
           "solve_qrd": run_qrd}


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_iteration_hook_sees_every_record_in_order(name):
    seen = []
    solution = SOLVERS[name](EmOptions(max_iterations=1000,
                                       iteration_hook=seen.append))
    records = solution.trace.records
    assert len(records) >= 2
    assert len(seen) == len(records)
    assert all(a is b for a, b in zip(seen, records))
    assert [r.t for r in seen] == list(range(2, 2 + len(seen)))


@pytest.mark.parametrize("low_memory", [False, True])
@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_trace_fields_are_pinned(name, low_memory):
    solution = SOLVERS[name](EmOptions(max_iterations=1000,
                                       low_memory=low_memory))
    trace = solution.trace
    last = trace.records[-1]
    assert trace.final_index == last.t == solution.iterations
    assert trace.mode == "exact"
    assert trace.converged and solution.converged
    # the estimate is the last round, so nothing is selected, and the
    # records hold scalars only; solve_rd alone sets final_theta, from
    # its final channel
    assert trace.selection_enabled is False
    assert all(r.theta_m is None and r.theta_e is None
               for r in trace.records)
    assert (trace.final_theta is None) is (name != "solve_rd")


def test_solve_rd_marginal_is_the_product_with_an_unnormalised_source():
    p = P_X * (1.0 - 5e-9)
    for level in (0.5, 1.5):
        sol = solve_rd(p, D_MATRIX, level)
        assert sol.iterations >= 2
        assert np.array_equal(sol.output_marginal, p @ sol.channel)
        assert sol.rate == kl_divergence(
            (p[:, None] * sol.channel).ravel(),
            np.outer(p, sol.output_marginal).ravel())


def test_side_info_equality_zero_rate_mixes_two_outputs_per_side():
    level = 1.1
    sol = solve_rd_side_info(P_XS, D_MATRIX, level)
    assert sol.rate == 0.0 and sol.iterations == 0
    assert abs(sol.distortion - level) <= 1e-12
    assert sol.constraint_residual <= 1e-12
    # the product range [0.9, 1.3] puts level 1.1 at weight 1/2 on the
    # dearest output of each side
    assert np.allclose(sol.output_marginal, [[0.5, 0.0, 0.5],
                                             [0.5, 0.5, 0.0]], atol=1e-15)
    for side in range(2):
        assert np.count_nonzero(sol.output_marginal[side]) == 2
        for row in sol.channel[side]:
            assert np.array_equal(row, sol.output_marginal[side])


def test_solve_qrd_rejects_a_negative_objective_tolerance():
    with pytest.raises(ArgumentError):
        run_qrd(EmOptions(objective_tolerance=-1e-12))
    with pytest.raises(ArgumentError):
        run_qrd(EmOptions(max_iterations=1))


def test_format_cell_leaves_absent_values_empty():
    assert _format_cell(None) == ""
    assert _format_cell(math.nan) == ""
    assert _format_cell(0.1) == "0.10000000000000001"


@pytest.mark.parametrize("make", [
    lambda: ConditionalSystem(P_X, 3),
    lambda: canonical_simplex_system(4),
    lambda: SimplexSystem(np.array([[0.0], [1.0], [2.0]])),
    lambda: QuantumSystem(2),
])
def test_systems_are_freed_without_the_cycle_collector(make):
    enabled = gc.isenabled()
    gc.disable()
    try:
        system = make()
        system.hessian(np.zeros(system.dim))
        ref = weakref.ref(system)
        del system
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_simplex_inverse_gradient_only_for_canonical_features():
    assert canonical_simplex_system(3).inverse_gradient is not None
    assert SimplexSystem(np.array([[0.0], [1.0], [2.0]])) \
        .inverse_gradient is None


def test_a_system_needs_its_derivatives():
    with pytest.raises(ArgumentError):
        BregmanSystem(dim=2, potential=lambda theta: 0.0)
