"""Quantum state geometry and the quantum rate-distortion solver:
basis algebra, entropy oracles, classical embeddings, and the
maximally-entangled instance with its closed-form optimum."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bregman_em import (ArgumentError, DensityMatrix, EmOptions,
                        InfeasibleError, NotPositiveDefiniteError,
                        QuantumSystem, RankError, divergence,
                        gell_mann_basis, hermitian_function, kl_divergence,
                        matrix_exp, matrix_log, partial_trace,
                        quantum_system, relative_entropy, solve_qrd,
                        solve_rd, theta_of_state)
from bregman_em.quantum import _exp_divided_difference, _gibbs_hessian

P_X = np.array([0.5, 0.3, 0.2])
D_MATRIX = np.array([[0.0, 1.0, 2.0],
                     [1.0, 2.0, 0.0],
                     [3.0, 0.0, 1.0]])

BELL = np.zeros(4)
BELL[0] = BELL[3] = 1.0 / math.sqrt(2.0)
BELL_PROJECTOR = np.outer(BELL, BELL)


def complex_matrix(parts):
    return np.array(parts[0]) + 1j * np.array(parts[1])


# three of the benchmark's qrd instances at seed 1, each matrix stored
# as its real and imaginary parts
QRD_SEED1 = {
    case["name"]: (complex_matrix(case["rho_r"]),
                   complex_matrix(case["delta"]), case["level"])
    for case in json.loads((Path(__file__).resolve().parent / "data"
                            / "qrd_seed1.json").read_text())}


def random_state(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim,
                                                                    dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def taylor_exp(a):
    # scaling and squaring with a raw Taylor series: slow, independent
    a = np.asarray(a, dtype=complex)
    squarings = max(0, int(math.ceil(math.log2(
        max(1.0, np.linalg.norm(a, 2))))) + 1)
    b = a / 2.0 ** squarings
    term = np.eye(a.shape[0], dtype=complex)
    total = term.copy()
    for k in range(1, 30):
        term = term @ b / k
        total += term
    for _ in range(squarings):
        total = total @ total
    return total


# ------------------------------------------------------------- basis


def test_gell_mann_qubit_basis_is_pauli():
    x, y, z = gell_mann_basis(2)
    assert np.allclose(x, [[0, 1], [1, 0]])
    assert np.allclose(y, [[0, -1j], [1j, 0]])
    assert np.allclose(z, [[1, 0], [0, -1]])


def test_gell_mann_orthogonality_and_trace():
    for dim in (2, 3, 4):
        basis = gell_mann_basis(dim)
        assert basis.shape == (dim * dim - 1, dim, dim)
        for a in basis:
            assert abs(np.trace(a)) < 1e-12
            assert np.allclose(a, a.conj().T)
        gram = np.einsum("aij,bji->ab", basis, basis).real
        assert np.allclose(gram, 2.0 * np.eye(len(basis)), atol=1e-12)
    with pytest.raises(ArgumentError):
        gell_mann_basis(1)


def test_gell_mann_completeness():
    rng = np.random.default_rng(3)
    basis = gell_mann_basis(3)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = g + g.conj().T
    rebuilt = np.trace(a) / 3.0 * np.eye(3)
    for x in basis:
        rebuilt = rebuilt + np.trace(a @ x) / 2.0 * x
    assert np.allclose(rebuilt, a, atol=1e-12)


# ------------------------------------------------- matrix functions


def test_matrix_exp_against_taylor_series():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 5):
        g = rng.standard_normal((dim, dim)) \
            + 1j * rng.standard_normal((dim, dim))
        a = 0.5 * (g + g.conj().T)
        assert np.allclose(matrix_exp(a), taylor_exp(a), atol=1e-12)


def test_matrix_log_inverts_exp():
    rng = np.random.default_rng(11)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = 0.5 * (g + g.conj().T)
    assert np.allclose(matrix_log(matrix_exp(a)), a, atol=1e-10)


def test_hermitian_function_validation():
    with pytest.raises(NotPositiveDefiniteError):
        matrix_log(np.diag([1.0, -0.5]))
    with pytest.raises(ArgumentError):
        matrix_exp(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ArgumentError):
        matrix_exp(np.zeros((2, 3)))
    assert np.allclose(hermitian_function(np.diag([4.0, 9.0]), np.sqrt),
                       np.diag([2.0, 3.0]))


# ------------------------------------------------------ partial trace


def test_partial_trace_of_products():
    rng = np.random.default_rng(13)
    a = random_state(rng, 2)
    b = random_state(rng, 3)
    joint = np.kron(a, b)
    assert np.allclose(partial_trace(joint, (2, 3), 0), b, atol=1e-12)
    assert np.allclose(partial_trace(joint, (2, 3), 1), a, atol=1e-12)


def test_partial_trace_of_entangled_state():
    assert np.allclose(partial_trace(BELL_PROJECTOR, (2, 2), 0),
                       np.eye(2) / 2.0, atol=1e-12)
    assert np.allclose(partial_trace(BELL_PROJECTOR, (2, 2), 1),
                       np.eye(2) / 2.0, atol=1e-12)
    with pytest.raises(ArgumentError):
        partial_trace(BELL_PROJECTOR, (2, 3), 0)
    with pytest.raises(ArgumentError):
        partial_trace(BELL_PROJECTOR, (2, 2), 2)


# ---------------------------------------------------- density matrix


def test_density_matrix_validation():
    d = DensityMatrix(np.eye(2) / 2.0)
    assert d.dim == 2
    assert np.allclose(d.eigenvalues(), [0.5, 0.5])
    with pytest.raises(ArgumentError):
        DensityMatrix(np.eye(2))
    with pytest.raises(NotPositiveDefiniteError):
        DensityMatrix(np.diag([1.5, -0.5]))
    with pytest.raises(ArgumentError):
        DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))


def test_density_matrix_from_interleaved():
    d = DensityMatrix.from_interleaved(
        [0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0], 2)
    assert np.allclose(d.matrix, np.eye(2) / 2.0)
    off = DensityMatrix.from_interleaved(
        [0.5, 0.0, 0.0, -0.25, 0.0, 0.25, 0.5, 0.0], 2)
    assert off.matrix[0, 1] == pytest.approx(-0.25j)
    with pytest.raises(ArgumentError):
        DensityMatrix.from_interleaved([0.5, 0.0], 2)


# -------------------------------------------------- relative entropy


def test_relative_entropy_matches_classical_kl():
    rng = np.random.default_rng(17)
    for _ in range(20):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        assert relative_entropy(np.diag(p), np.diag(q)) == pytest.approx(
            kl_divergence(p, q), rel=1e-10, abs=1e-12)


def test_relative_entropy_qubit_pin():
    value = relative_entropy(np.diag([0.75, 0.25]), np.eye(2) / 2.0)
    expected = math.log(2.0) + 0.75 * math.log(0.75) \
        + 0.25 * math.log(0.25)
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(0.1308120359, abs=1e-9)


def test_relative_entropy_against_log_formula():
    rng = np.random.default_rng(19)
    for _ in range(10):
        rho = random_state(rng, 3)
        sigma = random_state(rng, 3)
        direct = float(np.trace(
            rho @ (matrix_log(rho) - matrix_log(sigma))).real)
        assert relative_entropy(rho, sigma) == pytest.approx(direct,
                                                             abs=1e-9)


def test_relative_entropy_support_and_clamp():
    rho = random_state(np.random.default_rng(23), 3)
    assert relative_entropy(rho, rho) == 0.0
    assert relative_entropy(np.diag([0.5, 0.5]),
                            np.diag([1.0, 0.0])) == math.inf
    # pure state inside a mixed reference stays finite
    assert relative_entropy(np.diag([1.0, 0.0]), np.eye(2) / 2.0) \
        == pytest.approx(math.log(2.0), abs=1e-12)
    with pytest.raises(ArgumentError):
        relative_entropy(np.eye(2), np.eye(2) / 2.0)
    with pytest.raises(ArgumentError):
        relative_entropy(np.eye(2) / 2.0, np.eye(3) / 3.0)


# ------------------------------------------------------ state system


def test_quantum_system_potential_pin():
    system = quantum_system(2)
    # natural coordinate 1 on the diagonal basis direction
    assert system.potential(np.array([0.0, 0.0, 1.0])) == pytest.approx(
        math.log(math.e + 1.0 / math.e), abs=1e-12)
    assert system.potential(np.zeros(3)) == pytest.approx(math.log(2.0))
    assert np.allclose(system.state(np.zeros(3)), np.eye(2) / 2.0)


def test_quantum_system_gradient_and_hessian_finite_difference():
    system = quantum_system(2)
    rng = np.random.default_rng(29)
    theta = 0.7 * rng.standard_normal(3)
    grad = system.gradient(theta)
    hess = system.hessian(theta)
    h = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = (system.potential(theta + e) - system.potential(theta - e)) \
            / (2.0 * h)
        assert grad[i] == pytest.approx(fd, abs=1e-8)
    h2 = 1e-4
    for i in range(3):
        e = np.zeros(3)
        e[i] = h2
        fd = (system.gradient(theta + e) - system.gradient(theta - e)) \
            / (2.0 * h2)
        assert np.allclose(hess[:, i], fd, atol=1e-6)
    assert np.allclose(hess, hess.T, atol=1e-12)


def test_hessian_of_far_apart_eigenvalues_is_finite():
    # sinh(750) overflows while exp(-750) underflows; that pair takes
    # (e^a - e^b)/(a - b) directly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi = _exp_divided_difference([0.0, -1500.0])
        hess = _gibbs_hessian(np.diag([0.0, -1500.0]), gell_mann_basis(2))
    assert np.all(np.isfinite(phi))
    assert phi[0, 1] == phi[1, 0] == pytest.approx(1.0 / 1500.0, rel=1e-15)
    assert np.allclose(hess, np.diag([2.0, 2.0, 0.0]) / 1500.0,
                       rtol=0.0, atol=1e-15)


def test_quantum_divergence_is_relative_entropy():
    system = quantum_system(3)
    rng = np.random.default_rng(31)
    for _ in range(5):
        t1 = 0.5 * rng.standard_normal(system.dim)
        t2 = 0.5 * rng.standard_normal(system.dim)
        assert divergence(system, t1, t2) == pytest.approx(
            relative_entropy(system.state(t1), system.state(t2)),
            rel=1e-9, abs=1e-11)


def test_theta_of_state_round_trip():
    system = quantum_system(3)
    rng = np.random.default_rng(37)
    rho = random_state(rng, 3)
    theta = theta_of_state(system, rho)
    assert np.allclose(system.state(theta), rho, atol=1e-10)
    t0 = 0.4 * rng.standard_normal(system.dim)
    assert np.allclose(theta_of_state(system, system.state(t0)), t0,
                       atol=1e-9)
    with pytest.raises(ArgumentError):
        quantum_system(1)


# ------------------------------------------------------- qrd solver


def diagonal_delta(d):
    return np.diag(np.asarray(d, dtype=float).ravel())


def test_qrd_diagonal_matches_classical_three_symbol():
    # solve_rd returns the certified optimum; qrd's objective-change stop
    # needs a tighter tolerance than its default to come within 1e-5 of it
    classical = solve_rd(P_X, D_MATRIX, 1.5)
    assert classical.converged
    q = solve_qrd(np.diag(P_X), diagonal_delta(D_MATRIX), 1.5,
                  options=EmOptions(max_iterations=1000,
                                    objective_tolerance=1e-12))
    assert q.converged
    assert q.rate == pytest.approx(classical.rate, abs=1e-6)
    assert q.distortion == pytest.approx(1.5, abs=1e-8)
    assert np.allclose(np.diag(q.output_state).real,
                       classical.output_marginal, atol=1e-5)
    joint = P_X[:, None] * classical.channel
    assert np.allclose(np.diag(q.state).real, joint.ravel(), atol=1e-5)
    assert np.max(np.abs(q.state - np.diag(np.diag(q.state)))) < 1e-10


def test_qrd_diagonal_matches_classical_binary():
    p = np.array([0.5, 0.5])
    hamming = 1.0 - np.eye(2)
    q = solve_qrd(np.diag(p), diagonal_delta(hamming), 0.1)
    expected = math.log(2.0) + 0.9 * math.log(0.9) + 0.1 * math.log(0.1)
    assert q.rate == pytest.approx(expected, abs=1e-6)


def test_qrd_entangled_instance_closed_form():
    # reference marginal I/2 with distortion observable I - P projects
    # onto states of fidelity 1 - level with the maximally entangled
    # state; the optimum is the isotropic mixture with spectrum
    # (1/2, 1/6, 1/6, 1/6) and rate (1/2) log(4/3)
    delta = np.eye(4) - BELL_PROJECTOR
    s = solve_qrd(np.eye(2) / 2.0, delta, 0.5)
    assert s.converged
    assert s.rate == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-9)
    assert np.allclose(np.sort(np.linalg.eigvalsh(s.state)),
                       [1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0, 0.5], atol=1e-9)
    werner = 0.5 * BELL_PROJECTOR + (np.eye(4) - BELL_PROJECTOR) / 6.0
    assert np.allclose(s.state, werner, atol=1e-8)
    assert np.allclose(s.output_state, np.eye(2) / 2.0, atol=1e-8)
    assert s.distortion == pytest.approx(0.5, abs=1e-10)
    assert np.allclose(s.feasibility.delta_b_spectrum, [0.75, 0.75],
                       atol=1e-12)

    binding = solve_qrd(np.eye(2) / 2.0, delta, 0.5, mode="inequality")
    assert binding.rate == pytest.approx(s.rate, abs=1e-9)


def test_qrd_zero_rate_paths():
    # equality inside the product range: two-point spectral mixture
    s = solve_qrd(np.diag(P_X), diagonal_delta(D_MATRIX), 1.0)
    assert s.rate == 0.0
    assert s.iterations == 0
    assert s.distortion == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.diag(s.output_state).real,
                       [2.0 / 3.0, 0.0, 1.0 / 3.0], atol=1e-12)
    # degenerate product spectrum: the full eigenspace projector
    delta = np.eye(4) - BELL_PROJECTOR
    z = solve_qrd(np.eye(2) / 2.0, delta, 0.75)
    assert z.rate == 0.0
    assert np.allclose(z.output_state, np.eye(2) / 2.0, atol=1e-12)
    assert np.allclose(z.state, np.eye(4) / 4.0, atol=1e-12)
    slack = solve_qrd(np.eye(2) / 2.0, delta, 0.9, mode="inequality")
    assert slack.rate == 0.0


@st.composite
def diagonal_instances(draw):
    """A source law and a small-integer distortion matrix (ties and
    constant rows included)."""
    n1, n2 = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    weights = draw(st.lists(st.integers(1, 5), min_size=n1, max_size=n1))
    cells = draw(st.lists(st.integers(0, 4), min_size=n1 * n2,
                          max_size=n1 * n2))
    p = np.array(weights, dtype=float)
    return p / p.sum(), np.array(cells, dtype=float).reshape(n1, n2)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(instance=diagonal_instances(), fraction=st.floats(0.05, 0.95),
       mode=st.sampled_from(["equality", "inequality"]))
def test_diagonal_qrd_and_rd_share_the_rate_zero_rule(instance, fraction,
                                                      mode):
    # rho_R = diag p and Delta = diag d embed the classical problem, so
    # both solvers see the same product range and must agree on whether
    # an answer that ignores the input is optimal
    p, d = instance
    lo, hi = float(p @ d.min(axis=1)), float(p @ d.max(axis=1))
    level = lo + fraction * (hi - lo)
    options = EmOptions(max_iterations=2)
    classical = solve_rd(p, d, level, mode=mode, options=options)
    quantum = solve_qrd(np.diag(p), diagonal_delta(d), level, mode=mode,
                        options=options)
    assert (classical.iterations == 0) == (quantum.iterations == 0)
    if classical.iterations == 0:
        assert classical.rate == quantum.rate == 0.0
        assert quantum.distortion == pytest.approx(classical.distortion,
                                                   abs=1e-12)


def test_qrd_trace_bound_and_descent():
    s = solve_qrd(np.diag(P_X), diagonal_delta(D_MATRIX), 1.5)
    objectives = np.array([r.objective for r in s.trace.records])
    assert np.all(np.diff(objectives) <= 1e-12)
    log3 = math.log(3.0)
    for r in s.trace.records:
        assert r.bound == pytest.approx(log3 / (r.t - 1), abs=1e-15)
        assert r.objective - s.rate <= r.bound + 1e-9


def test_qrd_infeasible_and_validation():
    delta = np.eye(4) - BELL_PROJECTOR
    rho_r = np.eye(2) / 2.0
    with pytest.raises(InfeasibleError):
        solve_qrd(rho_r, delta, -0.5)
    with pytest.raises(InfeasibleError):
        solve_qrd(rho_r, delta, 1.5)
    with pytest.raises(InfeasibleError):
        solve_qrd(rho_r, delta, -0.5, mode="inequality")
    assert solve_qrd(rho_r, delta, 0.9, mode="inequality").rate == 0.0
    # 0.05 lies inside the spectrum [0, 1], but the pinned marginal puts
    # weight at least 0.1 on the 1-eigenspace: the m-step's multipliers
    # diverge
    with pytest.raises(InfeasibleError):
        solve_qrd(np.diag([0.9, 0.1]), np.diag([0.0, 1.0, 1.0, 1.0]), 0.05)
    with pytest.raises(ArgumentError):
        solve_qrd(rho_r, delta, 0.5, mode="at_most")
    with pytest.raises(ArgumentError):
        solve_qrd(rho_r, np.eye(5), 0.5)            # 5 not a multiple of 2
    with pytest.raises(ArgumentError):
        solve_qrd(rho_r, np.eye(2), 0.5)            # second factor trivial
    with pytest.raises(ArgumentError):
        solve_qrd(np.eye(8) / 8.0, np.eye(72), 30.0)
    with pytest.raises(ArgumentError):
        solve_qrd(rho_r, delta, 0.5, options=EmOptions(max_iterations=1))


@pytest.mark.parametrize("name", ["qrd-diagonal-n2-16", "qrd-2x2-1",
                                  "qrd-2x3-12"])
def test_qrd_m_step_stops_on_the_gradient_rounding_floor(name):
    # the m-step's max|g| bottoms out above 1e-10 on the first two, so
    # only the Newton decrement stop ends their multiplier solves; the
    # third stalls if that stop sits at the line search's own allowance
    rho_r, delta, level = QRD_SEED1[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = solve_qrd(rho_r, delta, level)
    assert s.converged
    assert np.isfinite(s.rate) and s.rate > 0.0
    assert np.all(np.isfinite(s.state))
    assert s.distortion == pytest.approx(level, abs=1e-9)
    d_r = rho_r.shape[0]
    marginal = partial_trace(s.state, (d_r, delta.shape[0] // d_r), 1)
    assert np.max(np.abs(marginal - rho_r)) <= 1e-9


@st.composite
def small_qrd_instances(draw):
    """A seeded reference state and observable on 2x2 to 3x3, and a
    level anywhere in (or just outside) the observable's spectrum."""
    d_r, d_b = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rho_r = random_state(rng, d_r)
    g = rng.standard_normal((d_r * d_b,) * 2) \
        + 1j * rng.standard_normal((d_r * d_b,) * 2)
    delta = 0.5 * (g + g.conj().T)
    lam = np.linalg.eigvalsh(delta)
    fraction = draw(st.floats(-0.05, 1.05))
    return rho_r, delta, lam[0] + fraction * (lam[-1] - lam[0])


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(instance=small_qrd_instances(),
       mode=st.sampled_from(["equality", "inequality"]))
def test_qrd_battery_is_finite_or_documented(instance, mode):
    # an answer is finite; a failure is an unreachable level, never a
    # stalled m-step, a DomainError or a numpy error
    rho_r, delta, level = instance
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            s = solve_qrd(rho_r, delta, level, mode=mode,
                          options=EmOptions(max_iterations=200))
        except InfeasibleError:
            return
    assert np.isfinite(s.rate) and s.rate >= 0.0
    assert np.all(np.isfinite(s.state)) and np.all(np.isfinite(s.tau))


def test_qrd_rank_check_rejects_dependent_observable():
    rho_r = np.eye(2) / 2.0
    z = np.diag([1.0, -1.0])
    with pytest.raises(RankError):
        solve_qrd(rho_r, np.kron(z, np.eye(2)), 0.3)
    # identity shift keeps the level off the product range but the
    # traceless part still lies in the span of the marginal operators
    with pytest.raises(RankError):
        solve_qrd(rho_r, np.eye(4) + np.kron(z, np.eye(2)), 0.5)


def test_quantum_data_processing_inequality():
    # tracing out a factor never increases the relative entropy
    rng = np.random.default_rng(41)
    for _ in range(25):
        rho = random_state(rng, 4)
        sigma = random_state(rng, 4)
        joint = relative_entropy(rho, sigma)
        reduced = relative_entropy(partial_trace(rho, (2, 2), 0),
                                   partial_trace(sigma, (2, 2), 0))
        assert joint - reduced >= -1e-10
