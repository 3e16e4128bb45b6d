"""Quantum state families and the quantum rate-distortion solver.

Full-rank density matrices on a finite dimension form a Bregman system
whose potential is the log trace exponential over a fixed orthogonal
Hermitian basis; the divergence is the (Umegaki) relative entropy.
The rate-distortion solver alternates between the mixture family of
joint states with a pinned reference marginal and mean distortion and
the exponential family of product states, exactly as in the classical
solvers but with matrix logarithms in place of probability ratios.
It shares their level check and rate-zero rule; the reachable range it
checks is the distortion observable's spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import BregmanSystem
from .em import EmOptions, EmTrace, _Loop, _options
from .errors import (ArgumentError, ConvergenceError, InfeasibleError,
                     NotPositiveDefiniteError, RankError)
from .rate_distortion import _check_level, _check_mode, _zero_rate_weight

__all__ = [
    "DensityMatrix",
    "QrdFeasibility",
    "QrdSolution",
    "QuantumSystem",
    "gell_mann_basis",
    "hermitian_function",
    "matrix_exp",
    "matrix_log",
    "partial_trace",
    "quantum_system",
    "relative_entropy",
    "solve_qrd",
    "theta_of_state",
]

_HERMITIAN_TOL = 1e-8
_PSD_TOL = 1e-10
_MAX_TOTAL_DIM = 64


def gell_mann_basis(dim: int) -> np.ndarray:
    """Orthogonal traceless Hermitian basis, Tr(X_i X_j) = 2 delta_ij.

    Ordering: symmetric pair matrices for j < k in lexicographic order,
    then the antisymmetric pairs in the same order, then the diagonal
    matrices by increasing support size.  Shape (dim^2 - 1, dim, dim).
    """
    if dim < 2:
        raise ArgumentError("the basis needs dimension at least 2")
    out = []
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            out.append(m)
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            out.append(m)
    for l in range(1, dim):
        m = np.zeros((dim, dim), dtype=complex)
        scale = math.sqrt(2.0 / (l * (l + 1)))
        for i in range(l):
            m[i, i] = scale
        m[l, l] = -l * scale
        out.append(m)
    return np.stack(out)


def _check_hermitian(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ArgumentError(f"{name} must be a square matrix")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ArgumentError(f"{name} must have finite entries")
    if np.max(np.abs(a - a.conj().T)) > _HERMITIAN_TOL * max(
            1.0, float(np.max(np.abs(a)))):
        raise ArgumentError(f"{name} must be Hermitian")
    return 0.5 * (a + a.conj().T)


def hermitian_function(a, fn) -> np.ndarray:
    """Apply a scalar function to the eigenvalues of a Hermitian
    matrix."""
    a = _check_hermitian(a, "matrix")
    lam, u = np.linalg.eigh(a)
    return (u * fn(lam)) @ u.conj().T


def matrix_exp(a) -> np.ndarray:
    """Exponential of a Hermitian matrix by eigendecomposition."""
    return hermitian_function(a, np.exp)


def matrix_log(a) -> np.ndarray:
    """Logarithm of a positive definite Hermitian matrix."""
    a = _check_hermitian(a, "matrix")
    lam, u = np.linalg.eigh(a)
    if lam[0] <= 0.0:
        raise NotPositiveDefiniteError(
            "matrix logarithm needs strictly positive eigenvalues; the "
            "smallest is %.3e" % lam[0])
    return (u * np.log(lam)) @ u.conj().T


def partial_trace(matrix, dims: tuple, site: int) -> np.ndarray:
    """Trace out one factor of a bipartite operator.

    ``dims = (d0, d1)`` are the factor dimensions; ``site`` names the
    factor that is traced out (0 for the first).
    """
    d0, d1 = int(dims[0]), int(dims[1])
    a = np.asarray(matrix, dtype=complex)
    if a.shape != (d0 * d1, d0 * d1):
        raise ArgumentError("operator shape does not match the factor "
                            "dimensions")
    t = a.reshape(d0, d1, d0, d1)
    if site == 0:
        return np.einsum("ijil->jl", t)
    if site == 1:
        return np.einsum("ijkj->ik", t)
    raise ArgumentError("site must be 0 or 1")


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix: Hermitian, unit trace, positive
    semidefinite within tolerance."""

    matrix: np.ndarray

    def __post_init__(self):
        a = _check_hermitian(self.matrix, "density matrix")
        if abs(float(np.trace(a).real) - 1.0) > _HERMITIAN_TOL:
            raise ArgumentError("a density matrix must have unit trace")
        lam = np.linalg.eigvalsh(a)
        if lam[0] < -_PSD_TOL:
            raise NotPositiveDefiniteError(
                "a density matrix cannot have eigenvalue %.3e" % lam[0])
        object.__setattr__(self, "matrix", a)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    @classmethod
    def from_interleaved(cls, values, dim: int) -> "DensityMatrix":
        """Build from a row-major flat list of alternating real and
        imaginary parts."""
        flat = np.asarray(values, dtype=float).ravel()
        if flat.size != 2 * dim * dim:
            raise ArgumentError("expected %d interleaved entries for "
                                "dimension %d, got %d"
                                % (2 * dim * dim, dim, flat.size))
        complex_flat = flat[0::2] + 1.0j * flat[1::2]
        return cls(complex_flat.reshape(dim, dim))


def relative_entropy(rho, sigma) -> float:
    """Relative entropy Tr rho (log rho - log sigma) in nats.

    Infinite when the support of ``rho`` leaks outside the support of
    ``sigma``; values below 1e-14 are clamped to zero.
    """
    rho = _check_hermitian(rho, "rho")
    sigma = _check_hermitian(sigma, "sigma")
    if rho.shape != sigma.shape:
        raise ArgumentError("states must share a dimension")
    for name, a in (("rho", rho), ("sigma", sigma)):
        if abs(float(np.trace(a).real) - 1.0) > _HERMITIAN_TOL:
            raise ArgumentError(f"{name} must have unit trace")
    p, up = np.linalg.eigh(rho)
    s, us = np.linalg.eigh(sigma)
    if p[0] < -_PSD_TOL or s[0] < -_PSD_TOL:
        raise NotPositiveDefiniteError("states must be positive "
                                       "semidefinite")
    p = np.clip(p, 0.0, None)
    s = np.clip(s, 0.0, None)
    overlap = np.abs(up.conj().T @ us) ** 2
    weights = p @ overlap
    support_cut = 1e-15
    if np.any((weights > 1e-12) & (s <= support_cut)):
        return float("inf")
    positive_p = p[p > 0.0]
    value = float(positive_p @ np.log(positive_p))
    mask = s > support_cut
    value -= float(weights[mask] @ np.log(s[mask]))
    return 0.0 if value < 1e-14 else value


class QuantumSystem(BregmanSystem):
    """Bregman system of full-rank states on a fixed dimension.

    Natural coordinates are the coefficients on the orthogonal
    Hermitian basis; the potential log Tr exp(sum theta_i X_i) has the
    state's basis expectations as gradient, and the Bregman divergence
    is the relative entropy.
    """

    def __init__(self, dim: int):
        if dim < 2:
            raise ArgumentError("dimension must be at least 2")
        self.matrix_dim = int(dim)
        self.basis = gell_mann_basis(dim)
        super().__init__(dim=self.basis.shape[0], name=f"quantum({dim})")

    def _operator(self, theta):
        theta = np.asarray(theta, dtype=float)
        return np.einsum("a,aij->ij", theta, self.basis)

    def state(self, theta) -> np.ndarray:
        """Normalized exponential state of the coordinates."""
        return _gibbs_state(self._operator(theta))

    def potential(self, theta):
        return _log_trace_exp(self._operator(theta))

    def gradient(self, theta):
        rho = self.state(theta)
        return np.einsum("aij,ji->a", self.basis, rho).real

    def hessian(self, theta):
        return _gibbs_hessian(self._operator(theta), self.basis)


def _exp_divided_difference(eigs) -> np.ndarray:
    """Matrix of (e^a - e^b)/(a - b) over eigenvalue pairs, with the
    diagonal limit e^a, computed stably through sinh(h)/h.  Pairs so far
    apart that sinh(h) overflows (while e^mid underflows) take the
    quotient directly."""
    lam = np.asarray(eigs, dtype=float)
    a, b = lam[:, None], lam[None, :]
    mid = 0.5 * (a + b)
    h = 0.5 * (a - b)
    small = np.abs(h) < 1e-5
    wide = np.abs(h) > 700.0
    safe = np.where(small | wide, 1.0, h)
    ratio = np.where(small, 1.0 + h * h / 6.0 + h ** 4 / 120.0,
                     np.sinh(safe) / safe)
    out = np.exp(mid) * ratio
    if wide.any():
        out = np.where(wide, (np.exp(a) - np.exp(b))
                       / np.where(wide, a - b, 1.0), out)
    return out


def _gibbs_state(a) -> np.ndarray:
    """The state exp(a) / Tr exp(a) of a Hermitian matrix ``a``."""
    lam, u = np.linalg.eigh(a)
    w = np.exp(lam - lam.max())
    return (u * (w / w.sum())) @ u.conj().T


def _log_trace_exp(a) -> float:
    """log Tr exp(a) of a Hermitian matrix ``a``."""
    lam = np.linalg.eigvalsh(a)
    m = lam.max()
    return float(m + math.log(np.exp(lam - m).sum()))


def _gibbs_hessian(a, operators) -> np.ndarray:
    """Hessian in x of log Tr exp(a + sum_i x_i operators[i]) at x = 0:
    the Kubo-Mori covariance of the operators in the state of ``a``."""
    lam, u = np.linalg.eigh(a)
    shifted = lam - lam.max()
    weights = np.exp(shifted)
    z = weights.sum()
    phi = _exp_divided_difference(shifted)
    tilded = u.conj().T @ operators @ u
    h = np.einsum("apq,bpq->ab", tilded.conj(),
                  tilded * phi[None, :, :]).real / z
    eta = np.einsum("app,p->a", tilded, weights).real / z
    return h - np.outer(eta, eta)


def quantum_system(dim: int) -> QuantumSystem:
    """System of full-rank states on the given matrix dimension."""
    return QuantumSystem(dim)


def theta_of_state(system: QuantumSystem, rho) -> np.ndarray:
    """Natural coordinates of a full-rank state: half the basis
    expectations of its logarithm."""
    log_rho = matrix_log(rho)
    return 0.5 * np.einsum("aij,ji->a", system.basis, log_rho).real


@dataclass(frozen=True)
class QrdFeasibility:
    """Distortion reachability for the quantum solver.

    ``delta_b_spectrum`` is the spectrum of the output-side average of
    the distortion observable against the reference marginal; product
    states reach exactly its convex hull.  The full spectrum bounds of
    the observable bracket what any joint state can reach.
    """

    level: float
    delta_b_spectrum: np.ndarray
    min_product: float
    max_product: float
    product_feasible: bool
    equality_achievable_by_product: bool
    spectrum_min: float
    spectrum_max: float


@dataclass
class QrdSolution:
    """Quantum solver output; ``rate`` is the relative entropy between
    the joint state and the product of its marginals, in nats."""

    rate: float
    state: np.ndarray
    output_state: np.ndarray
    tau: np.ndarray
    distortion: float
    constraint_residual: float
    iterations: int
    converged: bool
    mode: str
    trace: EmTrace
    feasibility: QrdFeasibility


def _clamped_newton(value, grad, hess, x0, gradient_tolerance=1e-10,
                    max_iterations=200):
    """Damped Newton with an eigenvalue-clamped Hessian solve.

    The Hessian of a log-partition restriction is positive semidefinite
    but may be nearly singular; eigenvalues are clamped at 1e-12 before
    inverting.  Armijo backtracking with slope 1e-4; iterate blow-up
    past norm 1e8 reports unreachable constraint targets.
    """
    x = np.asarray(x0, dtype=float).copy()
    fx = value(x)
    for _ in range(max_iterations):
        g = grad(x)
        if float(np.max(np.abs(g))) <= gradient_tolerance:
            return x
        h = np.asarray(hess(x), dtype=float)
        s_eig, v_eig = np.linalg.eigh(0.5 * (h + h.T))
        step = -v_eig @ ((v_eig.T @ g) / np.clip(s_eig, 1e-12, None))
        slope = float(g @ step)
        if slope >= 0.0:
            step = -g
            slope = -float(g @ g)
        # allowance for sub-ulp decreases, as in core.damped_newton
        noise = 1e-15 * (1.0 + abs(fx))
        s = 1.0
        while True:
            candidate = x + s * step
            fc = value(candidate)
            if np.isfinite(fc) and fc <= fx + 1e-4 * s * slope + noise:
                break
            s *= 0.5
            if s < 1e-20:
                raise ConvergenceError("line search stalled")
        x = candidate
        fx = fc
        if float(np.linalg.norm(x)) > 1e8:
            raise InfeasibleError("constraint targets are not reachable")
    raise ConvergenceError("Newton did not reach the gradient tolerance")


def _qrd_zero_rate(rho_r, delta, delta_b, report: QrdFeasibility,
                   level: float, mode: str) -> Optional[QrdSolution]:
    """Rate-zero answer ``rho_r (x) sigma``, or None: ``sigma`` mixes the
    normalized eigenprojectors of ``delta_b``'s least and greatest
    eigenvalues with the weight of :func:`_zero_rate_weight`."""
    mu = _zero_rate_weight(report.min_product, report.max_product, level,
                           mode)
    if mu is None:
        return None
    lam, v = np.linalg.eigh(delta_b)
    tol = 1e-10 * max(1.0, abs(lam[-1]))

    def projector_state(target):
        sel = np.abs(lam - target) <= tol
        vecs = v[:, sel]
        return (vecs @ vecs.conj().T) / int(sel.sum())

    sigma = (1.0 - mu) * projector_state(lam[0]) \
        + mu * projector_state(lam[-1])
    state = np.kron(rho_r, sigma)
    distortion = float(np.trace(state @ delta).real)
    d_r = rho_r.shape[0]
    return QrdSolution(
        rate=0.0, state=state, output_state=sigma, tau=np.zeros(d_r * d_r),
        distortion=distortion,
        constraint_residual=(abs(distortion - level)
                             if mode == "equality" else 0.0),
        iterations=0, converged=True, mode=mode,
        trace=EmTrace(records=[], final_index=0, final_theta=None,
                      converged=True, mode="exact"),
        feasibility=report)


def solve_qrd(rho_r, delta, level: float, mode: str = "equality",
              options: Optional[EmOptions] = None) -> QrdSolution:
    """Minimize the relative entropy to a product state over joint
    states with a pinned reference marginal and mean distortion.

    ``rho_r`` is the reference marginal on the first factor (full rank,
    since the iteration works with its logarithm), ``delta`` a
    Hermitian distortion observable on the tensor product (its size
    determines the second factor).  Each m-step solves the constrained
    divergence minimization by a Newton iteration over the constraint
    multipliers; the e-step replaces the iterate by the product of
    ``rho_r`` with its own second marginal.  The rate is the relative
    entropy between the final joint state and that product.  The
    records hold scalars only (each ``constraint_residual`` is the
    largest multiplier-gradient entry, i.e. the marginal and distortion
    residual of the m-step) and ``trace.final_theta`` is None.
    """
    _check_mode(mode)
    rho_r = DensityMatrix(rho_r).matrix
    d_r = rho_r.shape[0]
    delta = _check_hermitian(delta, "delta")
    if delta.shape[0] % d_r != 0:
        raise ArgumentError("the observable dimension must be a multiple "
                            "of the reference dimension")
    d_b = delta.shape[0] // d_r
    if d_b < 2:
        raise ArgumentError("the second factor needs dimension at least 2")
    if d_r * d_b > _MAX_TOTAL_DIM:
        raise ArgumentError("total dimension beyond %d is not supported"
                            % _MAX_TOTAL_DIM)
    options = _options(options, 1000)

    eye_b = np.eye(d_b)
    delta_b = partial_trace(delta @ np.kron(rho_r, eye_b), (d_r, d_b), 0)
    lam_b = np.linalg.eigvalsh(delta_b)
    lam_full = np.linalg.eigvalsh(delta)
    level = _check_level(level, float(lam_full[0]), float(lam_full[-1]),
                         mode)
    report = QrdFeasibility(
        level=level, delta_b_spectrum=lam_b,
        min_product=float(lam_b[0]), max_product=float(lam_b[-1]),
        product_feasible=float(lam_b[0]) <= level,
        equality_achievable_by_product=(
            float(lam_b[0]) <= level <= float(lam_b[-1])),
        spectrum_min=float(lam_full[0]), spectrum_max=float(lam_full[-1]))
    zero = _qrd_zero_rate(rho_r, delta, delta_b, report, level, mode)
    if zero is not None:
        return zero

    basis_r = gell_mann_basis(d_r)
    operators = [np.kron(x, eye_b) for x in basis_r] + [delta]
    operators = np.stack(operators)
    targets = np.array(
        [float(np.trace(x @ rho_r).real) for x in basis_r] + [level])
    n = d_r * d_b
    traceless = operators - (np.trace(operators, axis1=1, axis2=2)
                             / n)[:, None, None] * np.eye(n)
    gram = np.einsum("aij,bij->ab", traceless.conj(), traceless).real
    gram_eigs = np.linalg.eigvalsh(gram)
    if gram_eigs[0] <= 1e-10 * max(gram_eigs[-1], 1.0):
        raise RankError("the distortion observable is affinely dependent "
                        "on the marginal constraints")

    if options.reference_divergence is None:
        options = replace(options, reference_divergence=math.log(d_b))

    rho_e = np.kron(rho_r, eye_b / d_b)
    # the estimate is the last round, so nothing is selected
    loop = _Loop(options, "exact", selection_enabled=False)
    tau = np.zeros(operators.shape[0])
    for t in range(2, options.max_iterations + 1):
        log_prior = matrix_log(rho_e)

        def combined(coeffs):
            return log_prior + np.einsum("a,aij->ij", coeffs, operators)

        def psi(coeffs):
            return float(_log_trace_exp(combined(coeffs)) - coeffs @ targets)

        def psi_grad(coeffs):
            rho = _gibbs_state(combined(coeffs))
            return np.einsum("aij,ji->a", operators, rho).real - targets

        def psi_hess(coeffs):
            return _gibbs_hessian(combined(coeffs), operators)

        tau = _clamped_newton(psi, psi_grad, psi_hess, tau)
        rho_m = _gibbs_state(combined(tau))
        pre_e = relative_entropy(rho_m, rho_e)
        rho_b = partial_trace(rho_m, (d_r, d_b), 0)
        rho_e = np.kron(rho_r, rho_b)
        objective = relative_entropy(rho_m, rho_e)
        distortion_value = float(np.trace(rho_m @ delta).real)
        residual = float(np.max(np.abs(psi_grad(tau))))
        if loop.record(t, None, None, None, tau, pre_e, objective,
                       residual, 0.0):
            break

    trace = loop.finish()
    last = trace.records[-1]
    return QrdSolution(
        rate=last.objective, state=rho_m, output_state=rho_b, tau=tau,
        distortion=distortion_value,
        constraint_residual=abs(distortion_value - level),
        iterations=last.t, converged=trace.converged, mode=mode,
        trace=trace, feasibility=report)
