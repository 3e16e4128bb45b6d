"""Bregman divergence systems.

A system is a smooth strictly convex potential on an open subset of
R^d.  Its gradient maps natural coordinates to mixture coordinates; the
divergence of the potential generalizes KL divergence (which it reduces
to for log-partition potentials of exponential families, with the
conventions used throughout this package: ``divergence(sys, t1, t2)``
places the gradient at the first argument, so it equals
``KL(P_t1 || P_t2)``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (ArgumentError, ConvergenceError, DomainError,
                     SingularMatrixError)

__all__ = [
    "BregmanSystem",
    "Chart",
    "Point",
    "damped_newton",
    "divergence",
    "dual_system",
    "hessian",
    "legendre_value",
    "potential_value",
    "reparametrize",
    "to_mixture",
    "to_natural",
]

#: divergences smaller than this are treated as exact zeros; the
#: defining formula cancels catastrophically near coinciding arguments.
DIVERGENCE_CLAMP = 1e-14

_GRADIENT_TOLERANCE = 1e-10
_MAX_NEWTON_ITERATIONS = 200
_ARMIJO_SLOPE = 1e-4
_BLOWUP_NORM = 1e8


class Chart(enum.Enum):
    """Coordinate chart of a point."""

    NATURAL = "natural"
    MIXTURE = "mixture"


class BregmanSystem:
    """A strictly convex potential with analytic derivatives.

    Parameters
    ----------
    dim : int
        Dimension of the parameter space.
    potential, gradient, hessian : callables on natural coordinates.
    domain_check : optional predicate guarding evaluations.
    inverse_gradient : optional closed-form mixture-to-natural map;
        when absent the conversion falls back to a damped Newton solve.

    A subclass defines these as methods instead of passing them: a
    bound method stored on its own instance would keep the instance
    alive in a reference cycle until a full collection.
    """

    domain_check = None
    inverse_gradient = None

    def __init__(self, dim: int, potential: Optional[Callable] = None,
                 gradient: Optional[Callable] = None,
                 hessian: Optional[Callable] = None,
                 domain_check: Optional[Callable] = None,
                 inverse_gradient: Optional[Callable] = None,
                 name: str = "bregman"):
        if dim < 1:
            raise ArgumentError("dim must be at least 1")
        self.dim = int(dim)
        for key, fn in (("potential", potential), ("gradient", gradient),
                        ("hessian", hessian), ("domain_check", domain_check),
                        ("inverse_gradient", inverse_gradient)):
            if fn is not None:
                setattr(self, key, fn)
        if not all(callable(getattr(self, key, None))
                   for key in ("potential", "gradient", "hessian")):
            raise ArgumentError("a system needs a potential, its gradient "
                                "and its Hessian")
        self.name = name

    def contains(self, theta) -> bool:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            return False
        if not np.all(np.isfinite(theta)):
            return False
        if self.domain_check is not None and not self.domain_check(theta):
            return False
        return True

    def __repr__(self):
        return f"BregmanSystem(name={self.name!r}, dim={self.dim})"


@dataclass(frozen=True)
class Point:
    """Coordinates of a parameter in a declared chart."""

    coords: np.ndarray
    chart: Chart
    system: BregmanSystem

    def natural(self) -> "Point":
        if self.chart is Chart.NATURAL:
            return self
        theta = to_natural(self.system, self.coords)
        return Point(theta, Chart.NATURAL, self.system)

    def mixture(self) -> "Point":
        if self.chart is Chart.MIXTURE:
            return self
        eta = to_mixture(self.system, self.coords)
        return Point(eta, Chart.MIXTURE, self.system)


def _require_domain(system: BregmanSystem, theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (system.dim,):
        raise ArgumentError(
            f"expected coordinates of shape ({system.dim},), got {theta.shape}")
    if not system.contains(theta):
        raise DomainError("point lies outside the potential's domain")
    return theta


def potential_value(system: BregmanSystem, theta) -> float:
    """Evaluate the potential at natural coordinates ``theta``."""
    theta = _require_domain(system, theta)
    return float(system.potential(theta))


def to_mixture(system: BregmanSystem, theta) -> np.ndarray:
    """Mixture coordinates: the potential gradient at ``theta``."""
    theta = _require_domain(system, theta)
    return np.asarray(system.gradient(theta), dtype=float)


def hessian(system: BregmanSystem, theta) -> np.ndarray:
    """Hessian of the potential at ``theta`` (symmetric positive
    definite on the open domain)."""
    theta = _require_domain(system, theta)
    return np.asarray(system.hessian(theta), dtype=float)


def damped_newton(value: Callable, grad: Callable, hess: Callable,
                  x0: np.ndarray, domain: Optional[Callable] = None,
                  gradient_tolerance: float = _GRADIENT_TOLERANCE,
                  max_iterations: int = _MAX_NEWTON_ITERATIONS) -> np.ndarray:
    """Minimize a smooth convex function by damped Newton steps.

    Step lengths are halved until the iterate stays inside ``domain``
    and satisfies an Armijo decrease condition.  The iteration stops
    at the first of two tests:

    - ``max|grad| <= gradient_tolerance``: the iterate is returned;
    - the step's predicted decrease ``-grad . step / 2`` (half the
      squared Newton decrement, Boyd & Vandenberghe 2004, sec. 9.5) is
      at most ``1e-14 * (1 + |value|)``, below what the value can
      resolve: the full step is taken if it stays inside ``domain``,
      and that point is returned.

    Raises DomainError when iterates blow up (the operational signal
    that the infimum is not attained) and ConvergenceError when
    progress stalls or the iteration cap is reached.
    """
    x = np.asarray(x0, dtype=float).copy()
    if domain is not None and not domain(x):
        raise DomainError("initial point lies outside the domain")
    fx = float(value(x))
    with np.errstate(over="ignore", invalid="ignore"):
        return _newton_loop(value, grad, hess, x, fx, domain,
                            gradient_tolerance, max_iterations)


def _newton_loop(value, grad, hess, x, fx, domain, gradient_tolerance,
                 max_iterations) -> np.ndarray:
    # overflow on a diverging trial step is routine here; non-finite
    # candidates are rejected explicitly below
    for _ in range(max_iterations):
        g = np.asarray(grad(x), dtype=float)
        if np.max(np.abs(g)) <= gradient_tolerance:
            return x
        H = np.asarray(hess(x), dtype=float)
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            step = -g / max(1.0, float(np.max(np.abs(H))))
        slope = float(g @ step)
        if slope >= 0.0:
            step = -g / max(1.0, float(np.max(np.abs(H))))
            slope = float(g @ step)
        # Near the optimum the true decrease drops below one ulp of the
        # value; without this allowance every candidate ties fx and the
        # search stalls one step short of the tolerance.
        noise = 1e-15 * (1.0 + abs(fx))
        if -0.5 * slope <= 10.0 * noise:
            # the predicted decrease is below what the value resolves:
            # the full step is the best estimate, but no line search can
            # confirm it
            candidate = x + step
            if (domain is None or domain(candidate)) and np.all(
                    np.isfinite(candidate)):
                return candidate
            return x
        s = 1.0
        while True:
            candidate = x + s * step
            if (domain is None or domain(candidate)) and np.all(
                    np.isfinite(candidate)):
                fc = float(value(candidate))
                if np.isfinite(fc) and \
                        fc <= fx + _ARMIJO_SLOPE * s * slope + noise:
                    break
            s *= 0.5
            if s < 1e-20:
                if float(np.linalg.norm(x)) > _BLOWUP_NORM:
                    raise DomainError("iterates diverged; the target is not "
                                      "attained inside the domain")
                raise ConvergenceError("line search stalled")
        x = candidate
        fx = fc
        if float(np.linalg.norm(x)) > _BLOWUP_NORM:
            raise DomainError("iterates diverged; the target is not "
                              "attained inside the domain")
    raise ConvergenceError(
        f"no convergence within {max_iterations} Newton iterations")


def to_natural(system: BregmanSystem, eta, theta_init=None) -> np.ndarray:
    """Invert the gradient map: natural coordinates with mixture
    coordinates ``eta``.

    Uses the system's closed form when available, otherwise a damped
    Newton solve on ``F(theta) - <eta, theta>`` started from
    ``theta_init`` (zeros by default).  Mixture coordinates outside the
    realizable range surface as DomainError via solver divergence.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (system.dim,):
        raise ArgumentError(
            f"expected coordinates of shape ({system.dim},), got {eta.shape}")
    if system.inverse_gradient is not None:
        theta = np.asarray(system.inverse_gradient(eta), dtype=float)
        return _require_domain(system, theta)
    x0 = np.zeros(system.dim) if theta_init is None else (
        np.asarray(theta_init, dtype=float))
    if not system.contains(x0):
        raise DomainError("the default start lies outside the domain; "
                          "supply theta_init")
    domain = system.contains if system.domain_check is not None else None
    return damped_newton(
        value=lambda th: float(system.potential(th)) - float(eta @ th),
        grad=lambda th: np.asarray(system.gradient(th), dtype=float) - eta,
        hess=system.hessian,
        x0=x0,
        domain=domain)


def divergence(system: BregmanSystem, theta_1, theta_2) -> float:
    """Bregman divergence with the gradient taken at the first slot:

        D(t1 || t2) = <grad F(t1), t1 - t2> - F(t1) + F(t2).

    Always non-negative; values below ``DIVERGENCE_CLAMP`` are returned
    as exact zero.
    """
    theta_1 = _require_domain(system, theta_1)
    theta_2 = _require_domain(system, theta_2)
    g1 = np.asarray(system.gradient(theta_1), dtype=float)
    value = float(g1 @ (theta_1 - theta_2)) \
        - float(system.potential(theta_1)) + float(system.potential(theta_2))
    if value < DIVERGENCE_CLAMP:
        return 0.0
    return value


def legendre_value(system: BregmanSystem, eta, theta_init=None) -> float:
    """Legendre transform of the potential at mixture coordinates
    ``eta``:  ``<eta, theta(eta)> - F(theta(eta))``."""
    eta = np.asarray(eta, dtype=float)
    theta = to_natural(system, eta, theta_init=theta_init)
    return float(eta @ theta) - float(system.potential(theta))


def reparametrize(system: BregmanSystem, U) -> BregmanSystem:
    """System of the composed potential ``theta -> F(U theta)``.

    The divergence is invariant:  the new system at ``U^-1 theta``
    reproduces the old divergences exactly.  ``U`` must be comfortably
    invertible (reciprocal condition number above 1e-12), otherwise
    SingularMatrixError is raised.
    """
    U = np.asarray(U, dtype=float)
    if U.shape != (system.dim, system.dim):
        raise ArgumentError("U must be square of the system dimension")
    svals = np.linalg.svd(U, compute_uv=False)
    if svals[-1] <= 1e-12 * svals[0]:
        raise SingularMatrixError("reparametrization matrix is singular "
                                  "to working precision")
    U_inv = np.linalg.inv(U)
    inner = system

    def _potential(phi):
        return inner.potential(U @ phi)

    def _gradient(phi):
        return U.T @ np.asarray(inner.gradient(U @ phi), dtype=float)

    def _hessian(phi):
        J = np.asarray(inner.hessian(U @ phi), dtype=float)
        return U.T @ J @ U

    _domain = None
    if inner.domain_check is not None:
        def _domain(phi):
            return inner.domain_check(U @ phi)

    _inverse = None
    if inner.inverse_gradient is not None:
        def _inverse(eta_new):
            eta = np.linalg.solve(U.T, eta_new)
            return U_inv @ np.asarray(inner.inverse_gradient(eta),
                                      dtype=float)

    return BregmanSystem(dim=inner.dim, potential=_potential,
                         gradient=_gradient, hessian=_hessian,
                         domain_check=_domain, inverse_gradient=_inverse,
                         name=f"{inner.name}_reparametrized")


def dual_system(system: BregmanSystem) -> BregmanSystem:
    """System of the Legendre-transformed potential on mixture
    coordinates.

    Its divergence with swapped arguments equals the original
    divergence.  Conversions run through the (possibly iterative)
    gradient inversion, so this is primarily a verification tool.
    """
    inner = system

    def _potential(eta):
        return legendre_value(inner, eta)

    def _gradient(eta):
        return to_natural(inner, eta)

    def _hessian(eta):
        theta = to_natural(inner, eta)
        return np.linalg.inv(np.asarray(inner.hessian(theta), dtype=float))

    return BregmanSystem(dim=inner.dim, potential=_potential,
                         gradient=_gradient, hessian=_hessian,
                         inverse_gradient=inner.gradient,
                         name=f"{inner.name}_dual")
