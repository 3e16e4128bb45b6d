"""Subfamilies of a Bregman system and the two projections.

An exponential subfamily is an affine slice of natural coordinates,
``theta0 + V beta``.  A mixture subfamily fixes linear functionals of
the mixture coordinates, ``<u_j, grad F(theta)> = a_j``.  Projections
minimize the divergence with the moving argument in the slot the
family's geometry makes convex: the e-projection onto an exponential
subfamily minimizes over the second slot, the m-projection onto a
mixture subfamily over the first.

A closed convex mixture family adds linear inequalities on mixture
coordinates plus a finite cover of boundary facets; its m-projection
enumerates the cover and keeps the divergence-minimizing member.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import core
from .core import BregmanSystem, damped_newton
from .errors import (ArgumentError, ConvergenceError, DomainError,
                     InfeasibleError, NonMembershipError, RankError)

__all__ = [
    "ClosedConvexMixtureFamily",
    "ClosedConvexProjection",
    "ExponentialSubfamily",
    "LinearInequality",
    "MProjection",
    "MixtureSubfamily",
    "e_project",
    "m_project",
    "m_project_closed_convex",
    "pythagorean_residual",
]

_RANK_RTOL = 1e-10
_TIE_TOLERANCE = 1e-12


def _check_rank(matrix: np.ndarray, what: str):
    svals = np.linalg.svd(matrix, compute_uv=False)
    if svals.size == 0 or svals[-1] <= _RANK_RTOL * svals[0]:
        raise RankError(f"{what} are linearly dependent")


class ExponentialSubfamily:
    """Natural-coordinate slice ``theta0 + generators @ beta``.

    ``generators`` has shape (d, l) with independent columns.
    """

    #: ``(system, theta) -> beta`` of the e-projection in closed form;
    #: families the solvers build override it, None means damped Newton
    _closed_e_projection = None

    def __init__(self, anchor, generators):
        anchor = np.asarray(anchor, dtype=float)
        generators = np.asarray(generators, dtype=float)
        if generators.ndim != 2 or generators.shape[0] != anchor.size:
            raise ArgumentError("generators must be (dim, l) against the "
                                "anchor's dimension")
        _check_rank(generators, "generator columns")
        self.anchor = anchor
        self.generators = generators
        self.n_parameters = generators.shape[1]

    def embed(self, beta) -> np.ndarray:
        beta = np.asarray(beta, dtype=float)
        return self.anchor + self.generators @ beta

    def coefficients_of(self, theta) -> tuple[np.ndarray, float]:
        """Least-squares coefficients of ``theta`` and the residual
        norm; the residual is zero exactly on members."""
        theta = np.asarray(theta, dtype=float)
        beta, *_ = np.linalg.lstsq(self.generators, theta - self.anchor,
                                   rcond=None)
        residual = float(np.linalg.norm(
            self.embed(beta) - theta))
        return beta, residual

    def contains(self, theta, tol: float = 1e-8) -> bool:
        return self.coefficients_of(theta)[1] <= tol


class MixtureSubfamily:
    """Level set ``<u_j, grad F(theta)> = a_j`` of mixture coordinates.

    ``directions`` holds the u_j as rows, shape (m, d).  The optional
    ``completion`` is a full basis whose last m columns are the
    constraint directions; by default it is built by orthogonal
    completion.
    """

    def __init__(self, directions, targets, completion=None):
        directions = np.atleast_2d(np.asarray(directions, dtype=float))
        targets = np.atleast_1d(np.asarray(targets, dtype=float))
        if directions.shape[0] != targets.size:
            raise ArgumentError("one target per constraint direction")
        if directions.shape[0] > directions.shape[1]:
            raise ArgumentError("more constraints than dimensions")
        _check_rank(directions, "constraint directions")
        self.directions = directions
        self.targets = targets
        self.n_constraints = directions.shape[0]
        self.dim = directions.shape[1]
        if completion is not None:
            completion = np.asarray(completion, dtype=float)
            if completion.shape != (self.dim, self.dim):
                raise ArgumentError("completion must be a square basis")
            if not np.allclose(completion[:, self.dim - self.n_constraints:],
                               directions.T, atol=1e-12):
                raise ArgumentError("the last columns of the completion "
                                    "must be the constraint directions")
            _check_rank(completion, "completion columns")
        self._completion = completion

    def completion(self) -> np.ndarray:
        """Full basis [free directions | constraint directions]."""
        if self._completion is None:
            q, _ = np.linalg.qr(self.directions.T, mode="complete")
            free = q[:, self.n_constraints:]
            self._completion = np.concatenate([free, self.directions.T],
                                              axis=1)
        return self._completion

    def residuals(self, system: BregmanSystem, theta) -> np.ndarray:
        eta = core.to_mixture(system, theta)
        return self.directions @ eta - self.targets

    def contains(self, system: BregmanSystem, theta,
                 tol: float = 1e-8) -> bool:
        return float(np.max(np.abs(self.residuals(system, theta)))) <= tol


def e_project(system: BregmanSystem, family: ExponentialSubfamily,
              theta, beta_init=None) -> np.ndarray:
    """Project onto an exponential subfamily: the member whose mixture
    coordinates agree with those of ``theta`` along the generators.

    Minimizes ``D(theta || .)`` over the family; the solve is a damped
    Newton iteration on the reduced convex potential.  Families with a
    closed form skip the solve and ignore ``beta_init``: on the product
    families of the rate-distortion solvers the projection is the
    output marginal ``q``, with ``beta = log q[1:] - log q[0]``, and an
    empty or underflowed output cell raises SupportError.
    """
    theta = np.asarray(theta, dtype=float)
    if family._closed_e_projection is not None:
        return family.embed(family._closed_e_projection(system, theta))
    V = family.generators
    target = V.T @ core.to_mixture(system, theta)
    if beta_init is None:
        beta_init, _ = family.coefficients_of(theta)
        if not system.contains(family.embed(beta_init)):
            beta_init = np.zeros(family.n_parameters)

    def _value(beta):
        return float(system.potential(family.embed(beta))) \
            - float(target @ beta)

    def _grad(beta):
        g = np.asarray(system.gradient(family.embed(beta)), dtype=float)
        return V.T @ g - target

    def _hess(beta):
        J = np.asarray(system.hessian(family.embed(beta)), dtype=float)
        return V.T @ J @ V

    domain = None
    if system.domain_check is not None:
        def domain(beta):
            return system.contains(family.embed(beta))

    beta = damped_newton(_value, _grad, _hess, np.asarray(beta_init, float),
                         domain=domain)
    return family.embed(beta)


@dataclass(frozen=True)
class MProjection:
    """m-projection result: the member, its dual coefficients on the
    constraint directions, and the worst constraint residual."""

    theta: np.ndarray
    tau: np.ndarray
    constraint_residual: float
    used_fallback: bool = False


def m_project(system: BregmanSystem, family: MixtureSubfamily, theta,
              tau_init=None, fallback_iterations: int = 2000) -> MProjection:
    """Project onto a mixture subfamily.

    The projection shifts natural coordinates along the constraint
    directions, ``theta + directions.T @ tau``, with ``tau`` minimizing
    the strictly convex dual objective.  Newton from ``tau_init``
    (zeros by default); if a Newton step cannot stay inside the domain
    the certified fixed-step gradient method takes over.  Unreachable
    targets surface as InfeasibleError via iterate divergence.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (family.dim,):
        raise ArgumentError("point dimension does not match the family")
    Ut = family.directions.T
    targets = family.targets
    tau0 = np.zeros(family.n_constraints) if tau_init is None \
        else np.asarray(tau_init, dtype=float)

    def _embed(tau):
        return theta + Ut @ tau

    def _value(tau):
        return float(system.potential(_embed(tau))) - float(targets @ tau)

    def _grad(tau):
        g = np.asarray(system.gradient(_embed(tau)), dtype=float)
        return family.directions @ g - targets

    def _hess(tau):
        J = np.asarray(system.hessian(_embed(tau)), dtype=float)
        return family.directions @ J @ Ut

    domain = None
    if system.domain_check is not None:
        def domain(tau):
            return system.contains(_embed(tau))

    used_fallback = False
    try:
        tau = damped_newton(_value, _grad, _hess, tau0, domain=domain)
    except ConvergenceError:
        used_fallback = True
        tau = _gradient_fallback(_value, _grad, _hess, tau0, domain,
                                 fallback_iterations)
    except DomainError as exc:
        raise InfeasibleError(
            f"constraint targets are not reachable: {exc}") from exc

    result = _embed(tau)
    residual = float(np.max(np.abs(_grad(tau))))
    return MProjection(theta=result, tau=tau, constraint_residual=residual,
                       used_fallback=used_fallback)


def _gradient_fallback(value, grad, hess, tau0, domain, iterations):
    """Fixed-step descent used when Newton stalls near the boundary."""
    tau = np.asarray(tau0, dtype=float).copy()
    for _ in range(iterations):
        g = grad(tau)
        if float(np.max(np.abs(g))) <= 1e-10:
            return tau
        H = np.asarray(hess(tau), dtype=float)
        L = float(np.linalg.eigvalsh(H)[-1])
        step = -g / max(L, 1e-12)
        s = 1.0
        while domain is not None and not domain(tau + s * step):
            s *= 0.5
            if s < 1e-20:
                raise ConvergenceError("gradient fallback pinned at the "
                                       "domain boundary")
        tau = tau + s * step
        if float(np.linalg.norm(tau)) > 1e8:
            raise InfeasibleError("constraint targets are not reachable")
    raise ConvergenceError("gradient fallback did not converge")


@dataclass(frozen=True)
class LinearInequality:
    """Half space ``<direction, eta> <= bound`` on mixture coordinates."""

    direction: np.ndarray
    bound: float

    def slack(self, eta) -> float:
        return self.bound - float(np.asarray(self.direction, float) @ eta)


@dataclass(frozen=True)
class ClosedConvexMixtureFamily:
    """Closed convex set of mixture coordinates with a facet cover.

    ``base`` carries the equality constraints of the affine hull (None
    for none); ``inequalities`` define membership; ``facets`` are the
    boundary pieces, themselves families whose bases include the active
    equalities.  Projection enumerates the root (index 0) followed by
    the facets in depth-first declaration order.
    """

    base: Optional[MixtureSubfamily]
    inequalities: tuple[LinearInequality, ...] = ()
    facets: tuple["ClosedConvexMixtureFamily", ...] = ()
    label: str = ""

    def nodes(self) -> Iterator[tuple[int, "ClosedConvexMixtureFamily"]]:
        counter = [0]

        def _walk(node):
            yield counter[0], node
            counter[0] += 1
            for child in node.facets:
                yield from _walk(child)

        return _walk(self)

    def contains(self, system: BregmanSystem, theta,
                 tol: float = 1e-8) -> bool:
        if self.base is not None and not self.base.contains(
                system, theta, tol):
            return False
        eta = core.to_mixture(system, theta)
        return all(ineq.slack(eta) >= -tol for ineq in self.inequalities)


@dataclass(frozen=True)
class ClosedConvexProjection:
    """Winner of the facet enumeration."""

    theta: np.ndarray
    tau: np.ndarray
    facet_index: int
    facet_label: str
    divergence: float
    constraint_residual: float
    candidates_tried: int


def m_project_closed_convex(system: BregmanSystem,
                            family: ClosedConvexMixtureFamily, theta,
                            membership_tolerance: float = 1e-8,
                            tau_inits: Optional[dict] = None
                            ) -> ClosedConvexProjection:
    """m-projection onto a closed convex mixture family.

    Every node of the facet cover is m-projected onto (the root's
    equality part counts as node 0; a node without equalities
    contributes ``theta`` itself).  Candidates that fail the family's
    membership test are discarded; the divergence-minimizing survivor
    wins, ties within 1e-12 going to the lowest node index.  Facet
    solves that fail (infeasible or non-convergent) are skipped.
    """
    theta = np.asarray(theta, dtype=float)
    best = None
    tried = 0
    solved = 0
    for index, node in family.nodes():
        if node.base is None or node.base.n_constraints == 0:
            candidate = theta
            tau = np.zeros(0)
            residual = 0.0
        else:
            init = None if tau_inits is None else tau_inits.get(index)
            try:
                proj = m_project(system, node.base, theta, tau_init=init)
            except (InfeasibleError, ConvergenceError, DomainError):
                continue
            candidate = proj.theta
            tau = proj.tau
            residual = proj.constraint_residual
        solved += 1
        if not family.contains(system, candidate, membership_tolerance):
            continue
        tried += 1
        div = core.divergence(system, candidate, theta)
        if best is None or div < best.divergence - _TIE_TOLERANCE:
            best = ClosedConvexProjection(
                theta=candidate, tau=tau, facet_index=index,
                facet_label=node.label, divergence=div,
                constraint_residual=residual, candidates_tried=tried)
    if best is not None:
        return ClosedConvexProjection(
            theta=best.theta, tau=best.tau, facet_index=best.facet_index,
            facet_label=best.facet_label, divergence=best.divergence,
            constraint_residual=best.constraint_residual,
            candidates_tried=tried)
    if solved == 0:
        raise InfeasibleError("no facet of the cover could be projected "
                              "onto")
    raise NonMembershipError("no projection candidate lies in the family; "
                             "the facet cover does not cover the contact "
                             "set")


def pythagorean_residual(system: BregmanSystem, theta, theta_mid,
                         theta_prime) -> float:
    """``D(theta||theta') - D(theta||theta_mid) - D(theta_mid||theta')``.

    Zero for projection triples (theta in the family, theta_mid the
    projection of theta'); non-negative at boundary contacts of closed
    convex families.
    """
    return core.divergence(system, theta, theta_prime) \
        - core.divergence(system, theta, theta_mid) \
        - core.divergence(system, theta_mid, theta_prime)
