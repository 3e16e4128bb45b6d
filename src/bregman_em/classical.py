"""Finite-alphabet exponential families as Bregman systems.

Two concrete systems cover the classical solvers:

* a simplex system: distributions on n points under a feature map,
  with the log-partition function as potential;
* a conditional system: channels W(y|x) against a fixed, strictly
  positive input distribution, one natural-parameter block per input
  symbol, weighted log-partition potential.

Both use indicator features of points 1..n-1 in their canonical form
(point 0 is the reference), which makes the natural/probability
conversions closed-form softmax/logit maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BregmanSystem
from .errors import ArgumentError, DomainError, RankError, SupportError

__all__ = [
    "ConditionalSystem",
    "FeasibilityReport",
    "SimplexSystem",
    "canonical_simplex_system",
    "conditional_expectation_constraint",
    "conditional_system",
    "distortion_feasibility",
    "floor_distribution",
    "kl_divergence",
    "mutual_information",
    "simplex_expectation_constraint",
    "simplex_system",
]

_RANK_RTOL = 1e-10


def _check_distribution(p, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ArgumentError(f"{name} must be a non-empty vector")
    if np.any(p <= 0.0):
        raise SupportError(f"{name} must be strictly positive")
    if abs(p.sum() - 1.0) > 1e-8:
        raise ArgumentError(f"{name} must sum to one")
    return p


def kl_divergence(p, q) -> float:
    """KL divergence in nats between distributions on the same
    alphabet; entries where p is zero contribute zero."""
    p = np.asarray(p, dtype=float).ravel()
    q = np.asarray(q, dtype=float).ravel()
    if p.shape != q.shape:
        raise ArgumentError("distributions must share a shape")
    mask = p > 0.0
    if np.any(q[mask] <= 0.0):
        return float("inf")
    value = float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
    return 0.0 if value < 1e-14 else value


def mutual_information(joint) -> float:
    """Mutual information in nats of a joint distribution matrix."""
    joint = np.asarray(joint, dtype=float)
    p_row = joint.sum(axis=1)
    p_col = joint.sum(axis=0)
    return kl_divergence(joint.ravel(), np.outer(p_row, p_col).ravel())


def _channel_theta(w) -> np.ndarray:
    """``log w[:, 1:] - log w[:, :1]`` of a strictly positive channel,
    input-major.  Taking logs first keeps a subnormal reference cell
    from overflowing the quotient ``w[:, 1:] / w[:, :1]``."""
    log_w = np.log(w)
    return (log_w[:, 1:] - log_w[:, :1]).ravel()


def floor_distribution(p, eps: float = 1e-12) -> np.ndarray:
    """Clamp entries below ``eps`` up to ``eps`` and renormalize.

    Preprocessing helper for inputs with zero cells; the solvers
    themselves require strict positivity.
    """
    p = np.asarray(p, dtype=float)
    if not eps > 0.0:
        raise ArgumentError("eps must be positive")
    q = np.maximum(p, eps)
    return q / q.sum()


class SimplexSystem(BregmanSystem):
    """Log-partition potential of an n-point exponential family.

    ``features`` has shape (n, d); together with the constant function
    it must have rank d+1, so that natural parameters are identified.
    """

    def __init__(self, features):
        features = np.asarray(features, dtype=float)
        if features.ndim != 2:
            raise ArgumentError("features must be a 2-d array")
        n, d = features.shape
        if d < 1 or n < 2:
            raise ArgumentError("need at least two points and one feature")
        if d > n - 1:
            raise RankError("at most n-1 independent features fit on "
                            "an n-point alphabet")
        augmented = np.concatenate([features, np.ones((n, 1))], axis=1)
        svals = np.linalg.svd(augmented, compute_uv=False)
        if svals[-1] <= _RANK_RTOL * svals[0]:
            raise RankError("features plus the constant function are "
                            "rank deficient")
        self.features = features
        self.n_points = n
        canonical = (d == n - 1
                     and np.array_equal(features, np.eye(n)[:, 1:]))
        self._canonical = canonical
        super().__init__(dim=d, name="simplex")

    def _scores(self, theta):
        return self.features @ np.asarray(theta, dtype=float)

    def distribution(self, theta) -> np.ndarray:
        """Probabilities of the n points at natural coordinates."""
        z = self._scores(theta)
        z = z - z.max()
        w = np.exp(z)
        return w / w.sum()

    def potential(self, theta):
        z = self._scores(theta)
        m = z.max()
        return m + np.log(np.exp(z - m).sum())

    def gradient(self, theta):
        return self.features.T @ self.distribution(theta)

    def hessian(self, theta):
        p = self.distribution(theta)
        eta = self.features.T @ p
        weighted = self.features * p[:, None]
        return self.features.T @ weighted - np.outer(eta, eta)

    @property
    def inverse_gradient(self):
        """Closed-form mixture-to-natural map for the canonical
        features, None otherwise."""
        return self._canonical_inverse_gradient if self._canonical else None

    def _canonical_inverse_gradient(self, eta):
        eta = np.asarray(eta, dtype=float)
        p0 = 1.0 - eta.sum()
        if p0 <= 0.0 or np.any(eta <= 0.0):
            raise DomainError("mixture coordinates outside the open "
                              "probability simplex")
        return np.log(eta / p0)


def simplex_system(features) -> SimplexSystem:
    """Simplex system for an explicit feature map (see
    :class:`SimplexSystem`)."""
    return SimplexSystem(features)


def canonical_simplex_system(n: int) -> SimplexSystem:
    """Simplex system on n points with indicator features of points
    1..n-1; conversions are closed-form."""
    if n < 2:
        raise ArgumentError("need at least two points")
    return SimplexSystem(np.eye(n)[:, 1:])


class ConditionalSystem(BregmanSystem):
    """Channels against a fixed input distribution.

    Natural coordinates hold one block of n2-1 parameters per input
    symbol (output 0 is the reference), laid out input-major.  Mixture
    coordinates are the joint probabilities of the cells (x, y>=1).
    """

    def __init__(self, p_x, n_outputs: int):
        p_x = _check_distribution(p_x, "p_x")
        if n_outputs < 2:
            raise ArgumentError("need at least two outputs")
        self.p_x = p_x
        self.n_inputs = p_x.size
        self.n_outputs = int(n_outputs)
        super().__init__(dim=self.n_inputs * (self.n_outputs - 1),
                         name="conditional")

    def _blocks(self, theta):
        theta = np.asarray(theta, dtype=float)
        return theta.reshape(self.n_inputs, self.n_outputs - 1)

    def channel(self, theta) -> np.ndarray:
        """Row-stochastic channel matrix W[x, y] at natural
        coordinates."""
        blocks = self._blocks(theta)
        scores = np.concatenate(
            [np.zeros((self.n_inputs, 1)), blocks], axis=1)
        scores = scores - scores.max(axis=1, keepdims=True)
        w = np.exp(scores)
        return w / w.sum(axis=1, keepdims=True)

    def joint(self, theta) -> np.ndarray:
        """Joint cell probabilities P_X(x) W(y|x)."""
        return self.p_x[:, None] * self.channel(theta)

    def theta_of_channel(self, w) -> np.ndarray:
        """Natural coordinates of a strictly positive row-stochastic
        channel."""
        w = np.asarray(w, dtype=float)
        if w.shape != (self.n_inputs, self.n_outputs):
            raise ArgumentError("channel shape mismatch")
        if np.any(w <= 0.0):
            raise SupportError("channel must be strictly positive")
        if np.max(np.abs(w.sum(axis=1) - 1.0)) > 1e-8:
            raise ArgumentError("channel rows must sum to one")
        return _channel_theta(w)

    def potential(self, theta):
        blocks = self._blocks(theta)
        m = np.maximum(blocks.max(axis=1), 0.0)
        z = np.exp(-m) + np.exp(blocks - m[:, None]).sum(axis=1)
        return float(self.p_x @ (m + np.log(z)))

    def gradient(self, theta):
        w = self.channel(theta)
        return (self.p_x[:, None] * w[:, 1:]).ravel()

    def hessian(self, theta):
        w = self.channel(theta)
        k = self.n_outputs - 1
        H = np.zeros((self.dim, self.dim))
        for x in range(self.n_inputs):
            wx = w[x, 1:]
            block = self.p_x[x] * (np.diag(wx) - np.outer(wx, wx))
            H[x * k:(x + 1) * k, x * k:(x + 1) * k] = block
        return H

    def inverse_gradient(self, eta):
        eta = np.asarray(eta, dtype=float)
        rest = eta.reshape(self.n_inputs, self.n_outputs - 1) \
            / self.p_x[:, None]
        w0 = 1.0 - rest.sum(axis=1)
        if np.any(w0 <= 0.0) or np.any(rest <= 0.0):
            raise DomainError("mixture coordinates outside the open "
                              "range of joint probabilities")
        return np.log(rest / w0[:, None]).ravel()


def conditional_system(p_x, n_outputs: int) -> ConditionalSystem:
    """Conditional system for channels with input law ``p_x`` and
    ``n_outputs`` output symbols."""
    return ConditionalSystem(p_x, n_outputs)


def simplex_expectation_constraint(values, target: float):
    """Rewrite ``E[v] = target`` as a mixture-coordinate constraint of
    a canonical simplex system.

    Returns the direction vector on coordinates 1..n-1 and the adjusted
    target.
    """
    values = np.asarray(values, dtype=float).ravel()
    return values[1:] - values[0], float(target) - float(values[0])


def conditional_expectation_constraint(p_x, values, target: float):
    """Rewrite ``E[v(X, Y)] = target`` as a mixture-coordinate
    constraint of a conditional system with input law ``p_x``."""
    p_x = np.asarray(p_x, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape[0] != p_x.size:
        raise ArgumentError("values must have one row per input symbol")
    direction = (values[:, 1:] - values[:, :1]).ravel()
    shift = float(p_x @ values[:, 0])
    return direction, float(target) - shift


@dataclass(frozen=True)
class FeasibilityReport:
    """Achievability of a distortion level.

    ``per_output`` holds the product-channel distortions
    d_Y(y) = sum_x P_X(x) d(x, y).  Product flags refer to channels
    that ignore the input; the achievable range covers all channels.
    With a side axis (a joint law ``p_xs[x, s]``), ``per_output[s, y]``
    is side symbol s's d_Y(y) under P(x|s), and ``min_product`` and
    ``max_product`` are the P_S-weighted sums of the per-side minima and
    maxima, so ``min_product`` is not ``per_output.min()``.
    """

    level: float
    per_output: np.ndarray
    min_product: float
    max_product: float
    product_feasible: bool
    equality_achievable_by_product: bool
    achievable_min: float
    achievable_max: float
    equality_feasible: bool


def distortion_feasibility(p_x, distortion, level: float) -> FeasibilityReport:
    """Feasibility report for the constraint ``E[d] (<)= level``.

    The closed achievable range is [sum_x P_X min_y d, sum_x P_X max_y
    d]; its interior is reached by strictly positive channels, the
    endpoints only by deterministic ones.  A 2-D ``p_x`` is a joint
    law ``p_xs[x, s]`` over input and decoder side symbols; the report
    then has a side axis (see :class:`FeasibilityReport`).
    """
    p = np.asarray(p_x, dtype=float)
    _check_distribution(p.ravel() if p.ndim == 2 else p, "p_x")
    d = np.asarray(distortion, dtype=float)
    if d.ndim != 2 or d.shape[0] != p.shape[0]:
        raise ArgumentError("distortion must have one row per input symbol")
    level = float(level)
    if p.ndim == 2:
        p_s = p.sum(axis=0)
        per_output = (p / p_s).T @ d
        lo = float(p_s @ per_output.min(axis=1))
        hi = float(p_s @ per_output.max(axis=1))
        p = p.sum(axis=1)
    else:
        per_output = p @ d
        lo = float(per_output.min())
        hi = float(per_output.max())
    achievable_min = float(p @ d.min(axis=1))
    achievable_max = float(p @ d.max(axis=1))
    return FeasibilityReport(
        level=level,
        per_output=per_output,
        min_product=lo,
        max_product=hi,
        product_feasible=lo <= level,
        equality_achievable_by_product=lo <= level <= hi,
        achievable_min=achievable_min,
        achievable_max=achievable_max,
        equality_feasible=achievable_min <= level <= achievable_max)
