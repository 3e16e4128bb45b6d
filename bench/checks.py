"""Certificates and invariant checks for solver outputs, numpy only.

The certificate is Blahut's dual lower bound (Blahut 1972, "Computation
of channel capacity and rate-distortion functions", IEEE Trans. IT
18(4)): for any output law ``q`` and slope ``s``,

    R(D) >= s*D - sum_x p(x) log sum_y q(y) e^{s d(x,y)} - max_y log c_y,
    c_y  = sum_x p(x) e^{s d(x,y)} / sum_y' q(y') e^{s d(x,y')}.

It holds for every real ``s`` when the distortion is pinned to ``D``
(equality mode) and for ``s <= 0`` under a ceiling (inequality mode).
``rate - bound`` is then an upper bound on the gap of a returned
solution to the optimum, independent of the solver's own stop rule.

The invariant checks return a short cause string for the first broken
invariant, or None.
"""

from __future__ import annotations

import math

import numpy as np

ROW_TOL = 1e-9
LEVEL_TOL = 1e-7
RATE_TOL = 1e-6
STATE_TOL = 1e-8


def _log_partition(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-row ``log sum_y q(y) e^{a(x,y)}``, overflow-shifted."""
    m = a.max(axis=1)
    return m + np.log((q * np.exp(a - m[:, None])).sum(axis=1))


def _dual_terms(p, a, q):
    """``(sum_x p(x) log Z(x), max_y log c_y)`` for exponents ``a``."""
    log_z = _log_partition(a, q)
    c = (p[:, None] * np.exp(a - log_z[:, None])).sum(axis=0)
    return float(p @ log_z), float(np.log(c).max())


def blahut_lower_bound(p_x, distortion, q, s: float, level: float) -> float:
    """Blahut's lower bound on R(level) from an output law and slope."""
    p = np.asarray(p_x, dtype=float)
    d = np.asarray(distortion, dtype=float)
    mean_log_z, max_log_c = _dual_terms(p, s * d, np.asarray(q, float))
    return s * level - mean_log_z - max_log_c


def side_info_lower_bound(p_xs, distortion, q_rows, s: float,
                          level: float) -> float:
    """Blahut's bound summed over side symbols with one shared slope:
    a lower bound on the conditional rate-distortion function."""
    p_xs = np.asarray(p_xs, dtype=float)
    d = np.asarray(distortion, dtype=float)
    q_rows = np.asarray(q_rows, dtype=float)
    total = s * level
    for k in range(p_xs.shape[1]):
        p_s = float(p_xs[:, k].sum())
        mean_log_z, max_log_c = _dual_terms(p_xs[:, k] / p_s, s * d,
                                            q_rows[k])
        total -= p_s * (mean_log_z + max_log_c)
    return total


def multi_lower_bound(p_x, distortions, levels, q, slopes) -> float:
    """Blahut's bound for several distortion ceilings; each slope is
    clipped to be non-positive, as the ceilings require."""
    p = np.asarray(p_x, dtype=float)
    slopes = np.minimum(np.asarray(slopes, dtype=float), 0.0)
    a = sum(s * np.asarray(d, dtype=float)
            for s, d in zip(slopes, distortions))
    mean_log_z, max_log_c = _dual_terms(p, a, np.asarray(q, float))
    return float(slopes @ np.asarray(levels, float)) - mean_log_z \
        - max_log_c


def mutual_information(joint) -> float:
    joint = np.asarray(joint, dtype=float)
    prod = np.outer(joint.sum(axis=1), joint.sum(axis=0))
    mask = joint > 0.0
    return float(np.sum(joint[mask] * np.log(joint[mask] / prod[mask])))


def binary_hamming_rate(level: float) -> float:
    """Closed form log 2 - h(level) of the uniform binary source under
    Hamming distortion, for 0 < level < 1/2."""
    h = -level * math.log(level) - (1 - level) * math.log(1 - level)
    return math.log(2.0) - h


def _level_cause(value, level, mode) -> str | None:
    if mode == "inequality":
        return None if value <= level + LEVEL_TOL else "distortion_above"
    return None if abs(value - level) <= LEVEL_TOL else "distortion_off"


def check_channel(p_x, distortion, level, mode, rate, channel,
                  output_marginal) -> str | None:
    """Invariants of a classical solution: finite values, stochastic
    rows, the reference marginal equal to ``p_x @ channel``, the
    distortion at its level and the rate equal to the channel's mutual
    information."""
    p = np.asarray(p_x, dtype=float)
    w = np.asarray(channel, dtype=float)
    q = np.asarray(output_marginal, dtype=float)
    if not (math.isfinite(rate) and np.all(np.isfinite(w))
            and np.all(np.isfinite(q))):
        return "non_finite"
    if np.any(w < 0.0) or np.max(np.abs(w.sum(axis=-1) - 1.0)) > ROW_TOL:
        return "rows_not_stochastic"
    if np.max(np.abs(p @ w - q)) > ROW_TOL:
        return "marginal_off"
    cause = _level_cause(float(np.sum(p[:, None] * w *
                                      np.asarray(distortion, float))),
                         level, mode)
    if cause:
        return cause
    if abs(mutual_information(p[:, None] * w) - rate) > RATE_TOL:
        return "rate_off"
    return None


def check_side_info(p_xs, distortion, level, mode, rate, channel,
                    output_marginal) -> str | None:
    """Invariants of a side-information solution (channel [s][x][y])."""
    p_xs = np.asarray(p_xs, dtype=float)
    w = np.asarray(channel, dtype=float)
    q = np.asarray(output_marginal, dtype=float)
    if not (math.isfinite(rate) and np.all(np.isfinite(w))
            and np.all(np.isfinite(q))):
        return "non_finite"
    if np.any(w < 0.0) or np.max(np.abs(w.sum(axis=-1) - 1.0)) > ROW_TOL:
        return "rows_not_stochastic"
    p_s = p_xs.sum(axis=0)
    if np.max(np.abs(np.einsum("xs,sxy->sy", p_xs / p_s, w) - q)) \
            > ROW_TOL:
        return "marginal_off"
    d = np.asarray(distortion, dtype=float)
    cause = _level_cause(float(np.einsum("xs,sxy,xy->", p_xs, w, d)),
                         level, mode)
    if cause:
        return cause
    cond = sum(p_s[k] * mutual_information((p_xs[:, k] / p_s[k])[:, None]
                                           * w[k])
               for k in range(p_xs.shape[1]))
    if abs(cond - rate) > RATE_TOL:
        return "rate_off"
    return None


def check_state(rho_r, delta, level, mode, rate, state) -> str | None:
    """Invariants of a quantum solution: finite, Hermitian, PSD with
    unit trace, reference marginal held, distortion at its level."""
    rho = np.asarray(state, dtype=complex)
    if not (math.isfinite(rate) and np.all(np.isfinite(rho))):
        return "non_finite"
    if np.max(np.abs(rho - rho.conj().T)) > STATE_TOL:
        return "not_hermitian"
    if abs(np.trace(rho).real - 1.0) > STATE_TOL:
        return "trace_off"
    if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0] < -STATE_TOL:
        return "not_psd"
    d_r = np.asarray(rho_r).shape[0]
    d_b = rho.shape[0] // d_r
    marginal = np.einsum("ijkj->ik", rho.reshape(d_r, d_b, d_r, d_b))
    if np.max(np.abs(marginal - rho_r)) > STATE_TOL:
        return "marginal_off"
    return _level_cause(float(np.trace(rho @ delta).real), level, mode)
