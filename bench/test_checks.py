"""Tests of the benchmark's certificate and invariant checks, its span
recorder and its seeded inputs.

Run from the repository root:  python3 -m pytest bench
"""

import math
import os
import sys
import threading
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks      # noqa: E402
import tracing     # noqa: E402
import workloads   # noqa: E402

P = np.array(workloads.REF_P)
D = np.array(workloads.REF_D)
HAMMING = np.array([[0.0, 1.0], [1.0, 0.0]])


# --------------------------------------------------------------- bounds

def test_blahut_bound_never_exceeds_the_reference_rate():
    rng = np.random.default_rng(0)
    marginals = [np.full(3, 1.0 / 3.0)] + list(rng.dirichlet(np.ones(3),
                                                             size=50))
    for q in marginals:
        for s in np.linspace(-5.0, 5.0, 101):
            bound = checks.blahut_lower_bound(P, D, q, s, 1.5)
            assert bound <= workloads.REF_RATE + 1e-9


@pytest.mark.parametrize("level", [0.02, 0.1, 0.25, 0.45])
def test_blahut_bound_matches_binary_hamming_closed_form(level):
    slope = math.log(level / (1.0 - level))
    bound = checks.blahut_lower_bound([0.5, 0.5], HAMMING, [0.5, 0.5],
                                      slope, level)
    assert bound == pytest.approx(checks.binary_hamming_rate(level),
                                  abs=1e-12)
    assert checks.binary_hamming_rate(0.1) == pytest.approx(
        math.log(2.0) + 0.1 * math.log(0.1) + 0.9 * math.log(0.9))


def test_reference_gap_of_the_tightly_converged_solve():
    from bregman_em import EmOptions, solve_rd

    sol = solve_rd(P, D, 1.5, options=EmOptions(
        max_iterations=workloads.REF_MAX_ITER,
        objective_tolerance=workloads.REF_TOL))
    gap = sol.rate - checks.blahut_lower_bound(P, D, sol.output_marginal,
                                               sol.tau, 1.5)
    assert 5e-7 < gap < 1e-6          # about 7.6e-7 nats
    assert sol.rate - workloads.REF_RATE < 1e-9


def test_side_info_bound_with_one_side_symbol_is_blahut():
    q = np.array([0.2, 0.3, 0.5])
    assert checks.side_info_lower_bound(P.reshape(3, 1), D, q[None, :],
                                        0.4, 1.5) == pytest.approx(
        checks.blahut_lower_bound(P, D, q, 0.4, 1.5), abs=1e-14)


def test_side_info_bound_is_a_weighted_sum_over_side_symbols():
    p_xs = np.outer(P, [0.6, 0.4])
    q_rows = np.array([[0.2, 0.3, 0.5], [0.4, 0.4, 0.2]])
    s = -0.7
    expected = s * 1.5
    for k, weight in enumerate((0.6, 0.4)):
        expected += weight * (checks.blahut_lower_bound(
            P, D, q_rows[k], s, 0.0))
    assert checks.side_info_lower_bound(p_xs, D, q_rows, s, 1.5) \
        == pytest.approx(expected, abs=1e-14)


def test_multi_bound_clips_slopes_and_reduces_to_blahut():
    q = np.array([0.2, 0.3, 0.5])
    single = checks.multi_lower_bound(P, [D, D.T], [1.5, 9.0], q,
                                      [-0.5, 0.0])
    assert single == pytest.approx(
        checks.blahut_lower_bound(P, D, q, -0.5, 1.5), abs=1e-14)
    clipped = checks.multi_lower_bound(P, [D], [1.5], q, [0.8])
    assert clipped == pytest.approx(
        checks.blahut_lower_bound(P, D, q, 0.0, 1.5), abs=1e-14)


# ----------------------------------------------------------- invariants

def _tilted(q, s):
    w = q * np.exp(s * D)
    return w / w.sum(axis=1, keepdims=True)


def test_check_channel_accepts_a_consistent_solution():
    w = _tilted(np.full(3, 1.0 / 3.0), -0.3)
    level = float(np.sum(P[:, None] * w * D))
    rate = checks.mutual_information(P[:, None] * w)
    assert checks.check_channel(P, D, level, "equality", rate, w,
                                P @ w) is None
    assert checks.check_channel(P, D, level + 0.1, "inequality", rate, w,
                                P @ w) is None


@pytest.mark.parametrize("tamper, cause", [
    (lambda r, w, q, lv: (math.inf, w, q, lv), "non_finite"),
    (lambda r, w, q, lv: (r, w * 1.01, q, lv), "rows_not_stochastic"),
    (lambda r, w, q, lv: (r, w, q[::-1], lv), "marginal_off"),
    (lambda r, w, q, lv: (r, w, q, lv + 1e-3), "distortion_off"),
    (lambda r, w, q, lv: (r + 1e-3, w, q, lv), "rate_off"),
])
def test_check_channel_names_the_broken_invariant(tamper, cause):
    w = _tilted(np.array([0.2, 0.3, 0.5]), -0.3)
    level = float(np.sum(P[:, None] * w * D))
    rate = checks.mutual_information(P[:, None] * w)
    rate, w, q, level = tamper(rate, w, P @ w, level)
    assert checks.check_channel(P, D, level, "equality", rate, w, q) \
        == cause


def test_check_state_on_a_product_state_and_a_broken_one():
    rho_r = np.eye(2) / 2.0
    state = np.kron(rho_r, np.diag([0.7, 0.3]))
    level = float(np.trace(state @ workloads.BELL_DELTA).real)
    assert checks.check_state(rho_r, workloads.BELL_DELTA, level,
                              "equality", 0.0, state) is None
    assert checks.check_state(rho_r, workloads.BELL_DELTA, level,
                              "equality", 0.0, 1.1 * state) == "trace_off"
    negative = np.diag([0.6, 0.5, -0.1, 0.0])
    assert checks.check_state(rho_r, workloads.BELL_DELTA, level,
                              "equality", 0.0, negative) == "not_psd"


# --------------------------------------------------------------- tracing

def _span(recorder, name, seconds, inner=None):
    index = recorder.begin(name)
    if inner is not None:
        inner()
    time.sleep(seconds)
    recorder.end(index)


def test_self_time_subtracts_children():
    recorder = tracing.Recorder()
    _span(recorder, "outer", 0.02,
          lambda: _span(recorder, "inner", 0.03))
    totals = recorder.totals()
    calls, total, self_time = totals["outer"]
    assert calls == 1
    assert total >= 0.05
    assert self_time == pytest.approx(total - totals["inner"][1], abs=1e-9)
    assert recorder.spans[1][3] == 0       # inner's parent is outer


def test_worker_thread_spans_nest_under_the_waiting_span():
    recorder = tracing.Recorder()

    def workers():
        threads = [threading.Thread(target=_span, args=(recorder, "w", 0.05))
                   for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()

    _span(recorder, "main", 0.0, workers)
    assert [s[3] for s in recorder.spans if s[0] == "w"] == [0, 0]
    calls, total, self_time = recorder.totals()["main"]
    # the two workers overlap, so their union is covered only once
    assert self_time > -1e-9
    assert self_time < total - 0.04


def test_shims_count_and_restore():
    import bregman_em

    original = bregman_em.rate_distortion.bisect_to_tolerance
    recorder = tracing.Recorder()
    saved = tracing.install(recorder)
    try:
        sol = bregman_em.solve_rd(P, D, 1.5)
    finally:
        tracing.uninstall(saved)
    assert bregman_em.rate_distortion.bisect_to_tolerance is original
    assert not hasattr(bregman_em.cli, "print") or \
        bregman_em.cli.print is print
    assert recorder.counts["rate_distortion.rounds"] == len(
        sol.trace.records)
    assert recorder.counts["convex.fprime_evals"] > 0
    metrics = tracing.per_layer(recorder)
    assert metrics["rate_distortion.calls"] == (1, "count")
    assert metrics["convex.fprime_evals_per_round"][0] > 1.0


def test_facet_counts_of_the_closed_convex_projection():
    import bregman_em

    rng = workloads.Source(1)
    p = rng.dirichlet(np.ones(3))
    ds = [rng.uniform(0.0, 1.0, (3, 3)) for _ in range(3)]
    recorder = tracing.Recorder()
    saved = tracing.install(recorder)
    try:
        sol = bregman_em.solve_rd_multi(p, ds, workloads.multi_levels(
            rng, p, ds))
    finally:
        tracing.uninstall(saved)
    rounds = len(sol.trace.records)
    assert rounds > 0
    assert recorder.counts["families.winners"] == rounds
    # every round projects onto each of the seven non-empty facets
    assert recorder.counts["families.facets_projected"] == 7 * rounds
    ratio, _ = tracing.per_layer(recorder)["families.facet_useful_ratio"]
    assert ratio == pytest.approx(1.0 / 7.0)


def test_calls_name():
    assert tracing.calls_name("convex.self_s") == "convex.calls"
    assert tracing.calls_name("core.newton_s") == "core.newton.calls"


# ---------------------------------------------------------------- inputs

def test_same_seed_same_inputs_other_seed_other_inputs():
    first = workloads.Source(3)
    again = workloads.Source(3)
    other = workloads.Source(4)
    a, b, c = (s.uniform(0.0, 1.0, 5) for s in (first, again, other))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.allclose(a, c, atol=0.01)


def test_qrd_instances_are_feasible_by_construction():
    rng = workloads.Source(1)
    for d_r, d_b in ((2, 2), (2, 3), (3, 3)):
        rho_r, delta, level = workloads.qrd_instance(rng, d_r, d_b)
        assert np.allclose(np.trace(rho_r), 1.0)
        assert np.linalg.eigvalsh(delta)[0] <= level
