"""Command-line interface: problem files, exit codes, JSON summaries,
trace files, and the bound checker."""

import io
import json
import math
import threading
from pathlib import Path

import numpy as np
import pytest

from bregman_em import (ArgumentError, DensityMatrix, FormatError,
                        RankError, SchemaError, SupportError, cli,
                        load_problem, mutual_information, verify_bounds,
                        write_trace_csv)
from bregman_em.cli import main

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

RD_PROBLEM = {
    "schema_version": "1",
    "kind": "rd",
    "payload": {
        "p_x": [0.5, 0.3, 0.2],
        "distortion": [[0.0, 1.0, 2.0], [1.0, 2.0, 0.0], [3.0, 0.0, 1.0]],
        "level": 1.5,
        "mode": "equality",
    },
    "options": {"max_iterations": 2000, "objective_tolerance": 1e-12},
}

BINARY_PROBLEM = {
    "schema_version": "1",
    "kind": "rd",
    "payload": {
        "p_x": [0.5, 0.5],
        "distortion": [[0.0, 1.0], [1.0, 0.0]],
        "level": 0.1,
    },
    "options": {},
}

# four-cell simplex, two tilt directions, one mean constraint
EM_GENERIC_PROBLEM = {
    "schema_version": "1",
    "kind": "em_generic",
    "payload": {
        "n_points": 4,
        "exp_anchor": [0.0, 0.0, 0.0],
        "exp_generators": [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]],
        "mix_directions": [[1.0, 2.0, 4.0]],
        "mix_targets": [2.4],
        "theta_init": [0.0, 0.0, 0.0],
    },
    "options": {"max_iterations": 500,
                "objective_tolerance": 1e-13},
}

RD_MULTI_PROBLEM = {
    "schema_version": "1",
    "kind": "rd_multi",
    "payload": {
        "p_x": [0.5, 0.3, 0.2],
        "distortions": [RD_PROBLEM["payload"]["distortion"]],
        "levels": [0.5],
    },
    "options": {},
}

RD_SIDE_INFO_PROBLEM = {
    "schema_version": "1",
    "kind": "rd_side_info",
    "payload": {
        "p_xs": [[0.3, 0.2], [0.18, 0.12], [0.12, 0.08]],
        "distortion": RD_PROBLEM["payload"]["distortion"],
        "level": 1.5,
    },
    "options": {"max_iterations": 2000,
                "objective_tolerance": 1e-12},
}

RD_FULLDIM_PROBLEM = {
    "schema_version": "1",
    "kind": "rd_fulldim",
    "payload": {
        "p_x": RD_PROBLEM["payload"]["p_x"],
        "distortion": RD_PROBLEM["payload"]["distortion"],
        "level": 1.5,
    },
    "options": {},
}


def write_problem(tmp_path, data, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def binary_entropy(p):
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


# ------------------------------------------------------------- run


def test_run_bundled_three_symbol_example(capsys):
    code, out, _ = run_cli(capsys, "run",
                           str(EXAMPLES / "hayashi_5_2.json"))
    assert code == 0
    summary = json.loads(out)
    assert summary["status"] == "converged"
    assert summary["kind"] == "rd"
    assert summary["mode"] == "equality"
    assert summary["rate_nats"] == pytest.approx(0.100039, abs=1e-4)
    assert summary["tau"] == pytest.approx(0.522814, abs=1e-4)
    assert np.allclose(summary["output_marginal"],
                       [0.185555, 0.288401, 0.526045], atol=1e-3)
    assert np.array(summary["channel"]).shape == (3, 3)
    assert summary["constraint_residual"] <= 1e-9
    assert summary["converged"] is True


def test_run_bundled_binary_example(capsys):
    code, out, _ = run_cli(capsys, "run",
                           str(EXAMPLES / "binary_hamming.json"))
    assert code == 0
    summary = json.loads(out)
    assert summary["rate_nats"] == pytest.approx(
        math.log(2.0) - binary_entropy(0.1), abs=1e-6)


def test_summary_reingestion_round_trip(tmp_path, capsys):
    path = write_problem(tmp_path, RD_PROBLEM)
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 0
    summary = json.loads(out)
    p_x = np.array(RD_PROBLEM["payload"]["p_x"])
    channel = np.array(summary["channel"])
    # full-precision floats survive the JSON round trip
    assert mutual_information(p_x[:, None] * channel) == pytest.approx(
        summary["rate_nats"], abs=1e-12)
    assert np.allclose(p_x @ channel, summary["output_marginal"],
                       atol=1e-12)


def test_bits_flag_is_display_only(tmp_path, capsys):
    path = write_problem(tmp_path, RD_PROBLEM)
    _, plain_out, _ = run_cli(capsys, "run", str(path))
    code, bits_out, _ = run_cli(capsys, "run", str(path), "--bits")
    assert code == 0
    plain = json.loads(plain_out)
    bits = json.loads(bits_out)
    assert bits["rate_nats"] == plain["rate_nats"]
    assert bits["rate_bits"] == pytest.approx(
        bits["rate_nats"] / math.log(2.0), abs=1e-15)
    assert "rate_bits" not in plain


def test_mode_override(tmp_path, capsys):
    path = write_problem(tmp_path, RD_PROBLEM)
    code, out, _ = run_cli(capsys, "run", str(path), "--mode", "inequality")
    assert code == 0
    assert json.loads(out)["rate_nats"] == 0.0


def test_eps_selects_budgeted_solver(tmp_path, capsys):
    path = write_problem(tmp_path, RD_PROBLEM)
    code, out, _ = run_cli(capsys, "run", str(path), "--eps", "0.05")
    assert code == 0
    summary = json.loads(out)
    assert "guarantee_nats" in summary
    assert summary["guarantee_nats"] == pytest.approx(0.100039, abs=0.05)


def test_exit_codes(tmp_path, capsys):
    infeasible = json.loads(json.dumps(RD_PROBLEM))
    infeasible["payload"]["level"] = -1.0
    code, out, _ = run_cli(capsys, "run",
                           str(write_problem(tmp_path, infeasible)))
    assert code == 2
    assert json.loads(out)["status"] == "infeasible"

    path = write_problem(tmp_path, RD_PROBLEM, "slow.json")
    code, out, _ = run_cli(capsys, "run", str(path), "--max-iter", "3",
                           "--tol", "0.0")
    assert code == 3
    assert json.loads(out)["status"] == "did_not_converge"


@pytest.mark.parametrize("problem", ["rd", "qrd"])
def test_nan_level_exits_1(problem, tmp_path, capsys):
    # json reads NaN; unchecked, it would give a "converged" rate-zero
    # answer (rd, inequality) or a numpy error inside the Newton solve
    if problem == "rd":
        data = json.loads(json.dumps(RD_PROBLEM))
    else:
        data = json.loads((EXAMPLES / "qrd_bell.json").read_text())
    data["payload"].update(level=math.nan, mode="inequality")
    code, out, err = run_cli(capsys, "run",
                             str(write_problem(tmp_path, data)))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "finite" in err


# a full-dimensional problem whose optimal support leaves an output
# empty, so the generic engine's e-step raises SupportError
FULLDIM_SUPPORT_PROBLEM = {
    "schema_version": "1",
    "kind": "rd_fulldim",
    "payload": {
        "p_x": [0.06451920644747404, 0.5217248716372482,
                0.41375592191527794],
        "distortion": [
            [0.2622657741458167, 0.17449315724509182, 0.09896407932446129],
            [0.04300506307519655, 0.20769144806992057, 0.3299808581491733],
            [0.24489457772218493, 0.7374278195734223, 0.5684990634903012]],
        "level": 0.13855828637135725,
    },
    "options": {},
}


def test_support_error_exits_as_did_not_converge(tmp_path, capsys):
    path = write_problem(tmp_path, FULLDIM_SUPPORT_PROBLEM)
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 3
    summary = json.loads(out)
    assert summary["status"] == "did_not_converge"
    assert "support" in summary["error"]
    assert err == ""


def test_summary_reports_the_certified_gap(tmp_path, capsys):
    path = write_problem(tmp_path, RD_PROBLEM)
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 0
    gap = json.loads(out)["gap_nats"]
    assert abs(gap) <= 1e-12
    code, out, _ = run_cli(capsys, "run", str(path), "--eps", "0.05")
    assert code == 0
    assert json.loads(out)["gap_nats"] is None
    slack = json.loads(json.dumps(RD_PROBLEM))
    slack["payload"]["mode"] = "inequality"
    code, out, _ = run_cli(capsys, "run",
                           str(write_problem(tmp_path, slack, "slack.json")))
    assert code == 0
    summary = json.loads(out)
    assert summary["iterations"] == 0 and summary["gap_nats"] == 0.0


def test_trace_with_a_finishing_round_has_one_row_per_round(
        tmp_path, capsys):
    # an 8-symbol problem whose optimum leaves outputs empty: the last
    # round is the finishing Newton step
    rng = np.random.default_rng(5)
    p = rng.dirichlet(np.ones(8))
    d = rng.uniform(0.0, 1.0, (8, 8))
    lo, hi = float(p @ d.min(axis=1)), float((p @ d).min())
    problem = {"schema_version": "1", "kind": "rd",
               "payload": {"p_x": p.tolist(), "distortion": d.tolist(),
                           "level": lo + 0.3 * (hi - lo)}}
    trace = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, "run",
                           str(write_problem(tmp_path, problem)),
                           "--trace", str(trace))
    assert code == 0
    summary = json.loads(out)
    rows = trace.read_text().splitlines()
    assert len(rows) - 1 == summary["iterations"] - 1
    assert float(rows[-1].split(",")[-1]) == summary["gap_nats"]
    assert min(summary["output_marginal"]) == 0.0


def test_schema_errors_name_the_field(tmp_path, capsys):
    cases = [
        ({**RD_PROBLEM, "bogus": 1}, "bogus"),
        ({k: v for k, v in RD_PROBLEM.items() if k != "kind"}, "kind"),
        ({**RD_PROBLEM, "schema_version": "2"}, "schema_version"),
        ({**RD_PROBLEM, "kind": "qkd"}, "kind"),
        ({**RD_PROBLEM, "payload": {**RD_PROBLEM["payload"],
                                    "weights": [1]}}, "payload.weights"),
        ({**RD_PROBLEM, "payload": {
            k: v for k, v in RD_PROBLEM["payload"].items()
            if k != "level"}}, "payload.level"),
        ({**RD_PROBLEM, "options": {"verbosity": 3}}, "options.verbosity"),
        ({**RD_PROBLEM, "payload": []}, "payload"),
    ]
    for data, needle in cases:
        path = write_problem(tmp_path, data)
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == 1
        assert needle in err


@pytest.mark.parametrize("field, data", [
    ("payload.level", {**RD_PROBLEM, "payload": {**RD_PROBLEM["payload"],
                                                 "level": "abc"}}),
    ("payload.level", {**RD_PROBLEM, "payload": {**RD_PROBLEM["payload"],
                                                 "level": [0.1]}}),
    ("options.max_iterations", {**RD_PROBLEM,
                                "options": {"max_iterations": "x"}}),
], ids=["level-text", "level-list", "max-iterations-text"])
def test_fields_that_are_not_numbers_exit_1(field, data, tmp_path, capsys):
    code, out, err = run_cli(capsys, "run",
                             str(write_problem(tmp_path, data)))
    assert code == 1
    assert out == ""
    assert field in err and "number" in err


def test_jointly_unreachable_ceilings_exit_2(tmp_path, capsys):
    # each ceiling alone is reachable, but E d1 + E d2 = 1 > 0.4
    d1 = [[0.0, 1.0], [1.0, 0.0]]
    problem = {**RD_MULTI_PROBLEM, "payload": {
        "p_x": [0.5, 0.5], "distortions": [d1, (1.0 - np.array(d1)).tolist()],
        "levels": [0.2, 0.2]}}
    code, out, _ = run_cli(capsys, "run",
                           str(write_problem(tmp_path, problem)))
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "infeasible"
    assert "ceiling" in report["error"]


def test_unreadable_problem_files(tmp_path, capsys):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _, err = run_cli(capsys, "run", str(garbled))
    assert code == 1
    assert "not valid JSON" in err
    code, _, err = run_cli(capsys, "run", str(tmp_path / "absent.json"))
    assert code == 1
    assert "cannot read" in err


# ------------------------------------------------------------- trace


def test_trace_file_and_verification(tmp_path, capsys):
    problem = write_problem(tmp_path, RD_PROBLEM)
    trace = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, "run", str(problem), "--trace",
                           str(trace))
    assert code == 0
    rate = json.loads(out)["rate_nats"]
    lines = trace.read_text().splitlines()
    assert lines[0] == ("t,objective,pre_e_objective,bound,tau_0,"
                        "constraint_residual_max,gap")
    first = lines[1].split(",")
    assert int(first[0]) == 2
    assert float(first[3]) == pytest.approx(math.log(3.0), abs=1e-15)

    code, out, _ = run_cli(capsys, "verify-bounds", str(trace),
                           "--reference", repr(rate))
    assert code == 0
    assert "rows checked" in out
    assert "within bound" in out
    code, out, _ = run_cli(capsys, "verify-bounds", str(trace),
                           "--reference", repr(rate),
                           "--cardinality", "3")
    assert code == 0


def test_verify_detects_injected_violation(tmp_path, capsys):
    problem = write_problem(tmp_path, RD_PROBLEM)
    trace = tmp_path / "trace.csv"
    _, out, _ = run_cli(capsys, "run", str(problem), "--trace", str(trace))
    rate = json.loads(out)["rate_nats"]
    lines = trace.read_text().splitlines()
    cells = lines[3].split(",")
    cells[1] = repr(float(cells[1]) + 0.5)
    lines[3] = ",".join(cells)
    trace.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "verify-bounds", str(trace),
                           "--reference", repr(rate))
    assert code == 1
    assert "first violation: t=4" in out


def test_trace_byte_determinism(tmp_path, capsys):
    problem = write_problem(tmp_path, RD_PROBLEM)
    blobs = []
    for name in ("a.csv", "b.csv"):
        trace = tmp_path / name
        code, _, _ = run_cli(capsys, "run", str(problem), "--trace",
                             str(trace))
        assert code == 0
        blobs.append(trace.read_bytes())
    assert blobs[0] == blobs[1]
    assert b"\r" not in blobs[0]


def test_trace_conflicts_with_sweep(tmp_path, capsys):
    problem = write_problem(tmp_path, RD_PROBLEM)
    code, _, err = run_cli(capsys, "run", str(problem), "--sweep",
                           "0.5:1.0:3", "--trace",
                           str(tmp_path / "t.csv"))
    assert code == 1
    assert "--trace" in err


# every kind's problem and the solver name the command line calls for it
TRACED_KINDS = {
    "rd": (RD_PROBLEM, "solve_rd"),
    "rd_side_info": (RD_SIDE_INFO_PROBLEM, "solve_rd_side_info"),
    "rd_fulldim": (RD_FULLDIM_PROBLEM, "solve_rd_fulldim"),
    "rd_multi": (RD_MULTI_PROBLEM, "solve_rd_multi"),
    "qrd": (json.loads((EXAMPLES / "qrd_bell.json").read_text()),
            "solve_qrd"),
    "em_generic": (EM_GENERIC_PROBLEM, "run_em"),
}


@pytest.mark.parametrize("kind", sorted(TRACED_KINDS))
def test_every_kind_traces_in_the_engine_format(kind, tmp_path, capsys,
                                                 monkeypatch):
    problem, solver = TRACED_KINDS[kind]
    assert problem["kind"] == kind
    solve = getattr(cli, solver)
    results = []

    def recording(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, solver, recording)
    trace = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, "run",
                           str(write_problem(tmp_path, problem)),
                           "--trace", str(trace))
    assert code == 0
    (result,) = results
    expected = io.StringIO()
    write_trace_csv(getattr(result, "trace", result), expected)
    assert trace.read_bytes() == expected.getvalue().encode()
    rows = trace.read_text().splitlines()[1:]
    assert len(rows) == json.loads(out)["iterations"] - 1


# ------------------------------------------------------------- sweep


def test_sweep_orders_entries_by_level(tmp_path, capsys):
    problem = write_problem(tmp_path, BINARY_PROBLEM)
    code, out, _ = run_cli(capsys, "run", str(problem), "--sweep",
                           "0.05:0.45:5", "--bits")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "converged"
    levels = [e["level"] for e in report["sweep"]]
    assert levels == pytest.approx(list(np.linspace(0.05, 0.45, 5)))
    rates = [e["rate_nats"] for e in report["sweep"]]
    assert all(a > b for a, b in zip(rates, rates[1:]))
    for entry in report["sweep"]:
        assert entry["status"] == "converged"
        assert entry["rate_bits"] == pytest.approx(
            entry["rate_nats"] / math.log(2.0), abs=1e-15)
        assert entry["rate_nats"] == pytest.approx(
            math.log(2.0) - binary_entropy(entry["level"]), abs=1e-6)


def test_sweep_reports_per_level_status(tmp_path, capsys):
    problem = write_problem(tmp_path, BINARY_PROBLEM)
    code, out, _ = run_cli(capsys, "run", str(problem),
                           "--sweep=-0.1:0.3:3")
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "infeasible"
    statuses = [e["status"] for e in report["sweep"]]
    assert statuses == ["infeasible", "converged", "converged"]


def test_sweep_runs_levels_serially_and_stops_at_an_error(
        tmp_path, capsys, monkeypatch):
    solve = cli._solve_single
    calls = []
    failure = {}

    def recording(kind, payload, mode, options, eps, extra, level):
        calls.append((level, threading.current_thread()))
        if level > 0.2 and failure:
            raise failure["error"]
        return solve(kind, payload, mode, options, eps, extra, level)

    monkeypatch.setattr(cli, "_solve_single", recording)
    problem = write_problem(tmp_path, BINARY_PROBLEM)
    grid = list(np.linspace(0.05, 0.45, 5))

    # a numerical failure is that level's entry, and the sweep goes on
    failure["error"] = SupportError("empty output cell")
    code, out, err = run_cli(capsys, "run", str(problem), "--sweep",
                             "0.05:0.45:5")
    assert code == 3
    report = json.loads(out)
    assert report["status"] == "did_not_converge"
    assert [e["status"] for e in report["sweep"]] == (
        ["converged"] * 2 + ["did_not_converge"] * 3)
    assert all(e["error"] == "empty output cell"
               for e in report["sweep"][2:])
    assert err == ""
    levels = [level for level, _ in calls]
    assert levels == pytest.approx(grid)
    assert all(thread is threading.main_thread() for _, thread in calls)

    # any other error ends the sweep at the level that raised it
    calls.clear()
    failure["error"] = RankError("dependent constraints")
    code, out, err = run_cli(capsys, "run", str(problem), "--sweep",
                             "0.05:0.45:5")
    assert code == 1
    assert out == ""
    assert "dependent constraints" in err
    levels = [level for level, _ in calls]
    assert levels == pytest.approx(grid[:3])
    assert levels == sorted(levels)
    assert all(thread is threading.main_thread() for _, thread in calls)


def test_sweep_spec_validation(tmp_path, capsys):
    problem = write_problem(tmp_path, BINARY_PROBLEM)
    for spec in ("0.1:0.3", "a:b:3", "0.1:0.3:0"):
        code, _, err = run_cli(capsys, "run", str(problem), "--sweep", spec)
        assert code == 1
        assert "--sweep" in err


# ------------------------------------------------------ other kinds


def test_qrd_kind(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "run", str(EXAMPLES / "qrd_bell.json"))
    assert code == 0
    summary = json.loads(out)
    assert summary["rate_nats"] == pytest.approx(0.5 * math.log(4.0 / 3.0),
                                                 abs=1e-6)
    assert len(summary["output_state_interleaved"]) == 8
    assert len(summary["state_interleaved"]) == 32
    state = DensityMatrix.from_interleaved(summary["state_interleaved"], 4)
    assert np.allclose(np.sort(state.eigenvalues()),
                       [1 / 6, 1 / 6, 1 / 6, 0.5], atol=1e-6)

    trace = tmp_path / "qrd_trace.csv"
    code, _, _ = run_cli(capsys, "run", str(EXAMPLES / "qrd_bell.json"),
                         "--trace", str(trace))
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[0].startswith("t,objective,pre_e_objective,bound,tau_0,")
    last = dict(zip(lines[0].split(","), lines[-1].split(",")))
    # the reference marginal is held and the distortion met
    assert float(last["constraint_residual_max"]) < 1e-6


def test_qrd_unreachable_level_exits_2(tmp_path, capsys):
    # inside the observable's spectrum, but no joint state with this
    # reference marginal reaches it: infeasible, not malformed input
    def interleaved(diagonal):
        return np.stack([np.diag(diagonal), np.zeros((len(diagonal),) * 2)],
                        axis=-1).ravel().tolist()

    problem = {"schema_version": "1", "kind": "qrd",
               "payload": {"rho_r": interleaved([0.9, 0.1]), "d_r": 2,
                           "d_b": 2, "delta": interleaved([0.0, 1.0, 1.0,
                                                           1.0]),
                           "level": 0.05, "mode": "equality"},
               "options": {}}
    code, out, _ = run_cli(capsys, "run",
                           str(write_problem(tmp_path, problem)))
    assert code == 2
    assert json.loads(out)["status"] == "infeasible"


def test_em_generic_kind(tmp_path, capsys):
    path = write_problem(tmp_path, EM_GENERIC_PROBLEM)
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 0
    summary = json.loads(out)
    assert summary["kind"] == "em_generic"
    assert summary["converged"] is True
    assert summary["objective_nats"] >= 0.0
    assert summary["constraint_residual"] <= 1e-8
    assert len(summary["final_theta"]) == 3

    code, _, err = run_cli(capsys, "run", str(path), "--mode", "equality")
    assert code == 1 and "--mode" in err
    code, _, err = run_cli(capsys, "run", str(path), "--sweep", "0:1:2")
    assert code == 1 and "--sweep" in err


def test_em_generic_with_feature_system(tmp_path, capsys):
    # one-dimensional feature family: the families intersect, so the
    # objective collapses to zero
    problem = {
        "schema_version": "1",
        "kind": "em_generic",
        "payload": {
            "features": [[0.0], [1.0], [2.0], [4.0]],
            "exp_anchor": [0.0],
            "exp_generators": [[1.0]],
            "mix_directions": [[1.0]],
            "mix_targets": [2.4],
            "theta_init": [0.0],
        },
        "options": {},
    }
    path = write_problem(tmp_path, problem)
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 0
    summary = json.loads(out)
    assert summary["objective_nats"] <= 1e-12
    assert summary["converged"] is True


def test_rd_multi_kind(tmp_path, capsys):
    path = write_problem(tmp_path, RD_MULTI_PROBLEM)
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 0
    summary = json.loads(out)
    assert summary["mode"] == "inequality"
    assert summary["active_constraints"] == [0]
    assert isinstance(summary["distortion"], list)
    # the certified loop reports its gap and writes a gap column
    assert abs(summary["gap_nats"]) <= 1e-10
    trace = tmp_path / "multi.csv"
    assert run_cli(capsys, "run", str(path), "--trace", str(trace))[0] == 0
    assert trace.read_text().splitlines()[0].split(",")[-1] == "gap"
    code, _, err = run_cli(capsys, "run", str(path), "--mode", "equality")
    assert code == 1 and "inequality" in err
    code, _, err = run_cli(capsys, "run", str(path), "--eps", "0.01")
    assert code == 1 and "--eps" in err


def test_rd_side_info_kind(tmp_path, capsys):
    path = write_problem(tmp_path, RD_SIDE_INFO_PROBLEM)
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 0
    summary = json.loads(out)
    assert summary["rate_nats"] == pytest.approx(0.100039, abs=1e-4)


def test_rd_fulldim_kind(tmp_path, capsys):
    path = write_problem(tmp_path, RD_FULLDIM_PROBLEM)
    trace = tmp_path / "full.csv"
    code, out, _ = run_cli(capsys, "run", str(path), "--trace", str(trace))
    assert code == 0
    summary = json.loads(out)
    assert summary["rate_nats"] == pytest.approx(0.100039, abs=1e-4)
    assert len(summary["tau"]) == 3
    lines = trace.read_text().splitlines()
    assert lines[0] == ("t,objective,pre_e_objective,bound,tau_0,tau_1,"
                        "tau_2,constraint_residual_max")
    last = dict(zip(lines[0].split(","), lines[-1].split(",")))
    # the input marginal is pinned and the distortion met
    assert float(last["constraint_residual_max"]) < 1e-6


# ----------------------------------------------------- verify-bounds


def test_verify_bounds_library_interface(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text("t,objective,bound\n"
                     "2,0.6,0.5\n"
                     "3,0.2,0.3\n")
    report = verify_bounds(trace, 0.0)
    assert report.rows == 2
    assert report.max_slack == pytest.approx(0.1, abs=1e-15)
    assert report.max_slack_t == 2
    assert report.first_violation_t == 2
    assert not report.ok
    assert verify_bounds(trace, 0.0, tolerance=0.2).ok
    # recomputed bounds with an explicit cardinality
    report = verify_bounds(trace, 0.0, cardinality=3)
    assert report.ok == (0.6 - math.log(3.0) <= 1e-9)


def test_verify_bounds_malformed_traces(tmp_path):
    with pytest.raises(FormatError):
        verify_bounds(tmp_path / "missing.csv", 0.0)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(FormatError):
        verify_bounds(empty, 0.0)
    no_t = tmp_path / "no_t.csv"
    no_t.write_text("step,objective,bound\n1,0.5,0.6\n")
    with pytest.raises(FormatError):
        verify_bounds(no_t, 0.0)
    no_objective = tmp_path / "no_obj.csv"
    no_objective.write_text("t,value,bound\n2,0.5,0.6\n")
    with pytest.raises(FormatError):
        verify_bounds(no_objective, 0.0)
    no_bound = tmp_path / "no_bound.csv"
    no_bound.write_text("t,objective\n2,0.5\n")
    with pytest.raises(FormatError):
        verify_bounds(no_bound, 0.0)
    assert verify_bounds(no_bound, 0.5, cardinality=2).ok
    with pytest.raises(ArgumentError):
        verify_bounds(no_bound, 0.5, cardinality=1)
    blank_bound = tmp_path / "blank.csv"
    blank_bound.write_text("t,objective,bound\n2,0.5,\n")
    with pytest.raises(FormatError):
        verify_bounds(blank_bound, 0.0)
    garbled = tmp_path / "garbled.csv"
    garbled.write_text("t,objective,bound\ntwo,0.5,0.6\n")
    with pytest.raises(FormatError):
        verify_bounds(garbled, 0.0)
    header_only = tmp_path / "header.csv"
    header_only.write_text("t,objective,bound\n")
    with pytest.raises(FormatError):
        verify_bounds(header_only, 0.0)
    low_t = tmp_path / "low_t.csv"
    low_t.write_text("t,objective\n1,0.5\n")
    with pytest.raises(FormatError):
        verify_bounds(low_t, 0.0, cardinality=2)


def test_load_problem_round_trip(tmp_path):
    data = load_problem(EXAMPLES / "hayashi_5_2.json")
    assert data["kind"] == "rd"
    assert data["payload"]["level"] == 1.5
    assert data["options"]["max_iterations"] == 2000
    both = {
        "schema_version": "1",
        "kind": "em_generic",
        "payload": {
            "features": [[0.0], [1.0]],
            "n_points": 2,
            "exp_anchor": [0.0],
            "exp_generators": [[1.0]],
            "mix_directions": [[1.0]],
            "mix_targets": [0.5],
            "theta_init": [0.0],
        },
    }
    with pytest.raises(SchemaError):
        load_problem(write_problem(tmp_path, both))
