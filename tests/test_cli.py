import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import matsketch.cli
import matsketch.pipelines
from matsketch.cli import FLAGS, SUBCOMMANDS, build_parser, main
from matsketch.ensemble import load_graph, load_matrix_csv
from matsketch.solver import SolverOptions


def run(argv):
    return main(argv)


def test_no_command_is_usage_error(capsys):
    assert run([]) == 1
    assert run(["frobnicate"]) == 1


def test_gen_graph_reproducible(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = ["gen-graph", "--p", "6", "--m", "3", "--delta", "2", "--seed", "7"]
    assert run(args + ["--out", str(out_a)]) == 0
    assert run(args + ["--out", str(out_b)]) == 0
    text_a = (out_a / "graph.txt").read_bytes()
    assert text_a == (out_b / "graph.txt").read_bytes()
    g = load_graph(out_a / "graph.txt")
    assert (g.p, g.m, g.delta) == (6, 3, 2)


def test_sketch_from_files(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["gen-graph", "--p", "6", "--m", "4", "--delta", "2",
                "--seed", "3", "--out", str(out)]) == 0
    X = np.diag(np.arange(1.0, 7.0))
    np.savetxt(tmp_path / "x.csv", X, delimiter=",")
    assert run(["sketch", "--graph", str(out / "graph.txt"),
                "--matrix", str(tmp_path / "x.csv"), "--out", str(out)]) == 0
    Y = load_matrix_csv(out / "sketch.csv")
    g = load_graph(out / "graph.txt")
    A = g.adjacency()
    assert np.allclose(Y, A @ X @ A.T)


def test_recover_emits_json_and_is_reproducible(tmp_path, capsys):
    args = ["recover", "--p", "10", "--m", "8", "--d", "2", "--delta", "3",
            "--seed", "5"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run(args + ["--out", str(out_a)]) == 0
    assert run(args + ["--out", str(out_b)]) == 0
    text = (out_a / "trial.json").read_text()
    assert text == (out_b / "trial.json").read_text()
    payload = json.loads(text)
    assert payload["converged"] is True
    assert payload["config"]["p"] == 10


def test_recover_solver_config(tmp_path, capsys):
    cfg = tmp_path / "opts.json"
    cfg.write_text(json.dumps({"max_iter": 1}))
    code = run(["recover", "--p", "10", "--m", "8", "--d", "2", "--delta", "3",
                "--seed", "5", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0  # one ADMM step, then the exact LP
    assert json.loads((tmp_path / "trial.json").read_text())["iterations"] == 1


def test_check_subcommands(capsys):
    base = ["--p", "10", "--m", "8", "--d", "2", "--delta", "3", "--seed", "2",
            "--trials", "3"]
    assert run(["check-rip"] + base) == 0
    out = capsys.readouterr().out
    assert "upper bound held 3/3" in out
    assert run(["check-expansion"] + base) == 0
    assert "passed" in capsys.readouterr().out
    assert run(["check-nullspace"] + base + ["--samples", "5"]) == 0
    assert "ratio below 1" in capsys.readouterr().out


def test_phase_diagram_outputs(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SKETCH_THREADS", "1")
    assert run(["phase-diagram", "--trials", "2", "--d", "2", "--p-step", "20",
                "--m-step", "20", "--seed", "9", "--out", str(tmp_path)]) == 0
    csv = (tmp_path / "phase.csv").read_text()
    assert csv.startswith("p,m,rate")
    assert (tmp_path / "phase.svg").read_text().startswith("<svg ")


def test_noise_sweep_scales_parsing(tmp_path, capsys):
    assert run(["noise-sweep", "--p", "10", "--m", "8", "--d", "2", "--delta",
                "3", "--seed", "3", "--scales", "0,0.5", "--trials", "2",
                "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "noise.csv").read_text().splitlines()
    assert lines[0] == "scale,trial,noise_l1,error_l1,linf_error"
    assert len(lines) == 5  # 2 trials x 2 scales


def test_graph_sketch_cli(tmp_path, capsys):
    edges = tmp_path / "e.txt"
    edges.write_text("1 2\n2 3\n3 4\n1 4\n")
    assert run(["graph-sketch", "--edges", str(edges), "--p", "8", "--m", "5",
                "--delta", "2", "--seed", "7", "--unsketch",
                "--out", str(tmp_path)]) == 0
    rec = load_matrix_csv(tmp_path / "graph_recovered.csv")
    assert rec.shape == (8, 8)
    assert set(np.unique(rec)) <= {0.0, 1.0}
    # partition file required when m missing
    assert run(["graph-sketch", "--edges", str(edges), "--p", "8",
                "--out", str(tmp_path)]) == 1


def test_cov_sketch_cli(tmp_path, capsys):
    cfg = tmp_path / "cov.json"
    cfg.write_text(json.dumps(
        {"p": 12, "d": 2, "n": 500, "m": 9, "delta": 3, "seed": 4,
         "mode": "constrained", "kappa": 0.5}
    ))
    assert run(["cov-sketch", "--pipeline-config", str(cfg),
                "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "covariance.json").read_text())
    assert "relative_l1_error" in summary
    assert load_matrix_csv(tmp_path / "covariance.csv").shape == (12, 12)


def test_cov_sketch_cli_selects_kappa_by_cross_validation(tmp_path, capsys):
    cfg = tmp_path / "cov.json"
    grid = [1.0, 4.0, 16.0]
    cfg.write_text(json.dumps(
        {"p": 12, "d": 2, "n": 500, "m": 9, "delta": 3, "seed": 4,
         "mode": "constrained", "kappa_grid": grid}
    ))
    assert run(["cov-sketch", "--pipeline-config", str(cfg),
                "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "covariance.json").read_text())
    assert summary["result"]["converged"]
    assert summary["result"]["diagnostics"]["kappa"] in grid


def test_cov_sketch_cli_honours_solver_config(tmp_path, capsys):
    cfg = tmp_path / "cov.json"
    cfg.write_text(json.dumps(
        {"p": 12, "d": 2, "n": 500, "m": 9, "delta": 3, "seed": 4,
         "mode": "constrained", "kappa": 0.5}
    ))
    opts = tmp_path / "opts.json"
    opts.write_text(json.dumps({"max_iter": 1}))
    assert run(["cov-sketch", "--pipeline-config", str(cfg), "--config", str(opts),
                "--out", str(tmp_path)]) == 2
    summary = json.loads((tmp_path / "covariance.json").read_text())
    assert not summary["result"]["converged"]


def test_arrow_demo_cli(capsys):
    assert run(["arrow-demo", "--p", "20", "--m", "12", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "identical sketches" in out


def test_missing_file_is_a_file_error(tmp_path, capsys):
    assert run(["sketch", "--graph", str(tmp_path / "absent.txt"),
                "--matrix", str(tmp_path / "absent.csv"),
                "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bad_solver_config_is_a_config_error(tmp_path, capsys):
    args = ["recover", "--p", "10", "--m", "8", "--d", "2", "--delta", "3",
            "--seed", "5", "--out", str(tmp_path), "--config"]
    cfg = tmp_path / "opts.json"
    for text in ("{not json", json.dumps({"max_iters": 10})):
        cfg.write_text(text)
        assert run(args + [str(cfg)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_solver_failure_is_reported_not_raised(tmp_path, capsys, monkeypatch):
    def failing_trial(cfg, opts):
        raise RuntimeError("LP failed: numerical trouble")

    monkeypatch.setattr(matsketch.cli, "run_trial", failing_trial)
    assert run(["recover", "--p", "10", "--m", "8", "--d", "2",
                "--out", str(tmp_path)]) == 5
    assert capsys.readouterr().err == "error: LP failed: numerical trouble\n"


# --- which shared flags each subcommand honours -----------------------------

SHARED = ["seed", "out", "config", "delta", "clip-binary"]

# required (and, for phase-diagram, cost-limiting) arguments per subcommand;
# the file paths are never opened by these tests
BASE = {
    "gen-graph": ["--p", "6", "--m", "3"],
    "sketch": ["--graph", "g.txt", "--matrix", "x.csv"],
    "recover": ["--p", "10", "--m", "8", "--d", "2"],
    "check-expansion": ["--p", "10", "--m", "8", "--d", "2", "--trials", "1"],
    "check-rip": ["--p", "10", "--m", "8", "--d", "2", "--trials", "1"],
    "check-nullspace": ["--p", "10", "--m", "8", "--d", "2", "--trials", "1"],
    "phase-diagram": ["--trials", "1", "--d", "2", "--p-step", "60", "--m-step", "60"],
    "cov-sketch": ["--pipeline-config", "cov.json"],
    "graph-sketch": ["--edges", "e.txt", "--p", "8"],
    "noise-sweep": ["--p", "10", "--m", "8", "--d", "2", "--trials", "1"],
    "arrow-demo": [],
}

# the honoured/rejected table of the README, one row per subcommand
HONOURED = {
    "gen-graph": {"seed", "out", "delta"},
    "sketch": {"out", "clip-binary"},
    "recover": set(SHARED),
    "noise-sweep": set(SHARED),
    "check-expansion": {"seed", "delta"},
    "check-rip": {"seed", "delta", "clip-binary"},
    "check-nullspace": {"seed", "delta", "clip-binary"},
    "arrow-demo": {"seed", "delta", "clip-binary"},
    "phase-diagram": {"seed", "out", "delta"},
    "cov-sketch": {"out", "config", "clip-binary"},
    "graph-sketch": {"seed", "out", "config", "delta"},
}


def test_every_subcommand_has_a_row_and_every_flag_a_user():
    assert set(BASE) == set(HONOURED) == set(SUBCOMMANDS)
    used = {f.rstrip("!") for cmd in SUBCOMMANDS.values() for f in cmd.flags.split()}
    assert used == set(FLAGS)


@pytest.mark.parametrize("flag", SHARED)
@pytest.mark.parametrize("command", sorted(HONOURED))
def test_shared_flag_is_honoured_or_rejected(command, flag, tmp_path, capsys):
    value = {"seed": "5", "out": str(tmp_path / "o"), "config": "c.json", "delta": "3"}.get(flag)
    argv = [command] + BASE[command] + ["--" + flag] + ([value] if value else [])
    if flag in HONOURED[command]:
        parsed = getattr(build_parser().parse_args(argv), flag.replace("-", "_"))
        assert parsed == {"seed": 5, "delta": 3, "clip-binary": True}.get(flag, value)
    else:
        assert run(argv) == 1
        assert "unrecognized arguments: --" + flag in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def _graph_sketch_files(tmp_path):
    edges = tmp_path / "e.txt"
    edges.write_text("1 2\n2 3\n3 4\n1 4\n")
    parts = tmp_path / "parts.txt"
    parts.write_text("".join(f"{v} {k}\n" for v in range(1, 9) for k in (v % 5 + 1, 6)))
    return ["graph-sketch", "--edges", str(edges), "--p", "8", "--out", str(tmp_path)], parts


def test_graph_sketch_honours_solver_config(tmp_path, capsys, monkeypatch):
    argv, _ = _graph_sketch_files(tmp_path)
    opts = tmp_path / "opts.json"
    opts.write_text(json.dumps({"max_iter": 1}))
    argv += ["--m", "5", "--delta", "2", "--seed", "7", "--unsketch"]
    seen = []
    solve_p1 = matsketch.pipelines.solve_p1

    def spy(op, Y, opts):
        seen.append(opts.max_iter)
        return solve_p1(op, Y, opts)

    monkeypatch.setattr(matsketch.pipelines, "solve_p1", spy)
    assert run(argv) == 0
    assert run(argv + ["--config", str(opts)]) == 0
    assert seen == [SolverOptions().max_iter, 1]


def test_graph_sketch_partition_rejects_random_partition_flags(tmp_path, capsys):
    argv, parts = _graph_sketch_files(tmp_path)
    argv += ["--partition", str(parts)]
    assert run(argv) == 0
    for extra in (["--m", "5"], ["--delta", "2"], ["--seed", "0"]):
        assert run(argv + extra) == 1
        assert capsys.readouterr().err.startswith("error: ")


# --- malformed values and pipeline files exit with their documented code -----


def test_malformed_scales_is_a_usage_error(tmp_path, capsys):
    assert run(["noise-sweep", "--p", "10", "--m", "8", "--d", "2", "--trials", "1",
                "--scales", "0,abc", "--out", str(tmp_path)]) == 1
    assert "0,abc" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--trials", "0"], ["--p-step", "1"], ["--p-step", "3"],
                                   ["--m-step", "0"], ["--m-step", "-2"]])
def test_phase_diagram_bad_counts_are_usage_errors(extra, tmp_path, capsys):
    argv = ["phase-diagram", "--trials", "1", "--d", "2", "--p-step", "60", "--m-step", "60",
            "--out", str(tmp_path)]
    assert run(argv + extra) == 1
    assert not (tmp_path / "phase.csv").exists()


@pytest.mark.parametrize("change", [
    {"m": None}, {"mode": "exactt"}, {"delta": "3"}, {"mode": "constrained", "kappa": "1"},
    {"mode": "constrained", "kappa_grid": [1, "x"]}, {"kapa": 0.5}, {"seed": 1.5},
    {"seed": -1}, {"mode": "constrained", "kappa": -1.0},
    {"mode": "constrained", "kappa_grid": [0.5, 0]}])
def test_cov_sketch_bad_pipeline_is_a_config_error(change, tmp_path, capsys):
    cfg = {"p": 12, "d": 2, "n": 500, "m": 9, "delta": 3, "seed": 4, "mode": "exact"}
    cfg.update(change)
    path = tmp_path / "cov.json"
    path.write_text(json.dumps({k: v for k, v in cfg.items() if v is not None}))
    assert run(["cov-sketch", "--pipeline-config", str(path), "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "covariance.csv").exists()


@pytest.mark.parametrize("key", ["p", "d", "n", "m"])
@pytest.mark.parametrize("value", ["12", 9.0, True, 0, -3])
def test_cov_sketch_pipeline_counts_must_be_positive_ints(key, value, tmp_path, capsys):
    cfg = {"p": 12, "d": 2, "n": 500, "m": 9, "delta": 3, "seed": 4, "mode": "exact"}
    cfg[key] = value
    path = tmp_path / "cov.json"
    path.write_text(json.dumps(cfg))
    assert run(["cov-sketch", "--pipeline-config", str(path), "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and f"{key} must be" in err
    assert not (tmp_path / "covariance.csv").exists()


@pytest.mark.parametrize("threads, env", [(["--threads", "0"], {}), (["--threads", "-1"], {}),
                                          ([], {"SKETCH_THREADS": "abc"}),
                                          ([], {"SKETCH_THREADS": "0"})])
def test_phase_diagram_bad_worker_count_is_a_parameter_error(threads, env, tmp_path, capsys):
    argv = ["phase-diagram", "--trials", "1", "--d", "2", "--p-step", "60", "--m-step", "60",
            "--out", str(tmp_path)]
    with mock.patch.dict(os.environ, env):
        assert run(argv + threads) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "phase.csv").exists()


@pytest.mark.parametrize("which, line", [("edges", "0 3"), ("edges", "1 9"), ("edges", "1 2 3"),
                                         ("edges", "1 x"), ("partition", "9 1"),
                                         ("partition", "2 0"), ("partition", "2")])
def test_graph_sketch_bad_file_line_is_a_parameter_error(which, line, tmp_path, capsys):
    argv, parts = _graph_sketch_files(tmp_path)
    path = tmp_path / "e.txt" if which == "edges" else parts
    path.write_text(path.read_text() + f"\n{line}\n")
    assert run(argv + ["--partition", str(parts)]) == 1
    n = len(path.read_text().splitlines())
    assert capsys.readouterr().err == f"error: {path}:{n}: {line!r} is not " + (
        "two vertices in 1..8\n" if which == "edges" else "a vertex in 1..8 and a part >= 1\n")
    assert not (tmp_path / "graph_sketch.csv").exists()


@settings(max_examples=3, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_phase_diagram_files_do_not_depend_on_the_worker_count(seed):
    outputs = []
    for threads in ("1", "2"):  # a 1 x 3 grid: p = 10, m = 2, 22, 42
        with tempfile.TemporaryDirectory() as out, \
                mock.patch.dict(os.environ, {"SKETCH_THREADS": threads}):
            assert run(["phase-diagram", "--trials", "2", "--d", "2", "--p-step", "60",
                        "--m-step", "20", "--seed", str(seed), "--out", out]) == 0
            outputs.append([Path(out, f).read_bytes() for f in ("phase.csv", "phase.svg")])
    assert outputs[0] == outputs[1]
