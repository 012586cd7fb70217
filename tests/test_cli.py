import json

import numpy as np

import matsketch.cli
from matsketch.cli import main
from matsketch.ensemble import load_graph, load_matrix_csv


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
    assert code == 2  # iteration cap hit: non-convergence exit code


def test_check_subcommands(tmp_path, capsys):
    base = ["--p", "10", "--m", "8", "--d", "2", "--delta", "3", "--seed", "2",
            "--trials", "3", "--out", str(tmp_path)]
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
