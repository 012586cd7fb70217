import json
import multiprocessing

import numpy as np
import pytest

from matsketch.ensemble import ParameterError
from matsketch.harness import (
    PHASE_CURVE_CONSTANT,
    NoiseSweepRow,
    PhaseGrid,
    TrialConfig,
    derive_seed,
    noise_sweep,
    noise_sweep_csv,
    paper_grid,
    phase_diagram,
    reduced_grid,
    render_phase_svg,
    run_trial,
    worker_count,
)


# --- seeds ------------------------------------------------------------------


def test_derive_seed_deterministic_and_tag_sensitive():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert derive_seed(1, "a") != derive_seed(2, "a")
    s = derive_seed(0)
    assert 0 <= s < 1 << 63


# --- config -----------------------------------------------------------------


def test_trial_config_validation():
    with pytest.raises(ParameterError):
        TrialConfig(p=0, m=3, d=1)
    with pytest.raises(ParameterError):
        TrialConfig(p=3, m=3, d=1, success_threshold=0.0)
    with pytest.raises(ParameterError):
        TrialConfig(p=3, m=3, d=1, mode="p3")


def test_trial_config_defaults():
    cfg = TrialConfig(p=40, m=21, d=4)
    assert cfg.effective_delta == 4
    assert cfg.effective_off_cells == 12
    assert TrialConfig(p=40, m=21, d=4, off_cells=3).effective_off_cells == 3


# --- trials -----------------------------------------------------------------


def test_run_trial_easy_instance_succeeds():
    rec = run_trial(TrialConfig(p=5, m=5, d=1, delta=5, seed=0))
    assert rec.success and rec.converged
    assert rec.linf_error <= 1e-4


def test_run_trial_hopeless_instance_fails():
    rec = run_trial(TrialConfig(p=60, m=2, d=4, delta=4, seed=0))
    assert not rec.success


def test_run_trial_deterministic_and_json():
    a = run_trial(TrialConfig(p=10, m=8, d=2, delta=3, seed=5))
    b = run_trial(TrialConfig(p=10, m=8, d=2, delta=3, seed=5))
    assert a.to_json() == b.to_json()
    payload = json.loads(a.to_json())
    assert payload["config"]["p"] == 10
    assert payload["success"] == a.success


def test_run_trial_modes():
    cfg = TrialConfig(p=8, m=6, d=2, delta=3, seed=4, mode="p2", lam=1e-4)
    rec = run_trial(cfg)
    assert rec.l1_error >= 0.0
    cfg = TrialConfig(p=8, m=6, d=2, delta=3, seed=4, mode="constrained", kappa=0.0)
    rec = run_trial(cfg)
    assert rec.linf_error >= 0.0


# --- phase grid -------------------------------------------------------------


def test_phase_diagram_worker_count_invariance():
    ps, ms = [6, 10], [4, 8]
    a = phase_diagram(ps, ms, 3, 2, 77, delta=3, threads=1)
    b = phase_diagram(ps, ms, 3, 2, 77, delta=3, threads=2)
    assert np.array_equal(a.success_rate, b.success_rate)
    assert a.trials_per_cell == 3


def test_phase_diagram_shuts_its_pool_down_when_a_cell_raises():
    # d=0 passes phase_diagram but fails TrialConfig inside a worker
    with pytest.raises(ParameterError):
        phase_diagram([6, 10], [4, 8], 1, 0, 77, delta=3, threads=2)
    assert multiprocessing.active_children() == []


def test_phase_diagram_rejects_unsorted_lists():
    with pytest.raises(ParameterError):
        phase_diagram([10, 6], [4], 1, 2, 0, threads=1)


def test_grids():
    ps, ms = paper_grid()
    assert ps == list(range(10, 61, 2)) and ms == list(range(2, 61, 2))
    ps, ms = reduced_grid()
    assert ps[0] == 10 and ms[0] == 2


def test_worker_count(monkeypatch):
    assert worker_count(3) == 3
    monkeypatch.setenv("SKETCH_THREADS", "2")
    assert worker_count() == 2


def hand_grid():
    rate = np.array([[0.0, 0.4, 0.8, 1.0], [0.0, 0.0, 0.5, 1.0]])
    return PhaseGrid(p_values=[10, 20], m_values=[2, 4, 6, 8], success_rate=rate,
                     trials_per_cell=5)


def test_phase_grid_csv(tmp_path):
    grid = hand_grid()
    path = tmp_path / "phase.csv"
    grid.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "p,m,rate"
    assert lines[1] == "10,2,0.000000"
    assert len(lines) == 9


def test_phase_grid_m50_interpolation():
    grid = hand_grid()
    # row 1 crosses 0.5 between m=4 (0.4) and m=6 (0.8): 4 + 0.25*2
    assert grid.m50(10) == pytest.approx(4.5)
    assert grid.m50(20) == 6.0
    empty = PhaseGrid([5], [2, 4], np.array([[0.0, 0.1]]), 1)
    assert empty.m50(5) is None


def test_phase_grid_smoothing_shape():
    grid = hand_grid()
    sm = grid.smoothed_rates()
    assert sm.shape == grid.success_rate.shape
    # smoothing preserves monotonicity of a monotone row
    assert (np.diff(sm[0]) >= -1e-12).all()


def test_render_phase_svg_deterministic_golden():
    grid = hand_grid()
    svg = render_phase_svg(grid)
    assert svg == render_phase_svg(grid)
    assert svg.startswith("<svg ")
    assert svg.count("<rect") == 8
    assert 'fill="rgb(255,255,255)"' in svg  # all-success cell is white
    # the reference curve m^2/14 stays below p=10 for m<=8: no overlay
    assert "polyline" not in svg
    assert PHASE_CURVE_CONSTANT == 14.0


def test_render_phase_svg_curve_overlay_when_in_range():
    rate = np.array([[0.0, 0.5, 1.0], [0.0, 0.0, 1.0]])
    grid = PhaseGrid(p_values=[10, 20], m_values=[10, 14, 18], success_rate=rate,
                     trials_per_cell=5)
    svg = render_phase_svg(grid)
    assert "polyline" in svg and 'stroke="red"' in svg


# --- noise sweeps -----------------------------------------------------------


def test_noise_sweep_zero_scale_reduces_to_exact_recovery():
    cfg = TrialConfig(p=10, m=8, d=2, delta=3, seed=7)
    rows = noise_sweep(cfg, [0.0], trials=3)
    assert len(rows) == 3
    for r in rows:
        assert r.noise_l1 == 0.0
        assert r.linf_error <= 1e-4


def test_noise_sweep_validation():
    cfg = TrialConfig(p=6, m=4, d=2, delta=2, seed=0)
    with pytest.raises(ParameterError):
        noise_sweep(cfg, [-0.1, 0.5])
    with pytest.raises(ParameterError):
        noise_sweep(cfg, [1.0, 0.5])


def test_noise_sweep_csv(tmp_path):
    rows = [NoiseSweepRow(scale=0.5, trial=0, noise_l1=0.5, error_l1=1.25,
                          linf_error=0.1)]
    path = tmp_path / "noise.csv"
    noise_sweep_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "scale,trial,noise_l1,error_l1,linf_error"
    assert lines[1] == "0.5,0,0.5,1.25,0.1"
