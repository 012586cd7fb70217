"""The benchmark's LP reference against the library's dense LP oracle.

    python3 -m pytest bench/test_lpref.py
"""

import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import matsketch as ms  # noqa: E402
from lpref import instance_key, lp_minimize  # noqa: E402


def test_agrees_with_lp_oracle_on_small_instances():
    rng = np.random.default_rng(20)
    for _ in range(25):
        p = int(rng.integers(3, 7))
        m = int(rng.integers(2, min(p, 6) + 1))
        g1 = ms.gen_left_regular(p, m, 2, int(rng.integers(1 << 31)))
        g2 = ms.gen_left_regular(p, m, 2, int(rng.integers(1 << 31)))
        op = ms.SketchOperator.from_graphs(g1, g2)
        sup = ms.gen_distributed_support(p, min(2, p), int(rng.integers(1 << 31)))
        X = ms.gen_distributed_matrix(sup, ("gaussian", 0.0, 1.0), int(rng.integers(1 << 31)))
        Y = op.forward(X)
        X_lp, obj = lp_minimize(op.A, op.B, Y)
        oracle = ms.lp_oracle(op, Y)
        assert abs(obj - oracle.objective) <= 1e-7 * max(1.0, obj)
        assert abs(obj - np.abs(X_lp).sum()) <= 1e-9 * max(1.0, obj)
        assert np.linalg.norm(op.forward(X_lp) - Y) <= 1e-8 * max(1.0, np.linalg.norm(Y))


def test_returns_the_planted_matrix_above_the_boundary():
    cfg = ms.TrialConfig(p=40, m=21, d=4, delta=4, seed=ms.derive_seed(7, "c1", 0))
    g = ms.gen_screened_graph(cfg.p, cfg.m, cfg.effective_delta, ms.derive_seed(cfg.seed, "graph"))
    op = ms.SketchOperator.from_graphs(g)
    sup = ms.gen_distributed_support(cfg.p, cfg.d, ms.derive_seed(cfg.seed, "support"),
                                     n_off=cfg.effective_off_cells)
    X = ms.gen_distributed_matrix(sup, cfg.value_spec, ms.derive_seed(cfg.seed, "values"))
    X_lp, obj = lp_minimize(op.A, op.A, op.forward(X))
    assert np.abs(X_lp - X).max() <= 1e-8
    assert abs(obj - np.abs(X).sum()) <= 1e-9 * obj


def test_instance_key_ignores_last_bits_and_the_sign_of_zero():
    A = np.array([[1.0, 0.0], [2.0, 1.0]])
    Y = np.array([[0.5, -0.0], [1.0 / 3.0, 2.0]])
    assert instance_key(A, Y) == instance_key(A, Y * (1 + 1e-15) + 0.0)
    assert instance_key(A, Y) != instance_key(A, Y + 1e-6)
