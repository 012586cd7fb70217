import json

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
from hypothesis import given, settings, strategies as st

from matsketch.ensemble import (
    ParameterError,
    gen_distributed_matrix,
    gen_distributed_support,
    gen_left_regular,
    gen_screened_graph,
)
from matsketch.harness import TrialConfig, derive_seed
from matsketch.operator import SketchOperator
from matsketch.solver import (
    ADMM_BUDGET,
    AffineProjector,
    SolverOptions,
    _operator_sq_norm,
    _working_set_lp,
    lp_oracle,
    soft_threshold,
    solve_constrained,
    solve_p1,
    solve_p2,
)


def small_instance(seed, p=None, d=2):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(3, 7)) if p is None else p
    m = int(rng.integers(2, min(p, 6) + 1))
    g = gen_left_regular(p, m, 2, int(rng.integers(1 << 31)))
    op = SketchOperator.from_graphs(g)
    sup = gen_distributed_support(p, min(d, p), int(rng.integers(1 << 31)))
    X = gen_distributed_matrix(sup, ("gaussian", 0.0, 1.0), int(rng.integers(1 << 31)))
    return op, X, op.forward(X)


# --- options / plumbing -----------------------------------------------------


def test_options_validation():
    with pytest.raises(ParameterError):
        SolverOptions(tol_feas=0.0)
    with pytest.raises(ParameterError):
        SolverOptions(max_iter=0)
    with pytest.raises(ParameterError):
        SolverOptions(rho=-1.0)


def test_options_from_json(tmp_path):
    path = tmp_path / "opts.json"
    path.write_text(json.dumps({"tol_feas": 1e-6, "max_iter": 100}))
    opts = SolverOptions.from_json(path)
    assert opts.tol_feas == 1e-6 and opts.max_iter == 100 and opts.rho == 1.0


def test_soft_threshold():
    X = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    assert np.array_equal(soft_threshold(X, 1.0), np.array([-2.0, 0.0, 0.0, 0.0, 2.0]))


def test_result_json_round_trip():
    op, X, Y = small_instance(0)
    res = solve_p1(op, Y)
    payload = json.loads(res.to_json())
    assert payload["converged"] == res.converged
    assert payload["objective"] == res.objective


# --- affine projection ------------------------------------------------------


def test_projection_lands_on_constraint_set():
    op, X, Y = small_instance(1, p=6)
    proj = AffineProjector(op)
    rng = np.random.default_rng(2)
    for _ in range(10):
        Z = proj.project(rng.standard_normal((op.p1, op.p2)), Y)
        assert np.linalg.norm(op.forward(Z) - Y) < 1e-8 * max(1, np.linalg.norm(Y))


def test_kernel_projection():
    op, _, _ = small_instance(3, p=6)
    proj = AffineProjector(op)
    V = np.random.default_rng(4).standard_normal((op.p1, op.p2))
    K = proj.kernel_project(V)
    assert np.linalg.norm(op.forward(K)) < 1e-8
    # projection is idempotent
    assert np.abs(proj.kernel_project(K) - K).max() < 1e-10


# --- equality program -------------------------------------------------------


def test_p1_zero_sketch_gives_zero():
    op, _, _ = small_instance(5)
    res = solve_p1(op, np.zeros((op.m, op.m)))
    assert res.converged
    assert res.objective == 0.0
    assert np.abs(res.x).max() == 0.0


def test_p1_shape_check():
    op, _, _ = small_instance(6)
    with pytest.raises(ParameterError):
        solve_p1(op, np.zeros((op.m + 1, op.m + 1)))


def test_p1_diagonal_matches_lp_oracle():
    g = gen_left_regular(5, 3, 2, 12)
    op = SketchOperator.from_graphs(g)
    X = np.diag(np.array([1.0, -2.0, 0.5, 1.5, -1.0]))
    Y = op.forward(X)
    res = solve_p1(op, Y)
    oracle = lp_oracle(op, Y)
    assert res.converged
    assert abs(res.objective - oracle.objective) <= 1e-6


def test_p1_objective_matches_lp_on_random_small_instances():
    for seed in range(10):
        op, X, Y = small_instance(100 + seed)
        res = solve_p1(op, Y)
        oracle = lp_oracle(op, Y)
        assert res.converged
        assert res.feas_residual <= 1e-8
        assert abs(res.objective - oracle.objective) <= 1e-6


def test_p1_nonconvergence_is_flagged_not_raised():
    op, X, Y = small_instance(7, p=6)
    res = solve_p1(op, Y, SolverOptions(max_iter=2))
    assert not res.converged


def trial_instance(p, m, seed, delta=None):
    """The operator and sketch that run_trial builds for this seed."""
    cfg = TrialConfig(p=p, m=m, d=4, delta=delta, seed=seed)
    g = gen_screened_graph(p, m, cfg.effective_delta, derive_seed(seed, "graph"))
    op = SketchOperator.from_graphs(g)
    sup = gen_distributed_support(p, 4, derive_seed(seed, "support"),
                                  n_off=cfg.effective_off_cells)
    X = gen_distributed_matrix(sup, cfg.value_spec, derive_seed(seed, "values"))
    return op, X, op.forward(X)


def test_p1_hands_an_undecided_instance_to_the_lp():
    # far below the boundary: ADMM spends its budget and the LP decides
    op, X, Y = trial_instance(40, 8, derive_seed(6544, "below", 40, 8, 0))
    res = solve_p1(op, Y)
    assert res.converged and "lp" in res.diagnostics
    assert res.iterations == ADMM_BUDGET
    assert abs(res.objective - 16.924882) <= 1e-6
    assert res.feas_residual <= 1e-8


def test_p1_recoverable_instance_snaps_without_the_lp():
    op, X, Y = trial_instance(40, 21, derive_seed(7, "c1", 0), delta=4)
    res = solve_p1(op, Y)
    assert res.converged and res.diagnostics["support_snap"]
    assert res.iterations <= 750 and "lp" not in res.diagnostics
    assert np.abs(res.x - X).max() <= 1e-8


def full_sparse_lp(op, Y):
    """min 1^T (u + v) s.t. [K, -K] [u; v] = vec(Y), u, v >= 0, K = kron(B, A)."""
    K = scipy.sparse.kron(scipy.sparse.csc_matrix(op.B), scipy.sparse.csc_matrix(op.A))
    lp = scipy.optimize.linprog(
        np.ones(2 * K.shape[1]), A_eq=scipy.sparse.hstack([K, -K]),
        b_eq=Y.reshape(-1, order="F"), bounds=(0, None), method="highs",
    )
    assert lp.success
    return lp.fun


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1), st.integers(3, 12))
def test_working_set_lp_reaches_the_full_lp_optimum(inst_seed, set_seed, p):
    op, X, Y = small_instance(inst_seed, p=p, d=3)
    rng = np.random.default_rng(set_seed)
    shape = (op.p1, op.p2)
    # any starting set, the empty one included, and any growth order
    in_set = rng.random(shape) < rng.choice([0.0, 0.1, 0.5, 1.0])
    score = rng.random(shape) * rng.integers(0, 2)
    X_ws, info = _working_set_lp(op, Y, score, in_set)
    obj = full_sparse_lp(op, Y)
    assert abs(np.abs(X_ws).sum() - obj) <= 1e-9 * max(1.0, obj)
    assert np.linalg.norm(op.forward(X_ws) - Y) <= 1e-8 * max(1.0, np.linalg.norm(Y))
    assert info["columns"] <= op.p1 * op.p2


# --- penalized program ------------------------------------------------------


def test_p2_large_penalty_returns_zero():
    op, X, Y = small_instance(8)
    lam = 2.0 * np.abs(op.adjoint(Y)).max() + 1.0
    res = solve_p2(op, Y, lam)
    assert np.abs(res.x).max() == 0.0


def test_p2_identity_operator_is_soft_thresholding():
    op = SketchOperator(A=np.eye(5), B=np.eye(5), shared_ab=True)
    Y = np.random.default_rng(9).standard_normal((5, 5))
    lam = 0.8
    res = solve_p2(op, Y, lam, SolverOptions(tol_obj=1e-14))
    assert np.abs(res.x - soft_threshold(Y, lam / 2.0)).max() < 1e-6


def test_p2_matches_long_run_proximal_oracle():
    g = gen_left_regular(4, 3, 2, 5)
    op = SketchOperator.from_graphs(g)
    sup = gen_distributed_support(4, 2, 7)
    X = gen_distributed_matrix(sup, ("gaussian", 0.0, 1.0), 9)
    Y = op.forward(X) + 0.01 * np.random.default_rng(1).standard_normal((3, 3))
    lam = 0.05
    res = solve_p2(op, Y, lam, SolverOptions(tol_obj=1e-14))

    # plain (unaccelerated) proximal gradient run to stagnation
    L = 2.0 * _operator_sq_norm(op)
    Z = np.zeros((4, 4))
    for _ in range(1_000_000):
        G = 2.0 * op.adjoint(op.forward(Z) - Y)
        Z_new = soft_threshold(Z - G / L, lam / L)
        if np.abs(Z_new - Z).max() < 1e-15:
            break
        Z = Z_new
    obj_oracle = float(np.sum((op.forward(Z) - Y) ** 2) + lam * np.abs(Z).sum())
    assert abs(res.diagnostics["penalized_objective"] - obj_oracle) <= 1e-8


def test_p2_keeps_the_last_accepted_iterate_when_backtracking_fails():
    # a far too small norm estimate makes every halved step overshoot
    op, X, Y = small_instance(0)
    lam = 0.1
    res = solve_p2(op, Y, lam, sq_norm=1e-30)
    F = float(np.sum((op.forward(res.x) - Y) ** 2) + lam * np.abs(res.x).sum())
    assert np.isfinite(F)
    assert res.diagnostics["penalized_objective"] == F


def test_p2_rejects_nonpositive_penalty():
    op, _, Y = small_instance(10)
    with pytest.raises(ParameterError):
        solve_p2(op, Y, 0.0)


# --- constrained program ----------------------------------------------------


def test_constrained_large_radius_returns_zero():
    op, X, Y = small_instance(11)
    res = solve_constrained(op, Y, np.linalg.norm(Y) + 1.0)
    assert res.converged
    assert res.objective == 0.0


def test_constrained_zero_radius_collapses_to_equality_program():
    op, X, Y = small_instance(12)
    res = solve_constrained(op, Y, 0.0)
    ref = solve_p1(op, Y)
    assert abs(res.objective - ref.objective) < 1e-9


def test_constrained_meets_radius():
    op, X, Y = small_instance(13, p=6)
    kappa = 0.1 * np.linalg.norm(Y)
    res = solve_constrained(op, Y, kappa)
    assert res.converged
    assert res.diagnostics["constraint_residual"] <= 1.01 * kappa
    # relaxing the constraint can only shrink the objective
    loose = solve_constrained(op, Y, 2 * kappa)
    assert loose.objective <= res.objective + 1e-8


def test_constrained_rejects_negative_radius():
    op, _, Y = small_instance(14)
    with pytest.raises(ParameterError):
        solve_constrained(op, Y, -1.0)


# --- LP oracle --------------------------------------------------------------


def test_lp_oracle_zero_sketch():
    op, _, _ = small_instance(15)
    res = lp_oracle(op, np.zeros((op.m, op.m)))
    assert res.objective == 0.0 and res.converged


def test_lp_oracle_guard():
    g = gen_left_regular(12, 4, 2, 0)
    op = SketchOperator.from_graphs(g)
    with pytest.raises(ParameterError):
        lp_oracle(op, np.zeros((4, 4)))


def test_lp_oracle_is_optimal_and_feasible_on_diagonal_sketches():
    # the diagonal need not be the unique minimizer at these sizes, so
    # check optimality (objective no larger than the planted l1 mass) and
    # feasibility rather than exact recovery
    for seed in range(8):
        p = 4 + seed % 3
        g = gen_screened_graph(p, 4, 2, seed)
        op = SketchOperator.from_graphs(g)
        X = np.diag(1.0 + np.arange(p, dtype=float))
        Y = op.forward(X)
        res = lp_oracle(op, Y)
        assert res.converged
        assert res.objective <= np.abs(X).sum() + 1e-7
        assert np.abs(op.forward(res.x) - Y).max() < 1e-7
