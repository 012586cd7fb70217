import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from matsketch import solver
from matsketch.ensemble import (
    ParameterError,
    gen_distributed_matrix,
    gen_distributed_support,
    gen_left_regular,
    gen_screened_graph,
)
from matsketch.harness import TrialConfig, _planted_instance, derive_seed
from matsketch.operator import SketchOperator
from matsketch.pipelines import (
    SampleStream,
    cov_sketch,
    gen_distributed_covariance,
    recover_covariance,
)
from matsketch.solver import (
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

from oracles import full_sparse_lp


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


@settings(max_examples=200, deadline=None)
@given(arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 6)),
              elements=st.floats(-1e6, 1e6)),
       st.floats(0.0, 1e6))
def test_soft_threshold_is_the_entrywise_shrinkage(X, t):
    assert np.array_equal(soft_threshold(X, t), np.sign(X) * np.maximum(np.abs(X) - t, 0.0))


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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 9), st.integers(1, 9))
def test_projection_is_feasible_and_idempotent_on_random_operators(seed, m, p1, p2):
    rng = np.random.default_rng(seed)
    op = SketchOperator(A=rng.standard_normal((m, p1)), B=rng.standard_normal((m, p2)))
    Y = op.forward(rng.standard_normal((p1, p2)))
    proj = AffineProjector(op)
    X0 = rng.standard_normal((p1, p2))
    Z = proj.project(X0, Y)
    # rounding error grows with the conditioning of the two factors
    tol = 1e-11 * np.linalg.cond(op.A) * np.linalg.cond(op.B)
    assert np.linalg.norm(op.forward(Z) - Y) <= tol * max(1.0, np.linalg.norm(Y))
    assert np.abs(proj.project(Z, Y) - Z).max() <= tol * max(1.0, np.abs(Z).max())
    # the two precomputed factors give the textbook formula
    pinv_a = np.linalg.pinv(op.A @ op.A.T, rcond=1e-10, hermitian=True)
    pinv_b = np.linalg.pinv(op.B @ op.B.T, rcond=1e-10, hermitian=True)
    ref = X0 - op.A.T @ pinv_a @ (op.forward(X0) - Y) @ pinv_b @ op.B
    assert np.abs(Z - ref).max() <= tol * max(1.0, np.abs(ref).max())
    # dual_fit is the least-squares solution of A^T D B = W
    W = rng.standard_normal((p1, p2))
    D = proj.dual_fit(W)
    ref_d = np.linalg.pinv(op.A.T, rcond=1e-10) @ W @ np.linalg.pinv(op.B, rcond=1e-10)
    assert np.abs(D - ref_d).max() <= tol * max(1.0, np.abs(ref_d).max())


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


def test_p1_max_iter_bounds_admm_before_the_lp():
    op, X, Y = small_instance(7, p=6)
    res = solve_p1(op, Y, SolverOptions(max_iter=2))
    assert res.converged and res.iterations == 2 and "lp" in res.diagnostics
    oracle = lp_oracle(op, Y)
    assert abs(res.objective - oracle.objective) <= 1e-9 * max(1.0, oracle.objective)


def trial_instance(p, m, seed, delta=None):
    """The operator and sketch that run_trial builds for this seed."""
    op, X = _planted_instance(TrialConfig(p=p, m=m, d=4, delta=delta, seed=seed), seed)
    return op, X, op.forward(X)


def test_p1_hands_an_undecided_instance_to_the_lp():
    # far below the boundary: the first checkpoint's iterate holds more than
    # m^2 nonzeros, so no snap can certify it and the LP decides at once
    op, X, Y = trial_instance(40, 8, derive_seed(6544, "below", 40, 8, 0))
    res = solve_p1(op, Y)
    assert res.converged and "lp" in res.diagnostics
    assert res.iterations == 250
    assert abs(res.objective - 16.924882) <= 1e-6
    assert res.feas_residual <= 1e-8


def test_p1_recoverable_instance_snaps_without_the_lp():
    op, X, Y = trial_instance(40, 21, derive_seed(7, "c1", 0), delta=4)
    res = solve_p1(op, Y)
    assert res.converged and res.diagnostics["support_snap"]
    assert res.iterations <= 750 and "lp" not in res.diagnostics
    assert np.abs(res.x - X).max() <= 1e-8


@pytest.mark.parametrize("p, m, t, optimum", [
    (60, 12, 2, 46.989243),
    (40, 16, 2, 40.070598),
    (30, 14, 3, 33.630937),
])
def test_p1_converges_only_at_the_lp_optimum_below_the_boundary(p, m, t, optimum):
    # each of these once stopped at an uncertified snap above the optimum
    op, X, Y = trial_instance(p, m, derive_seed(7, "b", p, m, t))
    res = solve_p1(op, Y)
    assert res.converged
    assert abs(res.objective - optimum) <= 1e-6
    assert res.feas_residual <= 1e-8


# (p, m, delta, seed, iterations, support_snap, lp, objective): any rewrite
# of the ADMM loop or the snap solves must stop every one of these runs where
# and how it stops here
PINNED_STOPS = [
    # recover-above pools: a certified snap at a checkpoint
    (40, 21, 4, derive_seed(6544, "above", 40, 21, 0), 250, True, False, 40.425070615304385),
    (40, 21, 4, derive_seed(6544, "above", 40, 21, 2), 750, True, False, 39.13135463348212),
    (60, 32, None, derive_seed(6544, "above", 60, 32, 0), 250, True, False, 56.068038716082526),
    (60, 32, None, derive_seed(6544, "above", 60, 32, 1), 250, True, False, 64.37514432991443),
    (40, 21, 4, derive_seed(7, "c1", 0), 500, True, False, 40.79091016442355),
    # recover-below's p=40 m=8 pool: more than m^2 nonzeros at the first
    # checkpoint, then the LP
    (40, 8, None, derive_seed(6544, "below", 40, 8, 0), 250, False, True, 16.924882035097518),
    (40, 8, None, derive_seed(6544, "below", 40, 8, 1), 250, False, True, 23.670671772174124),
    (40, 8, None, derive_seed(6544, "below", 40, 8, 2), 250, False, True, 22.03179546016011),
    # the two trials that once stopped at an uncertified snap: p=60 m=12
    # holds more than m^2 nonzeros at the first checkpoint, p=40 m=16 never
    # does and runs the whole budget before the LP
    (60, 12, None, derive_seed(7, "b", 60, 12, 2), 250, False, True, 46.989242655189955),
    (40, 16, None, derive_seed(7, "b", 40, 16, 2), 5000, False, True, 40.07059848407479),
    # criterion 2's p=20 m=12 trials that end at ADMM's residual stop
    (20, 12, None, derive_seed(derive_seed(7, "c2"), 20, 12, 2), 1151, False, False, 13.91353321567999),
    (20, 12, None, derive_seed(derive_seed(7, "c2"), 20, 12, 8), 4514, False, False, 24.407533030014),
]


@pytest.mark.parametrize("p, m, delta, seed, iterations, snap, lp, objective", PINNED_STOPS,
                         ids=[f"p{c[0]}-m{c[1]}-{k}" for k, c in enumerate(PINNED_STOPS)])
def test_p1_stop_decisions_are_pinned(p, m, delta, seed, iterations, snap, lp, objective):
    op, X, Y = trial_instance(p, m, seed, delta=delta)
    res = solve_p1(op, Y)
    assert res.iterations == iterations
    assert res.diagnostics["support_snap"] == snap
    assert ("lp" in res.diagnostics) == lp
    assert abs(res.objective - objective) <= 1e-9 * objective


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(6, 16), st.integers(3, 8),
       st.sampled_from([5, 25, 100, 250, 50_000]))
def test_every_support_snap_is_an_l1_minimizer(seed, p, m, max_iter):
    # small max_iter hands far-from-converged iterates to the snap and the LP
    rng = np.random.default_rng(seed)
    op = SketchOperator.from_graphs(gen_left_regular(p, m, 2, int(rng.integers(1 << 31))))
    sup = gen_distributed_support(p, 2, int(rng.integers(1 << 31)))
    Y = op.forward(gen_distributed_matrix(sup, ("gaussian", 0.0, 1.0), int(rng.integers(1 << 31))))
    res = solve_p1(op, Y, SolverOptions(max_iter=max_iter))
    assert res.converged
    if res.diagnostics["support_snap"] or "lp" in res.diagnostics:
        obj = full_sparse_lp(op, Y)
        assert abs(res.objective - obj) <= 1e-9 * max(1.0, obj)


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


def random_operator(seed, shared):
    """A graph operator with B = A, or with an independent B of its own p."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 8))
    p1, p2 = (int(v) for v in rng.integers(2, 10, size=2))
    g1 = gen_left_regular(p1, m, int(rng.integers(1, 4)), int(rng.integers(1 << 31)))
    if shared:
        return SketchOperator.from_graphs(g1), rng
    g2 = gen_left_regular(p2, m, int(rng.integers(1, 4)), int(rng.integers(1 << 31)))
    return SketchOperator.from_graphs(g1, g2), rng


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.booleans())
def test_operator_sq_norm_is_the_exact_kronecker_norm(seed, shared):
    op, rng = random_operator(seed, shared)
    sq_norm = _operator_sq_norm(op)
    exact = np.linalg.norm(np.kron(op.B, op.A), 2) ** 2
    assert abs(sq_norm - exact) <= 1e-12 * exact
    for _ in range(5):
        V = rng.standard_normal((op.p1, op.p2))
        assert np.sum(op.forward(V) ** 2) <= sq_norm * np.sum(V * V) * (1 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.booleans())
def test_kernel_dim_is_the_nullity_of_the_kronecker_matrix(seed, shared):
    op, _ = random_operator(seed, shared)
    K = np.kron(op.B, op.A)
    assert AffineProjector(op).kernel_dim == K.shape[1] - np.linalg.matrix_rank(K)


def test_operator_sq_norm_of_a_zero_operator_is_one():
    op = SketchOperator(A=np.zeros((3, 4)), B=np.zeros((3, 5)))
    assert _operator_sq_norm(op) == 1.0


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
    # the reported objective is that of the returned iterate
    F = float(np.sum((op.forward(res.x) - Y) ** 2) + lam * np.abs(res.x).sum())
    assert res.diagnostics["penalized_objective"] == F


def test_p2_converged_when_the_stopping_test_meets_the_last_iteration():
    op = SketchOperator(A=np.eye(5), B=np.eye(5), shared_ab=True)
    Y = np.random.default_rng(2).standard_normal((5, 5))
    lam = 2.0 * np.abs(Y).max() + 1.0
    res = solve_p2(op, Y, lam, SolverOptions(max_iter=1))
    assert res.iterations == 1
    assert res.converged


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


def twin_row_operator():
    """A sketch whose rows 0 and 1 are equal, so every A X A^T is symmetric in them."""
    A = np.array([[1, 1, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0],
                  [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]], dtype=float)
    return SketchOperator(A=A, B=A, shared_ab=True)


def test_constrained_unreachable_radius_is_reported():
    op = twin_row_operator()
    Y = np.random.default_rng(3).standard_normal((4, 4))
    X_ls = AffineProjector(op).project(np.zeros((6, 6)), Y)
    r_min = np.linalg.norm(op.forward(X_ls) - Y)
    assert r_min > 0.1 * np.linalg.norm(Y)
    kappa = r_min / 2
    res = solve_constrained(op, Y, kappa)
    assert not res.converged
    assert res.diagnostics["constraint_residual"] > kappa


def test_constrained_sketch_outside_the_range_is_reported():
    op = twin_row_operator()
    Y = np.diag([1.0, -1.0, 0.0, 0.0])  # A^T Y A = 0
    res = solve_constrained(op, Y, 0.5)
    assert not res.converged
    assert res.objective == 0.0
    assert res.diagnostics["constraint_residual"] == np.linalg.norm(Y)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.02, 0.9))
def test_constrained_meets_radius_on_random_instances(seed, f):
    op, X, Y = small_instance(seed)
    kappa = f * np.linalg.norm(Y)
    res = solve_constrained(op, Y, kappa)
    assert res.converged
    assert res.diagnostics["constraint_residual"] <= 1.01 * kappa
    loose = solve_constrained(op, Y, 2 * kappa)
    assert loose.objective <= res.objective * (1 + 1e-6)


def criterion_10_inputs(t):
    """Sketching matrix, sketch and radius of criterion 10's pipeline t."""
    seed = derive_seed(7, "c10", t)
    sigma = gen_distributed_covariance(40, 4, derive_seed(seed, "sigma"), n_pairs=6)
    stream = SampleStream(sigma=sigma, n=2100, seed=derive_seed(seed, "stream"))
    A = gen_screened_graph(40, 21, 4, derive_seed(seed, "graph")).adjacency()
    sz = cov_sketch(stream, A)
    return A, sz, float(np.linalg.norm(sz - A @ sigma @ A.T))


def test_constrained_criterion_10_pipelines_stay_under_the_iteration_cap(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        res = solve_p2(*args, **kwargs)
        calls.append(res.iterations)
        return res

    monkeypatch.setattr(solver, "solve_p2", counted)
    for t in range(10):
        calls.clear()
        A, sz, kappa = criterion_10_inputs(t)
        res = recover_covariance(A, sz, "constrained", kappa=kappa)
        assert res.converged
        assert calls and max(calls) < SolverOptions().max_iter
        assert sum(calls) < 5000


# (t, iterations of each solve_p2 call, final lam) for criterion 10's
# pipeline t: any rewrite of the FISTA loop must stop every call where it
# stops here
PINNED_P2_STOPS = [
    (0, [168, 195, 244, 189, 266, 213, 184, 163, 71, 57], 34.84521143757805),
    (1, [125, 179, 264, 130, 103, 116, 75, 67, 66], 38.52945927900247),
    (2, [132, 170, 175, 163, 70, 129, 64, 62, 60], 39.45936890508301),
    (3, [168, 243, 227, 215, 173, 97, 112, 93, 68, 49], 42.51998149729266),
    (4, [177, 150, 301, 141, 155, 146], 44.10739714979395),
]


@pytest.mark.parametrize("t, iterations, lam", PINNED_P2_STOPS,
                         ids=[f"c10-{c[0]}" for c in PINNED_P2_STOPS])
def test_p2_stop_decisions_are_pinned(t, iterations, lam, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        res = solve_p2(*args, **kwargs)
        calls.append(res.iterations)
        return res

    monkeypatch.setattr(solver, "solve_p2", counted)
    A, sz, kappa = criterion_10_inputs(t)
    res = recover_covariance(A, sz, "constrained", kappa=kappa)
    assert calls == iterations
    assert abs(res.diagnostics["lam"] - lam) <= 1e-9 * lam


def test_p2_makes_one_forward_per_iteration(monkeypatch):
    # every iteration calls soft_threshold once and a restart once more, so
    # the calls beyond the iteration count are the restarts
    counts = {"forward": 0, "prox": 0}
    forward, prox = SketchOperator.forward, solver.soft_threshold

    def counted_forward(self, X):
        counts["forward"] += 1
        return forward(self, X)

    def counted_prox(X, t):
        counts["prox"] += 1
        return prox(X, t)

    solves = []

    def counted_p2(*args, **kwargs):
        before = dict(counts)
        res = solve_p2(*args, **kwargs)
        solves.append((res.iterations, counts["forward"] - before["forward"],
                       counts["prox"] - before["prox"] - res.iterations))
        return res

    monkeypatch.setattr(SketchOperator, "forward", counted_forward)
    monkeypatch.setattr(solver, "soft_threshold", counted_prox)
    monkeypatch.setattr(solver, "solve_p2", counted_p2)
    for t in range(len(PINNED_P2_STOPS)):
        A, sz, kappa = criterion_10_inputs(t)
        recover_covariance(A, sz, "constrained", kappa=kappa)
    assert solves
    for iterations, forwards, restarts in solves:
        assert forwards <= iterations + restarts + 2


def test_constrained_rejects_negative_radius():
    op, _, Y = small_instance(14)
    with pytest.raises(ParameterError):
        solve_constrained(op, Y, -1.0)


# --- LP oracle --------------------------------------------------------------


def test_lp_oracle_zero_sketch():
    op, _, _ = small_instance(15)
    res = lp_oracle(op, np.zeros((op.m, op.m)))
    assert res.objective == 0.0 and res.converged


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
