"""End-to-end acceptance checks, one per headline capability.

Each test prints a single summary line before asserting, so the run
reads as a scorecard; the lines bypass pytest's output capture so they
appear even for passing tests.
"""

import numpy as np
import pytest

from matsketch.ensemble import (
    BipartiteGraph,
    TensorGraph,
    arrow_matrix,
    gen_bernoulli_matrix,
    gen_distributed_matrix,
    gen_distributed_support,
    gen_left_regular,
    gen_screened_graph,
    degree_of_sparsity,
    prop1_degree_bound,
)
from matsketch.harness import (
    TrialConfig,
    _planted_instance,
    derive_seed,
    noise_sweep,
    paper_grid,
    phase_diagram,
    reduced_grid,
    run_trial,
)
from matsketch.operator import SketchOperator
from matsketch.pipelines import (
    SampleStream,
    cov_sketch,
    gen_bounded_degree_graph,
    gen_distributed_covariance,
    graph_unsketch,
    random_partition,
    recover_covariance,
)
from matsketch.solver import SolverOptions, lp_oracle, solve_p1
from matsketch.verify import (
    arrow_ambiguity_witness,
    check_expansion,
    check_nullspace,
    check_rip1,
)

from oracles import brute_force_expansion, full_sparse_lp

MASTER = 7

_capman = None


@pytest.fixture(autouse=True)
def _live_scorecard(request):
    global _capman
    _capman = request.config.pluginmanager.getplugin("capturemanager")
    yield


def scorecard(n, name, ok, detail):
    line = f"criterion {n} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    if _capman is not None:
        with _capman.global_and_fixture_disabled():
            print(f"\n{line}")
    else:
        print(line)


def small_shared_instance(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(3, 7))
    m = int(rng.integers(2, min(p, 6) + 1))
    g = gen_left_regular(p, m, 2, int(rng.integers(1 << 31)))
    op = SketchOperator.from_graphs(g)
    sup = gen_distributed_support(p, min(2, p), int(rng.integers(1 << 31)))
    X = gen_distributed_matrix(sup, ("gaussian", 0.0, 1.0), int(rng.integers(1 << 31)))
    return op, sup, X


def test_criterion_1_exact_recovery():
    wins = 0
    for t in range(40):
        cfg = TrialConfig(p=40, m=21, d=4, delta=4, seed=derive_seed(MASTER, "c1", t))
        wins += run_trial(cfg).success
    ok = wins >= 38
    scorecard(1, "exact recovery at p=40 m=21", ok, f"{wins}/40 trials exact")
    assert ok


def band_holds(grid):
    rows = []
    for p in grid.p_values:
        m50 = grid.m50(p)
        lo = np.sqrt(14.0 * p) / 2.0
        hi = 2.0 * np.sqrt(14.0 * p)
        inside = m50 is not None and lo <= m50 <= hi
        rows.append((p, m50, inside))
    return rows


def test_criterion_2_phase_boundary_reduced_grid():
    ps, ms = reduced_grid()
    grid = phase_diagram(ps, ms, 10, 4, derive_seed(MASTER, "c2"))
    rows = band_holds(grid)
    ok = all(inside for _, _, inside in rows)
    detail = "; ".join(f"p={p} m50={m50 if m50 is None else round(m50, 1)}"
                       for p, m50, _ in rows)
    scorecard(2, "phase boundary within factor 2 of sqrt(14p)", ok, detail)
    assert ok


@pytest.mark.full
def test_criterion_2_phase_boundary_full_grid():
    ps, ms = paper_grid()
    grid = phase_diagram(ps, ms, 40, 4, derive_seed(MASTER, "c2full"))
    rows = band_holds(grid)
    ok = all(inside for _, _, inside in rows)
    bad = [(p, m50) for p, m50, inside in rows if not inside]
    scorecard(2, "phase boundary, full grid", ok, f"out-of-band cells: {bad}")
    assert ok


def test_criterion_3_rip1():
    upper = lower = 0
    n = 1000
    for t in range(n):
        seed = derive_seed(MASTER, "c3", t)
        g = gen_screened_graph(40, 21, 4, derive_seed(seed, "g"))
        op = SketchOperator.from_graphs(g)
        sup = gen_distributed_support(40, 4, derive_seed(seed, "s"), n_off=12)
        X = gen_distributed_matrix(sup, ("gaussian", 0.0, 1.0), derive_seed(seed, "v"))
        rep = check_rip1(op, X, eps=0.25)
        upper += rep.upper_ok
        lower += rep.lower_ok
    ok = upper == n and lower >= 0.99 * n
    scorecard(3, "l1 restricted isometry", ok,
              f"upper bound {upper}/{n}, lower ratio >= 0.5 on {lower}/{n}")
    assert ok


def test_criterion_4_expansion_oracle_and_monte_carlo():
    # exact agreement with the brute-force oracle on small fixtures
    rng = np.random.default_rng(derive_seed(MASTER, "c4oracle"))
    oracle_ok = True
    for _ in range(30):
        p = int(rng.integers(2, 9))
        m = int(rng.integers(2, 7))
        g1 = gen_left_regular(p, m, 2, int(rng.integers(1 << 31)))
        g2 = gen_left_regular(p, m, 2, int(rng.integers(1 << 31)))
        tg = TensorGraph(g1, g2)
        sup = gen_distributed_support(p, min(2, p), int(rng.integers(1 << 31)))
        oracle_ok &= check_expansion(tg, sup) == brute_force_expansion(tg, sup)

    # Monte-Carlo clause at p=100, d=3, delta=5, m=87, eps=0.25
    passed = size_passed = 0
    max_out = []
    n = 200
    for t in range(n):
        seed = derive_seed(MASTER, "c4", t)
        g1 = gen_left_regular(100, 87, 5, derive_seed(seed, "g1"))
        g2 = gen_left_regular(100, 87, 5, derive_seed(seed, "g2"))
        sup = gen_distributed_support(100, 3, derive_seed(seed, "s"))
        rep = check_expansion(TensorGraph(g1, g2), sup, eps=0.25)
        passed += rep.passed_all
        size_passed += rep.passed_size
        max_out.append(rep.max_collision_outside)
    ok = oracle_ok and passed >= 0.95 * n
    scorecard(
        4, "tensor expansion verifier", ok,
        f"oracle match {oracle_ok}; all three parts {passed}/{n} "
        f"(size bound alone {size_passed}/{n}; per-cell collision bound is "
        f"eps*delta^2 = 6.25 while the observed max collision is "
        f"{np.mean(max_out):.1f} on average, min {min(max_out)} - the "
        f"collision clauses cannot hold at these parameters; see the "
        f"project notes)"
    )
    assert ok


def test_criterion_5_lp_oracle_equivalence():
    worst = 0.0
    n = 50
    for t in range(n):
        op, _, X = small_shared_instance(derive_seed(MASTER, "c5", t))
        Y = op.forward(X)
        res = solve_p1(op, Y)
        oracle = lp_oracle(op, Y)
        worst = max(worst, abs(res.objective - oracle.objective))
    ok = worst <= 1e-6
    scorecard(5, "iterative solver matches exact LP", ok,
              f"max objective gap {worst:.2e} over {n} instances")
    assert ok


@pytest.mark.parametrize("p, m", [(20, 10), (20, 24), (40, 12), (40, 32)])
def test_criterion_5_at_grid_sizes(p, m):
    # m on both sides of sqrt(14 p): the LP or a certified snap decides
    for t in range(2):
        cfg = TrialConfig(p=p, m=m, d=4, seed=derive_seed(MASTER, "c5-grid", p, m, t))
        op, X = _planted_instance(cfg, cfg.seed)
        Y = op.forward(X)
        res = solve_p1(op, Y)
        assert res.converged
        assert abs(res.objective - full_sparse_lp(op, Y)) <= 1e-6


def test_criterion_6_nullspace_property():
    below = 0
    n = 100
    for t in range(n):
        seed = derive_seed(MASTER, "c6", t)
        g = gen_screened_graph(40, 21, 4, derive_seed(seed, "g"))
        op = SketchOperator.from_graphs(g)
        sup = gen_distributed_support(40, 4, derive_seed(seed, "s"), n_off=12)
        ratio = check_nullspace(op, sup, 20, derive_seed(seed, "k"))
        below += ratio < 1.0

    # kernel check on small instances where recovery succeeds
    small_ok = True
    checked = 0
    for t in range(20):
        rng = np.random.default_rng(derive_seed(MASTER, "c6small", t))
        p = int(rng.integers(4, 7))
        g = gen_left_regular(p, p, 2, int(rng.integers(1 << 31)))
        op = SketchOperator.from_graphs(g)
        sup = gen_distributed_support(p, 2, int(rng.integers(1 << 31)), n_off=1)
        X = gen_distributed_matrix(sup, ("gaussian", 0.0, 1.0),
                                   int(rng.integers(1 << 31)))
        res = solve_p1(op, op.forward(X))
        if res.converged and np.abs(res.x - X).max() <= 1e-4:
            checked += 1
            small_ok &= check_nullspace(op, sup, 100, t) < 1.0
    ok = below >= 0.95 * n and small_ok
    scorecard(6, "kernel mass stays off distributed supports", ok,
              f"sampled ratio < 1 on {below}/{n}; small-instance check ok={small_ok} "
              f"on {checked} recovered small instances")
    assert ok


def test_criterion_7_noise_robustness():
    cfg = TrialConfig(p=40, m=21, d=4, delta=4, seed=derive_seed(MASTER, "c7"))
    # one ADMM step, then the exact LP: the bounds are about the program's
    # minimizer, and these dense noisy minimizers never snap
    opts = SolverOptions(max_iter=1)
    rows = noise_sweep(cfg, [0.5, 1.0, 2.0], trials=20, opts=opts)
    ratios = [r.error_l1 / r.noise_l1 for r in rows]
    means = {s: np.mean([r.error_l1 for r in rows if r.scale == s])
             for s in (0.5, 1.0, 2.0)}
    d1 = means[1.0] / means[0.5]
    d2 = means[2.0] / means[1.0]
    ok = max(ratios) <= 20.0 and 0.5 <= d1 <= 2.5 and 0.5 <= d2 <= 2.5
    scorecard(7, "noise robustness", ok,
              f"max error/perturbation ratio {max(ratios):.2f}; doubling "
              f"factors {d1:.2f}, {d2:.2f}")
    assert ok


def test_criterion_8_arrow_non_identifiability():
    witness_ok = 0
    fails = 0
    n = 40
    for t in range(n):
        seed = derive_seed(MASTER, "c8", t)
        g = gen_left_regular(40, 21, 4, seed)
        op = SketchOperator.from_graphs(g)
        X, X_alt = arrow_ambiguity_witness(op)
        gap = np.linalg.norm(op.forward(X) - op.forward(X_alt))
        witness_ok += gap <= 1e-10 * max(1.0, np.linalg.norm(op.forward(X)))

        # l1 recovery of an arrow-patterned matrix (random values on the
        # pattern; the all-ones arrow is usually itself the l1 minimizer,
        # so random values probe the identifiability failure)
        rng = np.random.default_rng(derive_seed(seed, "vals"))
        V = rng.standard_normal((40, 40))
        V[np.abs(V) < 1e-3] = 1e-3
        Xa = np.where(arrow_matrix(40) > 0, V, 0.0)
        res = solve_p1(op, op.forward(Xa))
        fails += np.abs(res.x - Xa).max() > 1e-2
    ok = witness_ok == n and fails >= 30
    scorecard(8, "arrow matrices are not identifiable", ok,
              f"witness sketches identical {witness_ok}/{n}; arrow recovery "
              f"failed {fails}/{n}")
    assert ok


def test_criterion_9_bernoulli_degree_bound():
    p, mean_deg, eps = 200, 2.0, 0.1
    d = prop1_degree_bound(mean_deg, p, eps)
    n = 500
    violations = sum(
        degree_of_sparsity(gen_bernoulli_matrix(p, mean_deg / p,
                                                derive_seed(MASTER, "c9", t))) > d
        for t in range(n)
    )
    ok = violations <= eps * n
    scorecard(9, "Bernoulli sparsity bound", ok,
              f"d={d:.2f}; {violations}/{n} violations (allowed {eps * n:.0f})")
    assert ok


def test_criterion_10_covariance_pipeline():
    rels = []
    jacs = []
    for t in range(10):
        seed = derive_seed(MASTER, "c10", t)
        sigma = gen_distributed_covariance(40, 4, derive_seed(seed, "sigma"),
                                           n_pairs=6)
        stream = SampleStream(sigma=sigma, n=2100, seed=derive_seed(seed, "stream"))
        A = gen_screened_graph(40, 21, 4, derive_seed(seed, "graph")).adjacency()
        sz = cov_sketch(stream, A)
        kappa = float(np.linalg.norm(sz - A @ sigma @ A.T))
        res = recover_covariance(A, sz, "constrained", kappa=kappa)
        rels.append(np.abs(res.x - sigma).sum() / np.abs(sigma).sum())
        truth = np.abs(sigma) > 0.25
        est = np.abs(res.x) > 0.25
        jacs.append((truth & est).sum() / (truth | est).sum())
    rel, jac = float(np.mean(rels)), float(np.mean(jacs))
    ok = rel <= 0.5 and jac >= 0.6
    scorecard(10, "covariance from 2100 samples", ok,
              f"mean relative l1 error {rel:.3f} (<= 0.5); mean support "
              f"Jaccard {jac:.3f} (>= 0.6)")
    assert ok


def test_criterion_11_graph_round_trip():
    wins = 0
    n = 40
    for t in range(n):
        seed = derive_seed(MASTER, "c11", t)
        X = gen_bounded_degree_graph(40, 3, derive_seed(seed, "g"), n_edges=16)
        A = random_partition(40, 21, 4, derive_seed(seed, "a"))
        _, rounded = graph_unsketch(A @ X @ A.T, A)
        wins += np.array_equal(rounded, X)
    ok = wins >= 36
    scorecard(11, "graph sketch round-trip", ok, f"{wins}/{n} exact after rounding")
    assert ok
