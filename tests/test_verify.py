import numpy as np
import pytest

from matsketch.ensemble import (
    BipartiteGraph,
    ParameterError,
    Support,
    TensorGraph,
    gen_distributed_support,
    gen_left_regular,
)
from matsketch.operator import SketchOperator
from matsketch.verify import (
    arrow_ambiguity_witness,
    check_expansion,
    check_nullspace,
    check_rip1,
)

from oracles import brute_force_expansion


# --- expansion --------------------------------------------------------------


def test_expansion_single_edge_graph():
    g = gen_left_regular(2, 3, 1, 4)
    tg = TensorGraph(g, g)
    sup = Support.from_cells(2, [(0, 0), (1, 1)])
    rep = check_expansion(tg, sup, eps=0.25)
    assert rep.neighborhood_size <= 2
    assert rep.max_collision_outside <= 1
    assert rep.max_collision_inside <= 1


def test_expansion_single_cell_neighborhood_is_cartesian_product():
    # N({(0, 0)}) = {1, 3} x {1, 3}
    g = BipartiteGraph(p=2, m=5, delta=2, edges=np.array([[1, 3], [0, 0]]))
    rep = check_expansion(TensorGraph(g, g), Support.from_cells(2, [(0, 0)]))
    assert rep.neighborhood_size == 4


def test_expansion_matches_brute_force_on_hand_fixture(hand_graph):
    tg = TensorGraph(hand_graph, hand_graph)
    sup = gen_distributed_support(3, 2, 1)
    fast = check_expansion(tg, sup, eps=0.25)
    slow = brute_force_expansion(tg, sup, eps=0.25)
    assert fast == slow


def test_expansion_matches_brute_force_on_random_small_instances():
    rng = np.random.default_rng(17)
    for _ in range(20):
        p = int(rng.integers(2, 9))
        m = int(rng.integers(2, 7))
        g1 = gen_left_regular(p, m, 2, int(rng.integers(1 << 31)))
        g2 = gen_left_regular(p, m, 2, int(rng.integers(1 << 31)))
        tg = TensorGraph(g1, g2)
        sup = gen_distributed_support(p, min(2, p), int(rng.integers(1 << 31)))
        assert check_expansion(tg, sup) == brute_force_expansion(tg, sup)


def test_expansion_report_bounds_and_json():
    g = gen_left_regular(6, 4, 2, 9)
    tg = TensorGraph(g, g)
    sup = gen_distributed_support(6, 2, 2)
    rep = check_expansion(tg, sup, eps=0.2)
    assert rep.neighborhood_size <= 16  # m^2
    assert rep.max_collision_outside <= 4  # delta^2
    assert rep.max_collision_inside <= 4
    assert rep.passed_all == (
        rep.passed_size and rep.passed_outside and rep.passed_inside
    )


def test_expansion_cost_cap_and_validation():
    g = gen_left_regular(301, 10, 2, 0)
    tg = TensorGraph(g, g)
    sup = Support.from_cells(301, [(i, i) for i in range(301)])
    with pytest.raises(ParameterError):
        check_expansion(tg, sup)
    g = gen_left_regular(4, 3, 2, 0)
    with pytest.raises(ParameterError):
        check_expansion(TensorGraph(g, g), sup)
    with pytest.raises(ParameterError):
        check_expansion(TensorGraph(g, g), gen_distributed_support(4, 2, 0), eps=1.5)


# --- RIP --------------------------------------------------------------------


def test_rip_single_nonzero_has_unit_ratio():
    g = gen_left_regular(8, 5, 3, 6)
    op = SketchOperator.from_graphs(g)
    X = np.zeros((8, 8))
    X[2, 5] = -3.0
    rep = check_rip1(op, X)
    assert abs(rep.ratio - 1.0) < 1e-12
    assert rep.upper_ok and rep.lower_ok


def test_rip_upper_bound_always_holds():
    rng = np.random.default_rng(23)
    for _ in range(100):
        g = gen_left_regular(10, 6, 2, int(rng.integers(1 << 31)))
        op = SketchOperator.from_graphs(g)
        X = rng.standard_normal((10, 10))
        assert check_rip1(op, X).upper_ok


def test_rip_rejects_bad_inputs():
    g = gen_left_regular(4, 3, 2, 0)
    op = SketchOperator.from_graphs(g)
    with pytest.raises(ParameterError):
        check_rip1(op, np.zeros((4, 4)))
    op2 = SketchOperator.from_graphs(g, gen_left_regular(4, 3, 2, 1))
    with pytest.raises(ParameterError):
        check_rip1(op2, np.eye(4))


# --- nullspace --------------------------------------------------------------


def test_nullspace_empty_support_gives_zero():
    g = gen_left_regular(5, 3, 2, 2)
    op = SketchOperator.from_graphs(g)
    assert check_nullspace(op, Support.from_cells(5, []), 10, 0) == 0.0


def test_nullspace_dense_path_small_instance():
    g = gen_left_regular(6, 4, 2, 3)
    op = SketchOperator.from_graphs(g)
    sup = gen_distributed_support(6, 2, 5)
    ratio = check_nullspace(op, sup, 100, 1)
    assert np.isfinite(ratio) and ratio >= 0.0


def test_nullspace_sampled_path_matches_kernel():
    g = gen_left_regular(20, 12, 3, 4)
    op = SketchOperator.from_graphs(g)
    sup = gen_distributed_support(20, 3, 6)
    ratio = check_nullspace(op, sup, 10, 2)
    assert np.isfinite(ratio) and ratio >= 0.0


def test_nullspace_of_a_trivial_kernel_is_zero():
    # m = 16 > p = 12: A has full column rank on seeds 1..5, so the forward
    # map is injective and no kernel element exists to put mass on Omega
    sup = gen_distributed_support(12, 2, 0)
    for s in range(1, 6):
        op = SketchOperator.from_graphs(gen_left_regular(12, 16, 3, s))
        assert np.linalg.matrix_rank(op.A) == 12
        assert check_nullspace(op, sup, 20, 0) == 0.0
    # seed 0 draws an A of rank 11: a nontrivial kernel, which is sampled
    op = SketchOperator.from_graphs(gen_left_regular(12, 16, 3, 0))
    assert np.linalg.matrix_rank(op.A) == 11
    assert round(check_nullspace(op, sup, 20, 0), 4) == 0.2372


def test_nullspace_validation():
    g = gen_left_regular(5, 3, 2, 2)
    op = SketchOperator.from_graphs(g)
    with pytest.raises(ParameterError):
        check_nullspace(op, gen_distributed_support(5, 2, 0), 0, 0)


# --- arrow witness ----------------------------------------------------------


def test_arrow_witness_produces_identical_sketches():
    g = gen_left_regular(12, 8, 3, 7)
    op = SketchOperator.from_graphs(g)
    X, X_alt = arrow_ambiguity_witness(op)
    assert np.abs(X - X_alt).sum() > 1e-3
    gap = np.linalg.norm(op.forward(X) - op.forward(X_alt))
    assert gap <= 1e-10 * max(1.0, np.linalg.norm(op.forward(X)))
    # only the first column differs
    assert np.array_equal(X[:, 1:], X_alt[:, 1:])


def test_arrow_witness_requires_nontrivial_kernel():
    op = SketchOperator(A=np.eye(4), B=np.eye(4), shared_ab=True)
    with pytest.raises(ParameterError):
        arrow_ambiguity_witness(op)
