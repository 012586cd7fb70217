import hashlib

import numpy as np
import pytest

from matsketch.ensemble import (
    BipartiteGraph,
    ParameterError,
    Support,
    TensorGraph,
    arrow_matrix,
    column_difference_collision,
    default_delta,
    degree_of_sparsity,
    gen_bernoulli_matrix,
    gen_distributed_matrix,
    gen_distributed_support,
    gen_left_regular,
    gen_screened_graph,
    load_graph,
    load_matrix_csv,
    prop1_degree_bound,
    save_graph,
    save_matrix_csv,
)
from matsketch.pipelines import gen_bounded_degree_graph, gen_distributed_covariance
from matsketch.verify import check_expansion
from oracles import brute_force_tensor_neighbors


# --- graph generation -------------------------------------------------------


def test_left_regular_column_sums():
    g = gen_left_regular(6, 3, 2, 7)
    A = g.adjacency()
    assert A.shape == (3, 6)
    assert np.array_equal(A.sum(axis=0), np.full(6, 2.0))


def test_left_regular_single_vertex_multi_edge():
    g = gen_left_regular(1, 1, 3, 0)
    assert g.adjacency()[0, 0] == 3.0


def test_left_regular_deterministic_in_seed():
    a = gen_left_regular(10, 6, 3, 42)
    b = gen_left_regular(10, 6, 3, 42)
    c = gen_left_regular(10, 6, 3, 43)
    assert np.array_equal(a.edges, b.edges)
    assert not np.array_equal(a.edges, c.edges)


def test_left_regular_rejects_degenerate_degree():
    with pytest.raises(ParameterError):
        gen_left_regular(4, 2, 21, 0)
    with pytest.raises(ParameterError):
        gen_left_regular(0, 2, 1, 0)


def test_repeated_target_fraction_matches_birthday_value():
    # fraction of left vertices with a repeated target among 4 draws from 21
    exact = 1.0 - (21 * 20 * 19 * 18) / 21.0**4
    assert abs(exact - 0.264) < 5e-3  # pin the arithmetic itself
    rng = np.random.default_rng(123)
    draws = rng.integers(0, 21, size=(10_000 * 40, 4))
    sorted_rows = np.sort(draws, axis=1)
    repeated = (np.diff(sorted_rows, axis=1) == 0).any(axis=1)
    assert abs(repeated.mean() - exact) < 0.02


def test_clip_binary_adjacency():
    g = gen_left_regular(1, 1, 3, 0)
    assert g.adjacency(clip_binary=True)[0, 0] == 1.0


def test_default_delta():
    assert default_delta(40) == 4
    assert default_delta(2) == 2


def test_tensor_graph_requires_matching_shapes():
    with pytest.raises(ParameterError):
        TensorGraph(gen_left_regular(3, 2, 1, 0), gen_left_regular(4, 2, 1, 0))


def test_tensor_neighbors_exhaustive_oracle_small_instances():
    # |N(Omega)| from check_expansion against the set-union oracle, with g2 of
    # degree 3 beside g1 of degree 2
    rng = np.random.default_rng(5)
    for trial in range(25):
        p = int(rng.integers(2, 9))
        m = int(rng.integers(2, 7))
        g1 = gen_left_regular(p, m, 2, int(rng.integers(1 << 31)))
        g2 = gen_left_regular(p, m, 3, int(rng.integers(1 << 31)))
        tg = TensorGraph(g1, g2)
        sup = gen_distributed_support(p, min(2, p), int(rng.integers(1 << 31)))
        assert check_expansion(tg, sup).neighborhood_size == len(
            brute_force_tensor_neighbors(tg, sup)
        )


# --- supports ---------------------------------------------------------------


def test_support_d1_is_diagonal():
    sup = gen_distributed_support(5, 1, 99)
    assert sup.cells == frozenset((i, i) for i in range(5))


def test_support_bounds_at_experiment_scale():
    sup = gen_distributed_support(40, 4, 3)
    assert 40 <= len(sup.cells) <= 160
    assert sup.row_counts.max() <= 4 and sup.col_counts.max() <= 4
    assert sup.is_distributed(4)


def test_support_recount_invariant():
    sup = gen_distributed_support(10, 3, 11)
    rows = np.zeros(10, dtype=int)
    cols = np.zeros(10, dtype=int)
    for i, j in sup.cells:
        rows[i] += 1
        cols[j] += 1
    assert np.array_equal(rows, sup.row_counts)
    assert np.array_equal(cols, sup.col_counts)


def test_support_off_cell_cap():
    sup = gen_distributed_support(12, 4, 2, n_off=5)
    assert len(sup.cells) == 12 + 5
    assert sup.is_distributed(4)
    diag_only = gen_distributed_support(12, 4, 2, n_off=0)
    assert diag_only.cells == frozenset((i, i) for i in range(12))
    with pytest.raises(ParameterError):
        gen_distributed_support(12, 4, 2, n_off=-1)


# sha256 of seeded sampler outputs (args: p, d or max_off_degree, seed, target),
# so that every seeded instance stays byte-identical; the p = 3 draws stall
# (no admissible cell is left) and stop at the attempt cap
SAMPLER_PINS = [
    (gen_distributed_support, (20, 3, 1, None),
     "a9d4a9faed376bdc1673bf27126e30bb7056a9c890934c53be83cf056171c3c6"),
    (gen_distributed_support, (20, 3, 2, 6),
     "91fdc604fb0eb32a56960c9fdbfca171c39ba4e44d3c29850d7beb846ec9a263"),
    (gen_distributed_support, (40, 4, 7, None),
     "0d423d5311a5ee194df630c3b1143ace172f1f672076d1c4031d13629bb276f6"),
    (gen_distributed_support, (40, 4, 8, 12),
     "5e5148d906aa1c5f14ed9f53260472636a935313c5e037da0af8eb15ad5ffbdc"),
    (gen_distributed_support, (3, 2, 3, None),
     "2c978116c95be7ef76a340ea608b93ddca73fb5c993a3d58c606cada6261a690"),
    (gen_distributed_support, (3, 2, 3, 5),
     "2c978116c95be7ef76a340ea608b93ddca73fb5c993a3d58c606cada6261a690"),
    (gen_distributed_covariance, (12, 3, 4, None),
     "fa17bcefd6eee7d334e990237f934aaeedfbb02a4bdbfd504f08bb44ce51ac0e"),
    (gen_distributed_covariance, (12, 3, 4, 2),
     "c140efc8a5780a9b5bd0fd3696dec8c0dc2c425229f2a3ccc137c3aac8d69db6"),
    (gen_distributed_covariance, (30, 2, 11, None),
     "0a2c545ac2fa22334ff562e55b94322b3278e20f3a24c2f16303cfb5b419811f"),
    (gen_distributed_covariance, (3, 2, 0, None),
     "615fe746f7e164aaa5355a0d10b8d15ddd79de77f09f8defb171831116c4d5a5"),
    (gen_bounded_degree_graph, (20, 3, 5, None),
     "9c240b5853101b469edd4679ba351951f0c93a449c53b7a2df8d33f5222707aa"),
    (gen_bounded_degree_graph, (20, 3, 5, 4),
     "048d0b652baf92466c2b06d518b4ad5641c2a8bb3404fc7b8cbf0ca650019d9b"),
    (gen_bounded_degree_graph, (40, 3, 9, 16),
     "63250fb0f9aec5799374b35b77a4e8ed9aa734bed98387aef94429271c2b3459"),
    (gen_bounded_degree_graph, (3, 1, 0, None),
     "acfd42a6d6c874000dace689964420160d6e61ef57a0a0d68a4a3ca8881fea45"),
]


@pytest.mark.parametrize("gen, args, digest", SAMPLER_PINS)
def test_sampler_outputs_are_pinned(gen, args, digest):
    out = gen(*args)
    if isinstance(out, Support):
        out = np.array(sorted(out.cells), dtype=np.int64)
    assert hashlib.sha256(out.tobytes()).hexdigest() == digest


def test_support_validation():
    with pytest.raises(ParameterError):
        gen_distributed_support(4, 5, 0)
    with pytest.raises(ParameterError):
        Support.from_cells(3, [(0, 3)])
    sup = Support.from_cells(3, [(0, 0), (1, 1)])
    assert not sup.is_distributed(1)  # diagonal incomplete


# --- matrices ---------------------------------------------------------------


def test_distributed_matrix_unit_diagonal_is_identity():
    sup = gen_distributed_support(6, 1, 4)
    X = gen_distributed_matrix(sup, "unit", 0)
    assert np.array_equal(X, np.eye(6))


def test_distributed_matrix_respects_support_and_floor():
    sup = gen_distributed_support(15, 3, 8)
    X = gen_distributed_matrix(sup, ("gaussian", 0.0, 1.0), 5)
    assert degree_of_sparsity(X) <= 3
    nz = {(int(i), int(j)) for i, j in zip(*np.nonzero(X))}
    assert nz == set(sup.cells)
    assert np.abs(X[X != 0]).min() >= 1e-3
    assert np.abs(X).sum() > 0


def test_distributed_matrix_uniform_spec():
    sup = gen_distributed_support(5, 2, 3)
    X = gen_distributed_matrix(sup, ("uniform", 1.0, 2.0), 1)
    assert X[X != 0].min() >= 1.0 and X.max() <= 2.0
    with pytest.raises(ParameterError):
        gen_distributed_matrix(sup, ("triangular", 0, 1), 1)


def test_bernoulli_edge_cases():
    assert np.array_equal(gen_bernoulli_matrix(4, 0.0, 0), np.zeros((4, 4)))
    ones = gen_bernoulli_matrix(4, 1.0, 0)
    assert np.array_equal(ones, np.ones((4, 4)))
    assert degree_of_sparsity(ones) == 4
    with pytest.raises(ParameterError):
        gen_bernoulli_matrix(4, 1.5, 0)


def test_bernoulli_mean_entry_count():
    counts = [gen_bernoulli_matrix(200, 2 / 200, s).sum() for s in range(100)]
    assert abs(np.mean(counts) - 400) <= 60


# --- sparsity arithmetic ----------------------------------------------------


def test_prop1_degree_bound_value():
    d = prop1_degree_bound(2.0, 100, 0.01)
    assert abs(d - (2.0 + 2.0 * np.log(20000.0))) < 1e-12
    assert abs(d - 21.81) < 0.01


def test_prop1_degree_bound_monotone_in_eps():
    assert prop1_degree_bound(2.0, 100, 0.01) > prop1_degree_bound(2.0, 100, 0.1)
    with pytest.raises(ParameterError):
        prop1_degree_bound(0.0, 100, 0.1)
    with pytest.raises(ParameterError):
        prop1_degree_bound(2.0, 100, 1.5)


def test_degree_of_sparsity_patterns():
    assert degree_of_sparsity(np.eye(7)) == 1
    tri = np.eye(6) + np.diag(np.ones(5), 1) + np.diag(np.ones(5), -1)
    assert degree_of_sparsity(tri) == 3
    assert degree_of_sparsity(arrow_matrix(9)) == 9
    assert degree_of_sparsity(np.zeros((3, 3))) == 0


# --- collision screening ----------------------------------------------------


def test_duplicate_columns_are_collisions():
    g = BipartiteGraph(p=2, m=3, delta=2, edges=np.array([[0, 1], [0, 1]]))
    assert column_difference_collision(g)


def test_matched_column_differences_are_collisions():
    # columns 0-1 and 2-3 both differ by the vector e0 - e1
    edges = np.array([[0, 2], [1, 2], [0, 1], [1, 1]])
    g = BipartiteGraph(p=4, m=3, delta=2, edges=edges)
    assert column_difference_collision(g)


@pytest.mark.xfail(strict=True, reason=(
    "column_difference_collision keys each difference by tobytes(), and negating "
    "a difference turns its zeros into -0.0, whose bytes differ from +0.0"))
def test_sign_flipped_column_differences_are_collisions():
    # columns 0-5 and 3-5 differ by e2 - e4 and e4 - e2
    g = gen_left_regular(6, 5, 2, 1)
    A = g.adjacency()
    assert np.array_equal(A[:, 0] - A[:, 5], A[:, 5] - A[:, 3])
    assert column_difference_collision(g)


def test_screened_graph_is_collision_free():
    g = gen_screened_graph(40, 21, 4, 0)
    assert not column_difference_collision(g)
    # deterministic in the seed
    h = gen_screened_graph(40, 21, 4, 0)
    assert np.array_equal(g.edges, h.edges)


# --- serialization ----------------------------------------------------------


def test_graph_round_trip(tmp_path):
    g = gen_left_regular(7, 4, 3, 13)
    path = tmp_path / "g.txt"
    save_graph(g, path)
    h = load_graph(path)
    assert (h.p, h.m, h.delta) == (7, 4, 3)
    assert np.array_equal(g.edges, h.edges)
    first = path.read_text().splitlines()[0]
    assert first == "7 4 3"


def test_matrix_csv_round_trip(tmp_path):
    X = np.random.default_rng(3).standard_normal((4, 6))
    path = tmp_path / "x.csv"
    save_matrix_csv(X, path)
    assert np.allclose(load_matrix_csv(path), X, atol=0, rtol=1e-15)
