import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matsketch.ensemble import ParameterError, gen_left_regular
from matsketch.operator import SketchOperator, unvec, vec

FIXTURE_A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 2.0]])


def fixture_op():
    return SketchOperator(A=FIXTURE_A.copy(), B=FIXTURE_A.copy(), shared_ab=True)


# --- forward ----------------------------------------------------------------


def test_forward_zero():
    op = fixture_op()
    assert np.array_equal(op.forward(np.zeros((3, 3))), np.zeros((2, 2)))


def test_forward_identity_sketch_is_identity_map():
    op = SketchOperator(A=np.eye(4), B=np.eye(4), shared_ab=True)
    X = np.random.default_rng(0).standard_normal((4, 4))
    assert np.allclose(op.forward(X), X)


def test_forward_hand_fixture():
    op = fixture_op()
    Y = op.forward(np.diag([1.0, 2.0, 3.0]))
    assert np.array_equal(Y, np.array([[3.0, 2.0], [2.0, 14.0]]))


def test_forward_shape_check():
    op = fixture_op()
    with pytest.raises(ParameterError):
        op.forward(np.zeros((4, 3)))


def test_forward_linearity():
    g = gen_left_regular(6, 4, 2, 1)
    op = SketchOperator.from_graphs(g)
    rng = np.random.default_rng(7)
    for _ in range(20):
        X, Z = rng.standard_normal((2, 6, 6))
        a, b = rng.standard_normal(2)
        lhs = op.forward(a * X + b * Z)
        rhs = a * op.forward(X) + b * op.forward(Z)
        assert np.abs(lhs - rhs).max() < 1e-12


# --- adjoint ----------------------------------------------------------------


def test_adjoint_zero_and_shape():
    op = fixture_op()
    assert np.array_equal(op.adjoint(np.zeros((2, 2))), np.zeros((3, 3)))
    with pytest.raises(ParameterError):
        op.adjoint(np.zeros((3, 3)))


def test_adjoint_identity_fixture():
    op = fixture_op()
    assert np.array_equal(op.adjoint(np.eye(2)), FIXTURE_A.T @ FIXTURE_A)


def test_adjoint_pairing_identity():
    g1 = gen_left_regular(9, 5, 3, 2)
    g2 = gen_left_regular(9, 5, 2, 3)
    op = SketchOperator.from_graphs(g1, g2)
    rng = np.random.default_rng(11)
    for _ in range(100):
        X = rng.standard_normal((9, 9))
        M = rng.standard_normal((5, 5))
        lhs = float(np.sum(op.forward(X) * M))
        rhs = float(np.sum(X * op.adjoint(M)))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 9), st.integers(1, 9))
def test_adjoint_pairing_on_random_rectangular_operators(seed, m, p1, p2):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, p1))
    B = rng.standard_normal((m, p2))
    op = SketchOperator(A=A, B=B)
    X = rng.standard_normal((p1, p2))
    W = rng.standard_normal((m, m))
    lhs = float(np.sum(op.forward(X) * W))
    rhs = float(np.sum(X * op.adjoint(W)))
    scale = np.linalg.norm(A) * np.linalg.norm(B) * np.linalg.norm(X) * np.linalg.norm(W)
    assert abs(lhs - rhs) <= 1e-12 * scale


# --- vec / unvec ------------------------------------------------------------


def test_vec_is_column_stacking():
    X = np.array([[1.0, 3.0], [2.0, 4.0]])  # [[a, c], [b, d]]
    assert np.array_equal(vec(X), np.array([1.0, 2.0, 3.0, 4.0]))


def test_vec_round_trip():
    X = np.random.default_rng(4).standard_normal((7, 5))
    assert np.array_equal(unvec(vec(X), 7, 5), X)
    with pytest.raises(ParameterError):
        unvec(np.zeros(6), 2, 2)


def test_vec_index_identity():
    p = 5
    X = np.arange(p * p, dtype=float).reshape(p, p)
    x = vec(X)
    for i in range(p):
        for j in range(p):
            assert x[j * p + i] == X[i, j]


# --- Kronecker form ---------------------------------------------------------


def test_kron_scalar_case():
    op = SketchOperator(A=np.array([[3.0]]), B=np.array([[2.0]]), shared_ab=False)
    assert np.array_equal(np.kron(op.B, op.A), np.array([[6.0]]))


def test_kron_block_form_fixture():
    op = fixture_op()
    K = np.kron(op.B, op.A)
    assert K.shape == (4, 9)
    blocks = [
        [FIXTURE_A[0, 0] * FIXTURE_A, FIXTURE_A[0, 1] * FIXTURE_A, FIXTURE_A[0, 2] * FIXTURE_A],
        [FIXTURE_A[1, 0] * FIXTURE_A, FIXTURE_A[1, 1] * FIXTURE_A, FIXTURE_A[1, 2] * FIXTURE_A],
    ]
    assert np.array_equal(K, np.block(blocks))


def test_kron_column_sums_are_delta_squared():
    g = gen_left_regular(5, 4, 3, 17)
    op = SketchOperator.from_graphs(g)
    K = np.kron(op.B, op.A)
    assert np.array_equal(K.sum(axis=0), np.full(25, 9.0))


def test_materialized_matches_implicit_path():
    rng = np.random.default_rng(21)
    for _ in range(100):
        p = int(rng.integers(2, 9))
        m = int(rng.integers(2, 7))
        g1 = gen_left_regular(p, m, 2, int(rng.integers(1 << 31)))
        g2 = gen_left_regular(p, m, 3, int(rng.integers(1 << 31)))
        op = SketchOperator.from_graphs(g1, g2)
        K = np.kron(op.B, op.A)
        X = rng.standard_normal((p, p))
        assert np.abs(K @ vec(X) - vec(op.forward(X))).max() < 1e-12


# --- norms ------------------------------------------------------------------


def test_forward_l1_bound_holds_always():
    rng = np.random.default_rng(30)
    g = gen_left_regular(12, 7, 3, 8)
    op = SketchOperator.from_graphs(g)
    for _ in range(200):
        X = rng.standard_normal((12, 12))
        assert np.abs(op.forward(X)).sum() <= 9.0 * np.abs(X).sum() + 1e-9


def test_operator_properties():
    g = gen_left_regular(6, 4, 2, 1)
    op = SketchOperator.from_graphs(g)
    assert (op.m, op.p1, op.p2) == (4, 6, 6)
    assert op.shared_ab
    op2 = SketchOperator.from_graphs(g, gen_left_regular(6, 4, 2, 2))
    assert not op2.shared_ab


def test_shared_ab_requires_b_equal_to_a():
    # a false flag would make the solvers use A's Gram matrix for B
    A = gen_left_regular(12, 6, 2, 1).adjacency()
    B = gen_left_regular(12, 6, 2, 2).adjacency()
    with pytest.raises(ParameterError):
        SketchOperator(A=A, B=B, shared_ab=True)
    assert SketchOperator(A=A, B=A.copy(), shared_ab=True).shared_ab
