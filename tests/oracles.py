"""Independent oracles that the tests compare the library paths against:
exhaustive set arithmetic (small p only), the unsketched sample covariance,
and the equality program as one sparse LP over every column."""

import numpy as np
import scipy.optimize
import scipy.sparse

from matsketch.ensemble import Support, TensorGraph
from matsketch.verify import ExpansionReport


def brute_force_tensor_neighbors(tg: TensorGraph, support: Support) -> set:
    """Exhaustive quadruple-loop oracle for tensor neighborhoods; small p only."""
    out = set()
    for i, i2 in support.cells:
        for j in tg.g1.edges[i]:
            for j2 in tg.g2.edges[i2]:
                out.add((int(j), int(j2)))
    return out


def brute_force_expansion(
    tg: TensorGraph, support: Support, eps: float = 0.25
) -> ExpansionReport:
    """Set-arithmetic oracle for check_expansion, quadratic in p^2; used to
    validate the vectorized path on small fixtures."""
    p = tg.p
    n_omega = brute_force_tensor_neighbors(tg, support)

    def cell_neighbors(i, i2):
        return {
            (int(j), int(j2))
            for j in tg.g1.edges[i]
            for j2 in tg.g2.edges[i2]
        }

    max_outside = 0
    max_inside = 0
    for i in range(p):
        for i2 in range(p):
            nbrs = cell_neighbors(i, i2)
            if (i, i2) in support.cells:
                rest = Support.from_cells(p, support.cells - {(i, i2)})
                n_rest = brute_force_tensor_neighbors(tg, rest)
                max_inside = max(max_inside, len(nbrs & n_rest))
            else:
                max_outside = max(max_outside, len(nbrs & n_omega))

    delta2 = tg.g1.delta * tg.g2.delta
    bound = p * delta2 * (1.0 - eps)
    cbound = eps * delta2
    return ExpansionReport(
        neighborhood_size=len(n_omega),
        bound=bound,
        max_collision_outside=max_outside,
        max_collision_inside=max_inside,
        collision_bound=cbound,
        passed_size=len(n_omega) >= bound,
        passed_outside=max_outside <= cbound,
        passed_inside=max_inside <= cbound,
    )


def empirical_covariance(stream) -> np.ndarray:
    """Two-pass reference for cov_sketch: the unsketched sample covariance."""
    acc = np.zeros((stream.p, stream.p))
    for xi in stream.samples():
        acc += np.outer(xi, xi)
    return acc / stream.n


def full_sparse_lp(op, Y) -> float:
    """min 1^T (u + v) s.t. [K, -K] [u; v] = vec(Y), u, v >= 0, K = kron(B, A)."""
    K = scipy.sparse.kron(scipy.sparse.csc_matrix(op.B), scipy.sparse.csc_matrix(op.A))
    lp = scipy.optimize.linprog(
        np.ones(2 * K.shape[1]), A_eq=scipy.sparse.hstack([K, -K]),
        b_eq=Y.reshape(-1, order="F"), bounds=(0, None), method="highs",
    )
    assert lp.success
    return lp.fun
