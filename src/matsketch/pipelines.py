"""End-to-end application flows built on the core recovery path:
covariance sketching from streamed samples, cross-covariance sketching,
and graph sketching / unsketching.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .ensemble import (
    ParameterError,
    Support,
    _rejection_support,
    gen_screened_graph,
)
from .operator import SketchOperator
from .solver import RecoveryResult, SolverOptions, solve_p1, solve_constrained


# --- covariance sketching --------------------------------------------------


def gen_symmetric_distributed_support(
    p: int, d: int, seed: int, n_pairs: int | None = None
) -> Support:
    """Symmetric d-distributed support: diagonal plus mirrored off-diagonal
    pairs added by rejection sampling while the d bound permits.

    ``n_pairs`` caps the number of mirrored off-diagonal pairs; the default
    fills every row and column to d cells where feasible.
    """
    if d < 1 or d > p:
        raise ParameterError(f"need 1 <= d <= p, got d={d}, p={p}")
    if n_pairs is not None and n_pairs < 0:
        raise ParameterError("n_pairs must be nonnegative")
    return _rejection_support(p, d, seed, symmetric=True, target=n_pairs, cap=100 * p * d)


def gen_distributed_covariance(
    p: int, d: int, seed: int, n_pairs: int | None = None
) -> np.ndarray:
    """Random symmetric PSD d-distributed sparse covariance.

    Off-diagonal values are standard normal (mirrored); the diagonal is set
    to d * max|off-diagonal| + 1, which makes the matrix diagonally
    dominant and hence positive definite.
    """
    support = gen_symmetric_distributed_support(p, d, seed, n_pairs=n_pairs)
    rng = np.random.default_rng(seed + 1)
    sigma = np.zeros((p, p))
    for i, j in sorted(support.cells):
        if i < j:
            v = rng.standard_normal()
            sigma[i, j] = v
            sigma[j, i] = v
    off_max = np.abs(sigma).max() if p > 1 else 0.0
    np.fill_diagonal(sigma, d * off_max + 1.0)
    return sigma


#: samples SampleStream draws and transforms in one block
_BLOCK = 256


@dataclass
class SampleStream:
    """Seeded source of n i.i.d. Gaussian p-vectors with covariance sigma,
    read in blocks of at most _BLOCK samples."""

    sigma: np.ndarray
    n: int
    seed: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n <= 0:
            raise ParameterError(f"n must be a positive integer, got {self.n!r}")
        sigma = self.sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ParameterError(f"sigma must be square, got shape {sigma.shape}")
        if not np.array_equal(sigma, sigma.T):
            raise ParameterError("sigma must be symmetric")
        w, V = scipy.linalg.eigh(sigma)
        if w.min() < -1e-10 * max(1.0, w.max()):
            raise ParameterError("sigma is not positive semidefinite")
        self._factor = V * np.sqrt(np.maximum(w, 0.0))  # F with F F^T = sigma

    @property
    def p(self) -> int:
        return self.sigma.shape[0]

    def _blocks(self):
        """Yield the samples as the rows of k x p blocks, k <= _BLOCK. The
        block draws are the per-sample draws, in the same order."""
        rng = np.random.default_rng(self.seed)
        for start in range(0, self.n, _BLOCK):
            k = min(_BLOCK, self.n - start)
            yield rng.standard_normal((k, self.p)) @ self._factor.T

    def samples(self):
        """Yield the n samples one at a time (nothing p-dimensional is kept
        beyond the current block)."""
        for block in self._blocks():
            yield from block


def _sketch_matrix(A: np.ndarray, stream: SampleStream) -> np.ndarray:
    """A as a new float array, checked to have one column per coordinate of
    the stream's samples."""
    A = np.array(A, dtype=float)
    if A.ndim != 2 or A.shape[1] != stream.p:
        raise ParameterError(f"A has shape {A.shape}, need {stream.p} columns")
    return A


def cov_sketch(stream: SampleStream, A: np.ndarray) -> np.ndarray:
    """Sketch-domain empirical covariance (1/n) sum of (A xi)(A xi)^T,
    accumulated in one pass over the stream as Z^T Z per block of sketched
    samples Z."""
    A = _sketch_matrix(A, stream)
    acc = np.zeros((A.shape[0], A.shape[0]))
    for block in stream._blocks():
        Z = block @ A.T
        acc += Z.T @ Z
    return acc / stream.n


def recover_covariance(
    A: np.ndarray,
    sigma_z: np.ndarray,
    mode: str = "exact",
    kappa: float = 0.0,
    opts: SolverOptions = SolverOptions(),
) -> RecoveryResult:
    """Recover a distributed-sparse covariance from its sketch A Sigma A^T.

    mode "exact" solves the equality program; "constrained" relaxes the
    constraint to an l2 ball of radius kappa around the observed sketch.
    A sketch whose relative asymmetry exceeds 1e-8 raises ParameterError.
    """
    sigma_z = np.asarray(sigma_z, dtype=float)
    asym = np.linalg.norm(sigma_z - sigma_z.T) / max(1.0, np.linalg.norm(sigma_z))
    if asym > 1e-8:
        raise ParameterError(f"sketch asymmetry {asym:.2e} exceeds 1e-8")
    sigma_z = 0.5 * (sigma_z + sigma_z.T)
    op = SketchOperator(A=np.array(A, dtype=float), B=np.array(A, dtype=float), shared_ab=True)
    if mode == "exact":
        return solve_p1(op, sigma_z, opts)
    if mode == "constrained":
        return solve_constrained(op, sigma_z, kappa, opts)
    raise ParameterError(f"unknown mode {mode!r}")


def cross_cov_recover(
    A: np.ndarray,
    B: np.ndarray,
    sigma_zw: np.ndarray,
    opts: SolverOptions = SolverOptions(),
) -> RecoveryResult:
    """Recover a distributed-sparse cross-covariance from A Sigma B^T;
    independent sketching matrices, no symmetry requirement. A (m x p1)
    and B (m x p2) may differ in column count: Sigma is then p1 x p2."""
    op = SketchOperator(A=np.array(A, dtype=float), B=np.array(B, dtype=float))
    return solve_p1(op, np.asarray(sigma_zw, dtype=float), opts)


def select_kappa_cv(
    A: np.ndarray,
    stream: SampleStream,
    grid: np.ndarray | None = None,
    opts: SolverOptions = SolverOptions(),
    seed: int = 0,
) -> float:
    """Pick the constraint radius by 5-fold cross-validation.

    Candidates default to {2^-8, ..., 2^4} * ||sketch||_2; each fold
    recovers from the training-half sketch covariance and scores the
    held-out sketch covariance in Frobenius norm.
    """
    A = _sketch_matrix(A, stream)
    Z = np.concatenate([block @ A.T for block in stream._blocks()])  # sketched samples
    n = len(Z)
    if n < 5:
        raise ParameterError("need at least one sample per fold")
    if grid is None:
        grid = np.linalg.norm(Z.T @ Z / n) * (2.0 ** np.arange(-8, 5, dtype=float))
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    folds = np.array_split(order, 5)

    op = SketchOperator(A=A, B=A, shared_ab=True)
    scores = np.zeros(len(grid))
    for fold in folds:
        train = np.ones(n, dtype=bool)
        train[fold] = False
        Z_train, Z_val = Z[train], Z[fold]
        y_train = Z_train.T @ Z_train / len(Z_train)
        y_val = Z_val.T @ Z_val / len(Z_val)
        for k, kappa in enumerate(grid):
            res = solve_constrained(op, y_train, float(kappa), opts)
            scores[k] += np.linalg.norm(op.forward(res.x) - y_val)
    return float(grid[int(np.argmin(scores))])


# --- graph sketching -------------------------------------------------------


@dataclass
class PartitionedGraph:
    """An undirected graph on [p] (self-loops on every vertex) together with
    m vertex subsets; overlaps are allowed, every vertex joins >= 1 part."""

    adjacency: np.ndarray  # p x p symmetric 0/1, ones on the diagonal
    parts: list  # list of vertex index collections

    def __post_init__(self):
        X = np.asarray(self.adjacency)
        if not np.array_equal(X, X.T):
            raise ParameterError("adjacency must be symmetric")
        covered = set()
        for part in self.parts:
            covered.update(int(v) for v in part)
        if covered != set(range(X.shape[0])):
            raise ParameterError("every vertex must belong to at least one part")

    @property
    def p(self) -> int:
        return self.adjacency.shape[0]

    def indicator(self) -> np.ndarray:
        """m x p part-membership indicator matrix."""
        A = np.zeros((len(self.parts), self.p))
        for i, part in enumerate(self.parts):
            for v in part:
                A[i, int(v)] = 1.0
        return A


def graph_sketch(pg: PartitionedGraph) -> np.ndarray:
    """Edge-count sketch A X A^T of the graph adjacency (self-loops on the
    diagonal), where A is the partition indicator."""
    A = pg.indicator()
    return A @ pg.adjacency @ A.T


def random_partition(p: int, m: int, delta: int, seed: int) -> np.ndarray:
    """Partition indicator from the left-regular ensemble: each vertex joins
    delta parts drawn with replacement, so the indicator is the (possibly
    multi-edge) graph adjacency. Draws are screened against
    column-difference collisions, which would make distinct vertex pairs
    indistinguishable in the sketch."""
    return gen_screened_graph(p, m, delta, seed).adjacency()


def graph_unsketch(
    Y: np.ndarray, A: np.ndarray, opts: SolverOptions = SolverOptions()
):
    """Recover the adjacency from the sketch by l1 minimization, then round
    entrywise at 0.5. Returns (RecoveryResult, rounded 0/1 adjacency)."""
    op = SketchOperator(A=np.array(A, dtype=float), B=np.array(A, dtype=float), shared_ab=True)
    res = solve_p1(op, np.asarray(Y, dtype=float), opts)
    rounded = (res.x >= 0.5).astype(float)
    return res, rounded


def gen_bounded_degree_graph(
    p: int, max_off_degree: int, seed: int, n_edges: int | None = None
) -> np.ndarray:
    """Random undirected graph with at most max_off_degree off-diagonal
    neighbors per vertex; all self-loops present (adjacency diagonal = 1).

    ``n_edges`` caps the number of off-diagonal edges; the default keeps
    adding until every vertex reaches the degree bound.
    """
    support = _rejection_support(
        p, max_off_degree + 1, seed, symmetric=True, target=n_edges, cap=50 * p * max_off_degree
    )
    return support.indicator().astype(float)


def _index_pairs(path, p: int, parts: bool = False) -> list:
    """0-based (a, b) from a text file of 1-based ``a b`` lines, with a in
    1..p and b in 1..p, or b >= 1 when b names a part. Any other non-blank
    line raises ParameterError naming the file and line."""
    pairs = []
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                a, b = (int(t) for t in line.split())
            except ValueError:
                a = b = 0
            if not (1 <= a <= p and 1 <= b and (parts or b <= p)):
                want = f"a vertex in 1..{p} and a part >= 1" if parts else f"two vertices in 1..{p}"
                raise ParameterError(f"{path}:{n}: {line.strip()!r} is not {want}")
            pairs.append((a - 1, b - 1))
    return pairs


def load_edge_list(path, p: int) -> np.ndarray:
    """Adjacency from a text file of 1-based ``u v`` lines; self-loops are
    added for every vertex regardless of the file contents."""
    X = np.eye(p)
    for u, v in _index_pairs(path, p):
        X[u, v] = X[v, u] = 1.0
    return X


def load_partition(path, p: int) -> list:
    """Parts from a text file of 1-based ``vertex part`` lines."""
    parts: dict[int, set] = {}
    for v, k in _index_pairs(path, p, parts=True):
        parts.setdefault(k, set()).add(v)
    return [sorted(parts[k]) for k in sorted(parts)]

