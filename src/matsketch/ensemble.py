"""Random bipartite graphs, distributed-sparse supports and matrices.

All generators are pure functions of their integer seed: calling twice with
the same arguments yields identical objects. Vertices are 0-based internally;
the text serialization formats are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: entries with magnitude below this count as zero when measuring sparsity
ZERO_TOL = 1e-12

#: minimum magnitude placed on a support cell by gen_distributed_matrix
VALUE_FLOOR = 1e-3


class ParameterError(ValueError):
    """Raised for out-of-range or degenerate parameter requests."""


def default_delta(p: int) -> int:
    """Left degree used when none is given: max(2, ceil(ln p))."""
    return max(2, int(np.ceil(np.log(max(p, 2)))))


@dataclass(frozen=True)
class BipartiteGraph:
    """A delta-left-regular bipartite graph ([p], [m], E) with multi-edges.

    ``edges[i]`` holds the delta right-vertex targets of left vertex ``i``
    (repeats allowed, since targets are drawn with replacement).
    """

    p: int
    m: int
    delta: int
    edges: np.ndarray  # (p, delta) int array of right-vertex indices

    def __post_init__(self):
        if self.edges.shape != (self.p, self.delta):
            raise ParameterError(
                f"edges shape {self.edges.shape} != ({self.p}, {self.delta})"
            )
        if self.edges.size and (self.edges.min() < 0 or self.edges.max() >= self.m):
            raise ParameterError("edge target outside [m]")
        self.edges.setflags(write=False)

    def adjacency(self, clip_binary: bool = False) -> np.ndarray:
        """The m x p matrix of edge multiplicities (the sketching matrix).

        With ``clip_binary`` every positive count is clipped to 1, matching
        the 0/1 convention rather than the multi-edge one.
        """
        A = np.zeros((self.m, self.p))
        for i in range(self.p):
            np.add.at(A[:, i], self.edges[i], 1.0)
        if clip_binary:
            A = np.minimum(A, 1.0)
        return A

    def neighbor_indicator(self) -> np.ndarray:
        """Boolean (p, m) array: entry [i, j] iff j is a neighbor of i."""
        ind = np.zeros((self.p, self.m), dtype=bool)
        rows = np.repeat(np.arange(self.p), self.delta)
        ind[rows, self.edges.reshape(-1)] = True
        return ind


def gen_left_regular(p: int, m: int, delta: int, seed: int) -> BipartiteGraph:
    """Draw a uniformly random delta-left-regular bipartite graph.

    Each left vertex gets delta targets drawn uniformly with replacement
    from [m]. Deterministic in ``seed``.
    """
    if p < 1 or m < 1 or delta < 1:
        raise ParameterError("p, m, delta must all be >= 1")
    if delta > 10 * m:
        raise ParameterError(f"delta={delta} > 10*m={10 * m}: degenerate request")
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, m, size=(p, delta), dtype=np.int64)
    return BipartiteGraph(p=p, m=m, delta=delta, edges=edges)


def column_difference_collision(g: BipartiteGraph) -> bool:
    """True when two pairs of sketch-matrix columns have the same difference
    vector (up to sign), duplicate columns included.

    Such a collision makes a 2x2 minor of the signal invisible to the
    sketch up to an l1-neutral exchange, so basis pursuit loses uniqueness
    on supports that touch the four vertices involved (the diagonal always
    does). Graphs with this defect recover distributed-sparse matrices at
    a visibly lower rate.
    """
    A = g.adjacency()
    seen = set()
    for i in range(g.p):
        for j in range(i + 1, g.p):
            diff = A[:, i] - A[:, j]
            nz = np.nonzero(diff)[0]
            if nz.size == 0:
                return True
            if diff[nz[0]] < 0:
                diff = -diff
            key = diff.tobytes()
            if key in seen:
                return True
            seen.add(key)
    return False


def gen_screened_graph(
    p: int, m: int, delta: int, seed: int, max_resample: int = 60
) -> BipartiteGraph:
    """Left-regular graph resampled until it has no column-difference
    collision, for use in recovery experiments.

    Falls back to the last draw after ``max_resample`` attempts; in the
    regime where no collision-free graph exists (tiny m) recovery fails
    for capacity reasons anyway.
    """
    rng = np.random.default_rng(seed)
    g = gen_left_regular(p, m, delta, seed)
    for _ in range(max_resample):
        if not column_difference_collision(g):
            return g
        g = gen_left_regular(p, m, delta, int(rng.integers(1 << 62)))
    return g


def neighbors(g: BipartiteGraph, s) -> set:
    """N(s): the deduplicated right-vertex neighborhood of a left-vertex set."""
    s = list(s)
    for i in s:
        if not 0 <= i < g.p:
            raise ParameterError(f"left vertex {i} outside [0, {g.p})")
    if not s:
        return set()
    return set(g.edges[s].reshape(-1).tolist())


@dataclass(frozen=True)
class TensorGraph:
    """The tensor product of two bipartite graphs.

    Left vertices are pairs (i, i'), right vertices pairs (j, j');
    {(i,i'),(j,j')} is an edge iff {i,j} in E1 and {i',j'} in E2.
    Neighborhoods are always computed on demand from g1 and g2.
    """

    g1: BipartiteGraph
    g2: BipartiteGraph

    def __post_init__(self):
        if self.g1.p != self.g2.p or self.g1.m != self.g2.m:
            raise ParameterError("component graphs must share (p, m)")

    @property
    def p(self) -> int:
        return self.g1.p

    @property
    def m(self) -> int:
        return self.g1.m


@dataclass(frozen=True)
class Support:
    """A subset of [p] x [p] with per-row/per-column cardinality bookkeeping."""

    p: int
    cells: frozenset  # of (row, col) pairs
    row_counts: np.ndarray = field(compare=False)
    col_counts: np.ndarray = field(compare=False)

    @classmethod
    def from_cells(cls, p: int, cells) -> "Support":
        cells = frozenset((int(i), int(j)) for i, j in cells)
        row_counts = np.zeros(p, dtype=np.int64)
        col_counts = np.zeros(p, dtype=np.int64)
        for i, j in cells:
            if not (0 <= i < p and 0 <= j < p):
                raise ParameterError(f"cell ({i}, {j}) outside [0, {p})^2")
            row_counts[i] += 1
            col_counts[j] += 1
        row_counts.setflags(write=False)
        col_counts.setflags(write=False)
        return cls(p=p, cells=cells, row_counts=row_counts, col_counts=col_counts)

    def is_distributed(self, d: int) -> bool:
        """True iff all row/col counts are <= d and the diagonal is present."""
        if self.row_counts.max(initial=0) > d or self.col_counts.max(initial=0) > d:
            return False
        return all((i, i) in self.cells for i in range(self.p))

    def indicator(self) -> np.ndarray:
        """Boolean p x p mask of the support."""
        mask = np.zeros((self.p, self.p), dtype=bool)
        for i, j in self.cells:
            mask[i, j] = True
        return mask


def tensor_neighbors(tg: TensorGraph, support: Support) -> set:
    """N(Omega) in the tensor graph, as a set of (j, j') pairs."""
    if support.p != tg.p:
        raise ParameterError("support dimension does not match tensor graph")
    hit = np.zeros((tg.m, tg.m), dtype=bool)
    for i, i2 in support.cells:
        hit[np.ix_(np.unique(tg.g1.edges[i]), np.unique(tg.g2.edges[i2]))] = True
    js, j2s = np.nonzero(hit)
    return set(zip(js.tolist(), j2s.tolist()))


def gen_distributed_support(
    p: int, d: int, seed: int, n_off: int | None = None
) -> Support:
    """Random d-distributed support: full diagonal plus rejection-sampled
    off-diagonal cells.

    With ``n_off`` set, sampling stops once that many off-diagonal cells
    are placed (still respecting the per-row/per-column bound d); the
    default fills every row and column to exactly d cells where feasible.
    Rejection stalls (after 100*p*d attempts) return the partial support,
    which still satisfies the d bound.
    """
    if d < 1 or d > p:
        raise ParameterError(f"need 1 <= d <= p, got d={d}, p={p}")
    if n_off is not None and n_off < 0:
        raise ParameterError("n_off must be nonnegative")
    rng = np.random.default_rng(seed)
    cells = {(i, i) for i in range(p)}
    row_counts = np.ones(p, dtype=np.int64)
    col_counts = np.ones(p, dtype=np.int64)
    attempts = 0
    cap = 100 * p * d

    def unfinished():
        if n_off is not None:
            return len(cells) - p < n_off
        return row_counts.min() < d or col_counts.min() < d

    while attempts < cap and unfinished():
        attempts += 1
        i = int(rng.integers(p))
        j = int(rng.integers(p))
        if i == j or (i, j) in cells:
            continue
        if row_counts[i] >= d or col_counts[j] >= d:
            continue
        cells.add((i, j))
        row_counts[i] += 1
        col_counts[j] += 1
    return Support.from_cells(p, cells)


def _draw_values(rng: np.random.Generator, n: int, value_spec) -> np.ndarray:
    if value_spec == "unit":
        return np.ones(n)
    kind = value_spec[0]
    if kind == "uniform":
        _, a, b = value_spec
        return rng.uniform(a, b, size=n)
    if kind == "gaussian":
        _, mu, sigma = value_spec
        return rng.normal(mu, sigma, size=n)
    raise ParameterError(f"unknown value spec {value_spec!r}")


def gen_distributed_matrix(support: Support, value_spec, seed: int) -> np.ndarray:
    """Dense matrix that is zero off-support and nonzero on every support cell.

    ``value_spec`` is "unit", ("uniform", a, b) or ("gaussian", mu, sigma).
    Magnitudes on support cells are floored at VALUE_FLOOR so that "nonzero"
    is unambiguous downstream.
    """
    rng = np.random.default_rng(seed)
    cells = sorted(support.cells)
    vals = _draw_values(rng, len(cells), value_spec)
    small = np.abs(vals) < VALUE_FLOOR
    vals[small] = VALUE_FLOOR * np.where(vals[small] >= 0, 1.0, -1.0)
    X = np.zeros((support.p, support.p))
    for (i, j), v in zip(cells, vals):
        X[i, j] = v
    return X


def gen_bernoulli_matrix(p: int, gamma: float, seed: int) -> np.ndarray:
    """p x p matrix of i.i.d. Bernoulli(gamma) entries."""
    if not 0.0 <= gamma <= 1.0:
        raise ParameterError(f"gamma={gamma} outside [0, 1]")
    rng = np.random.default_rng(seed)
    return (rng.random((p, p)) < gamma).astype(float)


def prop1_degree_bound(mean_degree: float, p: int, eps: float) -> float:
    """Row/column sparsity level d such that a Bernoulli(mean_degree/p)
    matrix is d-distributed sparse with probability at least 1 - eps:
    d = mean_degree + 2*ln(2p/eps).
    """
    if mean_degree <= 0:
        raise ParameterError("mean_degree must be positive")
    if not 0.0 < eps < 1.0:
        raise ParameterError("eps must lie in (0, 1)")
    return mean_degree + 2.0 * np.log(2.0 * p / eps)


def degree_of_sparsity(X: np.ndarray, tol: float = ZERO_TOL) -> int:
    """Maximum number of nonzeros (|entry| > tol) in any row or column."""
    nz = np.abs(X) > tol
    if not nz.any():
        return 0
    return int(max(nz.sum(axis=0).max(), nz.sum(axis=1).max()))


def project_support(X: np.ndarray, support: Support) -> np.ndarray:
    """Copy of X with entries outside the support zeroed."""
    if X.shape != (support.p, support.p):
        raise ParameterError("matrix and support dimensions disagree")
    return np.where(support.indicator(), X, 0.0)


def arrow_matrix(p: int) -> np.ndarray:
    """Dense first row, first column and diagonal; the canonical
    non-distributed sparsity pattern (degree of sparsity p)."""
    X = np.eye(p)
    X[0, :] = 1.0
    X[:, 0] = 1.0
    return X


# --- text serialization (1-based on disk) ---------------------------------


def save_graph(g: BipartiteGraph, path) -> None:
    """Line 1: ``p m delta``; then p lines of delta right-vertex indices."""
    with open(path, "w") as fh:
        fh.write(f"{g.p} {g.m} {g.delta}\n")
        for i in range(g.p):
            fh.write(" ".join(str(j + 1) for j in g.edges[i]) + "\n")


def load_graph(path) -> BipartiteGraph:
    with open(path) as fh:
        p, m, delta = (int(t) for t in fh.readline().split())
        edges = np.array(
            [[int(t) - 1 for t in fh.readline().split()] for _ in range(p)],
            dtype=np.int64,
        )
    return BipartiteGraph(p=p, m=m, delta=delta, edges=edges)


def save_support(support: Support, path) -> None:
    """One ``row col`` pair per line (1-based)."""
    with open(path, "w") as fh:
        for i, j in sorted(support.cells):
            fh.write(f"{i + 1} {j + 1}\n")


def load_support(path, p: int) -> Support:
    cells = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                i, j = (int(t) - 1 for t in line.split())
                cells.append((i, j))
    return Support.from_cells(p, cells)


def save_matrix_csv(X: np.ndarray, path) -> None:
    np.savetxt(path, np.atleast_2d(X), delimiter=",", fmt="%.17g")


def load_matrix_csv(path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=","))
