"""Empirical verifiers for the structural properties the recovery
guarantees rest on: tensor-graph expansion, the l1 restricted isometry,
the nullspace property, and the arrow-matrix non-identifiability witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .ensemble import ParameterError, Support, TensorGraph, arrow_matrix
from .operator import SketchOperator
from .solver import AffineProjector

#: largest p check_expansion accepts; the cap bounds its two p x p int64
#: collision-count arrays and the dense products that fill them
EXPANSION_COST_CAP = 300


@dataclass
class ExpansionReport:
    neighborhood_size: int  # |N(Omega)|
    bound: float  # p * delta^2 * (1 - eps)
    max_collision_outside: int  # max over (i,i') not in Omega
    max_collision_inside: int  # max over (i,i') in Omega
    collision_bound: float  # eps * delta^2
    passed_size: bool
    passed_outside: bool
    passed_inside: bool

    @property
    def passed_all(self) -> bool:
        return self.passed_size and self.passed_outside and self.passed_inside


@dataclass
class RipReport:
    ratio: float  # ||A X A^T||_1 / (delta^2 ||X||_1)
    lower_ok: bool  # ratio >= 1 - 2*eps
    upper_ok: bool  # ratio <= 1 + 1e-12; deterministic, must always hold


def check_expansion(
    tg: TensorGraph,
    support: Support,
    eps: float = 0.25,
) -> ExpansionReport:
    """Exact computation of the three tensor-expansion quantities.

    Part 1: |N(Omega)| against p*delta^2*(1-eps).
    Part 2: max over cells outside Omega of |N(i,i') cap N(Omega)|.
    Part 3: max over cells of Omega of |N(i,i') cap N(Omega minus the cell)|,
    both against eps*delta^2.
    """
    if not 0.0 < eps < 1.0:
        raise ParameterError("eps must lie in (0, 1)")
    p, m = tg.p, tg.m
    if p > EXPANSION_COST_CAP:
        raise ParameterError(f"p={p} exceeds cost cap {EXPANSION_COST_CAP}")
    if support.p != p:
        raise ParameterError("support dimension does not match graph")

    U = tg.g1.neighbor_indicator().astype(np.int64)  # p x m
    W = tg.g2.neighbor_indicator().astype(np.int64)
    S = support.indicator().astype(np.int64)  # p x p

    # coverage[j, j'] = number of support cells whose tensor edges hit (j, j')
    coverage = U.T @ S @ W
    n_size = int(np.count_nonzero(coverage))

    # per-cell overlap with N(Omega): counts[i, i'] = |N(i,i') cap N(Omega)|
    hit = (coverage >= 1).astype(np.int64)
    counts_all = U @ hit @ W.T
    outside = ~support.indicator()
    max_outside = int(counts_all[outside].max(initial=0))

    # inside a support cell, dropping the cell removes exactly the tensor
    # pairs it alone covers, i.e. those with coverage count 1 inside its
    # own neighborhood; pairs covered >= 2 times survive
    multi = (coverage >= 2).astype(np.int64)
    counts_inside = U @ multi @ W.T
    inside = support.indicator()
    max_inside = int(counts_inside[inside].max(initial=0))

    delta2 = tg.g1.delta * tg.g2.delta
    bound = p * delta2 * (1.0 - eps)
    cbound = eps * delta2
    return ExpansionReport(
        neighborhood_size=n_size,
        bound=bound,
        max_collision_outside=max_outside,
        max_collision_inside=max_inside,
        collision_bound=cbound,
        passed_size=n_size >= bound,
        passed_outside=max_outside <= cbound,
        passed_inside=max_inside <= cbound,
    )


def check_rip1(op: SketchOperator, X: np.ndarray, eps: float = 0.25) -> RipReport:
    """Ratio ||A X A^T||_1 / (delta^2 ||X||_1) against the two-sided
    near-isometry bounds for the shared-graph operator.

    delta^2 is taken as the maximum column sum of kron(A, A), which equals
    the squared maximum column sum of A.
    """
    if not op.shared_ab:
        raise ParameterError("check_rip1 requires the B = A operator")
    x_norm = float(np.abs(X).sum())
    if x_norm == 0.0:
        raise ParameterError("zero matrix has no RIP ratio")
    delta2 = float(op.A.sum(axis=0).max()) ** 2
    ratio = float(np.abs(op.forward(X)).sum()) / (delta2 * x_norm)
    return RipReport(
        ratio=ratio,
        lower_ok=ratio >= 1.0 - 2.0 * eps,
        upper_ok=ratio <= 1.0 + 1e-12,
    )


def check_nullspace(
    op: SketchOperator,
    support: Support,
    n_samples: int,
    seed: int,
) -> float:
    """Max over sampled kernel elements V of ||V_Omega||_1 / ||V_Omega^c||_1.

    Gaussian matrices projected onto the kernel of the forward map are
    isotropic Gaussian samples of that kernel. A trivial kernel (rank(A)
    rank(B) = p1 p2) gives 0.0, since its projections are rounding noise.
    Ratios below 1 are what the smooth-nullspace bound eps/(1-3*eps) < 1
    predicts.
    """
    if n_samples < 1:
        raise ParameterError("n_samples must be >= 1")
    if not support.cells:
        return 0.0
    proj = AffineProjector(op)
    if proj.kernel_dim == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    mask = support.indicator()

    max_ratio = 0.0
    for _ in range(n_samples):
        V = proj.kernel_project(rng.standard_normal((op.p1, op.p2)))
        res = np.linalg.norm(op.forward(V)) / max(1.0, np.linalg.norm(V))
        if res > 1e-8:
            raise RuntimeError(f"kernel projection residual {res:.2e} > 1e-8")
        on = float(np.abs(V[mask]).sum())
        off = float(np.abs(V[~mask]).sum())
        if off == 0.0:
            ratio = 0.0 if on == 0.0 else np.inf
        else:
            ratio = on / off
        max_ratio = max(max_ratio, ratio)
    return max_ratio


def arrow_ambiguity_witness(op: SketchOperator):
    """Two distinct matrices with identical sketches: the arrow matrix X and
    X with a kernel vector of A added to its first column.

    Fails (raises) when A has a trivial kernel, e.g. the square invertible
    case, or when the kernel extraction is not accurate to 1e-10.
    """
    basis = scipy.linalg.null_space(op.A)
    if basis.shape[1] == 0:
        raise ParameterError("A has a trivial kernel: no ambiguity witness exists")
    v = basis[:, 0]
    v = v / np.abs(v).sum()  # unit l1 mass, well above any zero tolerance
    res = float(np.linalg.norm(op.A @ v))
    if res > 1e-10:
        raise RuntimeError(f"kernel extraction residual {res:.2e} > 1e-10")
    X = arrow_matrix(op.p1)
    X_alt = X.copy()
    X_alt[:, 0] += v
    sketch_gap = float(np.linalg.norm(op.forward(X) - op.forward(X_alt)))
    if sketch_gap > 1e-10 * max(1.0, np.linalg.norm(op.forward(X))):
        raise RuntimeError(f"witness sketches differ by {sketch_gap:.2e}")
    return X, X_alt
