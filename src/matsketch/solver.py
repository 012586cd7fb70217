"""Solvers for the l1 recovery programs.

solve_p1    min ||X||_1  s.t.  A X B^T = Y          (ADMM, exact affine step)
solve_p2    min ||A X B^T - Y||_2^2 + lam*||X||_1   (monotone FISTA)
solve_constrained
            min ||X||_1  s.t.  ||A X B^T - Y||_2 <= kappa
                                                    (bisection over lam in P2)
lp_oracle   exact LP solution on small instances, used to validate the
            iterative path.

solve_p1 runs ADMM for at most ADMM_BUDGET iterations. An instance still
undecided then goes to an exact working-set LP, unless the caller capped
max_iter at or below the budget. lp_oracle is that same LP with every
column in the set from the start.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse

from .ensemble import ParameterError
from .operator import SketchOperator, vec, unvec

#: ADMM iterations before an undecided instance goes to the exact LP;
#: recoverable instances snap by iteration 250-750 (the slowest seen: 4500)
ADMM_BUDGET = 5000


@dataclass(frozen=True)
class SolverOptions:
    tol_feas: float = 1e-8  # relative feasibility tolerance
    tol_obj: float = 1e-9  # objective / residual stagnation tolerance
    max_iter: int = 50_000
    rho: float = 1.0  # ADMM penalty, adapted by residual balancing

    def __post_init__(self):
        if self.tol_feas <= 0 or self.tol_obj <= 0 or self.rho <= 0:
            raise ParameterError("tolerances and rho must be positive")
        if self.max_iter < 1:
            raise ParameterError("max_iter must be >= 1")

    @classmethod
    def from_json(cls, path) -> "SolverOptions":
        with open(path) as fh:
            return cls(**json.load(fh))


@dataclass
class RecoveryResult:
    x: np.ndarray  # recovered matrix
    objective: float  # ||x||_1
    feas_residual: float  # ||A x B^T - Y||_2 / max(1, ||Y||_2)
    iterations: int
    converged: bool
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "objective": self.objective,
            "feas_residual": self.feas_residual,
            "iterations": self.iterations,
            "converged": self.converged,
            "diagnostics": self.diagnostics,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def soft_threshold(X: np.ndarray, t: float) -> np.ndarray:
    return np.sign(X) * np.maximum(np.abs(X) - t, 0.0)


class AffineProjector:
    """Orthogonal projection onto {X : A X B^T = Y}.

    Uses eigendecompositions of the small Gram matrices G_A = A A^T and
    G_B = B B^T; the pseudoinverse of the vectorized normal operator
    kron(G_B, G_A) factors as kron(pinv(G_B), pinv(G_A)).
    """

    def __init__(self, op: SketchOperator):
        self.op = op
        self._pinv_a = self._sym_pinv(op.A @ op.A.T)
        self._pinv_b = self._pinv_a if op.shared_ab else self._sym_pinv(op.B @ op.B.T)

    @staticmethod
    def _sym_pinv(G: np.ndarray) -> np.ndarray:
        w, V = scipy.linalg.eigh(G)
        # rank-deficient Gram matrices (duplicate graph columns) put their
        # zero eigenvalues at ~eps * w.max; cut well above that floor
        cut = max(w.max(initial=0.0), 0.0) * 1e-10
        inv = np.where(w > cut, 1.0 / np.where(w > cut, w, 1.0), 0.0)
        return (V * inv) @ V.T

    def normal_solve(self, R: np.ndarray) -> np.ndarray:
        """W minimizing ||G_A W G_B - R||_F (exact solve when invertible)."""
        return self._pinv_a @ R @ self._pinv_b

    def project(self, X0: np.ndarray, Y: np.ndarray) -> np.ndarray:
        R = self.op.forward(X0) - Y
        return X0 - self.op.adjoint(self.normal_solve(R))

    def kernel_project(self, V: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto the kernel of the forward map."""
        return self.project(V, np.zeros((self.op.m, self.op.m)))


def _feas_residual(op: SketchOperator, X: np.ndarray, Y: np.ndarray) -> float:
    return float(
        np.linalg.norm(op.forward(X) - Y) / max(1.0, np.linalg.norm(Y))
    )


def _kron_columns(op: SketchOperator, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The columns of kron(B, A) for cells (rows[k], cols[k]), as a dense
    m^2 x len(rows) matrix; the column of cell (i, j) is kron(B[:, j], A[:, i])."""
    return (op.B[:, cols][:, None, :] * op.A[:, rows][None, :, :]).reshape(
        op.m * op.m, rows.size
    )


def _refine_on_support(
    op: SketchOperator, Y: np.ndarray, Z: np.ndarray, objective: float
) -> np.ndarray | None:
    """Snap a near-converged iterate to an exact vertex solution.

    Tries least-squares solves of the sketch equations restricted to the
    large-entry support of Z at a few thresholds; a candidate is accepted
    only when it is feasible to machine precision and does not increase
    the l1 objective, so the refinement never degrades honesty.
    """
    z_max = float(np.abs(Z).max(initial=0.0))
    if z_max == 0.0:
        return None
    y = Y.reshape(-1, order="F")
    y_scale = max(1.0, np.linalg.norm(y))
    best = None
    best_obj = objective + 1e-9 * max(1.0, objective)
    tried = set()
    for frac in (1e-2, 1e-3, 1e-4, 1e-5):
        rows, cols = np.nonzero(np.abs(Z) > frac * z_max)
        if rows.size == 0 or rows.size > Y.size or rows.size in tried:
            continue
        tried.add(rows.size)
        cols_mat = _kron_columns(op, rows, cols)
        sol, *_ = np.linalg.lstsq(cols_mat, y, rcond=None)
        if np.linalg.norm(cols_mat @ sol - y) > 1e-10 * y_scale:
            continue
        obj = float(np.abs(sol).sum())
        if obj < best_obj:
            X_ref = np.zeros((op.p1, op.p2))
            X_ref[rows, cols] = sol
            best, best_obj = X_ref, obj
    return best


def _working_set_lp(
    op: SketchOperator, Y: np.ndarray, score: np.ndarray, in_set: np.ndarray
) -> tuple:
    """Exact min ||X||_1 s.t. A X B^T = Y over a growing set of columns.

    Solves min 1^T (u + v) s.t. [K_S, -K_S] [u; v] = vec(Y), u, v >= 0 by
    HiGHS, with K_S the columns of kron(B, A) for the cells in ``in_set``
    (a boolean p1 x p2 mask). The equality duals price every cell with one
    adjoint; when no cell outside the set prices above 1 the LP dual is
    feasible for the full program, which certifies the answer optimal.
    Otherwise the highest-priced outside cells are added, at least doubling
    the set. A set whose columns do not span Y grows along ``score``.
    Returns (X, info) and raises RuntimeError when HiGHS fails.
    """
    y = vec(Y)
    in_set = in_set.copy()
    if not in_set.any():
        in_set.flat[np.argmax(score)] = True  # linprog needs a variable
    rounds = simplex_iterations = 0
    while True:
        rounds += 1
        rows, cols = np.nonzero(in_set)
        K = scipy.sparse.csc_array(_kron_columns(op, rows, cols))
        lp = scipy.optimize.linprog(
            np.ones(2 * rows.size),
            A_eq=scipy.sparse.hstack([K, -K], format="csc"),
            b_eq=y,
            bounds=(0, None),
            method="highs",
        )
        simplex_iterations += int(lp.nit)
        if lp.status == 2 and not in_set.all():
            priority = score
        elif lp.success:
            priority = np.abs(op.adjoint(unvec(lp.eqlin.marginals, op.m, op.m)))
            if priority[~in_set].max(initial=0.0) <= 1.0 + 1e-9:
                break
        else:
            raise RuntimeError(f"LP failed: {lp.message}")
        outside = np.flatnonzero(~in_set)
        order = np.argsort(-priority.flat[outside], kind="stable")
        in_set.flat[outside[order[: rows.size]]] = True
    X = np.zeros((op.p1, op.p2))
    X[rows, cols] = lp.x[: rows.size] - lp.x[rows.size :]
    info = {
        "rounds": rounds,
        "columns": int(rows.size),
        "simplex_iterations": simplex_iterations,
    }
    return X, info


def solve_p1(
    op: SketchOperator,
    Y: np.ndarray,
    opts: SolverOptions = SolverOptions(),
    projector: AffineProjector | None = None,
) -> RecoveryResult:
    """Equality-constrained l1 minimization by ADMM.

    Alternates an exact projection onto the affine feasibility set with
    entrywise soft-thresholding (over-relaxed, alpha = 1.6); the penalty
    is rebalanced when the primal/dual residual ratio exceeds 10. Every
    few hundred iterations the iterate is snapped to the least-squares
    solution on its large-entry support; the snap is kept only when it is
    feasible to machine precision, does not increase the objective, and
    lies next to the iterate, which finishes the tail of the linear
    convergence in one step.

    ADMM runs at most min(opts.max_iter, ADMM_BUDGET) iterations. When it
    has not stopped by then and opts.max_iter exceeds the budget, the
    instance goes to the exact working-set LP, seeded with the m^2 largest
    entries of the projected iterate and the cells whose scaled dual is at
    least 0.99 in magnitude; ``diagnostics["lp"]`` then reports its rounds.
    A max_iter at or below the budget is a cap: the run ends there,
    unconverged.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.shape != (op.m, op.m):
        raise ParameterError(f"Y shape {Y.shape} != ({op.m}, {op.m})")
    proj = projector if projector is not None else AffineProjector(op)
    shape = (op.p1, op.p2)
    alpha = 1.6
    refine_every = 250

    Z = np.zeros(shape)
    U = np.zeros(shape)
    rho = opts.rho
    refined = None
    stopped = False
    for iterations in range(1, min(opts.max_iter, ADMM_BUDGET) + 1):
        X = proj.project(Z - U, Y)
        Z_prev = Z
        X_hat = alpha * X + (1.0 - alpha) * Z_prev
        Z = soft_threshold(X_hat + U, 1.0 / rho)
        U = U + X_hat - Z
        r_norm = np.linalg.norm(X - Z)
        s_norm = rho * np.linalg.norm(Z - Z_prev)
        tol = opts.tol_obj * max(1.0, np.linalg.norm(Z))
        if r_norm <= tol and s_norm <= tol:
            stopped = True
            break
        if iterations % refine_every == 0:
            X_proj = proj.project(Z, Y)
            cand = _refine_on_support(op, Y, Z, float(np.abs(X_proj).sum()))
            if cand is not None and (
                np.abs(cand - X_proj).max()
                <= 1e-2 * max(1.0, np.abs(cand).max())
            ):
                refined = cand
                stopped = True
                break
        if r_norm > 10.0 * s_norm:
            rho *= 2.0
            U /= 2.0
        elif s_norm > 10.0 * r_norm:
            rho /= 2.0
            U *= 2.0

    diagnostics = {"rho_final": rho, "support_snap": refined is not None}
    if refined is not None:
        X_star = refined
    else:
        X_star = proj.project(Z, Y)
        if not stopped and opts.max_iter > ADMM_BUDGET:
            score = np.abs(X_star)
            seed = np.abs(rho * U) >= 0.99
            seed.flat[np.argsort(-score, axis=None, kind="stable")[: op.m * op.m]] = True
            X_star, diagnostics["lp"] = _working_set_lp(op, Y, score, seed)
            stopped = True
        else:
            cand = _refine_on_support(op, Y, Z, float(np.abs(X_star).sum()))
            if cand is not None:
                X_star = cand
                diagnostics["support_snap"] = True
    feas = _feas_residual(op, X_star, Y)
    return RecoveryResult(
        x=X_star,
        objective=float(np.abs(X_star).sum()),
        feas_residual=feas,
        iterations=iterations,
        converged=stopped and feas <= opts.tol_feas,
        diagnostics=diagnostics,
    )


def _operator_sq_norm(op: SketchOperator, n_iter: int = 30, seed: int = 0) -> float:
    """Power-iteration upper estimate of the squared operator norm."""
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((op.p1, op.p2))
    V /= np.linalg.norm(V)
    lam = 1.0
    for _ in range(n_iter):
        W = op.adjoint(op.forward(V))
        lam = float(np.linalg.norm(W))
        if lam == 0.0:
            return 1.0
        V = W / lam
    return 1.05 * lam  # small safety margin on the Rayleigh estimate


def solve_p2(
    op: SketchOperator,
    Y: np.ndarray,
    lam: float,
    opts: SolverOptions = SolverOptions(),
    x0: np.ndarray | None = None,
    sq_norm: float | None = None,
) -> RecoveryResult:
    """Penalized recovery by accelerated proximal gradient.

    Step size is 1/L with L bounding the gradient Lipschitz constant
    (2x the squared operator norm, estimated by power iteration); the
    objective is kept monotone by falling back to a plain proximal step
    with backtracking whenever the accelerated candidate increases it.
    """
    Y = np.asarray(Y, dtype=float)
    if lam <= 0:
        raise ParameterError("lam must be positive")
    if sq_norm is None:
        sq_norm = _operator_sq_norm(op)
    L = 2.0 * sq_norm
    step = 1.0 / L

    def smooth(X):
        R = op.forward(X) - Y
        return float(np.sum(R * R))

    def objective(X):
        return smooth(X) + lam * float(np.abs(X).sum())

    X = np.zeros((op.p1, op.p2)) if x0 is None else np.array(x0, dtype=float)
    V = X.copy()
    t = 1.0
    F = objective(X)
    iterations = opts.max_iter
    for it in range(1, opts.max_iter + 1):
        G = 2.0 * op.adjoint(op.forward(V) - Y)
        X_new = soft_threshold(V - step * G, lam * step)
        F_new = objective(X_new)
        if F_new > F:
            # momentum overshoot: restart from the last accepted iterate
            local_step = step
            G = 2.0 * op.adjoint(op.forward(X) - Y)
            for _ in range(50):
                X_new = soft_threshold(X - local_step * G, lam * local_step)
                F_new = objective(X_new)
                if F_new <= F:
                    break
                local_step /= 2.0
            else:
                # every halving failed: keep the last accepted iterate
                X_new, F_new = X, F
            t = 1.0
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        V = X_new + ((t - 1.0) / t_new) * (X_new - X)
        t = t_new
        done = abs(F - F_new) <= opts.tol_obj * (1.0 + abs(F_new))
        X, F = X_new, F_new
        if done:
            iterations = it
            break

    return RecoveryResult(
        x=X,
        objective=float(np.abs(X).sum()),
        feas_residual=_feas_residual(op, X, Y),
        iterations=iterations,
        converged=iterations < opts.max_iter,
        diagnostics={"penalized_objective": F, "lam": lam},
    )


def solve_constrained(
    op: SketchOperator,
    Y: np.ndarray,
    kappa: float,
    opts: SolverOptions = SolverOptions(),
    max_bisect: int = 30,
) -> RecoveryResult:
    """min ||X||_1 s.t. ||A X B^T - Y||_2 <= kappa, by bisection over the
    penalty in solve_p2 until the residual matches kappa within 1%."""
    if kappa < 0:
        raise ParameterError("kappa must be nonnegative")
    Y = np.asarray(Y, dtype=float)
    if kappa == 0.0:
        return solve_p1(op, Y, opts)
    y_norm = np.linalg.norm(Y)
    if kappa >= y_norm:
        Z = np.zeros((op.p1, op.p2))
        return RecoveryResult(
            x=Z,
            objective=0.0,
            feas_residual=_feas_residual(op, Z, Y),
            iterations=0,
            converged=True,
            diagnostics={"kappa": kappa, "lam": None},
        )

    sq_norm = _operator_sq_norm(op)

    def residual_at(lam, x0):
        res = solve_p2(op, Y, lam, opts, x0=x0, sq_norm=sq_norm)
        return res, float(np.linalg.norm(op.forward(res.x) - Y))

    lam_hi = 2.0 * float(np.abs(op.adjoint(Y)).max())  # forces X = 0
    lam_lo = lam_hi * 1e-8
    best, r = residual_at(lam_lo, None)
    if r > kappa:
        # even the near-unpenalized solution misses kappa; report it honestly
        best.converged = False
        best.diagnostics.update({"kappa": kappa, "constraint_residual": r})
        return best
    x_warm = best.x
    for _ in range(max_bisect):
        lam_mid = np.sqrt(lam_lo * lam_hi)
        res, r = residual_at(lam_mid, x_warm)
        x_warm = res.x
        if r <= kappa:
            lam_lo = lam_mid
            best = res
            if r >= 0.99 * kappa:
                break
        else:
            lam_hi = lam_mid
    r_best = float(np.linalg.norm(op.forward(best.x) - Y))
    best.converged = best.converged and r_best <= 1.01 * kappa
    best.diagnostics.update({"kappa": kappa, "constraint_residual": r_best})
    return best


def lp_oracle(
    op: SketchOperator, Y: np.ndarray, p_cap: int = 10, m_cap: int = 8
) -> RecoveryResult:
    """Exact solution of the LP reformulation of the equality program:
    the working-set LP of solve_p1 with every column of kron(B, A) in the
    set. Kept to small instances; used as the optimality oracle for
    solve_p1.
    """
    if max(op.p1, op.p2) > p_cap or op.m > m_cap:
        raise ParameterError(
            f"lp_oracle guard: p <= {p_cap} and m <= {m_cap} required"
        )
    Y = np.asarray(Y, dtype=float)
    shape = (op.p1, op.p2)
    X, info = _working_set_lp(op, Y, np.zeros(shape), np.ones(shape, dtype=bool))
    return RecoveryResult(
        x=X,
        objective=float(np.abs(X).sum()),
        feas_residual=_feas_residual(op, X, Y),
        iterations=info["simplex_iterations"],
        converged=True,
        diagnostics={"lp": info},
    )
