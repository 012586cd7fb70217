"""Solvers for the l1 recovery programs.

solve_p1    min ||X||_1  s.t.  A X B^T = Y          (ADMM, exact affine step)
solve_p2    min ||A X B^T - Y||_2^2 + lam*||X||_1   (monotone FISTA)
solve_constrained
            min ||X||_1  s.t.  ||A X B^T - Y||_2 <= kappa
                                  (descent over lam in P2, then bisection)
lp_oracle   exact LP solution, used to validate the iterative path.

solve_p1 runs ADMM until a support snap that ADMM's own dual certifies as
an l1 minimizer, for at most min(max_iter, ADMM_BUDGET) iterations. An
instance still undecided then, or whose iterate at a snap checkpoint has
more nonzeros than any snap can certify, goes to an exact working-set LP.
lp_oracle is that same LP with every column in the set from the start.

solve_constrained follows the penalty path of solve_p2 down from
lam_hi = 2 max|A^T Y B|, where X = 0, by a factor LAM_STEP per
warm-started solve, until the residual first meets kappa; a bisection
inside that last step then lands the residual within 1% of kappa.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse

from .ensemble import ParameterError
from .operator import SketchOperator, vec, unvec

#: ADMM iterations before an instance without a certified snap goes to the
#: exact LP; recoverable instances certify by iteration 250-750 (the slowest
#: seen: 4750). It binds only runs whose iterates keep at most m^2 nonzeros:
#: a larger iterate goes to the LP at its first snap checkpoint
ADMM_BUDGET = 5000

#: factor by which solve_constrained lowers the penalty from lam_hi until
#: the residual first meets kappa
LAM_STEP = 4.0

#: most geometric bisection solves solve_constrained runs inside the bracket
MAX_BISECT = 30


@dataclass(frozen=True)
class SolverOptions:
    tol_feas: float = 1e-8  # relative feasibility tolerance
    tol_obj: float = 1e-9  # objective / residual stagnation tolerance
    max_iter: int = 50_000  # bounds ADMM before the LP, and FISTA
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
    """sign(X) max(|X| - t, 0) as X - clamp(X, -t, t), in one new buffer."""
    S = np.maximum(X, -t)
    np.minimum(S, t, out=S)
    return np.subtract(X, S, out=S)


class AffineProjector:
    """Orthogonal projection onto {X : A X B^T = Y}.

    Uses eigendecompositions of the small Gram matrices G_A = A A^T and
    G_B = B B^T; the pseudoinverse of the vectorized normal operator
    kron(G_B, G_A) factors as kron(pinv(G_B), pinv(G_A)). The projection
    X0 - A^T pinv(G_A) (A X0 B^T - Y) pinv(G_B) B keeps the two outer
    factors L = A^T pinv(G_A) (p1 x m) and R = pinv(G_B) B (m x p2), so
    each call is forward plus two skinny products.
    """

    def __init__(self, op: SketchOperator):
        self.op = op
        pinv_a, rank_a = self._sym_pinv(op.A @ op.A.T)
        pinv_b, rank_b = (pinv_a, rank_a) if op.shared_ab else self._sym_pinv(op.B @ op.B.T)
        self._left = op.A.T @ pinv_a
        self._right = pinv_b @ op.B
        # the forward map's nullity; kron(B, A) has rank rank(A) rank(B)
        self.kernel_dim = op.p1 * op.p2 - rank_a * rank_b

    @staticmethod
    def _sym_pinv(G: np.ndarray) -> tuple[np.ndarray, int]:
        """pinv(G) of a symmetric PSD G, and the rank its eigenvalue cut counts."""
        w, V = scipy.linalg.eigh(G)
        # rank-deficient Gram matrices (duplicate graph columns) put their
        # zero eigenvalues at ~eps * w.max; cut well above that floor
        cut = max(w.max(initial=0.0), 0.0) * 1e-10
        keep = w > cut
        inv = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
        return (V * inv) @ V.T, int(np.count_nonzero(keep))

    def project(self, X0: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return X0 - (self._left @ (self.op.forward(X0) - Y)) @ self._right

    def dual_fit(self, W: np.ndarray) -> np.ndarray:
        """The least-norm m x m D minimizing ||A^T D B - W||_F: L^T W R^T."""
        return self._left.T @ W @ self._right.T

    def kernel_project(self, V: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto the kernel of the forward map."""
        return self.project(V, np.zeros((self.op.m, self.op.m)))


def _norm(D: np.ndarray) -> float:
    """Frobenius norm; cheaper than np.linalg.norm on small arrays."""
    return math.sqrt(np.vdot(D, D))


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
    op: SketchOperator, Y: np.ndarray, Z: np.ndarray, W: np.ndarray,
    proj: AffineProjector,
) -> np.ndarray | None:
    """The least-squares solution x_S on the exact support S of Z, when it
    meets the sketch and a KKT certificate proves it an l1 minimizer.

    The dual starts at y0 = dual_fit(W), the least-squares fit of the
    scaled ADMM dual W = rho U; one least-squares step on S moves it to y
    with K_S^T y = sign(x_S). That must hold to 1e-8, and no cell off S may
    price above 1 + 1e-6 under |A^T y B|.

    Both least-squares solves are LAPACK gelsy (QR with column pivoting),
    minimum-norm when K_S is rank deficient. Its cutoff takes numpy's
    rcond=None value, eps * max(K_S.shape), as the bound on the condition
    estimate of the pivoted QR's leading block; scipy's default eps loses
    the certificate on criterion 11's tied instance.
    """
    rows, cols = np.nonzero(Z)
    if rows.size == 0 or rows.size > Y.size:
        return None
    y = vec(Y)
    K_S = _kron_columns(op, rows, cols)
    cond = np.finfo(float).eps * max(K_S.shape)
    x_S, *_ = scipy.linalg.lstsq(K_S, y, cond=cond, lapack_driver="gelsy", check_finite=False)
    if np.linalg.norm(K_S @ x_S - y) > 1e-10 * max(1.0, np.linalg.norm(y)):
        return None
    y0 = vec(proj.dual_fit(W))
    target = np.sign(x_S)
    step, *_ = scipy.linalg.lstsq(
        K_S.T, target - K_S.T @ y0, cond=cond, lapack_driver="gelsy", check_finite=False
    )
    dual = y0 + step
    if np.abs(K_S.T @ dual - target).max() > 1e-8:
        return None
    price = np.abs(op.adjoint(unvec(dual, op.m, op.m)))
    price[rows, cols] = 0.0
    if price.max() > 1.0 + 1e-6:
        return None
    X = np.zeros((op.p1, op.p2))
    X[rows, cols] = x_S
    return X


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
) -> RecoveryResult:
    """Equality-constrained l1 minimization by ADMM.

    Alternates an exact projection onto the affine feasibility set with
    entrywise soft-thresholding (over-relaxed, alpha = 1.6); the penalty
    is rebalanced when the primal/dual residual ratio exceeds 10. Every
    250 iterations, and at ADMM's residual stop, _refine_on_support
    refits the sketch on the iterate's support and certifies the refit
    with a dual built from rho U. The first certified snap ends the run,
    finishing the tail of the linear convergence in one step, and sets
    ``diagnostics["support_snap"]``; ADMM runs on past an uncertified one.

    A basic solution of the LP form has at most m^2 nonzeros, one per
    sketch equation, and the snap refuses any larger support. So a
    checkpoint other than the residual stop ends ADMM when its iterate
    holds more than m^2 nonzeros; below the phase boundary that is the
    usual case from the first checkpoint on.

    ADMM runs at most min(opts.max_iter, ADMM_BUDGET) iterations. A run
    that neither certifies a snap nor meets ADMM's residual stop by then,
    or that ends at such a checkpoint, goes to the exact working-set LP,
    seeded with the m^2 largest entries of the projected iterate and the
    cells whose scaled dual is at least 0.99 in magnitude;
    ``diagnostics["lp"]`` then reports its rounds.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.shape != (op.m, op.m):
        raise ParameterError(f"Y shape {Y.shape} != ({op.m}, {op.m})")
    proj = AffineProjector(op)
    shape = (op.p1, op.p2)
    alpha = 1.6
    refine_every = 250

    Z = np.zeros(shape)
    U = np.zeros(shape)
    rho = opts.rho
    refined = None
    for iterations in range(1, min(opts.max_iter, ADMM_BUDGET) + 1):
        X = proj.project(Z - U, Y)
        Z_prev = Z
        X_hat = alpha * X
        X_hat += (1.0 - alpha) * Z_prev
        U += X_hat  # U + X_hat - Z, in that order, in place
        Z = soft_threshold(U, 1.0 / rho)
        U -= Z
        r_norm = _norm(X - Z)
        s_norm = rho * _norm(Z - Z_prev)
        tol = opts.tol_obj * max(1.0, _norm(Z))
        stop = r_norm <= tol and s_norm <= tol
        if stop or iterations % refine_every == 0:
            if not stop and np.count_nonzero(Z) > Y.size:
                break  # more nonzeros than any basic solution: no snap can certify
            refined = _refine_on_support(op, Y, Z, rho * U, proj)
            if stop or refined is not None:
                break
        if r_norm > 10.0 * s_norm:
            rho *= 2.0
            U /= 2.0
        elif s_norm > 10.0 * r_norm:
            rho /= 2.0
            U *= 2.0

    diagnostics = {"rho_final": rho, "support_snap": refined is not None}
    X_star = refined if refined is not None else proj.project(Z, Y)
    if refined is None and not stop:
        # ADMM ran out of iterations, or its iterate outgrew m^2: the exact LP decides
        score = np.abs(X_star)
        seed = np.abs(rho * U) >= 0.99
        seed.flat[np.argsort(-score, axis=None, kind="stable")[: op.m * op.m]] = True
        X_star, diagnostics["lp"] = _working_set_lp(op, Y, score, seed)
    feas = _feas_residual(op, X_star, Y)
    return RecoveryResult(
        x=X_star,
        objective=float(np.abs(X_star).sum()),
        feas_residual=feas,
        iterations=iterations,
        converged=feas <= opts.tol_feas,
        diagnostics=diagnostics,
    )


def _operator_sq_norm(op: SketchOperator) -> float:
    """The squared operator norm of X -> A X B^T, ||A||_2^2 ||B||_2^2: the
    singular values of kron(B, A) are the products sigma_i(A) sigma_j(B).
    Each factor is the largest eigenvalue of an m x m Gram matrix. A zero
    operator gives 1.0, a harmless step for FISTA."""
    sq_a = float(np.linalg.eigvalsh(op.A @ op.A.T)[-1])
    sq_b = sq_a if op.shared_ab else float(np.linalg.eigvalsh(op.B @ op.B.T)[-1])
    sq_norm = sq_a * sq_b
    return sq_norm if sq_norm > 0.0 else 1.0


def solve_p2(
    op: SketchOperator,
    Y: np.ndarray,
    lam: float,
    opts: SolverOptions = SolverOptions(),
    x0: np.ndarray | None = None,
) -> RecoveryResult:
    """Penalized recovery by accelerated proximal gradient.

    The step is 1/L with L = 2 ||A||_2^2 ||B||_2^2, the exact Lipschitz
    constant of the smooth part's gradient (Beck & Teboulle 2009). When the
    accelerated candidate raises the objective, one plain proximal step
    from the last accepted iterate replaces it and the momentum restarts;
    by the descent lemma that step does not raise the objective, and the
    iterate is kept only if rounding makes it do so.

    An iteration makes one forward: the objective of a new iterate needs
    its residual R = A X B^T - Y, and since the operator is linear the
    extrapolated point V = X_new + beta (X_new - X) has the residual
    R_new + beta (R_new - R), from which the gradient is taken. Every R
    of an iterate comes fresh from forward, so no error accumulates.
    """
    Y = np.asarray(Y, dtype=float)
    if lam <= 0:
        raise ParameterError("lam must be positive")
    step = 1.0 / (2.0 * _operator_sq_norm(op))

    def residual_and_objective(X):
        R = op.forward(X) - Y
        return R, float(np.sum(R * R)) + lam * float(np.abs(X).sum())

    X = np.zeros((op.p1, op.p2)) if x0 is None else np.array(x0, dtype=float)
    R, F = residual_and_objective(X)
    V, R_V = X, R
    t = 1.0
    for iterations in range(1, opts.max_iter + 1):
        G = 2.0 * op.adjoint(R_V)
        X_new = soft_threshold(V - step * G, lam * step)
        R_new, F_new = residual_and_objective(X_new)
        if F_new > F:
            # momentum overshoot: restart with a proximal step from X
            G = 2.0 * op.adjoint(R)
            X_new = soft_threshold(X - step * G, lam * step)
            R_new, F_new = residual_and_objective(X_new)
            if F_new > F:
                X_new, R_new, F_new = X, R, F
            t = 1.0
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_new
        V = X_new + beta * (X_new - X)
        R_V = R_new + beta * (R_new - R)
        t = t_new
        done = abs(F - F_new) <= opts.tol_obj * (1.0 + abs(F_new))
        X, R, F = X_new, R_new, F_new
        if done:
            break

    return RecoveryResult(
        x=X,
        objective=float(np.abs(X).sum()),
        feas_residual=_feas_residual(op, X, Y),
        iterations=iterations,
        converged=done,
        diagnostics={"penalized_objective": F, "lam": lam},
    )


def solve_constrained(
    op: SketchOperator,
    Y: np.ndarray,
    kappa: float,
    opts: SolverOptions = SolverOptions(),
) -> RecoveryResult:
    """min ||X||_1 s.t. ||A X B^T - Y||_2 <= kappa, through the penalty in
    solve_p2, whose residual r(lam) grows with lam.

    The search starts at lam_hi = 2 max|A^T Y B|, where X = 0, and divides
    lam by LAM_STEP, warm-starting each solve from the one before, until the
    first lam with r(lam) <= kappa. That lam and the one before it bracket
    kappa. Unless r already lies in [0.99 kappa, kappa], a geometric
    bisection over the bracket, warm-started the same way, runs until it
    does (at most MAX_BISECT solves). The descent stops at the floor
    1e-8 * lam_hi; a floor solve that still misses kappa is returned with
    converged=False. So is X = 0 when A^T Y B = 0, since no X then comes
    closer to Y than ||Y||.
    """
    if kappa < 0:
        raise ParameterError("kappa must be nonnegative")
    Y = np.asarray(Y, dtype=float)
    if kappa == 0.0:
        return solve_p1(op, Y, opts)
    y_norm = float(np.linalg.norm(Y))
    lam_hi = 2.0 * float(np.abs(op.adjoint(Y)).max())  # forces X = 0
    if kappa >= y_norm or lam_hi == 0.0:
        # X = 0 meets kappa, or A^T Y B = 0 makes X = 0 the closest point
        # to Y that any X reaches, and it misses kappa
        Z = np.zeros((op.p1, op.p2))
        return RecoveryResult(
            x=Z,
            objective=0.0,
            feas_residual=_feas_residual(op, Z, Y),
            iterations=0,
            converged=kappa >= y_norm,
            diagnostics={"kappa": kappa, "lam": None, "constraint_residual": y_norm},
        )

    def residual_at(lam, x0):
        res = solve_p2(op, Y, lam, opts, x0=x0)
        return res, float(np.linalg.norm(op.forward(res.x) - Y))

    lam_floor = lam_hi * 1e-8
    lam_lo = lam_hi
    x_warm = None
    while True:
        lam_hi, lam_lo = lam_lo, max(lam_lo / LAM_STEP, lam_floor)
        best, r = residual_at(lam_lo, x_warm)
        x_warm = best.x
        if r <= kappa:
            break
        if lam_lo == lam_floor:
            # even the near-unpenalized solution misses kappa; report it honestly
            best.converged = False
            best.diagnostics.update({"kappa": kappa, "constraint_residual": r})
            return best
    if r < 0.99 * kappa:
        for _ in range(MAX_BISECT):
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


def lp_oracle(op: SketchOperator, Y: np.ndarray) -> RecoveryResult:
    """Exact solution of the LP reformulation of the equality program:
    the working-set LP of solve_p1 with every column of kron(B, A) in the
    set, used as the optimality oracle for solve_p1.
    """
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
