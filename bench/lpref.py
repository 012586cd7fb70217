"""Independent LP reference for the equality program, and its store.

    minimize 1^T (u + v)   subject to   [K, -K] [u; v] = vec(Y),   u, v >= 0,

with K = kron(B, A) built sparse, solved by HiGHS through
scipy.optimize.linprog. Nothing here calls into matsketch, so the
benchmark can hold the library's answers against it.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import scipy.optimize
import scipy.sparse


def lp_minimize(A: np.ndarray, B: np.ndarray, Y: np.ndarray):
    """Return (minimizer X, optimal objective) of min ||X||_1 s.t. A X B^T = Y."""
    K = scipy.sparse.kron(scipy.sparse.csc_matrix(B), scipy.sparse.csc_matrix(A), format="csc")
    n = K.shape[1]
    lp = scipy.optimize.linprog(
        np.ones(2 * n),
        A_eq=scipy.sparse.hstack([K, -K], format="csc"),
        b_eq=np.asarray(Y, dtype=float).reshape(-1, order="F"),
        bounds=(0, None),
        method="highs",
    )
    if not lp.success:
        raise RuntimeError(f"HiGHS failed: {lp.message}")
    x = lp.x[:n] - lp.x[n:]
    return x.reshape(A.shape[1], B.shape[1], order="F"), float(lp.fun)


def instance_key(A: np.ndarray, Y: np.ndarray) -> str:
    """Hash of (A, Y); Y is rounded so that last-bit BLAS differences and
    the sign of zero do not change the key."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(A, dtype=float).tobytes())
    h.update(np.ascontiguousarray(np.round(Y, 9) + 0.0).tobytes())
    return h.hexdigest()[:32]


class ReferenceStore:
    """LP optima keyed by instance_key, and the cov-sketch seed strata.

    ``committed`` is the file in the repository; references computed during
    a run for keys it lacks go to ``local`` (an ignored output file) so that
    later runs in the same checkout reuse them.
    """

    def __init__(self, committed: str, local: str):
        self.committed = committed
        self.local = local
        self.refs = {}
        self.cov_pool = {"slow": [], "fast": []}
        if os.path.exists(committed):
            with open(committed) as fh:
                data = json.load(fh)
            self.refs.update(data["lp"])
            self.cov_pool = data["cov_pool"]
        if os.path.exists(local):
            with open(local) as fh:
                self.refs.update(json.load(fh)["lp"])
        self.computed = 0

    def get(self, A: np.ndarray, Y: np.ndarray, X: np.ndarray) -> dict:
        """{"obj": LP optimum, "linf": max |X_lp - X|} for this instance."""
        key = instance_key(A, Y)
        ref = self.refs.get(key)
        if ref is None:
            ref = reference_entry(A, Y, X)
            self.refs[key] = ref
            self.computed += 1
        return ref

    def save_local(self) -> None:
        if not self.computed:
            return
        known = {}
        if os.path.exists(self.committed):
            with open(self.committed) as fh:
                known = json.load(fh)["lp"]
        extra = {k: v for k, v in self.refs.items() if k not in known}
        os.makedirs(os.path.dirname(self.local), exist_ok=True)
        tmp = self.local + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"lp": extra}, fh, sort_keys=True)
        os.replace(tmp, self.local)


def reference_entry(A: np.ndarray, Y: np.ndarray, X: np.ndarray) -> dict:
    X_lp, obj = lp_minimize(A, A, Y)
    return {"obj": obj, "linf": float(np.abs(X_lp - X).max())}
