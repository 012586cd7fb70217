"""The sketch linear operator Y = A X B^T and its adjoint.

vec() is column-stacking, so the Kronecker matrix kron(B, A) satisfies
kron(B, A) @ vec(X) = vec(A X B^T).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import BipartiteGraph, ParameterError


def vec(X: np.ndarray) -> np.ndarray:
    """Stack the columns of X into one long vector."""
    return np.asarray(X).reshape(-1, order="F")


def unvec(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of vec()."""
    x = np.asarray(x)
    if x.size != rows * cols:
        raise ParameterError(f"length {x.size} != {rows}*{cols}")
    return x.reshape(rows, cols, order="F")


@dataclass(frozen=True)
class SketchOperator:
    """The pair (A, B) with forward X -> A X B^T and adjoint M -> A^T M B."""

    A: np.ndarray  # m x p adjacency counts of g1
    B: np.ndarray  # m x p adjacency counts of g2
    shared_ab: bool = False

    def __post_init__(self):
        if self.A.ndim != 2 or self.B.ndim != 2 or self.A.shape[0] != self.B.shape[0]:
            raise ParameterError("A and B must be 2-d with equal row counts")
        if self.shared_ab and not np.array_equal(self.A, self.B):
            raise ParameterError("shared_ab is set but B differs from A")
        self.A.setflags(write=False)
        self.B.setflags(write=False)

    @classmethod
    def from_graphs(
        cls,
        g1: BipartiteGraph,
        g2: BipartiteGraph | None = None,
        clip_binary: bool = False,
    ) -> "SketchOperator":
        shared = g2 is None or g2 is g1
        A = g1.adjacency(clip_binary=clip_binary)
        B = A if shared else g2.adjacency(clip_binary=clip_binary)
        return cls(A=A, B=B, shared_ab=shared)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def p1(self) -> int:
        return self.A.shape[1]

    @property
    def p2(self) -> int:
        return self.B.shape[1]

    def forward(self, X: np.ndarray) -> np.ndarray:
        """A X B^T, computed as (A X) B^T without forming the Kronecker matrix."""
        X = np.asarray(X)
        if X.shape != (self.p1, self.p2):
            raise ParameterError(f"X shape {X.shape} != ({self.p1}, {self.p2})")
        return (self.A @ X) @ self.B.T

    def adjoint(self, M: np.ndarray) -> np.ndarray:
        """A^T M B, the adjoint of forward under the Frobenius pairing."""
        M = np.asarray(M)
        if M.shape != (self.m, self.m):
            raise ParameterError(f"M shape {M.shape} != ({self.m}, {self.m})")
        return (self.A.T @ M) @ self.B

