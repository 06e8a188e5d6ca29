"""Dictionary construction and analysis.

A dictionary is a d x n matrix of column atoms with cached column-norm bound
rho = max_i ||d_i||_2^2 and operator norm.  full_spark_check decides whether
every d columns are linearly independent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, DomainError
from .numerics import as_matrix, operator_norm
from .rng import RngStream

DET_TOL = 1e-10          # relative to the column-norm product: scale invariant
SPARK_BUDGET = 10**6     # refuse enumerations beyond this many submatrices

KINDS = ("gaussian_unit_norm", "identity", "parseval_random", "user_matrix")


@dataclass(frozen=True)
class Dictionary:
    matrix: np.ndarray
    rho: float
    op_norm: float

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]


def make_dictionary(kind, d, n, rng: RngStream | None = None, matrix=None) -> Dictionary:
    """Build a dictionary of the requested kind.

    gaussian_unit_norm: iid standard normal entries with columns scaled to
    unit norm (rho = 1).  identity: d = n identity.  parseval_random: random
    matrix with orthonormalized rows, so D D^T = I_d.  user_matrix: a copy of
    the provided matrix.
    """
    if kind not in KINDS:
        raise DomainError(f"unknown dictionary kind {kind!r}")
    if d < 1:
        raise DomainError("d must be at least 1")
    if kind == "user_matrix":
        M = as_matrix(matrix).copy()  # freeze a copy: the caller's array stays writable
        if M.shape != (d, n):
            raise DomainError(f"user matrix has shape {M.shape}, expected {(d, n)}")
    elif kind == "identity":
        if n != d:
            raise DomainError("identity dictionary requires n = d")
        M = np.eye(d)
    else:
        if n < d:
            raise DomainError(f"{kind} requires n >= d")
        if rng is None:
            raise DomainError(f"{kind} requires an RngStream")
        G = rng.normal((d, n))
        if kind == "gaussian_unit_norm":
            M = G / np.linalg.norm(G, axis=0)
        else:  # parseval_random: orthonormalize the rows
            q, r = np.linalg.qr(G.T)
            q = q * np.sign(np.diag(r))  # fix the QR sign ambiguity
            M = q.T
    M = np.ascontiguousarray(M)
    M.flags.writeable = False
    rho = float(np.max(np.sum(M * M, axis=0))) if M.size else 0.0
    return Dictionary(matrix=M, rho=rho, op_norm=operator_norm(M))


def full_spark_check(D, budget: int = SPARK_BUDGET) -> bool:
    """True iff every d x d column submatrix is invertible.

    The determinant threshold is relative to the product of the submatrix
    column norms, so the verdict only depends on column directions.
    """
    M = D.matrix if isinstance(D, Dictionary) else as_matrix(D)
    d, n = M.shape
    if n < d:
        raise DomainError("full spark needs at least d columns")
    count = math.comb(n, d)
    if count > budget:
        raise BudgetExceededError(
            f"full spark check needs {count} determinants, budget is {budget}"
        )
    col_norms = np.linalg.norm(M, axis=0)
    combos = itertools.combinations(range(n), d)
    chunk = max(1, min(count, 10_000))
    while True:
        block = list(itertools.islice(combos, chunk))
        if not block:
            return True
        idx = np.array(block)
        sub = M[:, idx].transpose(1, 0, 2)  # (batch, d, d)
        dets = np.abs(np.linalg.det(sub))
        norm_prod = np.prod(col_norms[idx], axis=1)
        if np.any(dets <= DET_TOL * norm_prod):
            return False
