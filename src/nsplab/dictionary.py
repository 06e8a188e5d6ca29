"""Dictionary construction and analysis.

A dictionary is a d x n matrix of column atoms.  make_dictionary returns it
with its column-norm bound rho = max_i ||d_i||_2^2 and operator norm cached;
every other function takes the matrix itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import as_matrix, column_norm_bound, operator_norm
from .rng import RngStream

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
    return Dictionary(matrix=M, rho=column_norm_bound(M), op_norm=operator_norm(M))
