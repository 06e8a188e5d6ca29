"""Dictionary construction.

A dictionary is a d x n matrix of column atoms.  make_dictionary returns it
read-only, with its column-norm bound rho = max_i ||d_i||_2^2; every other
function takes the matrix itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
# operator_norm is not called here; the name stays because bench/tracer.py
# looks it up in this module when it installs.
from .numerics import column_norm_bound, operator_norm  # noqa: F401
from .rng import RngStream

KINDS = ("gaussian_unit_norm", "identity", "parseval_random")


@dataclass(frozen=True)
class Dictionary:
    matrix: np.ndarray
    rho: float


def make_dictionary(kind, d, n, rng: RngStream | None = None) -> Dictionary:
    """Build a dictionary of the requested kind.

    gaussian_unit_norm: iid standard normal entries with columns scaled to
    unit norm (rho = 1).  identity: d = n identity.  parseval_random: random
    matrix with orthonormalized rows, so D D^T = I_d.
    """
    if kind not in KINDS:
        raise DomainError(f"unknown dictionary kind {kind!r}")
    if d < 1:
        raise DomainError("d must be at least 1")
    if kind == "identity":
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
    return Dictionary(matrix=M, rho=column_norm_bound(M))
