"""Dense linear-algebra primitives shared by every other module.

Everything operates on plain float64 numpy arrays.  Tolerances are module
constants; nothing reads mutable global state.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DomainError

RANK_TOL = 1e-10        # relative singular-value cutoff for rank decisions


def as_matrix(a) -> np.ndarray:
    """Validate and return a 2-D float64 array with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DomainError(f"expected a 2-D array, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise DomainError("matrix entries must be finite")
    return m


def as_vector(a) -> np.ndarray:
    """Validate and return a 1-D float64 array with finite entries."""
    v = np.asarray(a, dtype=float)
    if v.ndim != 1:
        raise DomainError(f"expected a 1-D array, got shape {v.shape}")
    if v.size and not np.isfinite(v).all():
        raise DomainError("vector entries must be finite")
    return v


def nonincreasing_rearrangement(x) -> np.ndarray:
    """Absolute values of x sorted in nonincreasing order."""
    v = np.abs(np.asarray(x, dtype=float))
    if v.ndim == 1:
        return np.sort(v)[::-1].copy()
    if v.ndim == 2:  # row-wise, used by the Monte Carlo width estimators
        return np.sort(v, axis=1)[:, ::-1].copy()
    raise DomainError(f"expected a 1-D or 2-D array, got shape {v.shape}")


def operator_norm(a) -> float:
    """Largest singular value of A (0 for an empty or zero matrix)."""
    A = as_matrix(a)
    if A.size == 0 or not np.any(A):
        return 0.0
    return float(np.linalg.norm(A, 2))


def column_norm_bound(a) -> float:
    """rho = max_i ||a_i||_2^2 over the columns of A (0 for an empty matrix)."""
    A = as_matrix(a)
    return float(np.max(np.sum(A * A, axis=0))) if A.size else 0.0


def kernel_basis(a) -> np.ndarray:
    """Orthonormal basis (n x k columns) of the null space of A.

    Rank is decided by singular values below RANK_TOL times the largest one.
    A trivial kernel yields an n x 0 matrix; a zero matrix yields the identity.
    """
    A = as_matrix(a)
    n = A.shape[1]
    if A.size == 0:
        return np.eye(n)
    _, svals, vt = np.linalg.svd(A)
    if svals.size == 0 or svals[0] <= 0.0:
        rank = 0
    else:
        rank = int(np.sum(svals > RANK_TOL * svals[0]))
    return np.ascontiguousarray(vt[rank:].T)


def write_matrix_text(path, a) -> None:
    """Text format: '<rows> <cols>' then one space-separated row per line.

    Entries carry 17 significant digits so a read-back is bit-faithful.
    """
    A = as_matrix(a)
    lines = [f"{A.shape[0]} {A.shape[1]}"]
    for row in A:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_matrix_text(path) -> np.ndarray:
    text = Path(path).read_text(encoding="ascii")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DomainError(f"{path}: empty matrix file")
    header = lines[0].split()
    if len(header) != 2:
        raise DomainError(f"{path}: first line must be '<rows> <cols>'")
    rows, cols = int(header[0]), int(header[1])
    if len(lines) - 1 != rows:
        raise DomainError(f"{path}: expected {rows} rows, found {len(lines) - 1}")
    data = np.empty((rows, cols))
    for i, line in enumerate(lines[1:]):
        vals = line.split()
        if len(vals) != cols:
            raise DomainError(f"{path}: row {i} has {len(vals)} entries, expected {cols}")
        data[i] = [float(v) for v in vals]
    return as_matrix(data)


def write_vector_text(path, v) -> None:
    write_matrix_text(path, as_vector(v)[None, :])


def read_vector_text(path) -> np.ndarray:
    A = read_matrix_text(path)
    if A.shape[0] == 1:
        return A[0].copy()
    if A.shape[1] == 1:
        return A[:, 0].copy()
    raise DomainError(f"{path}: expected a single row or column, got shape {A.shape}")
