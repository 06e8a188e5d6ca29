"""Stable null space property certification and related quantities.

The stable NSP of order s holds for a matrix A when every nonzero kernel
vector x satisfies ||x_T||_1 < gamma ||x_{T^c}||_1 for all supports |T| <= s
and some gamma < 1.  At desk scale this is decided exactly.  With x scaled
to ||x||_1 = 1, the ratio head / tail equals alpha / (1 - alpha) for the
head mass alpha = max_{|T|=s} ||x_T||_1, a convex function of x.  Its
maximum over the polytope {x in ker A : ||x||_1 <= 1} sits at an extreme
point, and the extreme points are the normalized circuits (kernel vectors of
minimal support).  So gamma_star is the largest ratio over the circuits,
with T the s largest entries, and certify_nsp enumerates them: each
(k-1)-subset of coordinates, k = dim ker A, pins down at most one, read off
the last column of a full QR factorization, C(n, k-1) candidates in all.
When that count exceeds the budget, the LP route runs instead if its
C(n, s) 2^(s-1) support LPs fit: for each support and sign pattern, a small
LP over the kernel parametrization maximizes the signed head mass subject
to unit tail mass.  Past both budgets the certificate is refused; the
problem is NP-hard in general (Tillmann & Pfetsch, IEEE T-IT 2014).

The violating set

    S_gamma = {x on the unit sphere : ||x_T||_1 >= gamma ||x_{T^c}||_1
              for some |T| <= s}

carries the equivalent formulation: A has the stable NSP iff ||Ax||_2 is
bounded away from zero on S_gamma.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dictionary import full_spark_check
from .errors import BudgetExceededError, DomainError, LpSolveError, NotFullSparkError
from .numerics import RANK_TOL, as_matrix, as_vector, kernel_basis
from .rng import RngStream
from .simplex import LpProblem, solve_lp

CERT_BUDGET = 10**6      # circuit candidates or LPs, whichever route runs
_CIRCUIT_CHUNK = 64      # (k-1)-subsets per batched QR
_ETA_STEP = 1e-2         # estimate_eta: first and largest gradient step
_ETA_MAX_ITER = 10_000   # estimate_eta: gradient steps per restart
_ETA_CONV_TOL = 1e-9     # estimate_eta: stop once a step moves x less than this


@dataclass(frozen=True)
class SgammaParams:
    """Parameters (gamma, s) of the violating set S_gamma.

    n is not a parameter: it is the column count of the matrix, or the length
    of the rows, that the set is used with.
    """

    gamma: float
    s: int

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise DomainError(f"gamma must lie in (0, 1], got {self.gamma}")
        if self.s < 1:
            raise DomainError(f"s must be at least 1, got {self.s}")


@dataclass(frozen=True)
class NspCertificate:
    gamma_star: float
    verdict: str                     # 'holds' | 'fails'
    s: int
    tol: float
    witness_support: tuple | None    # support T achieving gamma_star
    witness: np.ndarray | None       # kernel vector with unit tail l1 mass
    method: str                      # 'circuits' | 'lp'
    evaluated: int                   # circuit candidates or LPs evaluated

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


@dataclass(frozen=True)
class EtaEstimate:
    """Best found value of min ||D x||_2 over S_gamma: an UPPER bound on the
    true infimum (the problem is nonconvex)."""

    eta_upper: float
    witness: np.ndarray
    probes: int
    restarts: int


def in_S_gamma(x, p: SgammaParams, tol: float = 1e-9) -> bool:
    """Membership in S_gamma: unit norm and head mass >= gamma * tail mass.

    The s largest magnitudes (ties to the lowest index) maximize the head
    mass, so checking that support alone decides membership.
    """
    v = as_vector(x)
    if abs(np.linalg.norm(v) - 1.0) > tol:
        return False
    a = np.abs(v)
    order = np.argsort(-a, kind="stable")
    head = float(a[order[: p.s]].sum())
    tail = float(a.sum() - head)
    return head >= p.gamma * tail - tol


def _support_lp(N, T, signs, n):
    """Maximize sum_{i in T} signs_i x_i over x = N c with ||x_{T^c}||_1 <= 1."""
    k = N.shape[1]
    Tc = [j for j in range(n) if j not in T]
    nt = len(Tc)
    obj = np.concatenate([np.asarray(signs) @ N[list(T), :], np.zeros(nt)])
    rows = np.zeros((2 * nt + 1, k + nt))
    rhs = np.zeros(2 * nt + 1)
    for jj, j in enumerate(Tc):
        rows[2 * jj, :k] = N[j]
        rows[2 * jj, k + jj] = -1.0
        rows[2 * jj + 1, :k] = -N[j]
        rows[2 * jj + 1, k + jj] = -1.0
    rows[-1, k:] = 1.0
    rhs[-1] = 1.0
    free = [True] * k + [False] * nt
    problem = LpProblem.build(obj, rows, rhs, ["<="] * (2 * nt + 1), free=free)
    res = solve_lp(problem)
    if res.status != "optimal":
        raise LpSolveError(f"support LP for T = {T} ended with status {res.status}")
    return res.value, N @ res.x[:k]


def _certify_circuits(N, s):
    """gamma_star as the largest head/tail ratio over the kernel's circuits.

    Each (k-1)-subset Z of coordinates yields the kernel vector N c with
    N[Z] c = 0.  When N[Z] has rank k-1 that vector is the circuit vanishing
    on Z, and every circuit arises this way; otherwise it is some other
    kernel vector, which cannot exceed gamma_star.  Subsets are taken
    _CIRCUIT_CHUNK at a time, so memory stays flat in C(n, k-1).

    c is the last column q_k of a full QR factorization N[Z]^T = Q R.  R is
    k x (k-1) upper triangular, so its last row is zero, and
    N[Z] q_k = R^T Q^T q_k = R^T e_k = 0: q_k is a unit null vector of N[Z]
    whatever its rank.
    Returns (gamma_star, T, witness, candidates evaluated).
    """
    n, k = N.shape
    subsets = itertools.combinations(range(n), k - 1)
    best, best_x, evaluated = -1.0, None, 0
    while True:
        chunk = list(itertools.islice(subsets, _CIRCUIT_CHUNK))
        if not chunk:
            break
        B = N[np.array(chunk, dtype=np.intp)]
        X = np.linalg.qr(B.transpose(0, 2, 1), mode="complete")[0][:, :, -1] @ N.T
        a = np.sort(np.abs(X), axis=1)
        tail = a[:, : n - s].sum(axis=1)
        head = a[:, n - s :].sum(axis=1)
        with np.errstate(divide="ignore"):
            ratio = np.where(tail > RANK_TOL * (head + tail), head / tail, math.inf)
        evaluated += len(chunk)
        i = int(np.argmax(ratio))
        if ratio[i] > best:
            best = float(ratio[i])
            if best == math.inf:
                best_x = X[i]
                break
            best_x = X[i] / tail[i]
    T = tuple(sorted(int(j) for j in np.argsort(-np.abs(best_x), kind="stable")[:s]))
    return best, T, best_x, evaluated


def _certify_lp(N, s):
    """gamma_star by one LP per support T and sign pattern on T.

    x -> -x maps each sign pattern onto its negation, so the first sign is
    fixed to +1 and 2^(s-1) patterns suffice.  A kernel direction vanishing
    on some T^c makes the ratio infinite and returns at once.
    Returns (gamma_star, T, witness, LPs solved).
    """
    n = N.shape[0]
    best, best_T, best_x, evaluated = 0.0, None, None, 0
    for T in itertools.combinations(range(n), s):
        Tc = [j for j in range(n) if j not in T]
        Z = kernel_basis(N[Tc, :])
        if Z.shape[1] > 0:
            return math.inf, T, N @ Z[:, 0], evaluated
        for signs in itertools.product((1.0, -1.0), repeat=s - 1):
            value, x = _support_lp(N, T, (1.0,) + signs, n)
            evaluated += 1
            if value > best:
                best, best_T, best_x = value, T, x
    return best, best_T, best_x, evaluated


def certify_nsp(A, s: int, tol: float = 1e-9, budget: int = CERT_BUDGET) -> NspCertificate:
    """Exact stable-NSP certificate for A at sparsity s.

    gamma_star is the supremum of ||x_T||_1 / ||x_{T^c}||_1 over nonzero
    kernel vectors and |T| = s; the verdict holds iff gamma_star < 1 - tol,
    for a tol in (0, 1).  tol sets the verdict margin only: gamma_star does
    not depend on it.
    The circuit route runs when its C(n, k-1) candidates fit the budget
    (k the kernel dimension), else the LP route when its C(n, s) 2^(s-1)
    LPs do; past both, BudgetExceededError.  The witness is a kernel vector
    with unit tail mass and head mass gamma_star on witness_support, or,
    when gamma_star is infinite, a kernel vector supported inside it.
    """
    M = as_matrix(A)
    n = M.shape[1]
    if not (1 <= s <= n):
        raise DomainError(f"s must lie in [1, {n}], got {s}")
    if not (0 < tol < 1):
        raise DomainError(f"tol must lie in (0, 1), got {tol}")
    N = kernel_basis(M)
    k = N.shape[1]
    if k == 0:
        return NspCertificate(0.0, "holds", s, tol, None, None, "circuits", 0)
    circuits = math.comb(n, k - 1)
    lps = math.comb(n, s) * 2 ** (s - 1)
    if circuits <= budget:
        method = "circuits"
        gamma_star, T, witness, evaluated = _certify_circuits(N, s)
    elif lps <= budget:
        method = "lp"
        gamma_star, T, witness, evaluated = _certify_lp(N, s)
    else:
        raise BudgetExceededError(
            f"certification needs {circuits} circuit candidates or {lps} LPs, "
            f"budget is {budget}"
        )
    verdict = "holds" if gamma_star < 1.0 - tol else "fails"
    return NspCertificate(gamma_star, verdict, s, tol, T, witness, method, evaluated)


def certificate_to_json(cert: NspCertificate) -> dict:
    return {
        "gamma_star": cert.gamma_star,
        "verdict": cert.verdict,
        "witness_support": list(cert.witness_support) if cert.witness_support else None,
        "witness_vector": cert.witness.tolist() if cert.witness is not None else None,
        "s": cert.s,
        "tol": cert.tol,
        "method": cert.method,
        "evaluated": cert.evaluated,
    }


def _restore_feasible(x, p: SgammaParams, T):
    """Push x back onto the unit sphere inside the fixed-support cone."""
    head = float(np.abs(x[T]).sum())
    tail = float(np.abs(x).sum() - head)
    if tail > 0.0 and head < p.gamma * tail:
        scale = head / (p.gamma * tail) if head > 0.0 else 0.0
        y = x.copy()
        mask = np.ones(x.size, dtype=bool)
        mask[T] = False
        y[mask] *= scale
        x = y
    nrm = np.linalg.norm(x)
    if nrm == 0.0:
        return None
    return x / nrm


def estimate_eta(
    D,
    p: SgammaParams,
    restarts: int,
    rng: RngStream,
) -> EtaEstimate:
    """Multistart projected gradient upper bound on inf ||D x||_2 over S_gamma,
    for a d x n matrix D.

    Each restart fixes a random support T of size s and minimizes ||D x||_2^2
    on the unit sphere intersected with {||x_T||_1 >= gamma ||x_{T^c}||_1},
    projecting by renormalization plus tail shrinkage toward x_T.  The result
    is the best feasible value found, an upper bound on the true infimum.
    """
    if restarts < 1:
        raise DomainError("restarts must be at least 1")
    M = as_matrix(D)
    n = M.shape[1]
    if p.s > n:
        raise DomainError(f"s = {p.s} exceeds the dictionary width {n}")
    G = M.T @ M
    best_val = math.inf
    best_x = None
    probes = 0
    for r in range(restarts):
        sub = rng.substream("eta-restart", r)
        T = np.sort(sub.permutation(n)[: p.s])
        x = np.zeros(n)
        x[T] = sub.normal(p.s)
        mask = np.ones(n, dtype=bool)
        mask[T] = False
        x[mask] = 0.1 * sub.normal(n - p.s)
        x = _restore_feasible(x, p, T)
        if x is None:
            continue
        f = float(x @ G @ x)
        eta_step = _ETA_STEP
        for _ in range(_ETA_MAX_ITER):
            grad = 2.0 * (G @ x)
            rgrad = grad - (grad @ x) * x  # tangent to the sphere
            moved = None
            while eta_step > 1e-14:
                y = _restore_feasible(x - eta_step * rgrad, p, T)
                if y is None:
                    eta_step *= 0.5
                    continue
                fy = float(y @ G @ y)
                if fy <= f:
                    moved = (y, fy)
                    break
                eta_step *= 0.5
            if moved is None:
                break
            y, fy = moved
            shift = float(np.linalg.norm(y - x))
            x, f = y, fy
            probes += 1
            eta_step = min(eta_step * 1.5, _ETA_STEP)
            if shift < _ETA_CONV_TOL:
                break
        val = math.sqrt(max(f, 0.0))
        if val < best_val:
            best_val = val
            best_x = x
    return EtaEstimate(best_val, best_x, probes, restarts)


def d_nsp_check(D, Phi, s: int) -> NspCertificate:
    """NSP of Phi with respect to the dictionary matrix D: for full spark D it
    is equivalent to the plain NSP of Phi @ D, whose certificate is returned."""
    M = as_matrix(D)
    P = as_matrix(Phi)
    if P.shape[1] != M.shape[0]:
        raise DomainError(f"Phi has {P.shape[1]} columns, dictionary lives in R^{M.shape[0]}")
    if not full_spark_check(M):
        raise NotFullSparkError(
            "dictionary is not full spark; the equivalence route does not apply"
        )
    return certify_nsp(P @ M, s)
