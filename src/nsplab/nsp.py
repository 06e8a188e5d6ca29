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
(k-1)-subset of coordinates, k = dim ker A, pins down at most one,
C(n, k-1) candidates in all.  Each is the null vector of a small block,
taken from the kernel basis or, when it is the smaller side, from its
orthonormal complement, and formed from the Householder reflectors of the
block's QR factorization without building Q.
When C(n, k-1) exceeds the budget, the LP route runs instead if its
C(n, s) 2^(s-1) support problems fit: for each support and sign pattern,
the largest signed head mass of a kernel vector with unit tail mass.  Each
is solved as basis pursuit by the l1 homotopy of the solver module, the
package's one l1 optimizer.  Past both budgets the certificate is refused;
the problem is NP-hard in general (Tillmann & Pfetsch, IEEE T-IT 2014).

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
from .solver import solve_l1_synthesis

solve_lp = solve_l1_synthesis  # the support problems' solver; bench/tracer.py wraps this attribute

CERT_BUDGET = 10**6      # circuit candidates or support problems, whichever route runs
_CIRCUIT_CHUNK = 256     # (k-1)-subsets per batched QR: fewer numpy calls than 64 at
                         # peak memory within 1% of it on preserve; 2048 adds ~2 MB
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


def _support_lp(N, U, sv, Vt, h, T):
    """max h . c over c with ||N_Tc c||_1 <= 1, as basis pursuit.

    N_Tc = N[T^c] = U diag(sv) Vt has full column rank k, so the tails are
    the z with U2^T z = 0, U = [U1, U2], and c = Vt^T (U1^T z / sv).  The
    objective is g . z, g = U1 (Vt h / sv), and by homogeneity its maximum is
    |g| / min{||z||_1 : U2^T z = 0, u . z = 1}, u = g / |g|: basis pursuit on
    the orthonormal rows [U2^T; u^T], which stay well posed when g is
    rounding noise.  g = 0 gives 0.  Returns (value, N c scaled to unit tail
    mass, or None for the value 0).
    """
    k = sv.size
    g = U[:, :k] @ (Vt @ h / sv)
    g_norm = float(np.linalg.norm(g))
    if g_norm == 0.0:
        return 0.0, None
    C = np.vstack([U[:, k:].T, g / g_norm])
    e_last = np.zeros(C.shape[0])
    e_last[-1] = 1.0
    res = solve_lp(C, e_last)
    if res.status != "converged":
        raise LpSolveError(f"support problem for T = {T} ended with status {res.status}")
    c = Vt.T @ (U[:, :k].T @ res.x_hat / sv)
    return g_norm / res.objective, N @ c / res.objective


def _orthogonal_unit_vectors(M):
    """A unit vector orthogonal to the p columns of each (p+1) x p block of M.

    LAPACK geqrf factors each block as M = Q R with Q = H_1 ... H_p, a product
    of Householder reflectors, and R upper triangular, so R's last row is
    zero and M^T q = R^T Q^T q = R^T e_{p+1} = 0 for q = Q e_{p+1}, whatever
    the rank of M.  q is formed by applying H_p, ..., H_1 to e_{p+1}, one
    reflector per step across the whole stack; Q itself is never built.
    M has shape (c, p+1, p); the result has shape (c, p+1).
    """
    c, p1, p = M.shape
    q = np.zeros((c, p1))
    q[:, p] = 1.0
    h, tau = np.linalg.qr(M, mode="raw")
    # h[:, j] is column j of the factored block: R above the diagonal, and
    # below it the tail of H_j's vector, whose entry j is an implicit 1.
    for j in range(p - 1, -1, -1):
        v = h[:, j, j + 1 :]
        w = tau[:, j] * (q[:, j] + np.einsum("ij,ij->i", v, q[:, j + 1 :]))
        q[:, j] -= w
        q[:, j + 1 :] -= w[:, None] * v
    return q


def _certify_circuits(N, s):
    """gamma_star as the largest head/tail ratio over the kernel's circuits.

    Each (k-1)-subset Z of coordinates yields a unit kernel vector x with
    x_Z = 0.  When the kernel vectors vanishing on Z form a line, x is the
    circuit on that line, and every circuit arises this way; otherwise it is
    some other kernel vector, which cannot exceed gamma_star.  Subsets are
    taken _CIRCUIT_CHUNK at a time, so memory stays flat in C(n, k-1).

    x is the null vector of a p x (p+1) block, taken from whichever side
    of the kernel is smaller:
    * kernel side, p = k-1: x = N q with N[Z] q = 0;
    * row-space side, p = n-k, when n-k < k-1: with R the orthonormal
      complement of N, x is q scattered onto W = [n] minus Z, where
      R[W]^T q = 0, since the kernel is the set of x with R^T x = 0.
    Both sides walk the same subsets in the same order.  An infinite ratio
    ends the walk, and the count of candidates evaluated stops at it.
    Returns (gamma_star, T, witness, candidates evaluated).
    """
    n, k = N.shape
    row_side = n - k < k - 1
    if row_side:
        R = np.linalg.qr(N, mode="complete")[0][:, k:]
    subsets = itertools.combinations(range(n), k - 1)
    best, best_x, evaluated = -1.0, None, 0
    while True:
        chunk = list(itertools.islice(subsets, _CIRCUIT_CHUNK))
        if not chunk:
            break
        # explicit shape: at k = 1 the chunk is one empty subset, a (1, 0) array
        Z = np.fromiter(
            itertools.chain.from_iterable(chunk), np.intp, len(chunk) * (k - 1)
        ).reshape(len(chunk), k - 1)
        if row_side:
            keep = np.ones((len(chunk), n), dtype=bool)
            keep[np.arange(len(chunk))[:, None], Z] = False
            W = np.nonzero(keep)[1].reshape(len(chunk), n - k + 1)
            X = np.zeros((len(chunk), n))
            X[keep] = _orthogonal_unit_vectors(R[W]).ravel()
        else:
            X = _orthogonal_unit_vectors(N[Z].transpose(0, 2, 1)) @ N.T
        a = np.sort(np.abs(X), axis=1)
        tail = a[:, : n - s].sum(axis=1)
        head = a[:, n - s :].sum(axis=1)
        with np.errstate(divide="ignore"):
            ratio = np.where(tail > RANK_TOL * (head + tail), head / tail, math.inf)
        i = int(np.argmax(ratio))
        if ratio[i] == math.inf:
            best, best_x = math.inf, X[i]
            evaluated += i + 1
            break
        evaluated += len(chunk)
        if ratio[i] > best:
            best, best_x = float(ratio[i]), X[i] / tail[i]
    T = tuple(sorted(int(j) for j in np.argsort(-np.abs(best_x), kind="stable")[:s]))
    return best, T, best_x, evaluated


def _certify_lp(N, s):
    """gamma_star by one support problem per support T and sign pattern on T.

    x -> -x maps each sign pattern onto its negation, so the first sign is
    fixed to +1 and 2^(s-1) patterns suffice.  One SVD of N[T^c] serves all
    patterns of T.  N has orthonormal columns, so a singular value of at
    most RANK_TOL is a unit kernel vector with a vanishing tail on T^c: the
    ratio is infinite and the walk returns at once.
    Returns (gamma_star, T, witness, support problems solved).
    """
    n, k = N.shape
    best, best_T, best_x, evaluated = 0.0, None, None, 0
    for T in itertools.combinations(range(n), s):
        Tc = [j for j in range(n) if j not in T]
        U, sv, Vt = np.linalg.svd(N[Tc, :])
        if sv.size < k or sv.min(initial=math.inf) <= RANK_TOL:
            return math.inf, T, N @ Vt[-1], evaluated
        for signs in itertools.product((1.0, -1.0), repeat=s - 1):
            h = N[list(T), :].T @ np.array((1.0,) + signs)
            value, x = _support_lp(N, U, sv, Vt, h, T)
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
    support problems do; past both, BudgetExceededError.  A support problem
    whose solve is not certified raises LpSolveError.  The witness is a
    kernel vector with unit tail mass and head mass gamma_star on
    witness_support, or, when gamma_star is infinite, a kernel vector
    supported inside it.
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
