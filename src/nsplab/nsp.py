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
C(n, k-1) candidates in all.  By Cramer's rule each candidate's entries are
maximal minors of the kernel basis, so one table of the C(n, k) minors,
built by Laplace expansion from whichever side of the kernel has fewer
rows, serves them all.
When the C(n, k-1) candidates or the C(n, min(k, n-k)) entries of that
table exceed the budget, the LP route runs instead if its
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

from .errors import BudgetExceededError, DomainError, LpSolveError
from .numerics import RANK_TOL, as_matrix, as_vector, kernel_basis
from .rng import RngStream
from .solver import solve_l1_synthesis

solve_lp = solve_l1_synthesis  # the support problems' solver; bench/tracer.py wraps this attribute

CERT_BUDGET = 10**6      # circuit candidates and minor-table entries, or support problems
_CIRCUIT_CHUNK = 2**13   # subset entries per unranking and gather in the circuit route,
                         # 64 KB per index array, and at least 256 candidates (as many
                         # as the QR route took) so that long candidates amortize the
                         # walk's numpy calls
_CIRCUIT_TRUST = 1e-4    # a circuit candidate of l1 norm below this share of the typical
                         # one is recomputed from its block: minor rounding is absolute
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


def _binomials(n, top):
    """binom[j, v] = C(v, j) for 0 <= j <= top and 0 <= v <= n, as int64
    capped at 2^40.

    Row j is the running sum of row j-1 (C(v, j) is the sum of C(u, j-1)
    over u < v).  The cap keeps the sums from overflowing; a capped entry
    lies above every rank in use, so it only ever compares as large.
    """
    binom = np.zeros((top + 1, n + 1), np.int64)
    binom[0] = 1
    for j in range(1, top + 1):
        np.minimum(np.cumsum(binom[j - 1, :-1]), 2**40, out=binom[j, 1:])
    return binom


def _colex_walk(lo, hi, size, binom):
    """The size-subsets of colex ranks lo, ..., hi-1, and the colex rank of
    each with one element removed.

    Returns S and drop, both (size, hi - lo): column c of S is the subset
    s_0 < ... < s_{size-1} of rank lo + c, and drop[i, c] is the rank of
    that subset minus s_i.  The rank is the sum of C(s_j, j+1), so the
    largest element is the largest v with C(v, size) <= rank, and so on
    down to s_0 = C(s_0, 1), the rank left.  Removing s_i leaves s_j at
    position j for j < i, whose terms sum to the rank left once s_i is
    found, and moves it to position j-1 for j > i, whose terms become
    C(s_j, j).
    """
    rank = np.arange(lo, hi)
    S = np.empty((size, hi - lo), np.intp)
    drop = np.empty((size, hi - lo), np.intp)
    moved = np.zeros(hi - lo, np.intp)
    for j in range(size - 1, 0, -1):
        up = binom[j + 1]
        S[j] = up[1:].searchsorted(rank, side="right")
        rank -= up.take(S[j])
        np.add(rank, moved, out=drop[j])
        moved += binom[j].take(S[j])
    S[0] = rank
    drop[0] = moved
    return S, drop


def _maximal_minors(M, binom):
    """det M[:, S] for every r-subset S of the n columns of the r x n matrix
    M, in colex order of S; binom is _binomials(n, top) for some top >= r.

    Laplace expansion along the rows, one level per row: level L holds the
    minors of the first L rows, det M[:L, S] = sum over i of
    (-1)^(L-1+i) M[L-1, s_i] det M[:L-1, S minus s_i], L gather-multiply-adds
    over the C(n, L) subsets, taken _CIRCUIT_CHUNK entries at a time.  Level
    0 is the empty minor 1, so r = 0 gives [1.0].
    """
    r, n = M.shape
    D = np.ones(1)
    for L in range(1, r + 1):
        total = int(binom[L, n])
        sign = (-1.0) ** (L - 1 + np.arange(L))
        step = max(1, _CIRCUIT_CHUNK // L)
        level = np.empty(total)
        for lo in range(0, total, step):
            S, drop = _colex_walk(lo, min(lo + step, total), L, binom)
            level[lo : lo + S.shape[1]] = sign @ (D.take(drop) * M[L - 1].take(S))
        D = level
    return D


def _head_tail(a, s):
    """Per column of a >= 0, the sum of its s largest entries and of the rest.

    Each row passes down s running maxima; what falls out of the last one
    is tail, so neither sum is a difference of larger ones.  a is consumed.
    On the benchmark's shapes this is as fast as sorting each column, and
    the process's peak memory reads 0.2-0.3 MB lower.
    """
    top = [np.zeros(a.shape[1]) for _ in range(s)]
    tail = np.zeros(a.shape[1])
    for v in a:
        for q in range(s):
            kept = np.maximum(top[q], v)
            np.minimum(top[q], v, out=v)
            top[q] = kept
        tail += v
    return sum(top), tail


def _block_null_vectors(N, W):
    """For each row w of W, a unit kernel vector N v vanishing off w: v is
    the last right singular vector of the (k-1) x k block N[Z], Z the
    coordinates not in w.  Returns the vectors restricted to w, row by row.
    """
    c, n = W.shape[0], N.shape[0]
    keep = np.zeros((c, n), dtype=bool)
    keep[np.arange(c)[:, None], W] = True
    Z = np.nonzero(~keep)[1].reshape(c, n - W.shape[1])
    v = np.linalg.svd(N[Z])[2][:, -1]
    return np.take_along_axis(v @ N.T, W, axis=1)


def _certify_circuits(N, s):
    """gamma_star as the largest head/tail ratio over the kernel's circuits.

    Candidates.  Each (k-1)-subset Z of coordinates, in lexicographic order,
    yields a kernel vector x with x_Z = 0, supported on the n-k+1 coordinates
    W = [n] minus Z.  When N[Z] has full rank k-1, the kernel vectors that
    vanish on Z form a line, and x is the circuit on it.  Every circuit C
    arises so: the kernel vectors vanishing on C^c form a line (a second one
    would combine with the first to vanish on more of C), so N[C^c] has rank
    k-1, and k-1 independent rows of it give a Z.

    Minors.  With R the n x (n-k) orthonormal complement of N, the kernel is
    {x : R^T x = 0}, and Cramer's rule gives a null vector of the
    (n-k) x (n-k+1) block R^T[:, W] as x_{w_i} = (-1)^i det R^T[:, W minus w_i]:
    each row of R^T[:, W] x_W is the Laplace expansion of a determinant with
    a repeated row.  So one table of the C(n, n-k) maximal minors of R^T
    serves every candidate.  It is built from whichever of R^T and N^T has
    fewer rows, r = min(k, n-k): [N R] is orthogonal, so by Jacobi's
    complementary minor identity det R^T[:, U] = +-(-1)^(sum U)
    det N^T[:, [n] minus U], one sign for all U.  Alternating the signs of
    N^T's columns absorbs (-1)^(sum U), and complements run through the
    colex order backwards, so rank q of the R^T table is rank
    C(n, k) - 1 - q of the N^T one.  The walk runs on reflected coordinates
    j -> n-1-j, where the supports W of the lexicographic Z are the
    (n-k+1)-subsets in colex order, unranked _CIRCUIT_CHUNK entries at a
    time, so memory holds the table and one chunk.

    Weak candidates.  M = R^T or N^T has orthonormal rows, so by
    Cauchy-Binet the C(n, r) minors have unit sum of squares, and a typical
    candidate has l1 norm about (n-k+1) C(n, r)^(-1/2).  A computed minor is
    off by at most gamma_{r(r+1)/2} perm|M[:, S]| (level L sums L products;
    gamma_m = m u / (1 - m u), u = 2^-53), a worst case far above what
    happens: against 40-digit minors of random orthonormal M, r = 3 to 10
    and n up to 40, the error stayed below 1e-15 C(n, r)^(-1/2).  The
    rounding is absolute, not relative to the candidate, so a candidate of
    l1 norm below _CIRCUIT_TRUST times the typical one is recomputed by
    _block_null_vectors, as a unit null vector of its block N[Z] from an
    SVD: every candidate of a rank-deficient block, whose minors vanish and
    whose computed vector is rounding noise, not a kernel vector, and the
    circuit of a nearly singular one, whose minors carry a large relative
    error.  That vector is a kernel vector vanishing on Z (some vector of
    the null space when N[Z] is rank deficient), so its ratio cannot exceed
    gamma_star, and no candidate is skipped.  On the others the minors'
    relative error stays below about 1e-11.

    A tail of at most RANK_TOL times the l1 norm is an infinite ratio; it
    ends the walk, and the count of candidates evaluated stops at it.  The
    witness is the winning candidate's signed minors, or its recomputed
    vector, scaled to unit tail mass unless the ratio is infinite.
    Returns (gamma_star, T, witness, candidates evaluated).
    """
    n, k = N.shape
    p = n - k
    binom = _binomials(n, p + 1)
    flip = (-1.0) ** np.arange(n)
    if k <= p:  # N^T table, read at complement ranks
        table = _maximal_minors(N[::-1].T * flip, binom)
        last = table.size - 1
    else:
        table = _maximal_minors(np.linalg.qr(N[::-1], mode="complete")[0][:, k:].T, binom)
        last = None
    weak = _CIRCUIT_TRUST * (p + 1) / math.sqrt(table.size)
    total = int(binom[p + 1, n])
    step = max(256, _CIRCUIT_CHUNK // (p + 1))
    best, best_x, evaluated = -math.inf, None, 0
    for lo in range(0, total, step):
        S, drop = _colex_walk(lo, min(lo + step, total), p + 1, binom)
        if last is not None:
            np.subtract(last, drop, out=drop)
        X = table.take(drop)  # signed minors; entry i of a candidate is (-1)^i x_{n-1-S[i]}
        a = np.abs(X)
        mass = a.sum(axis=0)
        redo = np.flatnonzero(mass <= weak)
        if redo.size:
            X[:, redo] = _block_null_vectors(N, n - 1 - S[:, redo].T).T * flip[: p + 1, None]
            a[:, redo] = np.abs(X[:, redo])
            mass[redo] = a[:, redo].sum(axis=0)
        head, tail = _head_tail(a, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(tail > RANK_TOL * mass, head / tail, math.inf)
        i = int(np.argmax(ratio))
        if ratio[i] == math.inf:
            best, best_x = math.inf, (S[:, i], X[:, i])
            evaluated += i + 1
            break
        evaluated += S.shape[1]
        if ratio[i] > best:
            best, best_x = float(ratio[i]), (S[:, i], X[:, i] / tail[i])
    x = np.zeros(n)
    x[n - 1 - best_x[0]] = best_x[1] * flip[: p + 1]
    T = tuple(sorted(int(j) for j in np.argsort(-np.abs(x), kind="stable")[:s]))
    return best, T, x, evaluated


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
    The circuit route runs when its C(n, k-1) candidates and the C(n, r)
    entries of its minor table, r = min(k, n-k), both fit the budget (k the
    kernel dimension).  Since C(n, k-1) (n-k+1) = k C(n, k), its walk then
    reads at most (r+1) budget minors, and the table takes at most 8 budget
    bytes.  Else the LP route runs when its C(n, s) 2^(s-1) support problems
    fit the budget; past both, BudgetExceededError.  A support problem
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
    minors = math.comb(n, min(k, n - k))
    lps = math.comb(n, s) * 2 ** (s - 1)
    if max(circuits, minors) <= budget:
        method = "circuits"
        gamma_star, T, witness, evaluated = _certify_circuits(N, s)
    elif lps <= budget:
        method = "lp"
        gamma_star, T, witness, evaluated = _certify_lp(N, s)
    else:
        raise BudgetExceededError(
            f"certification needs {circuits} circuit candidates over {minors} minors "
            f"or {lps} LPs, "
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
            eta_step = min(eta_step * 1.5, _ETA_STEP)
            if shift < _ETA_CONV_TOL:
                break
        val = math.sqrt(max(f, 0.0))
        if val < best_val:
            best_val = val
            best_x = x
    return EtaEstimate(best_val, best_x)
