"""Independent oracles and test-only checks shared by the test modules.

Nothing in nsplab calls these: each one recomputes a quantity by a second
route (quadrature, sampling, Dykstra, a grid, high precision, QR null
vectors) or checks one of the paper's lemmas empirically.  The checks return
plain tuples; each test writes out the inequality it asserts.  The text
writers make the input files the CLI tests read; best_s_term_error,
project_cone_batch and csv_body are helpers that only the tests call.
"""

import itertools
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

import nsplab.width
from nsplab.errors import DomainError
from nsplab.nsp import SgammaParams
from nsplab.numerics import (
    RANK_TOL,
    as_matrix,
    as_vector,
    kernel_basis,
    nonincreasing_rearrangement,
    operator_norm,
)
from nsplab.rng import RngStream
from nsplab.subgaussian import SubgaussianSpec, sample_measurement_matrix

mpmath.mp.dps = 50

_MC_BLOCK = 20_000
_SAMPLE_BLOCK = 200_000


def write_matrix_text(path, a) -> None:
    """The text format nsplab reads: '<rows> <cols>', then one
    space-separated row per line.

    Entries carry 17 significant digits so a read-back is bit-faithful.
    """
    A = as_matrix(a)
    lines = [f"{A.shape[0]} {A.shape[1]}"]
    for row in A:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def write_vector_text(path, v) -> None:
    write_matrix_text(path, as_vector(v)[None, :])


def csv_body(text: str) -> str:
    """CSV content with comment lines stripped: the part that must reproduce."""
    return "\n".join(ln for ln in text.splitlines() if not ln.startswith("#")) + "\n"


def best_s_term_error(x, s: int) -> float:
    """l1 distance to the nearest s-sparse vector: the n-s smallest |x_i| summed."""
    v = np.abs(as_vector(x))
    if not (0 <= s <= v.size):
        raise DomainError(f"s must lie in [0, {v.size}], got {s}")
    if s == 0:
        return float(v.sum())
    return float(np.sort(v)[: v.size - s].sum())


def mp_m_min(formula_id, eta, gamma, rho, alpha, sigma, C, s, n, kappa=None, width=None):
    """Independent high-precision evaluation of the printed formulas."""
    eta, gamma, rho, alpha, sigma, C = map(mpmath.mpf, (eta, gamma, rho, alpha, sigma, C))
    log_ns = mpmath.log(mpmath.sqrt(2) * n / s)
    if formula_id == "thm_S":
        return mpmath.mpf(4) ** 8 / eta**2 * sigma**6 / alpha**6 * C**2 * mpmath.mpf(width) ** 2
    if formula_id == "thm_main":
        return 36 * mpmath.mpf(4) ** 8 / eta**2 * sigma**6 / alpha**6 * rho / gamma**2 * C**2 * s * log_ns
    if formula_id == "cor_non":
        return 9 * mpmath.mpf(2) ** 15 * mpmath.pi**3 / eta**2 * rho * mpmath.mpf(kappa) ** 3 / gamma**2 * s * log_ns
    if formula_id == "cor_sgauss":
        return 9 * mpmath.mpf(2) ** 15 * mpmath.pi**3 / eta**2 * rho / gamma**2 * s * log_ns
    if formula_id == "thm_main_gauss":
        return 18 * mpmath.mpf(2) ** 9 * mpmath.pi * mpmath.e / eta**2 * rho * mpmath.mpf(kappa) / gamma**2 * s * mpmath.log(2 * n)
    raise ValueError(formula_id)


def mp_rate(formula_id, alpha, sigma, kappa=None):
    alpha, sigma = mpmath.mpf(alpha), mpmath.mpf(sigma)
    if formula_id in ("thm_S", "thm_main"):
        return alpha**4 / (mpmath.mpf(64) ** 2 * sigma**4)
    if formula_id == "cor_non":
        return mpmath.mpf(kappa) ** 2 / (mpmath.mpf(4) ** 5 * mpmath.pi**2)
    if formula_id == "cor_sgauss":
        return 1 / (mpmath.mpf(4) ** 5 * mpmath.pi**2)
    return 1 / (128 * mpmath.e * mpmath.pi)


def _head_sum(a, s):
    """Per column, the sum of the s largest entries of a.

    For s <= 2 the entries are picked without np.partition: the column max,
    plus for s = 2 the largest entry left once one copy of the max is set
    aside (a running top two, ties included).  Adding two floats commutes,
    so the sums are bit-identical to the partition route's.
    """
    if s == 1:
        return a.max(axis=0)
    if s == 2:
        first = a[0].copy()
        second = np.full(a.shape[1], -np.inf)
        for row in a[1:]:
            np.maximum(second, np.minimum(first, row), out=second)
            np.maximum(first, row, out=first)
        return first + second
    n = a.shape[0]
    return np.partition(a, n - s, axis=0)[n - s :].sum(axis=0)


def gamma_star_sampling_oracle(A, s, samples, rng):
    """Max of ||x_T||_1 / ||x_{T^c}||_1 over random kernel vectors.

    Independent of the LP path.  Spends 60% of the budget on isotropic
    kernel coefficients and the rest on random resampling in shrinking
    neighborhoods of the incumbent, so sharp maxima are still located.
    Every probe is a kernel vector, so the result is a valid lower bound.
    """
    N = kernel_basis(np.asarray(A, float))
    n, k = N.shape
    if k == 0:
        return 0.0

    # probes per product: at most 2^18 multiply-adds, OpenBLAS's threading
    # cutoff, so no second BLAS thread starts (as in width._projection_values)
    step = max(256, 2**18 // (n * k))

    def ratios(C):
        out = np.empty(C.shape[0])
        for i in range(0, C.shape[0], step):
            # one column per probe: the per-probe reductions then run along the long axis
            a = np.abs(N @ C[i : i + step].T)
            head = _head_sum(a, s)
            tail = a.sum(axis=0) - head
            out[i : i + step] = np.where(tail > 0, head / np.maximum(tail, 1e-300), np.inf)
        return out

    best = 0.0
    best_c = None
    bulk = int(samples * 0.6)
    done = 0
    while done < bulk:
        block = min(250_000, bulk - done)
        C = rng.normal((block, k))
        r = ratios(C)
        i = int(np.argmax(r))
        if r[i] > best:
            best = float(r[i])
            best_c = C[i] / np.linalg.norm(C[i])
        done += block
    if not math.isfinite(best):
        return math.inf
    rounds = 10
    per_round = max((samples - bulk) // rounds, 1)
    radius = 0.5
    for _ in range(rounds):
        C = best_c[None, :] + radius * rng.normal((per_round, k))
        r = ratios(C)
        i = int(np.argmax(r))
        if r[i] > best:
            best = float(r[i])
            best_c = C[i] / np.linalg.norm(C[i])
        radius *= 0.4
    return best


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


def circuit_qr_oracle(N, s):
    """gamma_star over the circuit candidates, each a QR null vector.

    Independent of certify_nsp's minor table: for each (k-1)-subset Z, in
    lexicographic order, the unit null vector of a p x (p+1) block from
    Householder reflectors, on whichever side of the kernel is smaller:
    * kernel side, p = k-1: x = N q with N[Z] q = 0;
    * row-space side, p = n-k, when n-k < k-1: with R the orthonormal
      complement of N, x is q scattered onto W = [n] minus Z, where
      R[W]^T q = 0.
    A rank-deficient block still gives a unit kernel vector, some vector of
    the plane or larger space vanishing on Z, which cannot exceed
    gamma_star, so no candidate is skipped.  A tail of at most RANK_TOL
    times the l1 norm is an infinite ratio and ends the walk.
    Returns (gamma_star, T, witness, candidates evaluated), as the circuit
    route does.
    """
    n, k = N.shape
    row_side = n - k < k - 1
    if row_side:
        R = np.linalg.qr(N, mode="complete")[0][:, k:]
    subsets = itertools.combinations(range(n), k - 1)
    best, best_x, evaluated = -1.0, None, 0
    while True:
        chunk = list(itertools.islice(subsets, 256))
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


def bp_objective_oracle(B, y) -> float:
    """min ||x||_1 s.t. B x = y, the basis-pursuit optimum, by HiGHS.

    Independent of nsplab's homotopy: scipy's linprog on the split form
    x = x+ - x-, minimizing sum(x+) + sum(x-) subject to [B, -B] [x+; x-] = y
    with both parts nonnegative.  Skips the calling test without scipy.
    """
    optimize = pytest.importorskip("scipy.optimize")
    B = as_matrix(B)
    n = B.shape[1]
    res = optimize.linprog(
        np.ones(2 * n), A_eq=np.hstack([B, -B]), b_eq=as_vector(y),
        bounds=(0.0, None), method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun)


def support_lp_oracle(N, T, signs) -> float:
    """max signs . x_T over x = N c with ||x_{T^c}||_1 <= 1, by HiGHS.

    The support problem of certify_nsp's LP route in its plain LP form,
    independent of nsplab's basis-pursuit reformulation: variables c (free)
    and t >= 0 with -t <= N[T^c] c <= t and sum(t) <= 1.  Returns inf when
    the LP is unbounded.  HiGHS runs without presolve, which called
    unbounded support problems "infeasible", although c = 0, t = 0 is
    always feasible.  Skips the calling test without scipy.
    """
    optimize = pytest.importorskip("scipy.optimize")
    N = as_matrix(N)
    n, k = N.shape
    Tc = [j for j in range(n) if j not in T]
    rest, eye = N[Tc], np.eye(len(Tc))
    A_ub = np.vstack([
        np.hstack([rest, -eye]),
        np.hstack([-rest, -eye]),
        np.hstack([np.zeros((1, k)), np.ones((1, len(Tc)))]),
    ])
    b_ub = np.concatenate([np.zeros(2 * len(Tc)), [1.0]])
    res = optimize.linprog(
        -np.concatenate([np.asarray(signs, dtype=float) @ N[list(T)], np.zeros(len(Tc))]),
        A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * k + [(0.0, None)] * len(Tc),
        method="highs", options={"presolve": False},
    )
    if res.status == 3:
        return math.inf
    assert res.status == 0, res.message
    return float(-res.fun)


def eta_grid_oracle(D, p: SgammaParams, resolution: int = 2000) -> float:
    """Brute-force grid minimum of ||D x||_2 over S_gamma, for a d x n matrix D
    with n = 2 or 3 only."""
    M = as_matrix(D)
    n = M.shape[1]
    if n == 2:
        theta = np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False)
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
    elif n == 3:
        k = np.arange(resolution * resolution)
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        z = 1.0 - 2.0 * (k + 0.5) / k.size
        r = np.sqrt(1.0 - z * z)
        phi = 2.0 * math.pi * ((k / golden) % 1.0)
        pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    else:
        raise DomainError("grid oracle supports n = 2 or 3 only")
    a = np.sort(np.abs(pts), axis=1)[:, ::-1]
    head = a[:, : p.s].sum(axis=1)
    tail = a.sum(axis=1) - head
    members = pts[head >= p.gamma * tail - 1e-12]
    vals = np.linalg.norm(members @ M.T, axis=1)
    return float(vals.min())


def cone_normal(p: SgammaParams, n: int) -> np.ndarray:
    """a = (1,...,1, -gamma,...,-gamma) with s ones: K = {u >= 0, a @ u >= 0}."""
    a = np.full(n, -p.gamma)
    a[: p.s] = 1.0
    return a


def project_cone_batch(Hstar, p: SgammaParams) -> np.ndarray:
    """Row-wise Euclidean projection of rearranged rows of length n onto K:
    the package's draw-major routine, one row per input row.  Refuses s > n."""
    X = np.atleast_2d(np.asarray(Hstar, dtype=float)).T.copy()
    return nsplab.width._project_draw_major(X, p).T.copy()


def dykstra_projection(H, p: SgammaParams, tol=1e-13, max_sweeps=1_000_000):
    """Independent oracle: row-wise projection onto K by Dykstra's scheme.

    Alternates between the nonnegative orthant and the halfspace {a @ u >= 0}
    until successive iterates move less than tol.
    """
    X = np.atleast_2d(np.asarray(H, dtype=float)).copy()
    a = cone_normal(p, X.shape[1])
    P = np.zeros_like(X)
    Q = np.zeros_like(X)
    for _ in range(max_sweeps):
        X_prev = X
        Y = np.maximum(X + P, 0.0)
        P = X + P - Y
        V = Y + Q
        X = V - np.minimum(V @ a, 0.0)[:, None] / (a @ a) * a
        Q = V - X
        if np.max(np.abs(X - X_prev)) < tol:
            return X
    raise AssertionError("Dykstra oracle did not converge")


def soft_moment_quadrature(sigma, t, grid=2_000_001, upper=14.0):
    """Independent oracle: E S_t^2(a) = 2 int_t^inf (u-t)^2 phi_sigma(u) du."""
    u = np.linspace(t, t + upper * sigma, grid)
    phi = np.exp(-(u * u) / (2 * sigma * sigma)) / (sigma * math.sqrt(2 * math.pi))
    return 2.0 * np.trapezoid((u - t) ** 2 * phi, u)


def soft_threshold(u, t: float):
    """Shrink u toward zero by t, flattening the dead zone |u| <= t.

    Accepts scalars or arrays; t must be nonnegative.
    """
    if not (t >= 0.0):
        raise DomainError(f"threshold must be nonnegative, got {t}")
    a = np.asarray(u, dtype=float)
    out = np.sign(a) * np.maximum(np.abs(a) - t, 0.0)
    return float(out) if out.ndim == 0 else out


def check_soft_moment(sigma: float, t: float, samples: int, rng: RngStream):
    """Second moment of the soft threshold of a N(0, sigma^2) draw against
    sigma^4 sqrt(2/(pi e)) t^{-2} exp(-t^2/(2 sigma^2)).

    Returns (empirical, bound, std_error).
    """
    if not (sigma > 0.0 and t > 0.0):
        raise DomainError("sigma and t must be positive")
    v = soft_threshold(sigma * rng.normal(samples), t) ** 2
    bound = sigma**4 * math.sqrt(2.0 / (math.pi * math.e)) / t**2 * math.exp(
        -(t**2) / (2.0 * sigma**2)
    )
    return float(v.mean()), bound, float(v.std(ddof=1) / math.sqrt(samples))


def check_lemma_key(D, s: int, samples: int, rng: RngStream):
    """Root-mean-square of the s largest rearranged entries of D^T g, for a
    d x n matrix D, against sqrt(4 rho log(sqrt(2) n / s)).

    Returns (empirical, bound, std_error).
    """
    M = as_matrix(D)
    d, n = M.shape
    if not (1 <= s <= n):
        raise DomainError(f"need 1 <= s <= n, got s={s}")
    rho = float(np.max(np.sum(M * M, axis=0)))
    vals = []
    done = 0
    while done < samples:
        block = min(_MC_BLOCK, samples - done)
        Hstar = nonincreasing_rearrangement(rng.normal((block, d)) @ M)
        vals.append(np.sqrt((Hstar[:, :s] ** 2).sum(axis=1) / s))
        done += block
    v = np.concatenate(vals)
    bound = math.sqrt(4.0 * rho * math.log(math.sqrt(2.0) * n / s))
    return float(v.mean()), bound, float(v.std(ddof=1) / math.sqrt(samples))


def check_slepian_contraction(F, points, samples: int, rng: RngStream):
    """Contraction w(F S) <= ||F||_2 w(S) on the symmetrized finite set S.

    Draws are shared between the two sides when F is square, which makes the
    inequality hold draw by draw; otherwise the sides use independent streams.
    Returns (lhs, rhs, lhs_std_error, rhs_std_error): the estimated w(F S),
    ||F||_2 times the estimated w(S), and their standard errors.
    """
    Fm = as_matrix(F)
    pts = as_matrix(points)
    if pts.shape[1] != Fm.shape[1]:
        raise DomainError("points must live in the domain of F")
    pts = np.vstack([pts, -pts])  # enforce symmetry
    d, n = Fm.shape
    opn = operator_norm(Fm)
    fpts = pts @ Fm.T
    if d == n:
        G = rng.normal((samples, d))
        Gs = G
    else:
        G = rng.substream("lhs").normal((samples, d))
        Gs = rng.substream("rhs").normal((samples, n))
    lhs_vals = (G @ fpts.T).max(axis=1)
    rhs_vals = opn * (Gs @ pts.T).max(axis=1)
    return (
        float(lhs_vals.mean()),
        float(rhs_vals.mean()),
        float(lhs_vals.std(ddof=1) / math.sqrt(samples)),
        float(rhs_vals.std(ddof=1) / math.sqrt(samples)),
    )


def small_ball_lower_bound(spec: SubgaussianSpec, t: float) -> float:
    """Marginal small-ball bound (alpha - t)^2 / (4 sigma^2), valid for 0 < t < alpha."""
    if not (0.0 < t < spec.alpha):
        raise DomainError(f"t must lie in (0, alpha) = (0, {spec.alpha}), got {t}")
    return (spec.alpha - t) ** 2 / (4.0 * spec.sigma**2)


def verify_tail(spec: SubgaussianSpec, z, t_grid, samples, rng: RngStream):
    """Empirical tail frequencies of <phi, z> against 2 exp(-t^2/(2 sigma^2)).

    Returns one (t, empirical, bound, std_error) tuple per grid point, the
    standard error binomial.
    """
    zv = as_vector(z)
    if abs(np.linalg.norm(zv) - 1.0) > 1e-10:
        raise DomainError("z must be a unit vector")
    ts = as_vector(t_grid)
    counts = np.zeros(ts.size)
    done = 0
    while done < samples:
        block = min(_SAMPLE_BLOCK, samples - done)
        phi = sample_measurement_matrix(spec, block, spec.dim, rng)
        u = np.abs(phi @ zv)
        counts += (u[None, :] >= ts[:, None]).sum(axis=1)
        done += block
    points = []
    for t, cnt in zip(ts, counts):
        emp = cnt / samples
        bound = 2.0 * math.exp(-(t**2) / (2.0 * spec.sigma**2))
        se = math.sqrt(max(emp * (1.0 - emp), 0.0) / samples)
        points.append((float(t), float(emp), bound, se))
    return points


def spec_to_json(spec: SubgaussianSpec, covariance_path=None) -> dict:
    """Plain JSON object {kind, alpha, sigma, C, covariance_path}."""
    return {
        "kind": spec.kind,
        "alpha": spec.alpha,
        "sigma": spec.sigma,
        "C": spec.width_constant,
        "covariance_path": covariance_path,
    }


def record_projection_calls(monkeypatch):
    """Record the output of each cone_projection_values call in a list.

    The Monte Carlo width estimators call it once per product block, by its
    module name, as bench/tracer.py also expects.
    """
    seen = []
    original = nsplab.width.cone_projection_values

    def spy(H, p):
        out = original(H, p)
        seen.append(out)
        return out

    monkeypatch.setattr(nsplab.width, "cone_projection_values", spy)
    return seen
