"""Independent oracles and test-only checks shared by the test modules.

Nothing in nsplab calls these: each one recomputes a quantity by a second
route (quadrature, sampling, Dykstra, a grid, high precision) or checks one
of the paper's lemmas empirically.  The checks return plain tuples; each test
writes out the inequality it asserts.
"""

import math

import mpmath
import numpy as np

from nsplab.errors import DomainError
from nsplab.nsp import SgammaParams
from nsplab.numerics import (
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

    def ratios(C):
        # one column per probe: the per-probe reductions then run along the long axis
        a = np.abs(N @ C.T)
        head = np.partition(a, n - s, axis=0)[n - s :].sum(axis=0)
        tail = a.sum(axis=0) - head
        return np.where(tail > 0, head / np.maximum(tail, 1e-300), np.inf)

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
