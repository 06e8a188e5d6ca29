import itertools
import math
import tracemalloc

import numpy as np
import pytest

from nsplab.dictionary import make_dictionary
from nsplab import nsp as nsp_module
from nsplab.errors import BudgetExceededError
from nsplab.nsp import (
    SgammaParams,
    _binomials,
    _certify_lp,
    _maximal_minors,
    certificate_to_json,
    certify_nsp,
    estimate_eta,
    in_S_gamma,
)
from nsplab.numerics import kernel_basis
from nsplab.rng import RngStream
from oracles import (
    _head_sum,
    _orthogonal_unit_vectors,
    circuit_qr_oracle,
    eta_grid_oracle,
    gamma_star_sampling_oracle,
    support_lp_oracle,
)


class TestInSgamma:
    def test_sparse_vector_always_member(self):
        e1 = np.array([1.0, 0.0, 0.0])
        assert in_S_gamma(e1, SgammaParams(0.5, 1))

    def test_flat_vector_not_member(self):
        x = np.full(4, 0.5)
        assert not in_S_gamma(x, SgammaParams(1.0, 1))

    def test_boundary_is_inclusive(self):
        x = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert in_S_gamma(x, SgammaParams(1.0, 1))

    def test_requires_unit_norm(self):
        assert not in_S_gamma(np.array([2.0, 0.0]), SgammaParams(0.5, 1))


class TestCertify:
    def test_two_column_tie(self):
        cert = certify_nsp(np.array([[1.0, 1.0]]), 1)
        assert cert.gamma_star == pytest.approx(1.0, abs=1e-9)
        assert cert.verdict == "fails"  # strict inequality is required

    def test_three_column_holds(self):
        cert = certify_nsp(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]), 1)
        assert cert.gamma_star == pytest.approx(0.5, abs=1e-9)
        assert cert.verdict == "holds"

    def test_trivial_kernel_vacuous(self):
        for s in (1, 2, 3):
            cert = certify_nsp(np.eye(3), s)
            assert cert.gamma_star == 0.0
            assert cert.verdict == "holds"
            assert cert.witness is None

    def test_witness_contract(self):
        rng = RngStream(21)
        for trial in range(25):
            sub = rng.substream(trial)
            n = int(sub.integers(4, 9))
            m = int(sub.integers(2, n))
            A = sub.normal((m, n))
            cert = certify_nsp(A, 1)
            assert math.isfinite(cert.gamma_star)
            w = cert.witness
            T = list(cert.witness_support)
            assert np.linalg.norm(A @ w) <= 1e-7 * np.linalg.norm(A)
            tail = np.abs(np.delete(w, T)).sum()
            head = np.abs(w[T]).sum()
            assert tail == pytest.approx(1.0, abs=1e-7)
            assert head == pytest.approx(cert.gamma_star, abs=1e-7)

    def test_unbounded_direction_reported_infinite(self):
        # kernel vector e1 - e2 with a third zero column: support {1,2} has
        # empty tail mass for a kernel vector living inside it
        A = np.array([[1.0, 1.0, 0.0]])
        cert = certify_nsp(A, 2)
        assert cert.gamma_star == math.inf
        assert cert.verdict == "fails"
        assert cert.witness is not None

    def test_budget_refusal(self):
        # C(30, 28) = 435 circuit candidates; every circuit e_i - e_j fits in T
        cert = certify_nsp(np.ones((1, 30)), 8)
        assert cert.gamma_star == math.inf
        assert cert.method == "circuits" and cert.evaluated <= 435
        # C(40, 19) ~ 1.3e11 circuits and C(40, 8) * 2^7 ~ 9.8e9 LPs: both too many
        A = RngStream(26).normal((20, 40))
        with pytest.raises(BudgetExceededError):
            certify_nsp(A, 8)
        # C(183, 2) = 16 653 circuits fit, but not their C(183, 3) = 1 004 731
        # minors, nor C(183, 3) * 4 LPs
        with pytest.raises(BudgetExceededError):
            certify_nsp(RngStream(50).normal((180, 183)), 3)

    def test_minor_table_counts_against_budget(self):
        # k = 2 in n = 30: C(30, 1) = 30 candidates over C(30, 2) = 435 minors
        A = RngStream(49).normal((28, 30))
        circ = certify_nsp(A, 1)
        assert (circ.method, circ.evaluated) == ("circuits", 30)
        lp = certify_nsp(A, 1, budget=100)
        assert (lp.method, lp.evaluated) == ("lp", 30)
        assert_same_gamma(lp.gamma_star, circ.gamma_star)
        with pytest.raises(BudgetExceededError):
            certify_nsp(A, 2, budget=100)  # C(30, 2) * 2 = 870 LPs

    def test_matches_sampling_oracle(self):
        rng = RngStream(22)
        for trial in range(25):
            sub = rng.substream(trial)
            n = int(sub.integers(4, 9))
            s = int(sub.integers(1, 3))
            # keep k <= n - s - 1: a larger kernel always contains a vector
            # vanishing on some T^c, making gamma_star infinite by construction
            k = int(sub.integers(1, min(3, n - s - 1) + 1))
            A = sub.normal((n - k, n))
            cert = certify_nsp(A, s)
            assert math.isfinite(cert.gamma_star)
            oracle = gamma_star_sampling_oracle(A, s, 200_000, sub.substream("probe"))
            assert oracle <= cert.gamma_star + 1e-6
            assert cert.gamma_star - oracle <= 1e-2

    def test_left_invertible_invariance(self):
        rng = RngStream(23)
        for trial in range(15):
            sub = rng.substream(trial)
            A = sub.normal((3, 6))
            u, _, vt = np.linalg.svd(sub.normal((3, 3)))
            M = u @ np.diag([0.5, 2.0, 10.0]) @ vt  # condition number 20
            c1 = certify_nsp(A, 1)
            c2 = certify_nsp(M @ A, 1)
            assert c2.gamma_star == pytest.approx(c1.gamma_star, abs=1e-6)

    def test_monotone_in_s(self):
        rng = RngStream(24)
        for trial in range(10):
            A = rng.substream(trial).normal((4, 7))
            values = [certify_nsp(A, s).gamma_star for s in (1, 2, 3)]
            assert values[0] <= values[1] + 1e-9
            assert values[1] <= values[2] + 1e-9

    def test_kernel_containment_necessity(self):
        # D fails at s=1 by construction: its kernel holds (2, 0, ..., -1)
        rng = RngStream(25)
        base = rng.normal((4, 7))
        D = np.column_stack([base, 2.0 * base[:, 0]])
        cert = certify_nsp(D, 1)
        assert cert.verdict == "fails"
        for trial in range(50):
            phi = rng.substream("phi", trial).normal((3, 4))
            assert certify_nsp(phi @ D, 1).verdict == "fails"

    def test_json_serialization(self):
        cert = certify_nsp(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]), 1)
        d = certificate_to_json(cert)
        assert d["verdict"] == "holds"
        assert d["gamma_star"] == pytest.approx(0.5)
        assert len(d["witness_vector"]) == 3
        assert d["s"] == 1
        assert d["method"] == "circuits"
        assert d["evaluated"] == 1  # k = 1: the single (k-1)-subset is empty


def lp_gamma_star(A, s):
    return _certify_lp(kernel_basis(np.asarray(A, float)), s)[0]


def assert_same_gamma(got, want):
    if math.isinf(want):
        assert got == math.inf
    else:
        # 1e-9 absolute, and relative once the ratio exceeds 1
        assert got == pytest.approx(want, abs=1e-9, rel=1e-9)


def _oracle_cases():
    rng = RngStream(40)
    base = rng.normal((4, 7))
    ints = rng.substream("int")
    return {
        "duplicated-columns": np.column_stack([base, base[:, 2], base[:, 5]]),
        "Dbad": np.column_stack([base, 2.0 * base[:, 0]]),
        "identity": np.eye(5),
        "integer-pairs": np.array([[1.0, 1.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0, 1.0]]),
        "integer-3x7": ints.integers(-2, 3, (3, 7)).astype(float),
        "integer-4x6": ints.integers(-1, 2, (4, 6)).astype(float),
        "zero-column": np.column_stack([rng.normal((3, 5)), np.zeros(3)]),
        # x_0 = 0 on the whole kernel, so the support problem at T = (0,) has value 0
        "coloop": np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 1.0]]),
        "k=1": rng.normal((5, 6)),
        "zero-matrix": np.zeros((2, 4)),
        # k = 4: 2 of the 20 three-row blocks of N are rank deficient
        "block-diagonal": np.array(
            [[1.0, 1.0, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, 2.0, 3.0]]
        ),
        "row-space-side": rng.normal((2, 8)),  # n-k = 2 < k-1 = 5
        "rank-deficient": rng.normal((4, 2)) @ rng.normal((2, 8)),  # rank 2, k = 6
    }


ORACLE_CASES = _oracle_cases()


class TestCircuitsVsLp:
    """The circuit route against the LP route, its oracle, on degenerate inputs."""

    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_degenerate_inputs(self, name):
        A = ORACLE_CASES[name]
        n = A.shape[1]
        k = kernel_basis(A).shape[1]
        for s in sorted({1, 2, 3, n}):
            cert = certify_nsp(A, s)
            assert cert.method == "circuits"
            assert_same_gamma(cert.gamma_star, lp_gamma_star(A, s))
            if k == 0:
                assert cert.witness is None
                continue
            # the witness contract, and one candidate per (k-1)-subset
            w, T = cert.witness, list(cert.witness_support)
            assert len(T) == s
            assert np.linalg.norm(A @ w) <= 1e-9 * max(np.linalg.norm(A), 1.0) * np.abs(w).sum()
            tail = np.abs(np.delete(w, T)).sum()
            if math.isinf(cert.gamma_star):
                assert 1 <= cert.evaluated <= math.comb(n, k - 1)
                assert np.abs(w).sum() > 0 and tail <= 1e-9 * np.abs(w).sum()
            else:
                assert cert.evaluated == math.comb(n, k - 1)
                assert tail == pytest.approx(1.0, abs=1e-9)
                assert np.abs(w[T]).sum() == pytest.approx(cert.gamma_star, abs=1e-9)

    def test_random_matrices(self):
        rng = RngStream(41)
        for trial in range(30):
            sub = rng.substream(trial)
            n = int(sub.integers(3, 11))
            m = int(sub.integers(1, n))
            A = sub.normal((m, n))
            for s in range(1, min(3, n) + 1):
                assert_same_gamma(certify_nsp(A, s).gamma_star, lp_gamma_star(A, s))

    def test_forced_lp_fallback(self):
        A = RngStream(42).normal((3, 8))  # k = 5: C(8, 4) = 70 circuit candidates
        for s, lps in ((1, 8), (2, 56)):
            circ = certify_nsp(A, s)
            assert circ.method == "circuits" and circ.evaluated == 70
            # tol is the verdict margin only: it must not steer the support LPs
            by_tol = [certify_nsp(A, s, tol=tol, budget=lps) for tol in (1e-9, 0.1, 0.3)]
            assert len({c.gamma_star for c in by_tol}) == 1
            lp = by_tol[0]
            assert lp.method == "lp" and lp.evaluated == lps
            assert lp.gamma_star == pytest.approx(circ.gamma_star, abs=1e-9)
            assert lp.verdict == circ.verdict
            T = list(lp.witness_support)
            assert np.abs(np.delete(lp.witness, T)).sum() == pytest.approx(1.0, abs=1e-7)
            assert np.abs(lp.witness[T]).sum() == pytest.approx(lp.gamma_star, abs=1e-7)


    def test_forced_lp_fallback_on_each_side(self):
        # full row rank m x n has k = n - m; the minor table comes from R^T
        # iff n-k < k, and the QR oracle takes the row-space side iff n-k < k-1
        rng = RngStream(43)
        for m, n in ((2, 8), (3, 7), (4, 8)):  # n-k = 2 < 6, 3 < 4, 4 = 4
            A = rng.normal((m, n))
            circuits = math.comb(n, n - m - 1)
            for s in (1, 2):
                lps = math.comb(n, s) * 2 ** (s - 1)
                if lps >= circuits:
                    continue
                circ, lp = certify_nsp(A, s), certify_nsp(A, s, budget=lps)
                assert (circ.method, circ.evaluated) == ("circuits", circuits)
                assert (lp.method, lp.evaluated) == ("lp", lps)
                assert_same_gamma(circ.gamma_star, lp.gamma_star)


class TestCircuitCandidates:
    def test_candidate_order(self):
        # the first (k-1)-subset is (0, 1, 2), and the candidate vanishing on it is e_3
        cert = certify_nsp(np.zeros((2, 4)), 1)
        assert cert.gamma_star == math.inf
        assert cert.witness_support == (3,) and cert.evaluated == 1

    def test_reflector_sweep_matches_complete_qr(self):
        rng = RngStream(44)
        for p in range(7):
            M = rng.substream(p).normal((5, p + 1, p))
            if p >= 2:
                M[0, :, 1] = M[0, :, 0]  # rank deficient
            q = _orthogonal_unit_vectors(M)
            ref = np.linalg.qr(M, mode="complete")[0][:, :, -1]
            np.testing.assert_allclose(q, ref, atol=1e-14)
            np.testing.assert_allclose(np.einsum("cij,ci->cj", M, q), 0.0, atol=1e-14)

    @pytest.mark.parametrize("r, n", [(0, 4), (1, 1), (1, 5), (2, 2), (3, 7), (4, 4), (5, 9)])
    def test_minor_table_matches_det(self, r, n):
        rng = RngStream(46).substream(r, n)
        G = rng.normal((r, n))
        cases = {
            "random": G,
            "orthonormal rows": np.linalg.qr(G.T)[0].T,
            "rank deficient": rng.normal((r, max(r - 1, 0))) @ rng.normal((max(r - 1, 0), n)),
            "repeated and zero columns": np.column_stack([G[:, :1], G[:, : n - 2], np.zeros((r, 1))])[:, :n],
        }
        colex = sorted(itertools.combinations(range(n), r), key=lambda S: S[::-1])
        for name, M in cases.items():
            table = _maximal_minors(M, _binomials(n, r))
            want = [np.linalg.det(M[:, list(S)]) if r else 1.0 for S in colex]
            np.testing.assert_allclose(table, want, rtol=0, atol=1e-13, err_msg=name)

    @pytest.mark.parametrize("recompute", ["weak", "all"])
    def test_matches_qr_oracle(self, monkeypatch, recompute):
        # integer entries and Gaussian ones; every third matrix repeats a
        # column, every fourth ends in one or two zero columns, every fifth
        # has near-duplicate column pairs (1e-6 apart), every tenth is zero
        # (k = n); the table comes from N^T or R^T, and the oracle runs on
        # either side.  "all" recomputes every candidate from its block.
        recomputed = []
        block_null_vectors = nsp_module._block_null_vectors
        monkeypatch.setattr(
            nsp_module, "_block_null_vectors",
            lambda N, W: recomputed.append(len(W)) or block_null_vectors(N, W),
        )
        if recompute == "all":
            monkeypatch.setattr(nsp_module, "_CIRCUIT_TRUST", math.inf)
        rng = RngStream(47)
        sides, ends = set(), set()
        for trial in range(120):
            sub = rng.substream(trial)
            n = int(sub.integers(3, 10))
            m = int(sub.integers(1, n))
            A = sub.integers(-2, 3, (m, n)).astype(float) if trial % 2 else sub.normal((m, n))
            if trial % 5 == 2:
                q = min(n // 2, 2)
                A[:, 1 : 2 * q : 2] = A[:, 0 : 2 * q : 2] + 1e-6 * sub.normal((m, q))
            if trial % 3 == 0:
                A = np.column_stack([A, A[:, 0]])
            if trial % 4 == 0:
                A = np.column_stack([A, np.zeros((m, 1 + trial % 8 // 4))])
            if trial % 10 == 5:
                A = np.zeros((1, n))
            N = kernel_basis(A)
            n, k = N.shape
            if k == 0:
                continue
            sides.add((k <= n - k, n - k < k - 1))  # (table from N^T, oracle on R)
            ends |= {name for name, hit in (("k = 1", k == 1), ("k = n", k == n)) if hit}
            for s in range(1, min(3, n) + 1):
                cert = certify_nsp(A, s)
                gamma, _, _, evaluated = circuit_qr_oracle(N, s)
                assert cert.method == "circuits"
                if trial % 5 == 2 and math.isfinite(gamma):
                    # gamma_star 3e5 to 4e9; both routes are off 40-digit
                    # circuits by about 2^-53 gamma_star, relatively
                    assert cert.gamma_star == pytest.approx(gamma, rel=max(1e-9, 1e-15 * gamma))
                else:
                    assert_same_gamma(cert.gamma_star, gamma)
                assert cert.verdict == ("holds" if gamma < 1.0 - cert.tol else "fails")
                w, T = cert.witness, list(cert.witness_support)
                assert np.linalg.norm(A @ w) <= 1e-9 * max(np.linalg.norm(A), 1.0) * np.abs(w).sum()
                if math.isfinite(gamma):
                    assert cert.evaluated == evaluated == math.comb(n, k - 1)
                    assert np.abs(np.delete(w, T)).sum() == pytest.approx(1.0, abs=1e-9)
                    assert np.abs(w[T]).sum() == pytest.approx(cert.gamma_star, rel=1e-9, abs=1e-9)
                    continue
                # Both walks stop at the first infinite candidate.  On a
                # full-rank block both read the one circuit; a rank-deficient
                # block's null vector is any vector of a larger space, so the
                # walks may part only there.
                assert np.abs(np.delete(w, T)).sum() <= 1e-9 * np.abs(w).sum()
                if cert.evaluated != evaluated:
                    first = min(cert.evaluated, evaluated) - 1
                    Z = next(itertools.islice(itertools.combinations(range(n), k - 1), first, None))
                    assert np.linalg.matrix_rank(N[list(Z)]) < k - 1
        assert sides == {(True, False), (False, False), (False, True)}
        assert ends == {"k = 1", "k = n"}
        assert recomputed  # rank-deficient blocks occur in both modes

    def test_peak_memory_flat(self):
        # C(20, 9) = 167 960 candidates; the C(20, 10) minor table alone takes 1.5 MB
        A = RngStream(48).normal((10, 20))
        tracemalloc.start()
        try:
            cert = certify_nsp(A, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.method == "circuits" and cert.evaluated == 167_960
        assert peak <= 5 * 2**20


# Phi @ D of the preserve campaign with config seed 14011, m = 6, trial 1.
# Its support LP for T = (4,) once pivoted on an element of 2.09e-9 in a
# column reaching 9.2e3, and the corrupted tableau reported "unbounded".
B14011 = np.array([
    [0.6672459951976787, -1.3593799884215587, -0.7555102520001664, -0.41987475540564095,
     0.003972072105557382, 0.8109848032347853, 0.6689966590218862, 0.05824203103953315,
     0.08684660046605157, -0.5355677736438694, -0.46058965396498297, -1.1217774601658255,
     -1.113556962725716, -1.212873376392934],
    [-0.7348930193551146, 0.619698806399367, 0.15598354966743297, -1.4442426293397328,
     -1.5271105438120056, 0.034302850854378536, 0.8821958374744346, -0.0646748265891834,
     -0.11006178649560837, 0.6399680141976559, -0.7863077234660694, -2.7335648195905082,
     1.2828021732446095, 0.018371083845191007],
    [-0.1765075194881875, -0.4891661402802809, -0.763255888923446, -0.8439155785862595,
     -0.04295620387624505, 0.23538785793221897, 2.0148094772832907, 0.21267372029945653,
     -0.09567658403318713, 1.2092553681910487, -1.443570670386728, -1.0552028348735225,
     0.7281975160667943, 0.47866137984408996],
    [0.2881135466466828, 0.4568315307057653, 0.7091800699407894, -1.4609211873282453,
     0.837141582540432, -1.4430902433000923, -0.6303537362715254, 0.002943668184072819,
     -0.2980085357727154, -0.9750616610002173, 1.1772366763002065, -0.09963274269138232,
     -0.11130969408338806, -0.16668722209161807],
    [0.5451688523353048, 1.2377323975597392, 0.3983821424549936, 0.1545066112602592,
     0.09610924688798063, -0.4479750456448037, -0.2641000839231238, 0.06185496320686659,
     -0.6913724421200803, -0.3009787754012071, 0.5335031761761361, 0.1335028741708409,
     -0.5512501546860479, -0.15562300189982278],
    [0.10965447896683292, 0.43740553057054676, -0.8680863183152925, -0.20250977953758298,
     0.19339551146068043, -0.11973980528622213, 1.2982130012513151, 0.3325134341855069,
     -0.21176601821634672, 0.9391385814444361, -0.9556187852068371, -0.1332984240501252,
     -0.20574338885316376, 0.33414106720643394],
])


class TestLpRouteRegression:
    def test_matches_circuit_route(self):
        lp = lp_gamma_star(B14011, 1)
        assert lp == pytest.approx(1.9141967240286475, abs=1e-9)
        assert certify_nsp(B14011, 1).gamma_star == pytest.approx(lp, abs=1e-9)

    def test_matches_highs(self):
        N = kernel_basis(B14011)
        best = max(support_lp_oracle(N, (j,), (1.0,)) for j in range(N.shape[0]))
        assert best == pytest.approx(1.9141967240286462, abs=1e-9)
        assert lp_gamma_star(B14011, 1) == pytest.approx(best, abs=1e-9)


def oracle_gamma_star(N, s):
    """gamma_star as the largest HiGHS support LP over supports and sign patterns."""
    return max(
        support_lp_oracle(N, T, (1.0,) + signs)
        for T in itertools.combinations(range(N.shape[0]), s)
        for signs in itertools.product((1.0, -1.0), repeat=s - 1)
    )


class TestLpRouteOracles:
    """The LP route's basis-pursuit support problems against two independent routes."""

    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize(
        "name",
        ["duplicated-columns", "Dbad", "integer-pairs", "integer-3x7", "integer-4x6", "coloop"],
    )
    def test_matches_support_lp_oracle(self, name, s):
        A = ORACLE_CASES[name]
        N = kernel_basis(A)
        gamma, T, w, evaluated = _certify_lp(N, s)
        assert_same_gamma(gamma, oracle_gamma_star(N, s))
        if math.isfinite(gamma):
            assert evaluated == math.comb(N.shape[0], s) * 2 ** (s - 1)
            assert np.linalg.norm(A @ w) <= 1e-9 * max(np.linalg.norm(A), 1.0) * np.abs(w).sum()
            assert np.abs(np.delete(w, T)).sum() == pytest.approx(1.0, abs=1e-9)
            assert np.abs(w[list(T)]).sum() == pytest.approx(gamma, abs=1e-9)

    def test_integer_matrices_match_circuits(self):
        # small integer entries tie the support problems' events; every third
        # matrix repeats a column
        rng = RngStream(45)
        for trial in range(60):
            sub = rng.substream(trial)
            n = int(sub.integers(4, 9))
            A = sub.integers(-2, 3, (int(sub.integers(1, n)), n)).astype(float)
            if trial % 3 == 0:
                A = np.column_stack([A, A[:, 0]])
            if kernel_basis(A).shape[1] == 0:
                continue
            for s in (1, 2, 3):
                assert_same_gamma(lp_gamma_star(A, s), certify_nsp(A, s).gamma_star)


class TestEstimateEta:
    def test_identity_dictionary(self):
        D = make_dictionary("identity", 4, 4)
        est = estimate_eta(D.matrix, SgammaParams(0.7, 1), 5, RngStream(26))
        assert est.eta_upper == pytest.approx(1.0, abs=1e-6)

    def test_diagonal_matches_grid_oracle(self):
        M = np.diag([2.0, 3.0])
        p = SgammaParams(1.0, 1)
        est = estimate_eta(M, p, 10, RngStream(27))
        assert est.eta_upper == pytest.approx(2.0, abs=1e-4)
        assert est.eta_upper == pytest.approx(eta_grid_oracle(M, p), abs=1e-3)

    def test_kernel_vector_inside_set(self):
        est = estimate_eta(np.array([[1.0, 1.0]]), SgammaParams(1.0, 1), 10, RngStream(28))
        assert est.eta_upper <= 1e-6

    def test_upper_bound_semantics(self):
        # any explicitly supplied member of S_gamma upper-bounds nothing:
        # the estimate must sit at or below ||D x||_2 for each supplied x
        rng = RngStream(29)
        M = rng.normal((3, 5))
        p = SgammaParams(0.8, 1)
        est = estimate_eta(M, p, 30, rng.substream("eta"))
        for k in range(200):
            x = np.zeros(5)
            j = int(rng.substream("probe", k).integers(0, 5))
            x[j] = 1.0
            assert in_S_gamma(x, p)
            assert est.eta_upper <= np.linalg.norm(M @ x) + 1e-9

    def test_witness_is_member_with_reported_value(self):
        rng = RngStream(30)
        M = rng.normal((4, 6))
        p = SgammaParams(0.6, 2)
        est = estimate_eta(M, p, 20, rng.substream("eta"))
        assert in_S_gamma(est.witness, p, tol=1e-8)
        assert np.linalg.norm(M @ est.witness) == pytest.approx(est.eta_upper, abs=1e-9)

    def test_three_dim_grid_oracle_agreement(self):
        rng = RngStream(31)
        M = rng.normal((3, 3)) + 2.0 * np.eye(3)
        p = SgammaParams(0.9, 1)
        est = estimate_eta(M, p, 40, rng.substream("eta"))
        grid = eta_grid_oracle(M, p, resolution=700)
        assert est.eta_upper <= grid + 1e-6  # grid points are feasible probes


class TestOracleHeadSum:
    @pytest.mark.parametrize("s", [1, 2])
    def test_matches_partition_route_bit_for_bit(self, s):
        a = np.abs(RngStream(96).normal((6, 5000)))
        a[2, :500] = a[4, :500]  # two equal entries, often the top two
        a[:, 500:600] = 1.0  # every entry tied
        a[3, 600:700] = a[:, 600:700].max(axis=0)  # a second copy of the max
        before = a.copy()
        n = a.shape[0]
        want = np.partition(a, n - s, axis=0)[n - s :].sum(axis=0)
        assert _head_sum(a, s).tobytes() == want.tobytes()
        assert a.tobytes() == before.tobytes()
