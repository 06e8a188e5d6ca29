import math

import numpy as np
import pytest

from nsplab.errors import DomainError
from nsplab.numerics import (
    kernel_basis,
    nonincreasing_rearrangement,
    operator_norm,
    read_matrix_text,
    read_vector_text,
    soft_threshold,
    write_matrix_text,
    write_vector_text,
)
from nsplab.rng import RngStream


class TestRearrangement:
    def test_examples(self):
        assert np.array_equal(nonincreasing_rearrangement([3, -5, 1]), [5, 3, 1])
        assert np.array_equal(nonincreasing_rearrangement([0, 0, 0]), [0, 0, 0])
        assert np.array_equal(nonincreasing_rearrangement([-2, 2]), [2, 2])

    def test_permutation_of_magnitudes_and_sorted(self):
        rng = RngStream(11)
        for trial in range(200):
            x = rng.substream(trial).normal(int(rng.substream(trial, "n").integers(1, 30)))
            xs = nonincreasing_rearrangement(x)
            assert np.all(np.diff(xs) <= 0)
            assert np.all(xs >= 0)
            assert np.allclose(np.sort(xs), np.sort(np.abs(x)))


class TestSoftThreshold:
    def test_examples(self):
        assert soft_threshold(5, 2) == 3
        assert soft_threshold(-1, 2) == 0
        assert soft_threshold(-3, 2) == -1

    def test_rejects_negative_threshold(self):
        with pytest.raises(DomainError):
            soft_threshold(1.0, -0.1)

    def test_odd_and_nonexpansive(self):
        rng = RngStream(12)
        u = rng.normal(500) * 4
        v = rng.normal(500) * 4
        for t in (0.0, 0.3, 1.7):
            su = soft_threshold(u, t)
            assert np.allclose(soft_threshold(-u, t), -su)
            assert np.all(np.abs(su - soft_threshold(v, t)) <= np.abs(u - v) + 1e-15)


class TestOperatorNorm:
    def test_examples(self):
        assert operator_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-10)
        assert operator_norm(np.diag([2.0, 1.0])) == pytest.approx(2.0, abs=1e-10)
        # rank-one Gram with eigenvalue 4 -> singular value 2
        assert operator_norm(np.ones((2, 2))) == pytest.approx(2.0, abs=1e-10)

    def test_zero_matrix(self):
        assert operator_norm(np.zeros((3, 2))) == 0.0

    def test_dominates_random_unit_vector_sampling(self):
        rng = RngStream(13)
        for trial in range(5):
            A = rng.substream(trial).normal((5, 8))
            reported = operator_norm(A)
            V = rng.substream(trial, "probe").normal((10_000, 8))
            V /= np.linalg.norm(V, axis=1)[:, None]
            sampled = float(np.linalg.norm(V @ A.T, axis=1).max())
            assert sampled <= reported + 1e-9
            assert reported == pytest.approx(float(np.linalg.svd(A)[1][0]), rel=1e-8)


class TestKernelBasis:
    def test_examples(self):
        N = kernel_basis(np.array([[1.0, 1.0]]))
        assert N.shape == (2, 1)
        assert abs(abs(N[0, 0]) - 1 / math.sqrt(2)) < 1e-12
        assert N[0, 0] == pytest.approx(-N[1, 0], abs=1e-12)

        assert kernel_basis(np.eye(2)).shape == (2, 0)

        N0 = kernel_basis(np.zeros((2, 3)))
        assert N0.shape == (3, 3)
        assert np.allclose(N0.T @ N0, np.eye(3), atol=1e-12)

    def test_random_matrices(self):
        rng = RngStream(14)
        for trial in range(40):
            sub = rng.substream(trial)
            m = int(sub.integers(1, 7))
            n = int(sub.integers(1, 9))
            r = int(sub.integers(0, min(m, n) + 1))
            A = sub.normal((m, r)) @ sub.normal((r, n)) if r else np.zeros((m, n))
            N = kernel_basis(A)
            k = N.shape[1]
            assert np.linalg.matrix_rank(A, tol=1e-8) + k == n
            assert np.allclose(N.T @ N, np.eye(k), atol=1e-10)
            if k:
                assert np.linalg.norm(A @ N) <= 1e-10 * max(np.linalg.norm(A), 1.0)


class TestMatrixText:
    def test_bit_faithful_roundtrip(self, tmp_path):
        rng = RngStream(15)
        A = rng.normal((4, 7)) * np.exp(rng.normal((4, 7)) * 5)
        path = tmp_path / "a.txt"
        write_matrix_text(path, A)
        back = read_matrix_text(path)
        assert back.shape == A.shape
        assert np.array_equal(back, A)  # 17 significant digits round-trip exactly

    def test_header_format(self, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix_text(path, np.array([[1.5, 2.0]]))
        lines = path.read_text().splitlines()
        assert lines[0] == "1 2"
        assert len(lines) == 2

    def test_vector_roundtrip(self, tmp_path):
        v = RngStream(16).normal(9)
        path = tmp_path / "v.txt"
        write_vector_text(path, v)
        assert np.array_equal(read_vector_text(path), v)

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1.0 2.0\n")
        with pytest.raises(DomainError):
            read_matrix_text(path)
