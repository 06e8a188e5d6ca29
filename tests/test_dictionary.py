import numpy as np
import pytest

from nsplab.dictionary import full_spark_check, make_dictionary
from nsplab.errors import BudgetExceededError, DomainError
from nsplab.rng import RngStream


def test_identity_dictionary():
    D = make_dictionary("identity", 3, 3)
    assert D.rho == pytest.approx(1.0)
    assert D.op_norm == pytest.approx(1.0, abs=1e-10)


def test_gaussian_unit_norm_columns():
    D = make_dictionary("gaussian_unit_norm", 4, 8, RngStream(7))
    norms = np.linalg.norm(D.matrix, axis=0)
    assert np.allclose(norms, 1.0, atol=1e-12)
    assert D.rho == pytest.approx(1.0, abs=1e-12)


def test_parseval_rows():
    D = make_dictionary("parseval_random", 2, 4, RngStream(1))
    assert np.allclose(D.matrix @ D.matrix.T, np.eye(2), atol=1e-8)


def test_dimension_violations():
    with pytest.raises(DomainError):
        make_dictionary("identity", 3, 4)
    with pytest.raises(DomainError):
        make_dictionary("gaussian_unit_norm", 5, 3, RngStream(0))


def test_full_spark_examples():
    assert full_spark_check(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
    # columns 1 and 3 parallel
    assert not full_spark_check(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    assert full_spark_check(np.eye(2))


def test_full_spark_budget_refusal():
    D = make_dictionary("gaussian_unit_norm", 3, 6, RngStream(2))
    with pytest.raises(BudgetExceededError):
        full_spark_check(D, budget=10)


def test_caches_match_recomputation():
    rng = RngStream(3)
    for trial in range(10):
        D = make_dictionary("gaussian_unit_norm", 4, 9, rng.substream(trial))
        M = D.matrix
        assert D.rho == pytest.approx(float(np.max(np.sum(M * M, axis=0))), abs=1e-12)
        assert D.op_norm == pytest.approx(float(np.linalg.svd(M)[1][0]), abs=1e-8)


def test_invariants_under_column_permutation():
    rng = RngStream(4)
    M = rng.normal((3, 7)) * 1.7
    D = make_dictionary("user_matrix", 3, 7, matrix=M)
    # the dictionary freezes a copy and leaves the caller's array writable
    assert M.flags.writeable and D.matrix is not M and not D.matrix.flags.writeable
    perm = rng.permutation(7)
    Dp = make_dictionary("user_matrix", 3, 7, matrix=M[:, perm])
    assert Dp.rho == pytest.approx(D.rho, rel=1e-12)
    assert Dp.op_norm == pytest.approx(D.op_norm, rel=1e-8)


def test_op_norm_dominates_column_norms():
    rng = RngStream(5)
    for trial in range(20):
        sub = rng.substream(trial)
        D = make_dictionary("user_matrix", 4, 6, matrix=sub.normal((4, 6)) * 2.0)
        assert D.op_norm >= np.sqrt(D.rho) - 1e-9


def test_full_spark_invariant_under_well_conditioned_left_multiply():
    rng = RngStream(6)
    for trial in range(15):
        sub = rng.substream(trial)
        D = make_dictionary("gaussian_unit_norm", 3, 6, sub)
        # invertible M with condition number below 1e3
        u, _, vt = np.linalg.svd(sub.normal((3, 3)))
        M = u @ np.diag([1.0, 2.5, 8.0]) @ vt
        assert full_spark_check(D) == full_spark_check(M @ D.matrix)


def test_gaussian_dictionaries_are_full_spark():
    rng = RngStream(8)
    hits = sum(
        full_spark_check(make_dictionary("gaussian_unit_norm", 3, 6, rng.substream(t)))
        for t in range(100)
    )
    assert hits == 100
