import numpy as np
import pytest

from nsplab.dictionary import make_dictionary
from nsplab.errors import DomainError
from nsplab.numerics import column_norm_bound, operator_norm
from nsplab.rng import RngStream


def test_identity_dictionary():
    D = make_dictionary("identity", 3, 3)
    assert D.rho == pytest.approx(1.0)
    assert operator_norm(D.matrix) == pytest.approx(1.0, abs=1e-10)


def test_gaussian_unit_norm_columns():
    D = make_dictionary("gaussian_unit_norm", 4, 8, RngStream(7))
    norms = np.linalg.norm(D.matrix, axis=0)
    assert np.allclose(norms, 1.0, atol=1e-12)
    assert D.rho == pytest.approx(1.0, abs=1e-12)
    assert not D.matrix.flags.writeable


def test_parseval_rows():
    D = make_dictionary("parseval_random", 2, 4, RngStream(1))
    assert np.allclose(D.matrix @ D.matrix.T, np.eye(2), atol=1e-8)


def test_dimension_violations():
    with pytest.raises(DomainError):
        make_dictionary("identity", 3, 4)
    with pytest.raises(DomainError):
        make_dictionary("gaussian_unit_norm", 5, 3, RngStream(0))


def test_caches_match_recomputation():
    rng = RngStream(3)
    for trial in range(10):
        D = make_dictionary("gaussian_unit_norm", 4, 9, rng.substream(trial))
        M = D.matrix
        assert D.rho == pytest.approx(float(np.max(np.sum(M * M, axis=0))), abs=1e-12)
        assert operator_norm(M) == pytest.approx(float(np.linalg.svd(M)[1][0]), abs=1e-8)


def test_invariants_under_column_permutation():
    rng = RngStream(4)
    M = rng.normal((3, 7)) * 1.7
    perm = rng.permutation(7)
    assert column_norm_bound(M[:, perm]) == pytest.approx(column_norm_bound(M), rel=1e-12)
    assert operator_norm(M[:, perm]) == pytest.approx(operator_norm(M), rel=1e-8)


def test_op_norm_dominates_column_norms():
    rng = RngStream(5)
    for trial in range(20):
        sub = rng.substream(trial)
        M = sub.normal((4, 6)) * 2.0
        assert operator_norm(M) >= np.sqrt(column_norm_bound(M)) - 1e-9
