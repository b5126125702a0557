import numpy as np
import pytest

from gyropencil import linalg
from gyropencil.errors import DimensionMismatch, NotSymmetric, SingularMatrix


def test_rank_zero_matrix():
    assert linalg.rank_with_tol(np.zeros((4, 4))) == 0


def test_rank_outer_product():
    u = np.array([1.0, -2.0, 3.0])
    assert linalg.rank_with_tol(np.outer(u, u)) == 1


def test_rank_near_identity_perturbation():
    rng = np.random.default_rng(11)
    m = np.eye(5) + 1e-14 * rng.normal(size=(5, 5))
    assert linalg.rank_with_tol(m) == 5


def test_rank_explicit_tol_overrides():
    m = np.diag([1.0, 1e-9, 0.0])
    assert linalg.rank_with_tol(m) == 2
    assert linalg.rank_with_tol(m, tol=1e-6) == 1


def test_symmetry_defect_and_gate():
    m = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert linalg.symmetry_defect(m) == 0.0
    bad = np.array([[1.0, 2.0], [0.0, 1.0]])
    assert linalg.symmetry_defect(bad) == 2.0
    with pytest.raises(NotSymmetric):
        linalg.require_symmetric(bad)


def test_solve_linear_rejects_singular():
    with pytest.raises(SingularMatrix):
        linalg.solve_linear(np.zeros((2, 2)), np.ones(2))


def test_solve_linear_matches_numpy():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(6, 6)) + 6.0 * np.eye(6)
    rhs = rng.normal(size=6)
    x = linalg.solve_linear(m, rhs)
    assert np.allclose(m @ x, rhs, atol=1e-10)


def test_eigen_standard_sorted_with_residuals():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(7, 7))
    dec = linalg.eigen_standard(m)
    res = dec.values.real
    assert np.all(np.diff(res) >= -1e-12)
    for lam, v in zip(dec.values, dec.vectors.T):
        assert np.linalg.norm(m @ v - lam * v) <= 1e-8 * max(
            1.0, linalg.max_abs(m))


def test_sym_eigen_ascending_real():
    a = np.diag([3.0, -1.0, 2.0])
    dec = linalg.sym_eigen(a)
    assert np.allclose(dec.values, [-1.0, 2.0, 3.0])


def test_smallest_singular_value():
    m = np.diag([4.0, 0.5, 2.0])
    assert linalg.smallest_singular_value(m) == pytest.approx(0.5)


def test_count_negative_definite_mass():
    a = np.diag([-3.0, -1.0, 2.0, 5.0])
    m = np.eye(4)
    assert linalg.count_negative_eigs_pencil(a, m) == 2


def test_count_negative_scaled_mass():
    # lambda solves lambda m_i = a_i, so signs follow a_i for m_i > 0
    a = np.diag([-2.0, 4.0])
    m = np.diag([0.5, 8.0])
    assert linalg.count_negative_eigs_pencil(a, m) == 1


def test_count_negative_singular_mass_drops_infinite():
    # coordinate 2 has m=0: its eigenvalue escapes, leaving a single
    # finite negative from coordinate 1
    a = np.diag([-1.0, 1.0])
    m = np.diag([1.0, 0.0])
    assert linalg.count_negative_eigs_pencil(a, m) == 1


def test_count_negative_random_congruence_invariance():
    # congruence preserves the inertia-based count when M stays definite
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = rng.normal(size=(n, n))
        a = 0.5 * (a + a.T)
        r = rng.normal(size=(n, n))
        m = r @ r.T + 0.3 * np.eye(n)
        linv = np.linalg.inv(np.linalg.cholesky(m))
        direct = int(np.sum(np.linalg.eigvalsh(linv @ a @ linv.T) < 0))
        assert linalg.count_negative_eigs_pencil(a, m) == direct


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        linalg.count_negative_eigs_pencil(np.eye(2), np.eye(3))


def test_as_matrix_rejects_ragged():
    with pytest.raises(Exception):
        linalg.as_matrix([[1.0, 2.0], [3.0]])
