"""Dense linear algebra kernel used by the pencil machinery.

Everything here operates on plain numpy arrays.  Routines raise package
exceptions instead of the numpy/scipy ones so callers get a uniform error
surface.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    DegeneratePencil,
    DimensionMismatch,
    NoConvergence,
    NotSymmetric,
    SingularMatrix,
)

# Deterministic shift ladder for regularizing lambda*M - A and L(sigma, eta).
# Irrational-looking values make accidental eigenvalue hits unlikely.
SHIFT_CANDIDATES = (
    0.0,
    0.123456789,
    -0.987654321,
    1.414213562,
    -2.718281828,
)

# Fallbacks appended when the primary ladder is exhausted.
_EXTRA_SHIFTS = (
    0.31830988618,
    -1.77245385090,
    2.50662827463,
)


def as_matrix(obj, name="matrix"):
    """Coerce to a 2d float/complex ndarray, requiring a square shape."""
    arr = np.asarray(obj)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(
            "%s must be square 2d, got shape %s" % (name, (arr.shape,))
        )
    if not np.issubdtype(arr.dtype, np.complexfloating):
        arr = arr.astype(float)
    return arr


def max_abs(mat):
    mat = np.asarray(mat)
    if mat.size == 0:
        return 0.0
    return float(np.max(np.abs(mat)))


def symmetry_defect(mat):
    """max |M - M^T| entrywise; zero for exactly symmetric input."""
    mat = np.asarray(mat)
    return max_abs(mat - mat.T)


def require_symmetric(mat, name="matrix", tol=None):
    mat = as_matrix(mat, name)
    if tol is None:
        tol = 1e-12 * max(1.0, max_abs(mat))
    defect = symmetry_defect(mat)
    if defect > tol:
        raise NotSymmetric(
            "%s asymmetric: max |X - X^T| = %.3e exceeds %.3e" % (name, defect, tol)
        )
    return 0.5 * (mat + mat.T)


def solve_linear(mat, rhs):
    """Solve mat @ x = rhs with partial-pivot LU, rejecting tiny pivots."""
    mat = np.asarray(mat)
    n = mat.shape[0]
    if n == 0:
        return np.zeros_like(np.asarray(rhs))
    with warnings.catch_warnings():
        # the pivot floor below covers the exact-singular case scipy warns on
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(mat, check_finite=False)
    diag = np.abs(np.diag(lu))
    floor = n * np.finfo(float).eps * max(max_abs(mat), np.finfo(float).tiny)
    if np.min(diag) <= floor:
        raise SingularMatrix(
            "pivot %.3e below threshold %.3e" % (float(np.min(diag)), floor)
        )
    return sla.lu_solve((lu, piv), rhs, check_finite=False)


def rank_with_tol(mat, tol=0.0):
    """Numerical rank from singular values.

    tol == 0 selects the conventional automatic threshold
    max(m, n) * eps * sigma_max.
    """
    mat = np.asarray(mat)
    if mat.size == 0:
        return 0
    svals = sla.svdvals(mat)
    if svals.size == 0:
        return 0
    if tol <= 0.0:
        tol = max(mat.shape) * np.finfo(float).eps * float(svals[0])
    return int(np.count_nonzero(svals > tol))


def smallest_singular_value(mat):
    mat = np.asarray(mat)
    if mat.size == 0:
        return 0.0
    svals = sla.svdvals(mat)
    return float(svals[-1])


@dataclass
class EigenDecomposition:
    values: np.ndarray
    vectors: np.ndarray


def sym_eigen(mat, name="matrix"):
    """Symmetric eigendecomposition with an explicit symmetry gate."""
    mat = require_symmetric(mat, name)
    try:
        vals, vecs = sla.eigh(mat, check_finite=False)
    except sla.LinAlgError as exc:  # pragma: no cover - eigh rarely fails
        raise NoConvergence("eigh failed: %s" % exc)
    return EigenDecomposition(values=vals, vectors=vecs)


def eigen_standard(mat):
    """Nonsymmetric eigendecomposition, sorted by (Re, Im)."""
    mat = np.asarray(mat)
    try:
        vals, vecs = np.linalg.eig(mat)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence("eig failed: %s" % exc)
    order = np.lexsort((vals.imag, vals.real))
    return EigenDecomposition(values=vals[order], vectors=vecs[:, order])


def count_negative_eigs_pencil(a, m):
    """Number of negative eigenvalues of the pencil lambda*M - A.

    M is assumed symmetric PSD and A symmetric.  When M is definite this is
    the count of negative generalized eigenvalues of (A, M).  When M is
    singular, finite eigenvalues are recovered through a shifted reversal:
    pick sigma with sigma*M - A invertible, then the finite eigenvalues are
    sigma + 1/mu over nonzero mu in spec(-inv(D) @ M), D = sigma*M - A.
    """
    a = require_symmetric(a, "A")
    m = require_symmetric(m, "M")
    if a.shape != m.shape:
        raise DimensionMismatch("A and M differ in shape")
    n = a.shape[0]
    if n == 0:
        return 0
    m_norm = max_abs(m)
    m_eigs = sla.eigvalsh(m, check_finite=False)
    if m_eigs[0] > 1e-10 * max(1.0, m_norm):
        # definite mass: congruence through the Cholesky factor
        try:
            chol = sla.cholesky(m, lower=True, check_finite=False)
        except sla.LinAlgError:
            chol = None
        if chol is not None:
            inv_l = sla.solve_triangular(
                chol, np.eye(n), lower=True, check_finite=False
            )
            reduced = inv_l @ a @ inv_l.T
            vals = sla.eigvalsh(0.5 * (reduced + reduced.T), check_finite=False)
            thresh = -1e-8 * max(1.0, float(np.max(np.abs(vals))) if vals.size else 1.0)
            return int(np.count_nonzero(vals < thresh))
    # singular (or near-singular) mass: degree-one shifted reversal
    scale = max(1.0, max_abs(a), m_norm)
    for sigma in SHIFT_CANDIDATES + _EXTRA_SHIFTS:
        d = sigma * m - a
        if smallest_singular_value(d) > 1e-8 * scale:
            mus = np.linalg.eigvals(solve_linear(d, -m))
            finite = []
            cutoff = 1e-10 * max(1.0, float(np.max(np.abs(mus))) if mus.size else 1.0)
            for mu in mus:
                if abs(mu) > cutoff:
                    finite.append(sigma + 1.0 / mu)
            if not finite:
                return 0
            finite = np.asarray(finite)
            # real-symmetric pencil: eigenvalues are real, drop rounding fuzz
            vals = finite.real
            thresh = -1e-8 * max(1.0, float(np.max(np.abs(vals))))
            return int(np.count_nonzero(vals < thresh))
    raise DegeneratePencil("no shift regularizes lambda*M - A")
