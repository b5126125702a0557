"""Dense linear algebra kernel used by the pencil machinery.

Everything here operates on plain numpy arrays.  Routines raise package
exceptions instead of the numpy/scipy ones so callers get a uniform error
surface.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence


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


def rank_with_tol(mat, tol=0.0):
    """Numerical rank from singular values.

    tol == 0 selects the conventional automatic threshold
    max(m, n) * eps * sigma_max.
    """
    mat = np.asarray(mat)
    if mat.size == 0:
        return 0
    import scipy.linalg as sla
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
    import scipy.linalg as sla
    svals = sla.svdvals(mat)
    return float(svals[-1])


@dataclass
class EigenDecomposition:
    values: np.ndarray
    vectors: np.ndarray


def eigen_standard(mat):
    """Nonsymmetric eigendecomposition, sorted by (Re, Im).  A (T, m, m)
    stack of matrices is solved item by item, each item as one call would
    solve it, and sorted on its own."""
    mat = np.asarray(mat)
    try:
        vals, vecs = np.linalg.eig(mat)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence("eig failed: %s" % exc)
    order = np.lexsort((vals.imag, vals.real), axis=-1)
    if order.ndim == 1:
        return EigenDecomposition(values=vals[order], vectors=vecs[:, order])
    item = np.arange(order.shape[0])[:, None]
    return EigenDecomposition(values=vals[item, order],
                              vectors=vecs[item, :, order].swapaxes(1, 2))
