"""Numerically robust primitives on symmetric positive definite matrices.

All matrix functions go through the symmetric eigendecomposition, which is
the simplest route to a correct principal root. Inputs are symmetrized
before decomposition so that accumulated round-off asymmetry cannot leak
into eigenvalue signs, and results of the quadratic solve and the geometric
mean are re-symmetrized before return so that drift does not build up over
repeated alternating updates. The quadratic solve and the geometric mean
decompose their first argument once, and decompose a second matrix only
when the second argument is not a scalar multiple of the identity.
"""

import numpy as np

# An eigenvalue counts as "non positive" when it falls below this fraction
# of max(1, largest eigenvalue). Scale-relative so that well-posed inputs
# of any magnitude never trip a false positivity failure.
POSITIVITY_RTOL = 1e-12


class PositivityError(ValueError):
    """Raised when a matrix that must be positive definite is not."""


def symmetrize(mat: np.ndarray) -> np.ndarray:
    """Return the symmetric part (M + M^T) / 2 of a square matrix.

    Parameters
    ----------
    mat : ndarray of shape (d, d)
        Square matrix.

    Returns
    -------
    ndarray of shape (d, d)
        Symmetric matrix, equal to its own transpose exactly.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return (mat + mat.T) / 2.0


def eigh_spd(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, checked for positivity.

    Parameters
    ----------
    mat : ndarray of shape (d, d)
        Matrix assumed symmetric positive definite. Symmetrized first.

    Returns
    -------
    eigenvalues : ndarray of shape (d,)
        Eigenvalues in ascending order, all strictly positive.
    eigenvectors : ndarray of shape (d, d)
        Orthogonal matrix of eigenvectors (columns).

    Raises
    ------
    PositivityError
        If the smallest eigenvalue is below the scale-relative floor.
    """
    w, v = np.linalg.eigh(symmetrize(mat))
    floor = POSITIVITY_RTOL * max(1.0, float(w[-1]))
    if w[0] < floor:
        raise PositivityError(
            f"matrix is not positive definite: min eigenvalue {w[0]:.3e} "
            f"below floor {floor:.3e}"
        )
    return w, v


def _eig_power(w: np.ndarray, v: np.ndarray, k: float) -> np.ndarray:
    """v diag(w**k) v^T from an eigendecomposition, symmetrized.

    Negative powers divide the eigenvector columns by w**-k rather than
    multiply by its reciprocal, one rounding per entry instead of two.
    """
    scaled = v * w**k if k > 0 else v / w**-k
    return symmetrize(scaled @ v.T)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Square root of a matrix known to be PSD up to round-off.

    Congruences P M P of a definite M are positive in exact arithmetic,
    but when the product is nearly singular the computed eigenvalues can
    land a hair below zero. Clamping them at zero is the correct reading
    of such inputs, so no positivity check is applied here.
    """
    w, v = np.linalg.eigh(symmetrize(mat))
    return _eig_power(np.maximum(w, 0.0), v, 0.5)


def spd_inv(mat: np.ndarray) -> np.ndarray:
    """Inverse of an SPD matrix via eigendecomposition."""
    return _eig_power(*eigh_spd(mat), -1.0)


def _mean(a: np.ndarray, b: np.ndarray, k: float) -> np.ndarray:
    # R (S b S)^{1/2} R with R = a^k and S = a^-k, k = +-1/2, both roots
    # taken from one eigendecomposition of a. For b = s I this is
    # s^{1/2} a^k, and b needs no decomposition; s <= 0 gives the zero
    # matrix that the clamp in _psd_sqrt gives.
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    w, v = eigh_spd(a)
    s = b[0, 0]
    if np.array_equal(b, s * np.eye(b.shape[0])):
        return np.sqrt(max(s, 0.0)) * _eig_power(w, v, k)
    outer = _eig_power(w, v, k)
    inner = _eig_power(w, v, -k)
    return symmetrize(outer @ _psd_sqrt(inner @ symmetrize(b) @ inner) @ outer)


def riccati_solve(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Solve the quadratic matrix equation A @ C @ A = D for SPD A.

    The unique SPD solution is C^{-1/2} (C^{1/2} D C^{1/2})^{1/2} C^{-1/2},
    computed with two eigendecompositions: one of C for both of its roots,
    one of the inner product. When D is exactly s * I this is
    s^{1/2} C^{-1/2}, computed from the one eigendecomposition of C
    (the zero matrix for s <= 0).

    Parameters
    ----------
    c, d : ndarray of shape (d, d)
        SPD matrices of equal dimension.

    Returns
    -------
    ndarray of shape (d, d)
        The SPD solution, symmetrized before return.
    """
    return _mean(c, d, -0.5)


def geometric_mean(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Affine-invariant geometric mean of two SPD matrices.

    Computed as P^{1/2} (P^{-1/2} Q P^{-1/2})^{1/2} P^{1/2}, the midpoint
    of the geodesic joining P and Q under the affine-invariant geometry.
    Coincides with the solution A of A @ P^{-1} @ A = Q, so
    ``geometric_mean(inv(C), D) == riccati_solve(C, D)``. Two
    eigendecompositions, one of P and one of the inner product; when Q is
    exactly s * I the mean is s^{1/2} P^{1/2}, from the one of P (the zero
    matrix for s <= 0).

    Parameters
    ----------
    p, q : ndarray of shape (d, d)
        SPD matrices of equal dimension.

    Returns
    -------
    ndarray of shape (d, d)
        The geometric mean, symmetrized before return.
    """
    return _mean(p, q, 0.5)


def trace_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Trace inner product trace(A @ B) of two symmetric matrices.

    For symmetric arguments this equals the elementwise sum of A * B.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.sum(a * b))
