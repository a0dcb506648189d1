"""Numerically robust primitives on symmetric positive definite matrices.

All matrix functions go through the symmetric eigendecomposition, which is
the simplest route to a correct principal root. Inputs are symmetrized
before decomposition so that accumulated round-off asymmetry cannot leak
into eigenvalue signs. Every matrix function result is a product F F^T,
which numpy computes with one syrk and returns exactly symmetric, so no
drift builds up over repeated alternating updates. The quadratic solve
decomposes its first argument once, and decomposes a second matrix only
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
    """v diag(w**k) v^T from an eigendecomposition, as F F^T (exactly symmetric).

    F is v diag(w**(k/2)). Negative powers divide the eigenvector columns
    by w**(-k/2) rather than multiply by its reciprocal, one rounding per
    entry instead of two.
    """
    f = v * w ** (k / 2) if k > 0 else v / w ** (-k / 2)
    return f @ f.T


def _psd_sqrt_factor(mat: np.ndarray) -> np.ndarray:
    """R with R R^T the square root of a matrix known to be PSD up to round-off.

    Congruences P M P of a definite M are positive in exact arithmetic,
    but when the product is nearly singular the computed eigenvalues can
    land a hair below zero. Clamping them at zero is the correct reading
    of such inputs, so no positivity check is applied here.
    """
    w, v = np.linalg.eigh(symmetrize(mat))
    return v * np.maximum(w, 0.0) ** 0.25


def spd_inv(mat: np.ndarray) -> np.ndarray:
    """Inverse of an SPD matrix via eigendecomposition."""
    return _eig_power(*eigh_spd(mat), -1.0)


def riccati_solve(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Solve the quadratic matrix equation A @ C @ A = D for SPD A.

    The unique SPD solution is C^{-1/2} (C^{1/2} D C^{1/2})^{1/2} C^{-1/2},
    the affine-invariant geometric mean of C^{-1} and D, formed as G G^T for
    G = C^{-1/2} R, R R^T the inner root: one eigendecomposition of C for
    both of its roots, one of the inner product. When D is exactly s * I
    this is s^{1/2} C^{-1/2}, from the one eigendecomposition of C (the
    zero matrix for s <= 0, as the clamp in ``_psd_sqrt_factor`` gives it).

    Parameters
    ----------
    c, d : ndarray of shape (d, d)
        SPD matrices of equal dimension.

    Returns
    -------
    ndarray of shape (d, d)
        The SPD solution, exactly symmetric.
    """
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    if c.shape != d.shape:
        raise ValueError(f"dimension mismatch: {c.shape} vs {d.shape}")
    w, v = eigh_spd(c)
    # D = s * I: no nonzero entry off the diagonal, and every entry on it s.
    diag = np.diagonal(d)
    if np.count_nonzero(d) == np.count_nonzero(diag) and (diag == diag[0]).all():
        return np.sqrt(max(diag[0], 0.0)) * _eig_power(w, v, -0.5)
    inner = _eig_power(w, v, 0.5)
    g = _eig_power(w, v, -0.5) @ _psd_sqrt_factor(inner @ symmetrize(d) @ inner)
    return g @ g.T
