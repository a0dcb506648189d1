import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import sqrtm

from ot_oracle import geometric_mean
from otml import spd


def random_spd(rng, d, cond=100.0):
    """SPD matrix with eigenvalues log-spaced up to the given condition."""
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    w = np.logspace(0, np.log10(cond), d)
    return (q * w) @ q.T


def test_symmetrize_is_projection():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, 5))
    s = spd.symmetrize(m)
    np.testing.assert_array_equal(s, s.T)
    np.testing.assert_allclose(spd.symmetrize(s), s)


def test_symmetrize_rejects_nonsquare():
    with pytest.raises(ValueError):
        spd.symmetrize(np.zeros((2, 3)))


def test_inv_matches_numpy():
    rng = np.random.default_rng(3)
    m = random_spd(rng, 5)
    np.testing.assert_allclose(spd.spd_inv(m), np.linalg.inv(m), rtol=1e-9)


def test_positivity_error_on_indefinite():
    m = np.diag([1.0, -0.5])
    with pytest.raises(spd.PositivityError):
        spd.eigh_spd(m)
    with pytest.raises(spd.PositivityError):
        spd.spd_inv(m)


def test_positivity_floor_is_scale_relative():
    # eigenvalues (1e8, 1e-6): tiny relative to the largest, so inversion
    # of such a matrix would amplify noise; the check must trip
    m = np.diag([1e8, 1e-6])
    with pytest.raises(spd.PositivityError):
        spd.eigh_spd(m)
    # same ratio, both comfortably positive at unit scale: fine
    spd.eigh_spd(np.diag([1.0, 1e-4]))


def test_riccati_solves_equation():
    rng = np.random.default_rng(4)
    for d in (2, 3, 7):
        c = random_spd(rng, d)
        dd = random_spd(rng, d)
        a = spd.riccati_solve(c, dd)
        np.testing.assert_array_equal(a, a.T)
        np.testing.assert_allclose(a @ c @ a, dd, rtol=1e-9, atol=1e-11)


def test_riccati_identity_cases():
    rng = np.random.default_rng(5)
    d = 4
    m = random_spd(rng, d)
    # C = I: A * A = D
    np.testing.assert_allclose(
        spd.riccati_solve(np.eye(d), m), sqrtm(m), rtol=1e-10
    )
    # D = I: A = C^{-1/2}
    np.testing.assert_allclose(
        spd.riccati_solve(m, np.eye(d)), np.linalg.inv(sqrtm(m)), rtol=1e-10
    )


def test_riccati_dimension_mismatch():
    with pytest.raises(ValueError):
        spd.riccati_solve(np.eye(2), np.eye(3))
    # the shape check comes before the scalar-D shortcut
    c = random_spd(np.random.default_rng(14), 3)
    for fn in (spd.riccati_solve, geometric_mean):
        with pytest.raises(ValueError):
            fn(c, 2.0 * np.eye(4))


@pytest.mark.parametrize("s", [0.0, 1e-8, 1.0, 3.0, 1e8])
def test_mean_at_scalar_d_is_a_scaled_root(s):
    # A C A = s I gives A = s^{1/2} C^{-1/2}; the mean of P and s I is
    # s^{1/2} P^{1/2}. At s = 0 both are the zero matrix, as the clamped
    # inner root gives it.
    rng = np.random.default_rng(15)
    c = random_spd(rng, 5)
    for fn, root in ((spd.riccati_solve, np.linalg.inv(sqrtm(c))),
                     (geometric_mean, sqrtm(c))):
        a = fn(c, s * np.eye(5))
        np.testing.assert_array_equal(a, a.T)
        if s == 0.0:
            np.testing.assert_array_equal(a, np.zeros((5, 5)))
        else:
            np.testing.assert_allclose(a, np.sqrt(s) * root, rtol=1e-10)


def test_geometric_mean_idempotent():
    rng = np.random.default_rng(6)
    m = random_spd(rng, 5)
    np.testing.assert_allclose(geometric_mean(m, m), m, rtol=1e-10)


def test_geometric_mean_with_identity():
    rng = np.random.default_rng(7)
    m = random_spd(rng, 5)
    np.testing.assert_allclose(
        geometric_mean(np.eye(5), m), sqrtm(m), rtol=1e-10
    )


def test_geometric_mean_symmetric():
    rng = np.random.default_rng(8)
    p = random_spd(rng, 4)
    q = random_spd(rng, 4)
    np.testing.assert_allclose(
        geometric_mean(p, q), geometric_mean(q, p), rtol=1e-9, atol=1e-11
    )


def test_geometric_mean_congruence_invariant():
    rng = np.random.default_rng(9)
    p = random_spd(rng, 4)
    q = random_spd(rng, 4)
    t = rng.standard_normal((4, 4)) + 2 * np.eye(4)
    lhs = geometric_mean(t @ p @ t.T, t @ q @ t.T)
    rhs = t @ geometric_mean(p, q) @ t.T
    np.testing.assert_allclose(lhs, rhs, rtol=1e-8, atol=1e-10)


def test_geometric_mean_is_riccati_solution():
    rng = np.random.default_rng(10)
    c = random_spd(rng, 5)
    d = random_spd(rng, 5)
    np.testing.assert_allclose(
        geometric_mean(spd.spd_inv(c), d),
        spd.riccati_solve(c, d),
        rtol=1e-8,
        atol=1e-10,
    )


@pytest.fixture
def eigh_calls(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(mat):
        calls.append(mat.shape)
        return eigh(mat)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls


@pytest.mark.parametrize("fn", [spd.riccati_solve, geometric_mean])
def test_mean_takes_two_eigendecompositions(fn, eigh_calls):
    # one for both roots of the first argument, one for the inner root
    rng = np.random.default_rng(13)
    fn(random_spd(rng, 5), random_spd(rng, 5))
    assert len(eigh_calls) == 2


@pytest.mark.parametrize("fn", [spd.riccati_solve, geometric_mean])
def test_mean_takes_one_eigendecomposition_at_scalar_d(fn, eigh_calls):
    # s I has no inner root to take: only the first argument is decomposed
    rng = np.random.default_rng(13)
    fn(random_spd(rng, 5), 2.5 * np.eye(5))
    assert len(eigh_calls) == 1


def test_riccati_tolerates_near_singular_product():
    # the congruence C^{1/2} D C^{1/2} can come out numerically singular
    # even for definite inputs; the solve must not trip on round-off
    rng = np.random.default_rng(11)
    q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    c = (q * np.logspace(-7, 0, 6)) @ q.T + 1e-7 * np.eye(6)
    d = np.eye(6) * 1e-8
    a = spd.riccati_solve(c, d)
    resid = np.linalg.norm(a @ c @ a - d) / np.linalg.norm(d)
    assert resid < 1e-6


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8))
def test_riccati_residual_property(seed, d):
    rng = np.random.default_rng(seed)
    c = random_spd(rng, d, cond=1e3)
    dd = random_spd(rng, d, cond=1e3)
    # D = s I takes the one-decomposition route; s spans 16 decades
    for target in (dd, 10.0 ** rng.uniform(-8, 8) * np.eye(d)):
        a = spd.riccati_solve(c, target)
        w = np.linalg.eigvalsh(a)
        assert w[0] > 0
        resid = np.linalg.norm(a @ c @ a - target) / np.linalg.norm(target)
        assert resid < 1e-9


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6))
def test_geometric_mean_between_arguments(seed, d):
    # determinant of the geometric mean is the geometric mean of the
    # determinants, a classic identity of the affine-invariant midpoint
    rng = np.random.default_rng(seed)
    p = random_spd(rng, d, cond=100)
    q = random_spd(rng, d, cond=100)
    g = geometric_mean(p, q)
    det_g = np.linalg.det(g)
    expected = np.sqrt(np.linalg.det(p) * np.linalg.det(q))
    np.testing.assert_allclose(det_g, expected, rtol=1e-7)
