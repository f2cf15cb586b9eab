import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from minellip import are_solve, eig_sym, is_pd, lyap_solve, spectrum
from minellip.errors import (
    NotStabilizableError,
    NotSymmetricError,
    SingularSylvesterError,
)
from reference import is_psd, kron

SQRT2 = np.sqrt(2.0)


def random_hurwitz(rng, n):
    m = rng.normal(size=(n, n))
    shift = spectrum(m).spectral_abscissa + rng.uniform(0.5, 2.0)
    return m - shift * np.eye(n)


# --- kron -------------------------------------------------------------

def test_kron_identity_factor():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    expected = np.zeros((4, 4))
    expected[:2, :2] = a
    expected[2:, 2:] = a
    np.testing.assert_array_equal(kron(np.eye(2), a), expected)


def test_kron_scalar_one():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(kron([[1.0]], m), m)


def test_kron_ones_column_stacks_identities():
    out = kron(np.ones((3, 1)), np.eye(2))
    assert out.shape == (6, 2)
    np.testing.assert_array_equal(out, np.tile(np.eye(2), (3, 1)))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 10_000))
def test_kron_mixed_product_identity(ra, ca, rb, cb, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(ra, ca))
    c = rng.normal(size=(ca, ra))
    b = rng.normal(size=(rb, cb))
    d = rng.normal(size=(cb, rb))
    lhs = kron(a, b) @ kron(c, d)
    rhs = kron(a @ c, b @ d)
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


# --- eig_sym ----------------------------------------------------------

def test_eig_sym_reduced_laplacian(fig1_laplacian):
    w = eig_sym(fig1_laplacian.L_tilde)
    np.testing.assert_allclose(w, [2.0 - SQRT2, 2.0, 2.0 + SQRT2], atol=1e-10)


def test_eig_sym_identity():
    np.testing.assert_allclose(eig_sym(np.eye(3)), [1.0, 1.0, 1.0], atol=1e-14)


def test_eig_sym_disturbance_weight():
    np.testing.assert_allclose(eig_sym(np.diag([800.0, 4000.0])), [800.0, 4000.0], atol=1e-9)


def test_eig_sym_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        eig_sym([[0.0, 1.0], [0.0, 0.0]])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10_000))
def test_eig_sym_sum_equals_trace(n, seed):
    rng = np.random.default_rng(seed)
    s = rng.normal(size=(n, n))
    s = s + s.T
    w = eig_sym(s)
    assert abs(w.sum() - np.trace(s)) <= 1e-10 * max(1.0, np.linalg.norm(s, "fro"))


# --- spectrum ---------------------------------------------------------

def test_spectrum_double_integrator():
    summary = spectrum([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(np.sort(summary.eigenvalues.real), [0.0, 0.0], atol=1e-12)
    assert abs(summary.spectral_abscissa) <= 1e-12


def test_spectrum_diagonal():
    assert spectrum(np.diag([-1.0, -2.0])).spectral_abscissa == pytest.approx(-1.0)


def test_spectrum_conjugate_pairs():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(6, 6))
    w = spectrum(m).eigenvalues
    np.testing.assert_allclose(np.sort_complex(w), np.sort_complex(w.conj()), atol=1e-8)


def test_spectrum_agrees_with_eig_sym():
    rng = np.random.default_rng(5)
    s = rng.normal(size=(6, 6))
    s = s + s.T
    w = np.sort(spectrum(s).eigenvalues.real)
    np.testing.assert_allclose(w, eig_sym(s), atol=1e-8 * max(1.0, np.abs(w).max()))


# --- lyap_solve -------------------------------------------------------

def test_lyap_scalar():
    np.testing.assert_allclose(lyap_solve([[-1.0]], [[1.0]]), [[0.5]], atol=1e-14)


def test_lyap_known_2x2():
    # Frozen from solving the vectorized 4x4 linear system by hand.
    m = np.array([[0.0, 1.0], [-2.0, -3.0]])
    expected = np.array([[1.0, -0.5], [-0.5, 0.5]])
    x = lyap_solve(m, np.eye(2))
    np.testing.assert_allclose(x, expected, atol=1e-12)
    ref = scipy.linalg.solve_continuous_lyapunov(m, -np.eye(2))
    np.testing.assert_allclose(x, ref, atol=1e-12)


def test_lyap_sign_property():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = rng.integers(1, 6)
        m = random_hurwitz(rng, n)
        c = rng.normal(size=(n, n))
        c = c @ c.T
        x = lyap_solve(m, c)
        assert is_psd(x, tol=1e-8)


def test_lyap_residual_bound_random_hurwitz():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        m = random_hurwitz(rng, n)
        c = rng.normal(size=(n, n))
        c = c + c.T
        x = lyap_solve(m, c)
        residual = np.linalg.norm(m @ x + x @ m.T + c, "fro")
        scale = np.linalg.norm(m, "fro") * np.linalg.norm(x, "fro") + np.linalg.norm(c, "fro")
        assert residual <= 1e-9 * max(scale, 1.0)
        np.testing.assert_allclose(
            x, scipy.linalg.solve_continuous_lyapunov(m, -c),
            atol=1e-8 * max(1.0, np.linalg.norm(x, "fro")))


def test_lyap_singular_pair_raises():
    # Eigenvalues +1 and -1 sum to zero.
    with pytest.raises(SingularSylvesterError):
        lyap_solve(np.diag([1.0, -1.0]), np.eye(2))


# --- are_solve --------------------------------------------------------

def test_are_scalar_unit():
    np.testing.assert_allclose(are_solve([[0.0]], [[1.0]], [[1.0]], 1.0), [[1.0]], atol=1e-12)


def test_are_scalar_gamma4():
    np.testing.assert_allclose(are_solve([[0.0]], [[1.0]], [[1.0]], 4.0), [[0.5]], atol=1e-12)


def test_are_paper_pair(paper_plant):
    p = are_solve(paper_plant.A, paper_plant.B, np.eye(2), 1.0)
    residual = paper_plant.A.T @ p + p @ paper_plant.A \
        - p @ paper_plant.B @ paper_plant.B.T @ p + np.eye(2)
    assert np.linalg.norm(residual, "fro") <= 1e-8 * max(1.0, np.linalg.norm(p, "fro"))
    closed = paper_plant.A - paper_plant.B @ paper_plant.B.T @ p
    assert spectrum(closed).spectral_abscissa < 0
    ref = scipy.linalg.solve_continuous_are(paper_plant.A, paper_plant.B, np.eye(2), np.eye(1))
    np.testing.assert_allclose(p, ref, atol=1e-9)


def test_are_random_stabilizable_pairs():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, m))
        gamma = float(rng.uniform(0.1, 10.0))
        p = are_solve(a, b, np.eye(n), gamma)
        assert is_pd(p, tol=1e-12)
        residual = np.linalg.norm(
            a.T @ p + p @ a - gamma * p @ b @ b.T @ p + np.eye(n), "fro")
        scale = max(1.0,
                    2 * np.linalg.norm(a, "fro") * np.linalg.norm(p, "fro")
                    + gamma * np.linalg.norm(p @ b, "fro") ** 2 + np.sqrt(n))
        assert residual <= 1e-8 * scale
        assert spectrum(a - gamma * b @ b.T @ p).spectral_abscissa < 0


def test_are_not_stabilizable():
    with pytest.raises(NotStabilizableError):
        are_solve([[1.0]], [[0.0]], [[1.0]], 1.0)


# --- definiteness -----------------------------------------------------

def test_is_psd_zero():
    assert is_psd(np.zeros((3, 3)))


def test_is_pd_rejects_small_negative():
    assert not is_pd(np.diag([1.0, -1e-3]))


def test_is_pd_accepts_gram():
    rng = np.random.default_rng(1)
    g = rng.normal(size=(4, 4))
    assert is_pd(g @ g.T + 1e-3 * np.eye(4))
