import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from minellip import are_solve, design_gain, has_spanning_tree, lyap_solve, spectrum
from minellip.graph import LaplacianPair
from minellip.matkit import (
    as_matrix,
    check_pd,
    check_residual,
    check_symmetric,
    sylvester_solve,
)
from minellip.errors import (
    NotStabilizableError,
    NotSymmetricError,
    SingularSylvesterError,
)
from minellip.protocol import modal_form
from reference import eig_sym, is_pd, is_psd, kron

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


# --- the graph's symmetric eigendecomposition ---------------------------

def test_eig_sym_reduced_laplacian(fig1_laplacian):
    # the graph's basis: ascending eigenvalues and an orthonormal U that diagonalizes L_tilde
    lam, u = fig1_laplacian.modes
    np.testing.assert_allclose(lam, [2.0 - SQRT2, 2.0, 2.0 + SQRT2], atol=1e-10)
    np.testing.assert_allclose(u.T @ u, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(u @ np.diag(lam) @ u.T, fig1_laplacian.L_tilde, atol=1e-14)


def test_eig_sym_rejects_asymmetric(paper_plant, paper_gain):
    # every reader of a hand-built pair's basis refuses an asymmetric L_tilde
    lp = LaplacianPair(L=np.zeros((3, 3)), L_tilde=np.array([[1.0, 1.0], [0.0, 1.0]]))
    for read in (has_spanning_tree, lambda lp: modal_form(paper_plant, lp, paper_gain),
                 lambda lp: design_gain(paper_plant, lp, 1.0)):
        with pytest.raises(NotSymmetricError, match="L_tilde"):
            read(lp)


def test_symmetry_and_definiteness_at_any_scale(paper_minimization):
    # an asymmetry of 10 % of the norm is refused at 1e-12 as at 1; a tolerance
    # with an absolute floor would accept the small copy and symmetrize it silently
    skew = np.array([[2e-12, 2e-13], [0.0, 2e-12]])
    for scale in (1.0, 1e12):
        with pytest.raises(NotSymmetricError):
            check_symmetric(scale * skew)
    p_star = paper_minimization.P_star  # cond 2.5e10
    for scale in (1e-12, 1.0, 1e12):
        s, chol = check_pd(scale * p_star, 6, "P")
        np.testing.assert_array_equal(s, scale * p_star)
        np.testing.assert_allclose(chol @ chol.T, s, rtol=0.0,
                                   atol=1e-12 * scale * np.abs(p_star).max())


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


# --- sylvester_solve --------------------------------------------------

def test_sylvester_mixed_batch_matches_scipy():
    # Hurwitz, defective (Jordan block) and anti-stable items in one batch;
    # each must agree with SciPy's Bartels-Stewart solve of m X + X n^T = -c
    rng = np.random.default_rng(41)
    m = np.stack([random_hurwitz(rng, 3), np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0],
                                                     [0.0, 0.0, -1.0]]),
                  -random_hurwitz(rng, 3), rng.normal(size=(3, 3)) + 5.0 * np.eye(3)])
    n = np.stack([random_hurwitz(rng, 2), np.array([[-2.0, 1.0], [0.0, -2.0]]),
                  -random_hurwitz(rng, 2), random_hurwitz(rng, 2)])
    c = rng.normal(size=(4, 3, 2))
    x = sylvester_solve(m, n, c)
    assert x.shape == (4, 3, 2)
    for k in range(4):
        ref = scipy.linalg.solve_sylvester(m[k], n[k].T, -c[k])
        np.testing.assert_allclose(x[k], ref, atol=1e-10 * max(1.0, np.abs(ref).max()))
    # a shared left operand broadcasts against a batch of right operands
    np.testing.assert_allclose(sylvester_solve(m[0], n, c)[2],
                               scipy.linalg.solve_sylvester(m[0], n[2].T, -c[2]), atol=1e-10)


def test_sylvester_batch_with_singular_item_raises():
    # item 1 pairs the eigenvalue 1 of m with -1 of n: the operator is singular
    rng = np.random.default_rng(42)
    m = np.stack([random_hurwitz(rng, 2), np.diag([1.0, 2.0]), random_hurwitz(rng, 2)])
    n = np.stack([random_hurwitz(rng, 2), np.diag([-1.0, 3.0]), random_hurwitz(rng, 2)])
    with pytest.raises(SingularSylvesterError):
        sylvester_solve(m, n, rng.normal(size=(3, 2, 2)))


@pytest.mark.parametrize("solve", [
    lambda: sylvester_solve([[-1e-160]], [[-1e-160]], [[1e200]]),
    lambda: lyap_solve([[-1e-160]], [[1e200]]),
    lambda: check_residual(-np.eye(2), -np.eye(2), np.full((2, 2), np.nan), np.eye(2)),
], ids=["sylvester-overflow", "lyap-overflow", "nan-solution"])
def test_non_finite_solution_is_refused_without_warning(solve):
    # 1e200 / 2e-160 overflows to X = inf, whose residual ratio inf / inf is NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSylvesterError, match="residual nan above"):
            solve()


def test_residual_check_holds_at_any_scale():
    # the squares in the norms of a correct solve at 1e154 and beyond overflowed to inf / inf
    # = NaN, which refused it; over each item's max-abs entries the ratio is the same and
    # finite, so a solve off by a relative 1e-6 is still refused at 1e200
    m, c = np.array([[-1.0, 0.3], [0.1, -2.0]]), np.array([[1.0, 0.2], [0.2, 3.0]])
    x = lyap_solve(m, c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in 10.0 ** np.arange(150, 301, 10):
            np.testing.assert_allclose(lyap_solve(m, scale * c), scale * x, rtol=1e-12)
            np.testing.assert_allclose(sylvester_solve(scale * m, scale * m, scale * c), x,
                                       rtol=1e-12)
        x = lyap_solve(m, 1e200 * c)
        with pytest.raises(SingularSylvesterError, match=r"residual [0-9.]+e-0[67] above"):
            check_residual(m, m, x * (1.0 + 1e-6), 1e200 * c)


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


def ricc_relative_residual(a, b, q0, gamma, p):
    residual = np.linalg.norm(a.T @ p + p @ a - gamma * p @ b @ b.T @ p + q0, "fro")
    return residual / max(1.0, 2 * np.linalg.norm(a, "fro") * np.linalg.norm(p, "fro")
                          + gamma * np.linalg.norm(p @ b, "fro") ** 2 + np.linalg.norm(q0, "fro"))


def test_are_random_stabilizable_pairs():
    rng = np.random.default_rng(99)
    pairs = []
    for _ in range(100):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        pairs.append((rng.normal(size=(n, n)), rng.normal(size=(n, m)),
                      float(rng.uniform(0.1, 10.0))))
    # defective Hurwitz a with no input: the Riccati equation is the Lyapunov
    # equation of a, and the Hamiltonian's stable eigenvectors are parallel
    pairs.append((np.array([[-1.0, 1.0], [0.0, -1.0]]), np.zeros((2, 1)), 1.0))
    for a, b, gamma in pairs:
        n = a.shape[0]
        p = are_solve(a, b, np.eye(n), gamma)
        assert is_pd(p, tol=1e-12)
        assert ricc_relative_residual(a, b, np.eye(n), gamma, p) <= 1e-8
        assert spectrum(a - gamma * b @ b.T @ p).spectral_abscissa < 0
    np.testing.assert_allclose(p, scipy.linalg.solve_continuous_lyapunov(a.T, -np.eye(2)),
                               atol=1e-15)


def test_are_matches_scipy_up_to_order_8():
    # Random pairs are stabilizable with probability one; SciPy's Schur-based
    # solution is the oracle wherever its own residual shows it is accurate.
    rng = np.random.default_rng(2026)
    skipped = 0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 3))
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, m))
        gamma = float(10.0 ** rng.uniform(-2.0, 2.0))
        ref = scipy.linalg.solve_continuous_are(a, b, np.eye(n), np.eye(m) / gamma)
        if ricc_relative_residual(a, b, np.eye(n), gamma, ref) > 1e-8:
            skipped += 1
            continue
        p = are_solve(a, b, np.eye(n), gamma)
        assert ricc_relative_residual(a, b, np.eye(n), gamma, p) <= 1e-9
        assert spectrum(a - gamma * b @ b.T @ p).spectral_abscissa < 0
        np.testing.assert_allclose(p, ref, rtol=0, atol=1e-6 * np.linalg.norm(ref, "fro"))
    print(f"{skipped} of 200 pairs skipped: SciPy's relative residual above 1e-8")
    assert skipped <= 5


def test_are_q0_at_any_scale(paper_plant):
    q0 = 1e-12 * np.eye(2)
    p = are_solve(paper_plant.A, paper_plant.B, q0, 1.0)
    ref = scipy.linalg.solve_continuous_are(paper_plant.A, paper_plant.B, q0, np.eye(1))
    np.testing.assert_allclose(p, ref, rtol=1e-9, atol=0.0)
    for bad in (np.diag([1.0, 0.0]), np.diag([1e-12, -1e-15])):
        with pytest.raises(ValueError, match="q0 must be positive definite"):
            are_solve(paper_plant.A, paper_plant.B, bad, 1.0)


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


def wilkinson(n):
    """Unit lower triangle of -1s with a last column of 1s: LU with partial
    pivoting grows its entries by 2^(n-1) (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., SIAM 2002, sec. 9.4)."""
    m = np.eye(n) - np.tril(np.ones((n, n)), -1)
    m[:, -1] = 1.0
    return m


@pytest.mark.parametrize("call, error, match", [
    (lambda: as_matrix([1.0, 2.0]), ValueError, "must be 2-D"),
    (lambda: as_matrix([[np.nan]]), ValueError, "non-finite"),
    (lambda: check_symmetric(np.ones((2, 3))), NotSymmetricError, "not square"),
    (lambda: spectrum(np.ones((2, 3))), ValueError, "must be square"),
    (lambda: spectrum([[np.inf]]), ValueError, "non-finite"),
    (lambda: sylvester_solve(np.eye(2), np.eye(2), np.ones((2, 3))), ValueError, "do not form"),
    (lambda: lyap_solve(np.eye(2), np.eye(3)), ValueError, "must be square and match c"),
    (lambda: are_solve(np.ones((2, 3)), np.ones((2, 1)), np.eye(2), 1.0), ValueError,
     "a must be square"),
    (lambda: are_solve(np.eye(2), np.ones((3, 1)), np.eye(2), 1.0), ValueError,
     "b must have 2 rows"),
    (lambda: are_solve(np.eye(2), np.ones((2, 1)), np.eye(2), 0.0), ValueError,
     "gamma must be positive"),
    # an operator of condition 27 whose LU grows by 2^59: the solution misses
    # its own equation and the residual check refuses it
    (lambda: sylvester_solve(wilkinson(60), np.zeros((1, 1)), np.arange(60.0)[:, None]),
     SingularSylvesterError, r"^Sylvester relative residual \d\.\d{3}e[-+]\d{2} above 1e-09$"),
    (lambda: are_solve(np.eye(2), np.ones((2, 1)), np.eye(2), np.nan), ValueError,
     "gamma must be positive and finite"),
    (lambda: are_solve(np.eye(2), np.ones((2, 1)), np.eye(2), np.inf), ValueError,
     "gamma must be positive and finite"),
], ids=["as_matrix-1d", "as_matrix-nan", "check_symmetric-shape", "spectrum-shape",
        "spectrum-inf", "sylvester-shapes", "lyap-shapes", "are-a", "are-b", "are-gamma",
        "sylvester-residual", "are-gamma-nan", "are-gamma-inf"])
def test_matkit_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()
