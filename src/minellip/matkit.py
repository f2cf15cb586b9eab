"""Dense real-matrix kernels shared by the whole toolkit.

Everything operates on plain ``numpy`` arrays at desk scale (dimensions up
to a dozen or so), so the solvers favour simple, verifiable algorithms over
asymptotically clever ones: the Lyapunov solver vectorizes through a
Kronecker product and the Riccati solver is a Newton iteration whose steps
are Lyapunov solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NoConvergenceError,
    NotStabilizableError,
    NotSymmetricError,
    SingularSylvesterError,
)

#: Default relative tolerance of the numerical kernels; every routine takes
#: an explicit override.
DEFAULT_TOL = 1e-9


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D float array and require finite entries."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def check_symmetric(s, tol: float = 1e-10, name: str = "matrix") -> np.ndarray:
    """Validate symmetry of ``s`` within ``tol * max(1, ||s||_F)``.

    Returns the exactly symmetrized matrix ``(s + s.T) / 2`` so downstream
    code can rely on bitwise symmetry.
    """
    s = as_matrix(s, name)
    if s.shape[0] != s.shape[1]:
        raise NotSymmetricError(f"{name} is not square: {s.shape}")
    scale = max(1.0, float(np.linalg.norm(s, "fro")))
    if float(np.linalg.norm(s - s.T, "fro")) > tol * scale:
        raise NotSymmetricError(f"{name} is not symmetric within relative tolerance {tol:g}")
    return 0.5 * (s + s.T)


@dataclass(frozen=True)
class SpectrumSummary:
    """Full eigenvalue list of a square matrix plus its spectral abscissa."""

    eigenvalues: np.ndarray
    spectral_abscissa: float


def eig_sym(s, tol: float = 1e-10) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending.

    Raises ``NotSymmetricError`` when ``s`` is asymmetric beyond ``tol``
    (relative).
    """
    return np.linalg.eigvalsh(check_symmetric(s, tol))


def spectrum(m) -> SpectrumSummary:
    """All eigenvalues (complex allowed) and the spectral abscissa of ``m``."""
    m = as_matrix(m, "m")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"m must be square, got {m.shape}")
    try:
        w = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    return SpectrumSummary(eigenvalues=w, spectral_abscissa=float(w.real.max()))


def lyap_solve(m, c, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Solve the continuous Lyapunov equation ``m X + X m^T + c = 0``.

    Parameters
    ----------
    m : (n, n) array_like
        Coefficient matrix; unique solvability requires that no two of its
        eigenvalues sum to zero (any Hurwitz ``m`` qualifies).
    c : (n, n) array_like
        Symmetric right-hand side.
    tol : float
        Relative residual bound accepted for the returned solution.

    Returns
    -------
    X : (n, n) ndarray
        Symmetric solution with ``||m X + X m^T + c||_F`` below
        ``tol * (||m|| ||X|| + ||c||)``.

    Notes
    -----
    The equation is vectorized through ``vec(m X + X m^T) =
    (I (x) m + m (x) I) vec(X)`` and solved as a dense ``n^2 x n^2`` linear
    system, which is exact at desk scale.
    """
    m = as_matrix(m, "m")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"m must be square, got {m.shape}")
    c = check_symmetric(c, name="c")
    if c.shape != m.shape:
        raise ValueError(f"c must match m: {c.shape} vs {m.shape}")
    n = m.shape[0]
    eye = np.eye(n)
    op = np.kron(eye, m) + np.kron(m, eye)
    try:
        x = np.linalg.solve(op, -c.ravel(order="F"))
    except np.linalg.LinAlgError as exc:
        raise SingularSylvesterError("an eigenvalue pair of m sums to zero") from exc
    X = x.reshape((n, n), order="F")
    X = 0.5 * (X + X.T)
    residual = float(np.linalg.norm(m @ X + X @ m.T + c, "fro"))
    scale = max(
        1e-30,
        float(np.linalg.norm(m, "fro")) * float(np.linalg.norm(X, "fro"))
        + float(np.linalg.norm(c, "fro")),
    )
    if residual > max(tol, 100 * np.finfo(float).eps) * scale:
        raise SingularSylvesterError(
            f"Lyapunov operator nearly singular: residual {residual:.3e} at scale {scale:.3e}"
        )
    return X


def _stabilizing_gain(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Bass-type stabilizing gain for (a, b), or None when none is found.

    Solves ``(a + sigma I) Z + Z (a + sigma I)^T = 2 b b^T`` with the shift
    sigma above the whole spectrum radius so the shifted matrix is
    anti-Hurwitz, then returns ``K0 = b^T Z^{-1}``.  A small isotropic term
    is added to the right-hand side when (a, b) is stabilizable but not
    controllable; each candidate is verified by a spectrum check.
    """
    n = a.shape[0]
    eye = np.eye(n)
    base = float(np.linalg.norm(a, "fro")) + 1.0
    bb = 2.0 * (b @ b.T)
    bb_scale = max(1.0, float(np.linalg.norm(bb, "fro")))
    for sigma in (base, 4.0 * base, 16.0 * base):
        for eps in (0.0, 1e-10, 1e-6, 1e-2):
            rhs = bb + eps * bb_scale * eye
            try:
                z = lyap_solve(a + sigma * eye, -rhs)
            except SingularSylvesterError:
                continue
            if np.linalg.eigvalsh(z).min() <= 0.0:
                continue
            k0 = np.linalg.solve(z, b).T
            if spectrum(a - b @ k0).spectral_abscissa < 0.0:
                return k0
    return None


def are_solve(a, b, q0, gamma: float, tol: float = 1e-9, max_iter: int = 60) -> np.ndarray:
    """Stabilizing solution of ``a^T P + P a - gamma P b b^T P + q0 = 0``.

    Parameters
    ----------
    a, b : array_like
        State and input matrices; (a, b) must be stabilizable.
    q0 : array_like
        Symmetric positive definite weight.
    gamma : float
        Positive scaling of the quadratic term.
    tol : float
        Relative residual bound for the returned solution.

    Returns
    -------
    P : ndarray
        Symmetric positive definite, with ``a - gamma b b^T P`` Hurwitz.

    Notes
    -----
    Newton-Kleinman iteration: each step solves the Lyapunov equation of the
    current closed loop via :func:`lyap_solve`. The iteration is seeded with
    the zero gain when ``a`` is Hurwitz and with a Bass-type shifted-Lyapunov
    gain otherwise.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"a must be square, got {a.shape}")
    if b.shape[0] != n:
        raise ValueError(f"b must have {n} rows, got {b.shape}")
    q0 = check_symmetric(q0, name="q0")
    if q0.shape != a.shape:
        raise ValueError(f"q0 must match a: {q0.shape} vs {a.shape}")
    if not is_pd(q0):
        raise ValueError("q0 must be positive definite")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")

    if spectrum(a).spectral_abscissa < 0.0:
        k = np.zeros((b.shape[1], n))
    else:
        k = _stabilizing_gain(a, b)
        if k is None:
            raise NotStabilizableError("no stabilizing gain found for (a, b)")

    def ricc_residual(p):
        return float(np.linalg.norm(a.T @ p + p @ a - gamma * p @ b @ b.T @ p + q0, "fro"))

    def ricc_scale(p):
        return max(
            1.0,
            2.0 * float(np.linalg.norm(a, "fro")) * float(np.linalg.norm(p, "fro"))
            + gamma * float(np.linalg.norm(p @ b, "fro")) ** 2
            + float(np.linalg.norm(q0, "fro")),
        )

    p = None
    for it in range(max_iter):
        acl = a - b @ k
        try:
            p = lyap_solve(acl.T, q0 + (k.T @ k) / gamma)
        except SingularSylvesterError as exc:
            raise NotStabilizableError("Newton iterate lost closed-loop stability") from exc
        k_new = gamma * (b.T @ p)
        step = float(np.linalg.norm(k_new - k, "fro"))
        k = k_new
        if step <= 1e-13 * (1.0 + float(np.linalg.norm(k, "fro"))):
            break
        # quadratic convergence bottoms out at the round-off floor; once the
        # residual is far inside tolerance there is nothing left to gain
        if it >= 5 and ricc_residual(p) <= 1e-2 * tol * ricc_scale(p):
            break

    residual = ricc_residual(p)
    scale = ricc_scale(p)
    if residual > tol * scale:
        raise NoConvergenceError(f"Riccati residual {residual:.3e} above {tol:g} * {scale:.3e}")
    if spectrum(a - gamma * (b @ b.T) @ p).spectral_abscissa >= 0.0:
        raise NotStabilizableError("Riccati solution is not stabilizing")
    return 0.5 * (p + p.T)


def is_pd(s, tol: float = DEFAULT_TOL) -> bool:
    """True when the minimum eigenvalue of symmetric ``s`` is > tol * scale."""
    w = eig_sym(s)
    scale = 1.0 + float(np.abs(w).max())
    return bool(w.min() > tol * scale)
