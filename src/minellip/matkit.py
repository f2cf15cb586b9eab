"""Dense real-matrix kernels shared by the whole toolkit.

The solvers favour simple, verifiable algorithms on small dense matrices
(order n, not nN): one Kronecker kernel, :func:`sylvester_solve`, solves a
batch of small Sylvester equations in one LU call and serves the n x n
modal blocks of the ellipsoid analysis; :func:`lyap_solve` is its one-item
Lyapunov form. Their operator comes from :func:`kron_sum`; a caller that
shifts m and n by s I builds it once and adds ``2 s I``. The Riccati solver
seeds from the stable invariant subspace of the Hamiltonian and polishes
with Newton steps of those.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NotStabilizableError,
    NotSymmetricError,
    SingularSylvesterError,
)

#: Relative tolerance of the numerical kernels: the Sylvester, Lyapunov and
#: Riccati residual bounds.
DEFAULT_TOL = 1e-9


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D float array and require finite entries."""
    try:
        arr = np.asarray(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} is not a numeric matrix: {exc}") from exc
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def check_symmetric(s, name: str = "matrix") -> np.ndarray:
    """Validate symmetry of ``s`` within ``1e-10 * ||s||_F``, at any scale of s.

    Returns the exactly symmetrized matrix ``(s + s.T) / 2`` so downstream
    code can rely on bitwise symmetry.
    """
    s = as_matrix(s, name)
    if s.shape[0] != s.shape[1]:
        raise NotSymmetricError(f"{name} is not square: {s.shape}")
    d = s / (np.abs(s).max(initial=0.0) or 1.0)  # no square of an entry over- or underflows
    if float(np.linalg.norm(d - d.T, "fro")) > 1e-10 * float(np.linalg.norm(d, "fro")):
        raise NotSymmetricError(f"{name} is not symmetric within relative tolerance 1e-10")
    return 0.5 * (s + s.T)


@dataclass(frozen=True)
class SpectrumSummary:
    """Full eigenvalue list of a square matrix plus its spectral abscissa."""

    eigenvalues: np.ndarray
    spectral_abscissa: float


def spectrum(m) -> SpectrumSummary:
    """All eigenvalues (complex allowed) and the spectral abscissa of a
    square ``m`` or of a stack ``(..., n, n)`` of them, taken over the stack."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"m must be square, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("m contains non-finite entries")
    try:
        w = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    return SpectrumSummary(eigenvalues=w, spectral_abscissa=float(w.real.max()))


def kron_sum(m, n) -> np.ndarray:
    """The batched operator ``m (x) I_b + I_a (x) n`` of ``m X + X n^T``, X vectorized by rows."""
    a, b = m.shape[-1], n.shape[-1]
    op = (m[..., :, None, :, None] * np.eye(b)[:, None, :]
          + np.eye(a)[:, None, :, None] * n[..., None, :, None, :])
    return op.reshape(op.shape[:-4] + (a * b, a * b))


def sylvester_solve(m, n, c, op=None) -> np.ndarray:
    """Solve ``m_k X_k + X_k n_k^T + c_k = 0`` for every item k of a batch:
    m is (..., a, a), n (..., b, b), c (..., a, b); leading axes broadcast.

    Each item is vectorized row by row, ``kron_sum(m, n) vec(X) = -vec(c)`` (``op``,
    if given, is that operator), and the batch goes to one LU call. The operator
    is never diagonalized, so defective m or n cost no accuracy. Raises
    ``SingularSylvesterError`` when an eigenvalue of ``m_k`` plus one of ``n_k``
    is zero or an item misses :func:`check_residual` (on m, n and c, not op).
    """
    m, n, c = (np.asarray(x, dtype=float) for x in (m, n, c))
    a, b = m.shape[-1], n.shape[-1]
    if m.shape[-2:] != (a, a) or n.shape[-2:] != (b, b) or c.shape[-2:] != (a, b):
        raise ValueError(f"shapes {m.shape}, {n.shape}, {c.shape} do not form m X + X n^T + c")
    try:
        x = np.linalg.solve(kron_sum(m, n) if op is None else op,
                            -c.reshape(c.shape[:-2] + (a * b, 1)))
    except np.linalg.LinAlgError as exc:
        raise SingularSylvesterError("an eigenvalue of m plus one of n is zero") from exc
    x = x.reshape(x.shape[:-2] + (a, b))
    check_residual(m, n, x, c)
    return x


def check_residual(m, n, x, c) -> None:
    """Raise ``SingularSylvesterError`` unless every item of the batch has
    ``||m X + X n^T + c|| <= DEFAULT_TOL * ((||m|| + ||n||) / 2 ||X|| + ||c||)``
    (Frobenius norms). A nearly singular operator fails it, and so does a
    well-conditioned one whose LU solve is ruined by pivot growth, so the
    refusal names the residual and its bound, not a cause."""
    def fro(y):
        return np.sqrt(np.einsum("...ij,...ij->...", y, y))

    fro_m = fro(m)  # n is m in every lyap_solve and trace evaluation
    ratio = fro(m @ x + x @ np.swapaxes(n, -1, -2) + c) / np.maximum(
        1e-30, 0.5 * (fro_m + (fro_m if n is m else fro(n))) * fro(x) + fro(c))
    if np.any(ratio > DEFAULT_TOL):
        raise SingularSylvesterError(
            f"Sylvester relative residual {float(np.max(ratio)):.3e} above {DEFAULT_TOL:g}")


def lyap_solve(m, c) -> np.ndarray:
    """Symmetric solution X of the Lyapunov equation ``m X + X m^T + c = 0``
    for square m and symmetric c, unique when no two eigenvalues of m sum
    to zero (any Hurwitz m qualifies): one item of :func:`sylvester_solve`,
    under the same residual rule."""
    m = as_matrix(m, "m")
    c = check_symmetric(c, name="c")
    if c.shape != m.shape or m.shape[0] != m.shape[1]:
        raise ValueError(f"m must be square and match c: {m.shape} vs {c.shape}")
    x = sylvester_solve(m, m, c)
    return 0.5 * (x + x.T)


def are_solve(a, b, q0, gamma: float) -> np.ndarray:
    """Stabilizing solution of ``a^T P + P a - gamma P b b^T P + q0 = 0``.

    Parameters
    ----------
    a, b : array_like
        State and input matrices; (a, b) must be stabilizable.
    q0 : array_like
        Symmetric positive definite weight.
    gamma : float
        Positive scaling of the quadratic term.

    Returns
    -------
    P : ndarray
        Symmetric positive definite, with ``a - gamma b b^T P`` Hurwitz and a
        relative residual within :data:`DEFAULT_TOL`.

    Notes
    -----
    The seed is Laub's: the n eigenvectors ``[V1; V2]`` of the Hamiltonian
    ``[[a, -gamma b b^T], [-q0, -a^T]]`` with eigenvalues in the open left
    half-plane span the graph of the stabilizing solution, ``P0 = V2 V1^{-1}``.
    Newton-Kleinman steps from the gain ``gamma b^T P0``, each a Lyapunov
    equation of the current closed loop via :func:`lyap_solve`, polish it.
    Raises ``NotStabilizableError`` when that subspace has the wrong
    dimension or is not a graph over the state (V1 singular), and when the
    polished solution is not stabilizing.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"a must be square, got {a.shape}")
    if b.shape[0] != n:
        raise ValueError(f"b must have {n} rows, got {b.shape}")
    q0 = check_pd(q0, n, "q0")[0]
    if not 0.0 < gamma < np.inf:  # NaN fails it too
        raise ValueError("gamma must be positive and finite")

    w, v = np.linalg.eig(np.block([[a, -gamma * (b @ b.T)], [-q0, -a.T]]))
    v = v[:, w.real < 0.0]
    if v.shape[1] != n:
        raise NotStabilizableError(f"the Hamiltonian has {v.shape[1]} stable eigenvalues, not {n}")
    try:
        p = np.linalg.solve(v[:n].T, v[n:].T).T.real
    except np.linalg.LinAlgError as exc:
        raise NotStabilizableError("the Hamiltonian's stable subspace has a singular V1") from exc
    k = gamma * (b.T @ (0.5 * (p + p.T)))

    def ricc_residual(p):
        return float(np.linalg.norm(a.T @ p + p @ a - gamma * p @ b @ b.T @ p + q0, "fro"))

    def ricc_scale(p):
        return max(
            1.0,
            2.0 * float(np.linalg.norm(a, "fro")) * float(np.linalg.norm(p, "fro"))
            + gamma * float(np.linalg.norm(p @ b, "fro")) ** 2
            + float(np.linalg.norm(q0, "fro")),
        )

    for it in range(60):
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
        if it >= 5 and ricc_residual(p) <= 1e-2 * DEFAULT_TOL * ricc_scale(p):
            break

    residual = ricc_residual(p)
    scale = ricc_scale(p)
    if residual > DEFAULT_TOL * scale:
        raise NoConvergenceError(
            f"Riccati residual {residual:.3e} above {DEFAULT_TOL:g} * {scale:.3e}")
    if spectrum(a - gamma * (b @ b.T) @ p).spectral_abscissa >= 0.0:
        raise NotStabilizableError("Riccati solution is not stabilizing")
    return 0.5 * (p + p.T)


def check_pd(s, order: int, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """The one gate for a symmetric positive definite operand (Q, q0, P):
    ``DimensionMismatchError`` unless s is ``order x order``, then
    :func:`check_symmetric`, then one Cholesky factorization, the
    floating-point test of definiteness (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., SIAM 2002, ch. 10), with ``ValueError``
    when it fails. Returns the symmetrized s and its lower Cholesky factor."""
    if np.shape(s) != (order, order):
        raise DimensionMismatchError(f"{name} must be {order}x{order}, got {np.shape(s)}")
    s = check_symmetric(s, name)
    try:
        return s, np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{name} must be positive definite") from exc
