"""Dense real-matrix kernels shared by the whole toolkit.

The solvers favour simple, verifiable algorithms on small dense matrices
(order n, not nN), through one Kronecker path: :func:`kron_sum` builds the
operator of a batch of small Sylvester equations, :func:`kron_solve` solves
them in one LU call and :func:`check_residual` judges them. The modal blocks
of the ellipsoid analysis are such a batch, and :func:`lyap_solve` is one
item; a caller that shifts m and n by s I builds the operator once and adds
``2 s I``. The Riccati solver scales its data by powers of two, seeds from
the Hamiltonian's stable invariant subspace and polishes with Newton steps.
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


def kron_solve(op, rhs) -> np.ndarray:
    """One LU call over the batch, unchecked: ``op^-1 rhs``, ``SingularSylvesterError`` where
    op is singular; defective m or n cost no accuracy. Its caller owes :func:`check_residual`."""
    try:
        return np.linalg.solve(op, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSylvesterError("an eigenvalue of m plus one of n is zero") from exc


def check_residual(m, n, x, c) -> None:
    """Raise ``SingularSylvesterError`` unless every item of the batch (a whole search's solves,
    say) has ``||m X + X n^T + c|| <= DEFAULT_TOL * ((||m|| + ||n||) / 2 ||X|| + ||c||)``
    (Frobenius norms), a backward-error test (Higham, 2002, ch. 16) that a NaN or inf X fails
    without a RuntimeWarning, and a finite one at any scale (1e-300 or 1e300) passes: an item
    whose ratio fails, or whose denominator is outside [1e-140, inf), is taken again over its
    largest entries. A nearly singular operator fails it, and so does a well-conditioned one
    whose LU solve is ruined by pivot growth: the refusal names the residual, not a cause."""
    def fro(y):
        return np.sqrt(np.einsum("...ij,...ij->...", y, y))

    def parts(m, n, x, c):  # the residual's norm and the ratio's denominator
        fro_m = fro(m)  # n is m in every lyap_solve and trace evaluation
        return fro(m @ x + x @ np.swapaxes(n, -1, -2) + c), 0.5 * (
            fro_m + (fro_m if n is m else fro(n))) * fro(x) + fro(c)

    def top(y):  # each item's max-abs entry, 1e-300 at least
        return np.maximum(np.abs(y).max(axis=(-2, -1), keepdims=True), 1e-300)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r, d = parts(m, n, x, c)
        ratio = np.atleast_1d(r / d)
        # squares overflow from about 1e154 (d = inf) and underflow below 1e-154, so the ratio
        # passes only over d in [1e-140, inf); over the other items' max-abs entries (t of m, n;
        # s of X; t s of c) it is the same and finite, and a zero d (X = c = 0) passes: r = 0
        bad = ~((ratio <= DEFAULT_TOL) & (d >= 1e-140) & (d < np.inf))
        if bad.any():
            m, n, x, c = (np.broadcast_to(y, bad.shape + y.shape[-2:])[bad] for y in (m, n, x, c))
            t, s = np.maximum(top(m), top(n)), top(x)
            r, d = parts(m / t, n / t, x / s, c / t / s)
            ratio[bad] = r / np.maximum(d, 1e-300)
    if not (ratio <= DEFAULT_TOL).all():  # NaN fails it too
        raise SingularSylvesterError(
            f"Sylvester relative residual {float(np.max(ratio)):.3e} above {DEFAULT_TOL:g}")


def lyap_solve(m, c) -> np.ndarray:
    """Symmetric solution X of the Lyapunov equation ``m X + X m^T + c = 0``
    for square m and symmetric c, unique when no two eigenvalues of m sum
    to zero (any Hurwitz m qualifies): one item of :func:`kron_solve`,
    refused unless it passes :func:`check_residual`."""
    m = as_matrix(m, "m")
    c = check_symmetric(c, name="c")
    if c.shape != m.shape or m.shape[0] != m.shape[1]:
        raise ValueError(f"m must be square and match c: {m.shape} vs {c.shape}")
    x = kron_solve(kron_sum(m, m), -c.reshape(-1, 1)).reshape(m.shape)
    check_residual(m, m, x, c)
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
    # P(s a, r b, s t q0, s gamma / (t r^2)) = t P(a, b, q0, gamma): solve at s, r, s t = 2^-e_a,
    # 2^-e_b, 2^-e_q, which round max|a|, max|b| (a zero one keeps 1) and max|q0| to 1; ldexp
    # applies each exactly and forms no factor that could over- or underflow
    e_a, e_b, e_q = (int(np.round(np.log2(np.abs(y).max() or 1.0))) for y in (a, b, q0))
    a, b, q0 = np.ldexp(a, -e_a), np.ldexp(b, -e_b), np.ldexp(q0, -e_q)
    with np.errstate(over="ignore"):
        gamma = float(np.ldexp(gamma, 2 * e_b + e_q - 2 * e_a))
    if not 0.0 < gamma < np.inf:  # NaN fails it too
        raise ValueError("gamma must be positive and finite, also at unit scale of a, b and q0")

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

    def ricc_scale(p):  # at least ||q0||, about 1 with the data at unit scale
        return (2.0 * np.linalg.norm(a, "fro") * np.linalg.norm(p, "fro")
                + gamma * np.linalg.norm(p @ b, "fro") ** 2 + np.linalg.norm(q0, "fro"))

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
    return np.ldexp(0.5 * (p + p.T), e_q - e_a)


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
