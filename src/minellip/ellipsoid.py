"""Invariant-ellipsoid analysis of the stacked error system.

The set ``{e : e^T P e <= 1}`` with symmetric positive definite P is
invariant for the disturbed error dynamics exactly when some S-procedure
multiplier beta > 0 makes the block matrix

    [ P A_cl + A_cl^T P + beta P    P (1_N (x) E) ]
    [ (1_N (x) E)^T P               -beta Q       ]

negative semidefinite. This module implements that test, the search over
beta for a given P, the one-parameter equality family along which the trace
of ``X = P^{-1}`` (the sum of squared ellipsoid semiaxes) is minimized, the
input-norm bound, and the worst-case admissible disturbance direction.
The family is solved block by block in the modal coordinates of
:func:`~minellip.protocol.modal_form`: O(N n^6) per trace evaluation and
O(N^2 n^6 + (nN)^3) once for X*, where the stacked equation costs O((nN)^6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matkit
from .errors import (
    BetaOutOfRangeError,
    DegenerateDirectionError,
    DimensionMismatchError,
    NotHurwitzError,
)
from .graph import LaplacianPair
from .protocol import ModalForm, PlantModel, closed_loop, disturbance_channel, modal_form

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class InvarianceCertificate:
    """Outcome of the block-matrix invariance test at a fixed multiplier."""

    beta: float
    max_eig: float
    feasible: bool


@dataclass(frozen=True, eq=False)
class MinimizationResult:
    """Minimal-trace member of the one-parameter ellipsoid family."""

    beta_star: float
    X_star: np.ndarray
    P_star: np.ndarray
    trace_value: float
    beta_max: float


def invariance_block(plant: PlantModel, lp: LaplacianPair, k, P, beta: float) -> np.ndarray:
    """Symmetric block matrix of the invariance test; P must pass ``check_pd`` at order nN."""
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    P = matkit.check_pd(P, lp.L_tilde.shape[0] * plant.n, "P")[0]
    a_cl = closed_loop(plant, lp, k)
    ones_e = disturbance_channel(plant, lp.L_tilde.shape[0])
    top = P @ a_cl + a_cl.T @ P + beta * P
    off = P @ ones_e
    return np.block([[top, off], [off.T, -beta * plant.Q]])


def check_invariant(
    plant: PlantModel, lp: LaplacianPair, k, P, beta: float
) -> InvarianceCertificate:
    """Invariance test: feasible iff the block matrix is <= 0 up to
    ``1e-7 * (1 + ||block||_2)``; entries of P can reach 1e3 and beyond on
    realistic data, so the test must be scale-aware.
    """
    w = np.linalg.eigvalsh(invariance_block(plant, lp, k, P, beta))
    max_eig = float(w[-1])
    return InvarianceCertificate(beta=float(beta), max_eig=max_eig,
                                 feasible=max_eig <= 1e-7 * (1.0 + float(np.abs(w).max())))


def _log_golden_min(f, beta_max: float, rtol: float) -> float:
    """Minimizer of a convex ``f`` on ``(0, beta_max)``: golden-section search
    in log beta on ``[1e-6, 1 - 1e-6] * beta_max`` to relative width ``rtol``.
    Convex in beta is unimodal in log beta, so no pre-scan is needed. The trace
    ``tr X(b) = int_0^inf (e^{bt}/b) tr(e^{A_cl t} G e^{A_cl^T t}) dt`` is strictly
    convex, as ``d^2/db^2 (e^{bt}/b) = e^{bt} ((bt - 1)^2 + 1) / b^3 > 0``, and
    ``M0 + b P + P G P / b`` is matrix-convex, so ``find_beta``'s lambda_max is
    convex (Boyd et al., *LMIs in System and Control Theory*, SIAM 1994)."""
    a, b = np.log(1e-6 * beta_max), np.log((1.0 - 1e-6) * beta_max)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(float(np.exp(c))), f(float(np.exp(d)))
    while (b - a) > rtol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(float(np.exp(c)))
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(float(np.exp(d)))
    return float(np.exp(0.5 * (a + b)))


def find_beta(plant: PlantModel, lp: LaplacianPair, k, P) -> float | None:
    """Search for a multiplier beta > 0 certifying invariance of a given P.

    Minimizes the largest eigenvalue of the Schur complement ``M0 + beta P + (1/beta) P G P``,
    ``G = (1_N (x) E) Q^{-1} (1_N (x) E)^T``, convex in beta, so the feasible set is an
    interval. A feasible beta makes ``P (A_cl + beta/2) + (.)^T <= 0`` with P > 0, so it lies
    in ``(0, beta_max]``, ``beta_max = -2 abscissa(A_cl)``. The search is ``minimize_trace``'s,
    to relative width 1e-9; a P whose feasible multipliers all lie below its bracket's
    ``1e-6 beta_max`` is reported as having none. Returns a feasible beta, or None when no
    multiplier is found (at once when A_cl is not Hurwitz); P must pass ``check_pd`` at order nN.
    """
    P = matkit.check_pd(P, lp.L_tilde.shape[0] * plant.n, "P")[0]
    abscissa = modal_form(plant, lp, k).spectrum.spectral_abscissa
    if abscissa >= 0.0:
        return None
    a_cl = closed_loop(plant, lp, k)
    m0 = P @ a_cl + a_cl.T @ P
    h = P @ disturbance_channel(plant, lp.L_tilde.shape[0])
    pgp = h @ np.linalg.solve(plant.Q, h.T)
    pgp = 0.5 * (pgp + pgp.T)

    def schur_max_eig(beta: float) -> float:
        return float(np.linalg.eigvalsh(m0 + beta * P + pgp / beta)[-1])

    beta = _log_golden_min(schur_max_eig, -2.0 * abscissa, 1e-9)
    cert = check_invariant(plant, lp, k, P, beta)
    return beta if cert.feasible else None


def _family_setup(plant: PlantModel, lp: LaplacianPair, k):
    """Modal form, ``W = E Q^{-1} E^T`` and ``beta_max = -2 abscissa(A_cl)``;
    raises ``NotHurwitzError`` unless A_cl is Hurwitz."""
    modal = modal_form(plant, lp, k)
    abscissa = modal.spectrum.spectral_abscissa
    if abscissa >= 0.0:
        raise NotHurwitzError(f"closed loop has spectral abscissa {abscissa:.3e} >= 0")
    w = plant.E @ np.linalg.solve(plant.Q, plant.E.T)
    return modal, 0.5 * (w + w.T), -2.0 * abscissa


def _diagonal_blocks(modal: ModalForm, w: np.ndarray, beta: float, reg: float = 0.0):
    """The N diagonal blocks of X(beta) in modal coordinates, one batched solve
    of ``(A_i + beta/2) X_ii + X_ii (A_i + beta/2)^T + (c_i^2 W + reg I) / beta = 0``."""
    eye = np.eye(w.shape[0])
    shifted = modal.blocks + 0.5 * beta * eye
    rhs = (modal.c[:, None, None] ** 2 * w + reg * eye) / beta
    return matkit.sylvester_solve(shifted, shifted, rhs)


def _family_at(modal: ModalForm, w: np.ndarray, beta: float) -> np.ndarray:
    """X(beta) in modal coordinates: the nN x nN matrix of the N^2 blocks ``X_ij`` of
    ``(A_i + beta/2) X_ij + X_ij (A_j + beta/2)^T + c_i c_j W / beta = 0``, solved in one
    batched call; :func:`_stacked` maps it to the stacked X."""
    n_followers, n = modal.blocks.shape[:2]
    shifted = modal.blocks + 0.5 * beta * np.eye(n)
    y = matkit.sylvester_solve(shifted[:, None], shifted[None],
                               np.multiply.outer(modal.c, modal.c)[:, :, None, None] * w / beta)
    y = y.transpose(0, 2, 1, 3)
    ev = np.linalg.eigvalsh(y.reshape(n_followers * n, -1))
    if ev.min() <= 1e-10 * max(ev.max(), 1e-300):
        # Error directions unreachable from the shared disturbance make the
        # Gramian singular; a tiny isotropic widening keeps X invertible and
        # the resulting certificate strictly feasible. U is orthogonal, so
        # the widening lands on the diagonal blocks only.
        reg = 1e-8 * max(float(modal.c @ modal.c) * float(np.linalg.eigvalsh(w)[-1]), 1e-30)
        modes = np.arange(n_followers)
        y[modes, :, modes] = _diagonal_blocks(modal, w, beta, reg)
    return y.reshape(n_followers * n, -1)


def _stacked(u: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``(U (x) I_n) Y (U (x) I_n)^T``, symmetrized, for a Y of order nN in modal
    coordinates: two products by U over the follower axes, O(n^2 N^3), never
    forming ``U (x) I_n``."""
    x = (u @ y.reshape(len(u), -1)).reshape(y.shape)  # (U (x) I_n) Y
    x = (u @ x.T.reshape(len(u), -1)).reshape(y.shape)  # (U (x) I_n) x^T = X^T
    return 0.5 * (x + x.T)


def family_solution(plant: PlantModel, lp: LaplacianPair, k, beta: float) -> np.ndarray:
    """Unique solution X of the equality family at multiplier ``beta``:

        (A_cl + beta/2 I) X + X (A_cl + beta/2 I)^T
            + (1/beta) (1_N (x) E) Q^{-1} (1_N (x) E)^T = 0.

    Requires A_cl Hurwitz and ``0 < beta < -2 * abscissa(A_cl)``.
    ``P = X^{-1}`` then satisfies the invariance block test with equality of
    its Schur complement. Solved as N^2 modal Sylvester blocks of order n
    in one batched call: O(N^2 n^6 + (nN)^3).
    """
    modal, w, beta_max = _family_setup(plant, lp, k)
    if not 0.0 < beta < beta_max:
        raise BetaOutOfRangeError(f"beta must lie in (0, {beta_max:.6g}), got {beta}")
    return _stacked(modal.U, _family_at(modal, w, beta))


def minimize_trace(plant: PlantModel, lp: LaplacianPair, k) -> MinimizationResult:
    """Minimize ``tr(X)`` (sum of squared semiaxes of the ellipsoid of
    ``P = X^{-1}``) over the one-parameter equality family.

    Golden-section search in log beta narrows beta* to relative width 1e-8; an
    evaluation solves only the N modal diagonal blocks, ``tr X = sum_i tr X_ii``,
    O(N n^6), and X* is assembled once, at beta*.
    """
    modal, w, beta_max = _family_setup(plant, lp, k)
    beta_star = _log_golden_min(
        lambda beta: float(np.einsum("kii->", _diagonal_blocks(modal, w, beta))), beta_max, 1e-8
    )
    y = _family_at(modal, w, beta_star)
    x_star = _stacked(modal.U, y)
    # P is inverted before the rotation, where unreachable modes stay
    # decoupled, so an ill-conditioned X costs P no accuracy
    p_star = _stacked(modal.U, np.linalg.inv(0.5 * (y + y.T)))
    return MinimizationResult(
        beta_star=beta_star,
        X_star=x_star,
        P_star=p_star,
        trace_value=float(np.trace(x_star)),
        beta_max=float(beta_max),
    )


def check_input_bound(lp: LaplacianPair, k, P, eta: float) -> bool:
    """Input-norm certificate: the peak ``max_{e^T P e <= 1} ||R e||`` with
    ``R = L_tilde (x) K`` is at most eta, tested as ``lambda_max(R P^{-1} R^T)
    <= eta^2 (1 + 1e-7)`` through the Cholesky factor ``P = C C^T``. The margin
    is relative to eta^2, so the largest eigenvalues of an ill-conditioned P
    cannot loosen it. P must pass :func:`~minellip.matkit.check_pd`, which yields C."""
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    r = np.kron(lp.L_tilde, matkit.as_matrix(k, "K"))
    z = np.linalg.solve(matkit.check_pd(P, r.shape[1], "P")[1], r.T)
    return bool(np.linalg.eigvalsh(z.T @ z)[-1] <= eta**2 * (1.0 + 1e-7))


def worst_case_law(P, plant: PlantModel):
    """The map ``e -> omega*`` to the admissible disturbance that maximizes
    the growth rate of ``e^T P e``, for a P of order nN:

        omega* = Q^{-1} (1_N (x) E)^T P e / || Q^{-1/2} (1_N (x) E)^T P e ||,

    with ``omega*^T Q omega* = 1``, or None where ``||(1_N (x) E)^T P e|| <=
    1e-12 (1 + ||P||_F ||e||)``. Its operands are built once, so a simulation
    can call it every step. N is P's order over n and P must pass ``check_pd``;
    ``DimensionMismatchError`` when n does not divide that order or e misses it."""
    n_followers, rest = divmod(len(P), plant.n)
    if rest:
        raise DimensionMismatchError(f"P's order {len(P)} is not a multiple of n={plant.n}")
    P = matkit.check_pd(P, n_followers * plant.n, "P")[0]
    channel = disturbance_channel(plant, n_followers).T @ P
    q_inv = np.linalg.inv(plant.Q)
    p_scale = float(np.linalg.norm(P, "fro"))

    def law(e: np.ndarray) -> np.ndarray | None:
        if e.shape != P.shape[:1]:
            raise DimensionMismatchError(f"error shape {e.shape} does not match P {P.shape}")
        v = channel.dot(e)
        if math.sqrt(v.dot(v)) <= 1e-12 * (1.0 + p_scale * math.sqrt(e.dot(e))):
            return None
        y = q_inv.dot(v)
        return y / math.sqrt(v.dot(y))

    return law


def worst_disturbance(P, plant: PlantModel, e) -> np.ndarray:
    """:func:`worst_case_law` at ``e``; ``DegenerateDirectionError`` where the
    direction degenerates."""
    omega = worst_case_law(P, plant)(np.asarray(e, dtype=float).ravel())
    if omega is None:
        raise DegenerateDirectionError("P e is orthogonal to the disturbance channel")
    return omega
