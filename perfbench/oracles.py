"""Reference computations made apart from ``minellip``, with SciPy.

Every output check of the benchmark compares the program against these
functions or against a property the method must have. Nothing here imports
the package under test.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
from scipy.optimize import minimize_scalar


def reduced_laplacian(adjacency) -> np.ndarray:
    """Follower block of the Laplacian of a leader-rooted adjacency matrix."""
    adj = np.asarray(adjacency, dtype=float)
    lap = np.diag(adj.sum(axis=1)) - adj
    return lap[1:, 1:]


def closed_loop(A, B, K, L_tilde) -> np.ndarray:
    """Stacked error matrix ``I_N (x) A - L_tilde (x) B K``."""
    n_followers = L_tilde.shape[0]
    return np.kron(np.eye(n_followers), A) - np.kron(L_tilde, B @ K)


def channel(E, n_followers: int) -> np.ndarray:
    """Shared disturbance channel ``1_N (x) E``."""
    return np.kron(np.ones((n_followers, 1)), E)


def beta_max(a_cl) -> float:
    """Upper end of the admissible multiplier interval, ``-2 abscissa``."""
    return -2.0 * float(sla.eigvals(a_cl).real.max())


def family_X(a_cl, G, beta: float) -> np.ndarray:
    """Solution of ``(A_cl + beta/2) X + X (A_cl + beta/2)' + G/beta = 0``."""
    shifted = a_cl + 0.5 * beta * np.eye(a_cl.shape[0])
    return sla.solve_continuous_lyapunov(shifted, -G / beta)


def min_trace(a_cl, G) -> tuple[float, float]:
    """``(beta*, tr X(beta*))`` by a bounded scalar minimiser over log beta."""
    top = beta_max(a_cl)
    result = minimize_scalar(
        lambda log_b: float(np.trace(family_X(a_cl, G, float(np.exp(log_b))))),
        bounds=(np.log(top * 1e-6), np.log(top * (1.0 - 1e-6))),
        method="bounded",
        options={"xatol": 1e-12, "maxiter": 500},
    )
    beta = float(np.exp(result.x))
    return beta, float(np.trace(family_X(a_cl, G, beta)))


def are_gain(A, B, L_tilde, gamma: float, q0=None) -> np.ndarray:
    """Consensus gain ``K = gamma / (2 lambda_min) B' P`` with ``P`` solving
    ``A'P + PA - gamma P B B' P + q0 = 0``."""
    q0 = np.eye(A.shape[0]) if q0 is None else q0
    P = sla.solve_continuous_are(A, B, q0, np.eye(B.shape[1]) / gamma)
    lam_min = float(sla.eigvalsh(L_tilde)[0])
    return (gamma / (2.0 * lam_min)) * (B.T @ P)


def input_bound_margin(L_tilde, K, P, eta: float) -> float:
    """Smallest eigenvalue of ``eta^2 P - R'R`` with ``R = L_tilde (x) K``,
    relative to ``1 + max |eigenvalue|``; the bound holds when it is
    ``>= -1e-7``."""
    r = np.kron(L_tilde, K)
    w = sla.eigvalsh(eta**2 * P - r.T @ r)
    return float(w[0]) / (1.0 + float(np.abs(w).max()))


def block_max_eig(a_cl, ones_e, Q, P, beta: float) -> tuple[float, float]:
    """Largest eigenvalue and 2-norm of the invariance block matrix."""
    top = P @ a_cl + a_cl.T @ P + beta * P
    off = P @ ones_e
    block = np.block([[top, off], [off.T, -beta * Q]])
    w = sla.eigvalsh(0.5 * (block + block.T))
    return float(w[-1]), float(np.abs(w).max())


def steady_amplitude(a_cl, ones_e, amplitudes, omega: float) -> np.ndarray:
    """Per-coordinate steady-state amplitude of the error under the shared
    disturbance ``amplitudes * sin(omega t)``:
    ``|(j omega I - A_cl)^-1 (1 (x) E) a|``."""
    n = a_cl.shape[0]
    response = np.linalg.solve(1j * omega * np.eye(n) - a_cl, ones_e @ amplitudes)
    return np.abs(response)
