"""Reference implementations that the tests compare the package against.

They restate the protocol agent by agent, the Laplacian spectrum relation
and two small matrix helpers; the package itself needs none of them.
"""

import numpy as np

from minellip import matkit
from minellip.errors import DimensionMismatchError
from minellip.protocol import check_gain, closed_loop


def kron(a, b) -> np.ndarray:
    """Kronecker product of two real matrices."""
    return np.kron(matkit.as_matrix(a, "a"), matkit.as_matrix(b, "b"))


def is_psd(s, tol: float = matkit.DEFAULT_TOL) -> bool:
    """True when the minimum eigenvalue of symmetric ``s`` is >= -tol * scale."""
    w = matkit.eig_sym(s)
    scale = 1.0 + float(np.abs(w).max())
    return bool(w.min() >= -tol * scale)


def spectrum_relation_check(lp, tol: float | None = None) -> bool:
    """True when eig(L) equals eig(L_tilde) plus one zero, as multisets."""
    if tol is None:
        tol = 1e-8 * max(1.0, float(np.linalg.norm(lp.L, "fro")))
    w_full = np.sort_complex(matkit.spectrum(lp.L).eigenvalues)
    w_reduced = matkit.spectrum(lp.L_tilde).eigenvalues
    expected = np.sort_complex(np.append(w_reduced, 0.0))
    if w_full.shape != expected.shape:
        return False
    return bool(np.all(np.abs(w_full - expected) <= tol))


def control_inputs(plant, topology, k, states, u0) -> np.ndarray:
    """Per-follower protocol inputs from absolute states.

    ``states`` stacks the leader state (row 0) and the N follower states;
    row i of the result is ``K sum_j c_ij (sigma_j - sigma_i) + u0``.
    """
    k = check_gain(plant, k)
    n_followers = topology.follower_count
    states = np.asarray(states, dtype=float)
    if states.shape != (n_followers + 1, plant.n):
        raise DimensionMismatchError(
            f"states must be {(n_followers + 1, plant.n)}, got {states.shape}"
        )
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    if u0.shape != (plant.m,):
        raise DimensionMismatchError(f"u0 must have length {plant.m}, got {u0.shape}")
    weights = topology.adjacency
    out = np.empty((n_followers, plant.m))
    for i in range(1, n_followers + 1):
        consensus_term = (weights[i][:, None] * (states - states[i])).sum(axis=0)
        out[i - 1] = k @ consensus_term + u0
    return out


def agent_rhs(plant, topology, k, states, u0, omega) -> np.ndarray:
    """Time derivatives of the absolute agent states, agent by agent.

    Row 0 is the leader, ``sigma0' = A sigma0 + B u0``; row i is follower i,
    ``sigma_i' = A sigma_i + B u_i + E omega`` with ``u_i`` from
    :func:`control_inputs`. Neither the reduced Laplacian nor the stacked
    closed loop is formed.
    """
    states = np.asarray(states, dtype=float)
    u = control_inputs(plant, topology, k, states, u0)
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    out = states @ plant.A.T
    out[0] += plant.B @ np.atleast_1d(np.asarray(u0, dtype=float))
    out[1:] += u @ plant.B.T + plant.E @ omega
    return out


def stacked_control(lp, k, e, u0) -> np.ndarray:
    """Protocol inputs expressed through the stacked error:
    ``u = -(L_tilde (x) K) e + 1_N (x) u0``."""
    k = matkit.as_matrix(k, "K")
    e = np.asarray(e, dtype=float).ravel()
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    n_followers = lp.L_tilde.shape[0]
    return -np.kron(lp.L_tilde, k) @ e + np.tile(u0, n_followers)


def error_rhs(plant, lp, k, e, omega) -> np.ndarray:
    """Right-hand side of the stacked error dynamics,
    ``(I_N (x) A - L_tilde (x) B K) e + 1_N (x) E omega``."""
    e = np.asarray(e, dtype=float).ravel()
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    n_followers = lp.L_tilde.shape[0]
    if e.shape != (n_followers * plant.n,):
        raise DimensionMismatchError(f"e must have length {n_followers * plant.n}, got {e.shape}")
    if omega.shape != (plant.p,):
        raise DimensionMismatchError(f"omega must have length {plant.p}, got {omega.shape}")
    return closed_loop(plant, lp, k) @ e + np.tile(plant.E @ omega, n_followers)
