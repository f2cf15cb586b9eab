"""Reference implementations that the tests compare the package against.

They restate the protocol agent by agent, the Laplacian spectrum relation,
stage-by-stage RK4, the affine RK4 recurrence step by step, the worst-case
disturbance, the disturbance Gramian, the stacked equation of the ellipsoid
family, plain golden-section search in log beta, four small matrix helpers
and the gamma sweep as a loop of public one-gain calls; the package itself
needs none of them. :func:`family_solution`, the ellipsoid family at any
beta, is the exception: it wraps the package's own modal solve, which the
package itself runs only at beta*. So is :func:`fused_worst_case_rows`, the fused
worst-case step with its floor test on the exact ``e.e`` at every step: it runs the
package's own step map and law, so that the simulation can be compared to it bit for bit.
"""

import numpy as np

from minellip import check_input_bound, design_gain, ellipsoid, matkit, minimize_trace
from minellip.errors import DimensionMismatchError
from minellip.graph import build_laplacian
from minellip.protocol import check_gain, closed_loop, disturbance_channel
from minellip.sim import DisturbanceSpec, _rk4_step_map


def kron(a, b) -> np.ndarray:
    """Kronecker product of two real matrices."""
    return np.kron(matkit.as_matrix(a, "a"), matkit.as_matrix(b, "b"))


def eig_sym(s) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending; ``NotSymmetricError`` unless
    ``s`` passes ``matkit.check_symmetric``."""
    return np.linalg.eigvalsh(matkit.check_symmetric(s))


def is_pd(s, tol: float = matkit.DEFAULT_TOL) -> bool:
    """True when the minimum eigenvalue of symmetric ``s`` is > tol * scale."""
    w = eig_sym(s)
    scale = 1.0 + float(np.abs(w).max())
    return bool(w.min() > tol * scale)


def is_psd(s, tol: float = matkit.DEFAULT_TOL) -> bool:
    """True when the minimum eigenvalue of symmetric ``s`` is >= -tol * scale."""
    w = eig_sym(s)
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


def worst_case_reference(P, plant) -> DisturbanceSpec:
    """The worst-case disturbance from its closed form, ``omega = Q^{-1} v / sqrt(v^T Q^{-1} v)``
    with ``v = (1_N (x) E)^T P e`` (channel by ``np.kron``, ``Q^{-1} v`` by ``np.linalg.solve``),
    holding the previous sample where v = 0 and ``e_1 / sqrt(Q_11)`` before the first.
    It shares no code with the package's law, so a whitening slip there cannot hide."""
    P = np.asarray(P, dtype=float)
    ones_e = np.kron(np.ones((len(P) // plant.n, 1)), plant.E)
    held = np.eye(plant.p)[0] / np.sqrt(plant.Q[0, 0])

    def sampler(t, e):
        nonlocal held
        v = ones_e.T @ P @ e
        if np.any(v != 0.0):
            y = np.linalg.solve(plant.Q, v)
            held = y / np.sqrt(v @ y)
        return held

    return DisturbanceSpec("worst_case", sampler)


def disturbance_gramian(plant, n_followers) -> np.ndarray:
    """``G = (1_N (x) E) Q^{-1} (1_N (x) E)^T``, with the channel built by
    ``np.kron`` rather than by the package."""
    ones_e = np.kron(np.ones((n_followers, 1)), plant.E)
    g = ones_e @ np.linalg.solve(plant.Q, ones_e.T)
    return 0.5 * (g + g.T)


def family_residual(plant, lp, k, x, beta, reg=0.0) -> float:
    """Relative residual of X in the stacked family equation
    ``S X + X S^T + (G + reg I) / beta = 0``, ``S = A_cl + beta/2 I`` and G of
    :func:`disturbance_gramian`, by the rule of ``matkit.check_residual`` with
    m = n = S: ``||residual|| / (||S|| ||X|| + ||c||)`` in Frobenius norms.
    A_cl and G are built here with ``np.kron`` from the raw matrices, not by
    the package."""
    n_followers = lp.L_tilde.shape[0]
    s = (np.kron(np.eye(n_followers), plant.A) - np.kron(lp.L_tilde, plant.B @ k)
         + 0.5 * beta * np.eye(n_followers * plant.n))
    c = (disturbance_gramian(plant, n_followers) + reg * np.eye(len(s))) / beta
    return float(np.linalg.norm(s @ x + x @ s.T + c)
                 / (np.linalg.norm(s) * np.linalg.norm(x) + np.linalg.norm(c)))


def widening(plant, lp) -> float:
    """``reg = 1e-8 N lambda_max(W)``, the widening of an X whose Gramian is
    singular (``||U^T 1_N||^2 = N``)."""
    w = plant.E @ np.linalg.solve(plant.Q, plant.E.T)
    return 1e-8 * lp.L_tilde.shape[0] * float(np.linalg.eigvalsh(w)[-1])


def solves_family(plant, lp, k, x, beta) -> bool:
    """True when X solves the stacked family equation, exactly or widened by
    :func:`widening`, within ``matkit.DEFAULT_TOL``."""
    return min(family_residual(plant, lp, k, x, beta, reg)
               for reg in (0.0, widening(plant, lp))) <= matkit.DEFAULT_TOL


def family_solution(plant, lp, k, beta) -> np.ndarray:
    """The stacked solution X of the equality family at multiplier ``beta``,

        (A_cl + beta/2 I) X + X (A_cl + beta/2 I)^T
            + (1/beta) (1_N (x) E) Q^{-1} (1_N (x) E)^T = 0,

    by the package's modal solve (``NotHurwitzError`` unless A_cl is Hurwitz);
    ``ValueError`` unless ``0 < beta < -2 * abscissa(A_cl)``."""
    modal, w, beta_max = ellipsoid._family_setup(plant, lp, k)
    if not 0.0 < beta < beta_max:
        raise ValueError(f"beta must lie in (0, {beta_max:.6g}), got {beta}")
    blocks = modal.blocks[None]
    y = ellipsoid._family_at(blocks, modal.c, w, np.array([beta]), matkit.kron_sum(blocks, blocks))
    return ellipsoid._stacked(modal.U, y)[0]


def gamma_sweep(plant, lp, grid) -> list:
    """``(K, minimize_trace result, input verdict)`` for each gamma of ``grid``, by the public
    one-gain calls: the per-gamma loop whose searches ``optimize_gain`` runs stacked."""
    sweep = []
    for gamma in grid:
        k = design_gain(plant, lp, gamma)
        result = minimize_trace(plant, lp, k)
        sweep.append((k, result, check_input_bound(lp, k, result.P_star, plant.eta)))
    return sweep


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


def rk4_stage_loop(plant, topology, k, u0, x0, dist, t_final, dt):
    """Stage-by-stage RK4 of ``[sigma0; e]`` under ``diag(A, A_cl)``.

    Four products with the stacked system matrix per step; a sampler is drawn
    at ``t``, ``t + dt/2`` and ``t + dt`` from the error at the start of the
    step, or once at ``t`` and held when ``dist.kind == "worst_case"``.
    Returns the leader states, the errors and the samples drawn at the grid
    times ``j dt``.
    """
    k = check_gain(plant, k)
    n, p_dim = plant.n, plant.p
    n_followers = topology.follower_count
    lp = build_laplacian(topology)
    dim = (n_followers + 1) * n
    system = np.zeros((dim, dim))
    system[:n, :n] = plant.A
    system[n:, n:] = closed_loop(plant, lp, k)
    dist_map = np.zeros((dim, p_dim))
    dist_map[n:] = disturbance_channel(plant, n_followers)
    bu = np.zeros(dim)
    bu[:n] = plant.B @ np.atleast_1d(np.asarray(u0, dtype=float))

    def draw(t, e):
        w = np.asarray(dist.sampler(t, e), dtype=float).ravel()
        assert w.shape == (p_dim,) and float(w @ plant.Q @ w) <= 1.0 + 1e-9
        return w

    n_steps = int(np.floor(t_final / dt + 1e-9))
    states = np.empty((n_steps + 1, dim))
    samples = np.empty((n_steps + 1, p_dim))
    x0 = np.asarray(x0, dtype=float).reshape(n_followers + 1, n)
    s = np.concatenate([x0[0], (x0[1:] - x0[0]).ravel()])
    states[0] = s
    half = 0.5 * dt
    for step in range(n_steps):
        t = step * dt
        w_a = draw(t, s[n:])
        if dist.kind == "worst_case":
            w_b = w_c = w_a
        else:
            w_b = draw(t + half, s[n:])
            w_c = draw(t + dt, s[n:])
        samples[step] = w_a
        d_a = bu + dist_map @ w_a
        d_b = bu + dist_map @ w_b
        d_c = bu + dist_map @ w_c
        k1 = system @ s + d_a
        k2 = system @ (s + half * k1) + d_b
        k3 = system @ (s + half * k2) + d_b
        k4 = system @ (s + dt * k3) + d_c
        s = s + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        states[step + 1] = s
    samples[n_steps] = draw(n_steps * dt, s[n:])
    return states[:, :n], states[:, n:], samples


def fused_worst_case_rows(plant, topology, k, x0, law, t_final, dt, P):
    """The fused worst-case step with the law's floor test on the exact ``e.e`` at every step:
    rows ``[e_k, z_k]``, ``z_k`` made the sample u in place, by ``z / ||z||`` while ``z.z`` is
    a normal double above ``floor^2 e.e`` and else by ``law.unit`` (checked against the bound),
    then ``S [e_k; u_k]`` is row k+1, S formed as ``simulate`` forms it. Returns the errors,
    the samples and ``V = e^T P e``, to be compared bit for bit."""
    k = check_gain(plant, k)
    n_followers, p_dim = topology.follower_count, plant.p
    nn = n_followers * plant.n
    phi, g = _rk4_step_map(closed_loop(plant, build_laplacian(topology), k),
                           disturbance_channel(plant, n_followers), dt)
    gu = g.reshape(-1, 3, p_dim).sum(axis=1) @ law.unwhiten
    s = np.block([[phi, gu], [law.Z @ phi, law.Z @ gu]])
    rows = np.empty((int(np.floor(t_final / dt + 1e-9)) + 2, nn + p_dim))
    x0 = np.asarray(x0, dtype=float).reshape(n_followers + 1, plant.n)
    e0 = (x0[1:] - x0[0]).ravel()
    rows[0] = np.append(e0, law.Z.dot(e0))
    held = np.eye(p_dim)[0]
    for e, z, row, row_next in zip(rows[:, :nn], rows[:, nn:], rows, rows[1:]):
        zz = z.dot(z)
        if np.finfo(float).tiny <= zz < np.inf and zz > law.floor**2 * e.dot(e):
            z /= np.sqrt(zz)
        else:
            z[:] = law.unit(e, held)
            assert z.dot(z) <= 1.0 + 1e-9
        s.dot(row, out=row_next)
        held = z
    errors = rows[:-1, :nn]
    return errors, rows[:-1, nn:] @ law.unwhiten.T, np.einsum("ti,ti->t", errors @ P, errors)


def affine_loop(phi, e0, f) -> np.ndarray:
    """Rows ``e_0 .. e_T`` of ``e_{k+1} = Phi e_k + f_k``, one step at a time."""
    out = np.empty((len(f) + 1, len(e0)))
    out[0] = e0
    for k, f_k in enumerate(f):
        out[k + 1] = phi @ out[k] + f_k
    return out


def golden_log_min(f, beta_max, rtol) -> float:
    """Golden-section search for the minimizer of a unimodal ``f`` in log beta on
    ``[1e-6, 1 - 1e-6] * beta_max``, to bracket width ``rtol``: the midpoint of the
    final bracket, after ``ceil(log_phi(ln((1 - 1e-6) / 1e-6) / rtol)) + 2`` evaluations."""
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = np.log(1e-6 * beta_max), np.log((1.0 - 1e-6) * beta_max)
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = f(np.exp(c)), f(np.exp(d))
    while b - a > rtol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = f(np.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = f(np.exp(d))
    return float(np.exp(0.5 * (a + b)))
