"""Fixed-step simulation of the perturbed multi-agent system.

The leader ``sigma0' = A sigma0 + B u0`` and the follower-minus-leader error
``e' = A_cl e + (1_N (x) E) omega``, the error system the ellipsoid
certificates are stated for, are integrated separately with classical RK4;
follower states ``e + 1_N (x) sigma0`` are formed on read. With the forcing
held at each stage, one RK4 step of ``s' = M s + D w`` is exactly the affine
map ``s+ = Phi s + G_a w_a + G_b w_b + G_c w_c``, ``Phi = p(hM)`` the RK4
stability polynomial (Hairer, Norsett & Wanner, *Solving ODEs I*), built once
per run. Each kind of source has one stepping path. ``none`` and ``sinusoid``
disturbances do not read the error and are sampled at every stage time in one
call per run, so their T steps ``e+ = Phi e + f`` are solved in chunks of
``ceil(sqrt T)`` steps, each product covering all chunks. The worst-case
(state-feedback) disturbance is drawn by its law once per step from the
current error, held across its stages (a piecewise-constant realization that
keeps the integrated vector field smooth within each step) and fused into the
step, one product per step on rows ``[e, z]``: the law's whitened readout
``z = Z e`` becomes the sample u in place, and ``S = [[Phi, G L^-T], [Z Phi,
Z G L^-T]]`` maps ``[e, u]`` to the next ``[e, z]``. Custom samplers are drawn
at each stage. Their samples, and worst-case ones off the fast path z / ||z||,
are checked against the Q bound once, online, before use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ellipsoid import WorstCaseLaw, worst_case_law
from .errors import (
    DimensionMismatchError,
    DisturbanceBoundViolatedError,
    MissingEllipsoidError,
    UnstableStepError,
)
from .graph import Topology, build_laplacian
from .matkit import check_pd
from .protocol import PlantModel, check_gain, closed_loop, disturbance_channel, modal_form

#: Slack accepted when validating disturbance samples against the Q bound.
BOUND_SLACK = 1e-9
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class DisturbanceSpec:
    """A disturbance source: kind tag plus a sampler ``(t, e) -> omega``, or a law.

    The kind sets how the simulator draws (see the module docstring); the
    ``none`` and ``sinusoid`` samplers take an array of times and return one
    row per time. A ``worst_case`` source is stepped by its ``law``, not by a
    sampler. Every sample is checked against the quadratic bound.
    """

    kind: str
    sampler: Callable[[float, np.ndarray], np.ndarray] | None
    law: WorstCaseLaw | None = None


def make_disturbance(
    kind: str,
    plant: PlantModel,
    P=None,
    amplitudes=None,
    angular_frequency: float | None = None,
    sample: Callable[[float, np.ndarray], np.ndarray] | None = None,
) -> DisturbanceSpec:
    """Build one of the supported disturbance sources.

    kind
        ``"none"``: identically zero.
        ``"sinusoid"``: ``amplitudes * sin(angular_frequency * t)``; the
        amplitude vector must satisfy the Q bound, which is checked here
        since the supremum over time is attained at full swing.
        ``"worst_case"``: :func:`~minellip.ellipsoid.worst_case_law` at the
        current error (``P`` must pass that law's checks), carried as ``law`` with no
        sampler; the simulation holds the previous sample, or ``e_1 / sqrt(Q_11)`` at
        start, whenever the direction degenerates.
        ``"custom"``: user sampler, validated against the bound online.
    """
    p_dim = plant.p
    if kind == "none":
        return DisturbanceSpec(kind, lambda t, e: np.zeros(np.shape(t) + (p_dim,)))
    if kind == "sinusoid":
        if amplitudes is None or angular_frequency is None:
            raise ValueError("sinusoid needs amplitudes and angular_frequency")
        amps = np.asarray(amplitudes, dtype=float).ravel()
        if amps.shape != (p_dim,):
            raise DimensionMismatchError(f"amplitudes must have length {p_dim}")
        peak = float(amps @ plant.Q @ amps) if np.isfinite(amps).all() else np.inf
        if not peak <= 1.0 + BOUND_SLACK:
            raise DisturbanceBoundViolatedError(
                f"sinusoid peak violates the bound: amplitudes give {peak:.6g} > 1"
            )
        w = float(angular_frequency)
        if not np.isfinite(w):
            raise ValueError("sinusoid needs a finite angular_frequency")
        return DisturbanceSpec(kind, lambda t, e: np.multiply.outer(np.sin(w * t), amps))
    if kind == "worst_case":
        if P is None:
            raise MissingEllipsoidError("worst_case disturbance needs an ellipsoid matrix P")
        return DisturbanceSpec(kind, None, worst_case_law(P, plant))
    if kind == "custom":
        if sample is None:
            raise ValueError("custom disturbance needs a sample function")
        return DisturbanceSpec(kind, sample)
    raise ValueError(f"unknown disturbance kind: {kind!r}")


@dataclass(eq=False)
class Trajectory:
    """Uniformly sampled states, errors, controls and disturbances."""

    times: np.ndarray
    leader_states: np.ndarray
    errors: np.ndarray
    controls: np.ndarray
    disturbances: np.ndarray
    V: np.ndarray | None = None

    @property
    def follower_states(self) -> np.ndarray:
        """``e + 1_N (x) sigma0``, one row per time, formed on each read rather than stored."""
        t, n = self.leader_states.shape
        return (self.errors.reshape(t, -1, n) + self.leader_states[:, None]).reshape(t, -1)


@dataclass(frozen=True, eq=False)
class ErrorMetrics:
    """Per-agent, per-coordinate steady-state error peaks.

    ``max_abs_error_per_agent[i, j]`` is the maximum of ``|e_{i+1,j}(t)|``
    over the steady window; ``entry_time`` is the first time with
    ``e^T P e <= 1`` when the trajectory recorded V.
    """

    max_abs_error_per_agent: np.ndarray
    steady_window: tuple[float, float]
    entry_time: float | None


def simulate(
    plant: PlantModel,
    topology: Topology,
    k,
    u0,
    x0,
    dist: DisturbanceSpec,
    t_final: float,
    dt: float,
    P=None,
) -> Trajectory:
    """Integrate the leader and the error closed loop with the affine RK4 step map.

    Parameters
    ----------
    u0 : vector of length m
        Known constant leader input, fed forward to every follower; finite.
    x0 : array (N+1, n)
        Initial states, leader first; finite.
    dist : DisturbanceSpec
        Shared follower disturbance: ``none``/``sinusoid`` sampled once per run and stepped in
        chunks, ``worst_case`` by its ``law`` once per step (``MissingEllipsoidError`` without
        one), others per stage. Every sample must satisfy ``omega^T Q omega <= 1``; a ``custom``
        one, or a ``worst_case`` one off the fast path ``z / ||z||``, is checked once, online,
        before the step that uses it. A law's P must have order nN.
    P : optional (nN, nN) array
        When given, it must pass :func:`~minellip.matkit.check_pd`, unless it equals the P
        that ``dist.law`` checked, and ``V = e^T P e`` is recorded alongside the trajectory.

    Raises ``UnstableStepError`` when the RK4 step map Phi has spectral radius >= 1 (inf if it
    overflows) on a Hurwitz error closed loop; the abscissa is computed only in that case. It
    raises it too, naming the first non-finite time, when the errors end non-finite.
    """
    if not dt > 0.0:  # positive tests, so that NaN fails them
        raise ValueError("dt must be positive")
    if not dt <= t_final < np.inf:
        raise ValueError("t_final must be at least dt and finite")
    k = check_gain(plant, k)
    n, p_dim = plant.n, plant.p
    n_followers = topology.follower_count
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    if u0.shape != (plant.m,):
        raise DimensionMismatchError(f"u0 must have length {plant.m}, got {u0.shape}")
    x0 = np.asarray(x0, dtype=float)
    if x0.size != (n_followers + 1) * n:
        raise DimensionMismatchError(
            f"x0 must hold {(n_followers + 1)} states of dimension {n}, got size {x0.size}"
        )
    x0 = x0.reshape(n_followers + 1, n)
    if not (np.isfinite(x0).all() and np.isfinite(u0).all()):
        raise ValueError("x0 and u0 must be finite")
    nn, law = n_followers * n, dist.law
    if dist.kind == "worst_case" and law is None:
        raise MissingEllipsoidError("a worst_case source needs the law make_disturbance builds")
    if law is not None and len(law.P) != nn:
        raise DimensionMismatchError(f"the worst-case law's P has order {len(law.P)}, not {nn}")
    if P is not None:  # a P equal to the one the law checked is not checked again
        P = law.P if law is not None and np.array_equal(P, law.P) else check_pd(P, nn, "P")[0]
    lp = build_laplacian(topology)
    n_steps = int(np.floor(t_final / dt + 1e-9))
    open_loop = dist.kind in ("none", "sinusoid")
    if open_loop:  # all samples, at t_0, t_0 + dt/2, t_1, ..., t_T, checked before any step
        stage_times = np.arange(2 * n_steps + 1) * (0.5 * dt)
        w = _admissible(dist.sampler(stage_times, None), stage_times, plant.Q)
    phi, g = _rk4_step_map(closed_loop(plant, lp, k), disturbance_channel(plant, n_followers), dt)
    rho = float(np.abs(np.linalg.eigvals(phi)).max()) if np.isfinite(phi).all() else np.inf
    if rho >= 1.0 and modal_form(plant, lp, k).spectrum.spectral_abscissa < 0.0:
        raise UnstableStepError(f"dt={dt:g} is outside the RK4 stability region of the Hurwitz "
                                f"error closed loop: step map spectral radius {rho:.6g} >= 1")
    # the leader is autonomous in y = [sigma0; 1], y' = [[A, B u0], [0, 0]] y; the
    # rows m .. 2m-1 of its orbit are the rows 0 .. m-1 mapped by Psi^m
    leader_system = np.block([[plant.A, (plant.B @ u0)[:, None]], [np.zeros((1, n + 1))]])
    psi = _rk4_step_map(leader_system, np.zeros((n + 1, 0)), dt)[0]
    leader = np.append(x0[0], 1.0)[None, :]
    while len(leader) <= n_steps:
        leader = np.vstack([leader, leader[: n_steps + 1 - len(leader)] @ psi.T])
        psi = psi @ psi
    times = np.arange(n_steps + 1) * dt
    e0 = (x0[1:] - x0[0]).ravel()
    if open_loop:  # w_c of a step is w_a of the next
        samples = w[0::2]
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite e is refused below
            errors = _affine_orbit(phi, e0, np.hstack([w[:-1:2], w[1::2], w[2::2]]) @ g.T)
    elif law is not None:  # row k: [e_k, z_k]; z_k -> u_k in place, then S [e_k; u_k] = row k+1
        gu = g.reshape(-1, 3, p_dim).sum(axis=1) @ law.unwhiten
        s = np.block([[phi, gu], [law.Z @ phi, law.Z @ gu]])
        rows = np.empty((n_steps + 2, nn + p_dim))
        held, floor2 = np.eye(p_dim)[0], law.floor**2  # u_{-1}: omega = e_1 / sqrt(Q_11)
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite z: the law's branch
            rows[0] = np.append(e0, law.Z.dot(e0))
            for t, e, z, row, row_next in zip(times, rows[:, :nn], rows[:, nn:], rows, rows[1:]):
                zz = z.dot(z)
                if _TINY <= zz < math.inf and zz > floor2 * e.dot(e):
                    z /= math.sqrt(zz)  # u^T u = 1 to rounding: the bound holds
                else:  # held, scaled or NaN: the law's own rule, checked before use
                    z[:] = law.unit(e, held)
                    if not z.dot(z) <= 1.0 + BOUND_SLACK:
                        raise DisturbanceBoundViolatedError(
                            f"disturbance sample at t={t:.6g} violates the Q bound"
                            + ("" if np.isfinite(e).all() else "; the error state is not finite"))
                s.dot(row, out=row_next)
                held = z
        errors = rows[:-1, :nn]  # a view: the rows hold the errors once
        samples = rows[:-1, nn:] @ law.unwhiten.T
    else:  # each sample is drawn into its row and checked before the step that uses it
        def draw(t, e, out):
            w = dist.sampler(t, e)
            if np.size(w) != p_dim:  # refused, never repeated or cut to fit ``out``
                raise DimensionMismatchError(f"disturbance sample must have length {p_dim}")
            out.flat = w
            if not out.dot(plant.Q.dot(out)) <= 1.0 + BOUND_SLACK:
                raise DisturbanceBoundViolatedError(
                    f"disturbance sample at t={t:.6g} violates the Q bound"
                    + ("" if np.isfinite(e).all() else "; the error state is not finite"))

        offsets = np.array([0.0, 0.5 * dt, dt])
        errors = np.empty((n_steps + 1, nn))
        errors[0] = e0
        stages = np.empty((n_steps + 1, 3, p_dim))  # per step: w_a, w_b, w_c
        for ts, e, e_next, ws, w in zip(times[:-1, None] + offsets, errors[:-1], errors[1:],
                                        stages, stages.reshape(n_steps + 1, -1)):
            for t, out in zip(ts, ws):
                draw(t, e, out)
            phi.dot(e, out=e_next)
            e_next += g.dot(w)
        draw(times[-1], errors[-1], stages[-1, 0])
        samples = np.ascontiguousarray(stages[:, 0])

    if not np.isfinite(errors[-1]).all():  # Phi has no zero column: a non-finite e stays so
        t = times[np.isfinite(errors).all(axis=1).argmin()]
        raise UnstableStepError(f"the error state is not finite from t={t:.6g}: step map "
                                f"spectral radius {rho:.6g}")
    ke = k @ errors.T.reshape(n_followers, n, -1)  # K e_i of each follower i, (N, m, T)
    controls = -(lp.L_tilde @ ke.reshape(n_followers, -1)).reshape(-1, len(times)).T
    v = None
    if P is not None:
        v = np.einsum("ti,ti->t", errors @ P, errors)
    return Trajectory(
        times=times,
        leader_states=leader[:, :n],
        errors=errors,
        controls=controls + np.tile(u0, n_followers),
        disturbances=samples,
        V=v,
    )


def _rk4_step_map(m: np.ndarray, d: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """``Phi = p(hM)`` and ``[G_a, G_b, G_c]``: one RK4 step of ``s' = M s + D w`` with ``w``
    held at ``w_a, w_b, w_b, w_c`` over its stages is ``Phi s + G_a w_a + G_b w_b + G_c w_c``."""
    hm = h * m
    eye = np.eye(len(m))
    phi = eye + hm @ (eye + hm @ (eye + hm @ (eye + hm / 4.0) / 3.0) / 2.0)
    d1 = hm @ d
    d2 = hm @ d1
    g = [d + d1 + d2 / 2.0 + hm @ d2 / 4.0, 4.0 * d + 2.0 * d1 + d2 / 2.0, d]
    return phi, h / 6.0 * np.hstack(g)


def _affine_orbit(phi: np.ndarray, e0: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Rows ``e_0 .. e_T`` of ``e_{k+1} = Phi e_k + f_k`` for the T rows of f, in chunks of
    ``b = ceil(sqrt T)`` steps, each loop iteration one product over all chunks: a zero-state
    pass gives each chunk's end response r, the chunk starts follow as ``s+ = Phi^b s + r``, and
    a second pass forms each row as ``f_k + Phi e_k`` (Kogge & Stone, IEEE Trans. Comput. 1973)."""
    steps, nn = f.shape
    b = math.isqrt(steps - 1) + 1
    chunks = -(-steps // b)
    out = np.zeros((chunks * b + 1, nn))  # zero rows pad the last chunk; they are cut off
    out[0], out[1:steps + 1] = e0, f
    x = out[1:].reshape(chunks, b, nn)
    for j in range(1, b):
        x[:, j] += x[:, j - 1] @ phi.T
    phi_b, starts = np.linalg.matrix_power(phi, b), [e0]
    for end in x[:-1, -1]:
        starts.append(phi_b @ starts[-1] + end)
    out[1:steps + 1] = f
    x[:, 0] += np.array(starts) @ phi.T
    for j in range(1, b):
        x[:, j] += x[:, j - 1] @ phi.T
    return out[:steps + 1]


def _admissible(w, t: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Samples drawn at the times ``t``, one row each. Raises unless each has length p
    and ``w^T Q w <= 1`` up to ``BOUND_SLACK``; a NaN sample fails."""
    w = np.asarray(w, dtype=float)
    if w.size != len(t) * len(q):
        raise DimensionMismatchError(f"disturbance sample must have length {len(q)}")
    w = w.reshape(len(t), len(q))
    inside = np.einsum("ti,ti->t", w @ q, w) <= 1.0 + BOUND_SLACK
    if not inside.all():
        raise DisturbanceBoundViolatedError(
            f"disturbance sample at t={t[~inside][0]:.6g} violates the Q bound")
    return w


def metrics(traj: Trajectory, window_fraction: float = 0.5) -> ErrorMetrics:
    """Steady-state error peaks over the trailing ``window_fraction`` of the
    horizon, plus the ellipsoid entry time when V was recorded."""
    if not 0.0 < window_fraction <= 1.0:
        raise ValueError("window_fraction must lie in (0, 1]")
    times = traj.times
    t_end = float(times[-1])
    t_start = t_end * (1.0 - window_fraction)
    start = int(np.searchsorted(times, t_start - 1e-12))
    peaks = np.abs(traj.errors[start:]).max(axis=0).reshape(-1, traj.leader_states.shape[1])
    entry_time = None
    if traj.V is not None:
        inside = np.nonzero(traj.V <= 1.0)[0]
        if inside.size:
            entry_time = float(times[inside[0]])
    return ErrorMetrics(
        max_abs_error_per_agent=peaks,
        steady_window=(float(times[start]), t_end),
        entry_time=entry_time,
    )
