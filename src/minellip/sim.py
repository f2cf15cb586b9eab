"""Fixed-step simulation of the perturbed multi-agent system.

The leader ``sigma0' = A sigma0 + B u0`` and the follower-minus-leader error
``e' = A_cl e + (1_N (x) E) omega``, the error system the ellipsoid
certificates are stated for, are integrated separately with classical RK4;
follower states are ``e + 1_N (x) sigma0``. With the forcing held at each
stage, one RK4 step of ``s' = M s + D w`` is exactly the affine map
``s+ = Phi s + G_a w_a + G_b w_b + G_c w_c``, ``Phi = p(hM)`` the RK4
stability polynomial (Hairer, Norsett & Wanner, *Solving ODEs I*), built
once per run. ``none`` and ``sinusoid`` disturbances do not read the error
and are sampled at every stage time in one call per run, so a step is one
matrix-vector product plus one add. Custom samplers are drawn at each stage;
the worst-case (state-feedback) disturbance is drawn once per step from the
current error and held across its stages, a piecewise-constant realization
that keeps the integrated vector field smooth within each step. Each of these
samples is checked against the Q bound once, online, before it is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ellipsoid import worst_case_law
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


@dataclass(frozen=True)
class DisturbanceSpec:
    """A disturbance source: kind tag plus a sampler ``(t, e) -> omega``.

    The kind sets when the simulator draws (see the module docstring); the
    ``none`` and ``sinusoid`` samplers take an array of times and return one
    row per time. Every sample is checked against the quadratic bound.
    """

    kind: str
    sampler: Callable[[float, np.ndarray], np.ndarray]


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
        current error (``P`` must pass that law's checks); falls back to the previous
        sample, or the first Q-unit basis direction at start, whenever the
        direction degenerates.
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
        peak = float(amps @ plant.Q @ amps)
        if not peak <= 1.0 + BOUND_SLACK:
            raise DisturbanceBoundViolatedError(
                f"sinusoid peak violates the bound: amplitudes give {peak:.6g} > 1"
            )
        w = float(angular_frequency)
        return DisturbanceSpec(kind, lambda t, e: np.multiply.outer(np.sin(w * t), amps))
    if kind == "worst_case":
        if P is None:
            raise MissingEllipsoidError("worst_case disturbance needs an ellipsoid matrix P")
        law = worst_case_law(P, plant)
        prev = np.eye(p_dim)[0] / math.sqrt(float(plant.Q[0, 0]))

        def sampler(t, e):
            nonlocal prev
            omega = law(e)
            if omega is not None:
                prev = omega
            return prev

        return DisturbanceSpec(kind, sampler)
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
    follower_states: np.ndarray
    errors: np.ndarray
    controls: np.ndarray
    disturbances: np.ndarray
    V: np.ndarray | None = None


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
        Known constant leader input, fed forward to every follower.
    x0 : array (N+1, n)
        Initial states, leader first.
    dist : DisturbanceSpec
        Shared follower disturbance: ``none``/``sinusoid`` sampled once per run, ``worst_case``
        once per step, others per stage. Every sample must satisfy ``omega^T Q omega <= 1``;
        a ``worst_case``/``custom`` one is checked once, online, before the step that uses it.
    P : optional (nN, nN) array
        When given, it must pass :func:`~minellip.matkit.check_pd`, and
        ``V = e^T P e`` is recorded alongside the trajectory.

    Raises ``UnstableStepError`` when the error closed loop is Hurwitz but
    ``dt`` lies outside its RK4 stability region.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t_final < dt:
        raise ValueError("t_final must be at least dt")
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
    if P is not None:
        P = check_pd(P, n_followers * n, "P")[0]
    lp = build_laplacian(topology)
    # rho(Phi) = max |p(dt lambda)| over the eigenvalues of the modal blocks of
    # A_cl, with p(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 (see _rk4_step_map)
    spec = modal_form(plant, lp, k).spectrum
    z = dt * spec.eigenvalues
    rho = float(np.abs(1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))).max())
    if spec.spectral_abscissa < 0.0 and rho >= 1.0:
        raise UnstableStepError(f"dt={dt:g} is outside the RK4 stability region of the Hurwitz "
                                f"error closed loop: step map spectral radius {rho:.6g} >= 1")
    n_steps = int(np.floor(t_final / dt + 1e-9))
    open_loop = dist.kind in ("none", "sinusoid")
    if open_loop:  # all samples, at t_0, t_0 + dt/2, t_1, ..., t_T, checked before any step
        stage_times = np.arange(2 * n_steps + 1) * (0.5 * dt)
        w = _admissible(dist.sampler(stage_times, None), stage_times, plant.Q)
    phi, g = _rk4_step_map(closed_loop(plant, lp, k), disturbance_channel(plant, n_followers), dt)
    # the leader is autonomous in y = [sigma0; 1], y' = [[A, B u0], [0, 0]] y; the
    # rows m .. 2m-1 of its orbit are the rows 0 .. m-1 mapped by Psi^m
    leader_system = np.block([[plant.A, (plant.B @ u0)[:, None]], [np.zeros((1, n + 1))]])
    psi = _rk4_step_map(leader_system, np.zeros((n + 1, 0)), dt)[0]
    leader = np.append(x0[0], 1.0)[None, :]
    while len(leader) <= n_steps:
        leader = np.vstack([leader, leader[: n_steps + 1 - len(leader)] @ psi.T])
        psi = psi @ psi
    times = np.arange(n_steps + 1) * dt
    errors = np.empty((n_steps + 1, n_followers * n))
    errors[0] = (x0[1:] - x0[0]).ravel()
    if open_loop:  # w_c of a step is w_a of the next
        samples = w[0::2]
        np.matmul(np.hstack([w[:-1:2], w[1::2], w[2::2]]), g.T, out=errors[1:])
        for prev, e in zip(errors[:-1], errors[1:]):
            e += phi.dot(prev)
    else:  # each sample is drawn into its row and checked before the step that uses it
        def draw(t, e, out):
            w = dist.sampler(t, e)
            if np.size(w) != p_dim:  # refused, never repeated or cut to fit ``out``
                raise DimensionMismatchError(f"disturbance sample must have length {p_dim}")
            out.flat = w
            if not out.dot(plant.Q.dot(out)) <= 1.0 + BOUND_SLACK:
                raise DisturbanceBoundViolatedError(
                    f"disturbance sample at t={t:.6g} violates the Q bound")

        offsets = np.array([0.0, 0.5 * dt, dt])
        if dist.kind == "worst_case":  # held over the step: forcing map G_a + G_b + G_c
            offsets, g = offsets[:1], g.reshape(-1, 3, p_dim).sum(axis=1)
        stages = np.empty((n_steps + 1, len(offsets), p_dim))  # per step: w_a[, w_b, w_c]
        for ts, e, e_next, ws, w in zip(times[:-1, None] + offsets, errors[:-1], errors[1:],
                                        stages, stages.reshape(n_steps + 1, -1)):
            for t, out in zip(ts, ws):
                draw(t, e, out)
            phi.dot(e, out=e_next)
            e_next += g.dot(w)
        draw(times[-1], errors[-1], stages[-1, 0])
        samples = np.ascontiguousarray(stages[:, 0])

    controls = -(lp.L_tilde @ errors.reshape(-1, n_followers, n) @ k.T).reshape(len(times), -1)
    v = None
    if P is not None:
        v = np.einsum("ti,ij,tj->t", errors, P, errors)
    return Trajectory(
        times=times,
        leader_states=leader[:, :n],
        follower_states=errors + np.tile(leader[:, :n], (1, n_followers)),
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


def _admissible(w, t: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Samples drawn at the times ``t``, one row each. Raises unless each has length p
    and ``w^T Q w <= 1`` up to ``BOUND_SLACK``; a NaN sample fails."""
    w = np.asarray(w, dtype=float)
    if w.size != len(t) * len(q):
        raise DimensionMismatchError(f"disturbance sample must have length {len(q)}")
    w = w.reshape(len(t), len(q))
    inside = np.einsum("ti,ij,tj->t", w, q, w) <= 1.0 + BOUND_SLACK
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
