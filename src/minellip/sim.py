"""Fixed-step simulation of the perturbed multi-agent system.

The leader state and the follower-minus-leader error are integrated together
with classical fourth-order Runge-Kutta: ``sigma0' = A sigma0 + B u0`` and
``e' = A_cl e + (1_N (x) E) omega``, the same error system the ellipsoid
certificates are stated for. Follower states are recovered as
``e + 1_N (x) sigma0``. Time-dependent disturbances are sampled at the stage
times; the worst-case (state-feedback) disturbance is evaluated once per
step from the current error and held constant across the stages, a
piecewise-constant realization that keeps the integrated vector field
smooth within each step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    DisturbanceBoundViolatedError,
    MissingEllipsoidError,
    UnstableStepError,
)
from .graph import Topology, build_laplacian
from .protocol import PlantModel, check_gain, closed_loop, disturbance_channel, modal_form

#: Slack accepted when validating disturbance samples against the Q bound.
BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class DisturbanceSpec:
    """A disturbance source: kind tag plus a sampler ``(t, e) -> omega``.

    ``per_step`` marks state-feedback samplers that are held constant within
    an integration step. The simulator checks every drawn sample against the
    quadratic bound regardless of kind.
    """

    kind: str
    sampler: Callable[[float, np.ndarray], np.ndarray]
    per_step: bool = False


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
        ``"worst_case"``: the growth-maximizing direction recomputed from
        the current error (requires ``P``); falls back to the previous
        sample, or the first Q-unit basis direction at start, whenever the
        direction degenerates.
        ``"custom"``: user sampler, validated against the bound online.
    """
    p_dim = plant.p
    if kind == "none":
        zero = np.zeros(p_dim)
        return DisturbanceSpec(kind, lambda t, e: zero)
    if kind == "sinusoid":
        if amplitudes is None or angular_frequency is None:
            raise ValueError("sinusoid needs amplitudes and angular_frequency")
        amps = np.asarray(amplitudes, dtype=float).ravel()
        if amps.shape != (p_dim,):
            raise DimensionMismatchError(f"amplitudes must have length {p_dim}")
        peak = float(amps @ plant.Q @ amps)
        if peak > 1.0 + BOUND_SLACK:
            raise DisturbanceBoundViolatedError(
                f"sinusoid peak violates the bound: amplitudes give {peak:.6g} > 1"
            )
        w = float(angular_frequency)
        return DisturbanceSpec(kind, lambda t, e: amps * np.sin(w * t))
    if kind == "worst_case":
        if P is None:
            raise MissingEllipsoidError("worst_case disturbance needs an ellipsoid matrix P")
        P = np.asarray(P, dtype=float)
        P = 0.5 * (P + P.T)
        fallback = np.zeros(p_dim)
        fallback[0] = 1.0 / np.sqrt(float(plant.Q[0, 0]))
        state = {"prev": fallback}
        # The sampler runs once per integration step, so the maps of the
        # growth-maximizing direction are precomputed: omega* solves
        # max <omega, (1_N (x) E)^T P e> over the Q-unit sphere.
        n_followers = P.shape[0] // plant.n
        channel = disturbance_channel(plant, n_followers).T @ P
        q_inv = np.linalg.inv(plant.Q)
        p_scale = float(np.linalg.norm(P, "fro"))

        def sampler(t, e):
            v = channel @ e
            if float(np.linalg.norm(v)) <= 1e-12 * (1.0 + p_scale * float(np.linalg.norm(e))):
                return state["prev"]
            y = q_inv @ v
            w = y / np.sqrt(float(v @ y))
            state["prev"] = w
            return w

        return DisturbanceSpec(kind, sampler, per_step=True)
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
    """Integrate the leader and the error closed loop with RK4.

    Parameters
    ----------
    u0 : vector of length m
        Known constant leader input, fed forward to every follower.
    x0 : array (N+1, n)
        Initial states, leader first.
    dist : DisturbanceSpec
        Shared follower disturbance; samples are checked against the Q
        bound (``omega^T Q omega <= 1``) as they are drawn.
    P : optional (nN, nN) array
        When given, ``V = e^T P e`` is recorded alongside the trajectory.

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
    lp = build_laplacian(topology)
    # One RK4 step maps the undisturbed error by Phi = p(dt A_cl), with
    # p(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, so rho(Phi) = max |p(dt lambda)|
    # over the eigenvalues of the modal blocks of A_cl.
    spec = modal_form(plant, lp, k).spectrum
    z = dt * spec.eigenvalues
    rho = float(np.abs(1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))).max())
    if spec.spectral_abscissa < 0.0 and rho >= 1.0:
        raise UnstableStepError(f"dt={dt:g} is outside the RK4 stability region of the Hurwitz "
                                f"error closed loop: step map spectral radius {rho:.6g} >= 1")
    # State [sigma0; e] under diag(A, A_cl), driven by [B u0; (1_N (x) E) omega].
    dim = (n_followers + 1) * n
    system = np.zeros((dim, dim))
    system[:n, :n] = plant.A
    system[n:, n:] = closed_loop(plant, lp, k)
    dist_map = np.zeros((dim, p_dim))
    dist_map[n:] = disturbance_channel(plant, n_followers)
    bu = np.zeros(dim)
    bu[:n] = plant.B @ u0
    q = plant.Q

    def draw(t: float, e: np.ndarray) -> np.ndarray:
        w = np.asarray(dist.sampler(t, e), dtype=float).ravel()
        if w.shape != (p_dim,):
            raise DimensionMismatchError(f"disturbance sample must have length {p_dim}")
        if float(w @ q @ w) > 1.0 + BOUND_SLACK:
            raise DisturbanceBoundViolatedError(
                f"disturbance sample at t={t:.6g} violates the Q bound"
            )
        return w

    n_steps = int(np.floor(t_final / dt + 1e-9))
    states = np.empty((n_steps + 1, dim))
    samples = np.empty((n_steps + 1, p_dim))
    s = np.concatenate([x0[0], (x0[1:] - x0[0]).ravel()])
    states[0] = s
    half = 0.5 * dt
    for step in range(n_steps):
        t = step * dt
        w_a = draw(t, s[n:])
        if dist.per_step:
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

    leader = states[:, :n]
    errors = states[:, n:]
    controls = -(errors @ np.kron(lp.L_tilde, k).T) + np.tile(u0, n_followers)
    v = None
    if P is not None:
        P = np.asarray(P, dtype=float)
        v = np.einsum("ti,ij,tj->t", errors, P, errors)
    return Trajectory(
        times=np.arange(n_steps + 1) * dt,
        leader_states=leader,
        follower_states=errors + np.tile(leader, (1, n_followers)),
        errors=errors,
        controls=controls,
        disturbances=samples,
        V=v,
    )


def metrics(traj: Trajectory, window_fraction: float = 0.5) -> ErrorMetrics:
    """Steady-state error peaks over the trailing ``window_fraction`` of the
    horizon, plus the ellipsoid entry time when V was recorded."""
    if not 0.0 < window_fraction <= 1.0:
        raise ValueError("window_fraction must lie in (0, 1]")
    times = traj.times
    t_end = float(times[-1])
    t_start = t_end * (1.0 - window_fraction)
    start = int(np.searchsorted(times, t_start - 1e-12))
    n_followers_times_n = traj.errors.shape[1]
    n = traj.leader_states.shape[1]
    n_followers = n_followers_times_n // n
    peaks = np.abs(traj.errors[start:]).max(axis=0).reshape(n_followers, n)
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
