"""Fixed-step simulation of the perturbed multi-agent system.

The full stack of leader plus followers is integrated with classical
fourth-order Runge-Kutta. Time-dependent disturbances are sampled at the
stage times; the worst-case (state-feedback) disturbance is evaluated once
per step from the current error and held constant across the stages, a
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
from .protocol import PlantModel, check_gain, modal_form

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
        channel = (np.kron(np.ones((n_followers, 1)), plant.E).T @ P)
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


def _as_input_fn(u0, m: int):
    if callable(u0):
        def fn(t):
            val = np.atleast_1d(np.asarray(u0(t), dtype=float))
            if val.shape != (m,):
                raise DimensionMismatchError(f"u0(t) must have length {m}")
            return val

        return fn, False
    const = np.atleast_1d(np.asarray(u0, dtype=float))
    if const.shape != (m,):
        raise DimensionMismatchError(f"u0 must have length {m}, got {const.shape}")
    return (lambda t: const), True


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
    """Integrate leader and followers under the protocol with RK4.

    Parameters
    ----------
    u0 : constant vector (length m) or callable ``t -> u0(t)``
        Known leader input, fed forward to every follower.
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
    n, m, p_dim = plant.n, plant.m, plant.p
    n_followers = topology.follower_count
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
    full_matrix = np.kron(np.eye(n_followers + 1), plant.A) - np.kron(lp.L, plant.B @ k)
    input_map = np.tile(plant.B, (n_followers + 1, 1))
    dist_map = np.zeros(((n_followers + 1) * n, p_dim))
    dist_map[n:] = np.tile(plant.E, (n_followers, 1))

    u0_fn, u0_const = _as_input_fn(u0, m)
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
    dim = (n_followers + 1) * n
    states = np.empty((n_steps + 1, dim))
    samples = np.empty((n_steps + 1, p_dim))
    sig = x0.ravel().copy()
    states[0] = sig
    half = 0.5 * dt
    tile = n_followers

    bu_const = input_map @ u0_fn(0.0) if u0_const else None
    for step in range(n_steps):
        t = step * dt
        e_now = sig[n:] - np.tile(sig[:n], tile)
        if dist.per_step:
            w_a = draw(t, e_now)
            w_b = w_a
            w_c = w_a
        else:
            w_a = draw(t, e_now)
            w_b = draw(t + half, e_now)
            w_c = draw(t + dt, e_now)
        samples[step] = w_a
        if u0_const:
            bu_a = bu_b = bu_c = bu_const
        else:
            bu_a = input_map @ u0_fn(t)
            bu_b = input_map @ u0_fn(t + half)
            bu_c = input_map @ u0_fn(t + dt)
        d_a = dist_map @ w_a
        d_b = dist_map @ w_b
        d_c = dist_map @ w_c
        k1 = full_matrix @ sig + bu_a + d_a
        k2 = full_matrix @ (sig + half * k1) + bu_b + d_b
        k3 = full_matrix @ (sig + half * k2) + bu_b + d_b
        k4 = full_matrix @ (sig + dt * k3) + bu_c + d_c
        sig = sig + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        states[step + 1] = sig
    e_final = sig[n:] - np.tile(sig[:n], tile)
    samples[n_steps] = draw(n_steps * dt, e_final)

    times = np.arange(n_steps + 1) * dt
    leader = states[:, :n]
    followers = states[:, n:]
    errors = followers - np.tile(leader, (1, tile))
    if u0_const:
        u0_rows = np.tile(u0_fn(0.0), (n_steps + 1, 1))
    else:
        u0_rows = np.array([u0_fn(t) for t in times])
    coupling = np.kron(lp.L_tilde, k)
    controls = -(errors @ coupling.T) + np.tile(u0_rows, (1, tile))
    v = None
    if P is not None:
        P = np.asarray(P, dtype=float)
        v = np.einsum("ti,ij,tj->t", errors, P, errors)
    return Trajectory(
        times=times,
        leader_states=leader,
        follower_states=followers,
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
