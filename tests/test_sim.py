import contextlib
import dataclasses

import numpy as np
import pytest

from minellip import (
    DisturbanceSpec,
    PlantModel,
    build_laplacian,
    design_gain,
    find_beta,
    make_disturbance,
    metrics,
    minimize_trace,
    simulate,
)
from minellip.errors import (
    DisturbanceBoundViolatedError,
    DimensionMismatchError,
    MissingEllipsoidError,
    UnstableStepError,
)
from minellip import sim
from minellip.protocol import closed_loop, disturbance_channel
from minellip.sim import Trajectory, _affine_orbit, _rk4_step_map

PAPER_AMPS = [0.02, 0.0125]
PAPER_FREQ = 0.5


def random_admissible(plant, rng):
    """Sinusoidal sampler with random direction, frequency and sub-unit level."""
    direction = rng.normal(size=plant.p)
    direction /= np.sqrt(direction @ plant.Q @ direction)
    level = rng.uniform(0.3, 0.99)
    freq = rng.uniform(0.1, 2.0)
    phase = rng.uniform(0.0, 2 * np.pi)
    return lambda t, e: level * np.sin(freq * t + phase) * direction


# --- disturbance construction ----------------------------------------

def test_sinusoid_peak_level(paper_plant):
    spec = make_disturbance("sinusoid", paper_plant, amplitudes=PAPER_AMPS,
                            angular_frequency=PAPER_FREQ)
    amps = np.array(PAPER_AMPS)
    peak = amps @ paper_plant.Q @ amps
    assert peak == pytest.approx(800 / 2500 + 4000 / 6400)
    assert peak <= 1.0
    w = spec.sampler(np.pi, np.zeros(6))  # sin(pi/2) = 1, full swing
    np.testing.assert_allclose(w, amps)


def test_sinusoid_rejects_excessive_amplitudes(paper_plant):
    # a NaN or infinite amplitude has no finite peak and must fail the bound as well
    for amps in ([0.05, 0.02], [np.nan, 0.0], [0.0, np.inf]):
        with pytest.raises(DisturbanceBoundViolatedError):
            make_disturbance("sinusoid", paper_plant, amplitudes=amps,
                             angular_frequency=PAPER_FREQ)


def test_worst_case_needs_p(paper_plant, fig1_topology, paper_gain, paper_x0):
    with pytest.raises(MissingEllipsoidError):
        make_disturbance("worst_case", paper_plant)
    # P must be square, of a size that stacks n = 2 follower states
    for bad in (np.eye(5), np.ones((6, 4)), np.ones(6)):
        with pytest.raises(DimensionMismatchError):
            make_disturbance("worst_case", paper_plant, P=bad)
    # a P for two followers refuses the three-follower error at the first draw
    dist = make_disturbance("worst_case", paper_plant, P=np.eye(4))
    with pytest.raises(DimensionMismatchError):
        simulate(paper_plant, fig1_topology, paper_gain, [0.0], paper_x0, dist, 1.0, 1e-2)


def test_worst_case_samples_on_unit_sphere(paper_plant, fig1_topology, paper_gain, paper_x0,
                                           paper_minimization):
    spec = make_disturbance("worst_case", paper_plant, P=paper_minimization.P_star)
    traj = simulate(paper_plant, fig1_topology, paper_gain, [0.0], paper_x0, spec, 2.0, 1e-3)
    law, held = spec.law, np.eye(paper_plant.p)[0]
    samples = [law.unwhiten @ law.unit(e, held)
               for e in np.random.default_rng(0).normal(size=(10, 6))]
    for w in np.vstack([traj.disturbances, samples]):
        assert w @ paper_plant.Q @ w == pytest.approx(1.0, abs=1e-9)


def test_worst_case_falls_back_to_previous_sample(monkeypatch, paper_plant, fig1_topology,
                                                  paper_gain):
    from test_ellipsoid import counted_calls

    # with P = I the growth direction is Q^-1 (e_1 + e_2 + e_3) up to scale; an
    # error whose follower errors cancel has none, and the last sample is held
    spec = make_disturbance("worst_case", paper_plant, P=np.eye(6))
    law, start = spec.law, np.eye(paper_plant.p)[0]
    assert law.unit(np.zeros(6), start) is start
    u = law.unit(np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0]), start)
    np.testing.assert_allclose(law.unwhiten @ u, [0.0, 1.0 / np.sqrt(paper_plant.Q[1, 1])],
                               atol=1e-15)
    assert law.unit(np.array([1.0, 2.0, -1.0, -2.0, 0.0, 0.0]), u) is u
    # a fused run whose follower errors cancel at t = 0 draws e_1 / sqrt(Q_11) first: its
    # readout fails the fast test there, so the law is asked at t = 0, and only then
    calls = counted_calls(monkeypatch, sim.WorstCaseLaw, "unit")
    x0 = np.array([[0.5, -0.25], [1.5, 1.75], [-0.5, -2.25], [0.5, -0.25]])
    traj = simulate(paper_plant, fig1_topology, paper_gain, [0.0], x0, spec, 0.1, 1e-2)
    np.testing.assert_array_equal(traj.disturbances[0], [1.0 / np.sqrt(paper_plant.Q[0, 0]), 0.0])
    assert len(calls) == 1 and np.array_equal(calls[0][1], traj.errors[0])


def test_fused_step_leaves_the_law_off_its_fast_path(monkeypatch, paper_plant, fig1_topology,
                                                     paper_gain, paper_x0, paper_minimization):
    from test_ellipsoid import counted_calls

    # paper_example3 in full: every readout Z e_k is a normal double above the law's floor,
    # so each of the 100 001 samples is normalized in the loop, with no call to the law
    calls = counted_calls(monkeypatch, sim.WorstCaseLaw, "unit")
    spec = make_disturbance("worst_case", paper_plant, P=paper_minimization.P_star)
    traj = simulate(paper_plant, fig1_topology, paper_gain, [0.0], paper_x0, spec, 100.0, 1e-3)
    assert len(traj.times) == 100_001 and not calls


def test_none_is_zero(paper_plant):
    spec = make_disturbance("none", paper_plant)
    np.testing.assert_array_equal(spec.sampler(3.0, np.ones(6)), np.zeros(2))


def test_vectorised_samples_refused_before_any_step(paper_plant, fig1_topology, paper_gain,
                                                   paper_x0, monkeypatch):
    import minellip.sim

    # the error step map is built only after every open-loop sample passed
    monkeypatch.setattr(minellip.sim, "closed_loop",
                        lambda *a: pytest.fail("step map built before refusing a sample"))
    amps = np.array(PAPER_AMPS)
    for bad in (2.0 * amps, np.array([np.nan, 0.0])):
        # admissible everywhere except at the final time t = 1
        def sampler(t, e, bad=bad):
            w = np.multiply.outer(np.sin(t), amps)
            w[t == 1.0] = bad
            return w

        with pytest.raises(DisturbanceBoundViolatedError, match="t=1 "):
            simulate(paper_plant, fig1_topology, paper_gain, [0.0], paper_x0,
                     DisturbanceSpec("sinusoid", sampler), 1.0, 1e-2)


def test_custom_bound_enforced_online(scalar_plant, scalar_topology):
    for value in (1.5, np.nan):
        spec = make_disturbance("custom", scalar_plant, sample=lambda t, e: np.array([value]))
        with pytest.raises(DisturbanceBoundViolatedError):
            simulate(scalar_plant, scalar_topology, [[0.0]], [0.0], [[0.0], [1.0]],
                     spec, 1.0, 1e-2)


@pytest.mark.parametrize("bad", [2.0, np.nan])
@pytest.mark.parametrize("onset", [0.37, 0.375])  # a grid time k dt and a mid-step stage time
def test_custom_sample_refused_before_any_later_draw(bad, onset, paper_plant, fig1_topology,
                                                     paper_gain, paper_x0):
    # admissible before ``onset``, inadmissible from then on: the run must stop
    # at the first inadmissible draw, naming its time, and draw nothing later
    amps = np.array(PAPER_AMPS)
    called = []

    def sampler(t, e):
        called.append(t)
        return amps * (np.sin(t) if t < onset - 1e-3 else bad)

    with pytest.raises(DisturbanceBoundViolatedError, match=f"t={onset:g} "):
        simulate(paper_plant, fig1_topology, paper_gain, [0.0], paper_x0,
                 DisturbanceSpec("custom", sampler), 1.0, 1e-2)
    assert max(called) == pytest.approx(onset, abs=1e-12)


@pytest.mark.parametrize("kind", ["worst_case", "custom"])
def test_diverging_run_names_the_non_finite_error(kind, paper_plant, fig1_topology, paper_gain,
                                                  paper_x0, paper_minimization):
    # -K makes the error loop unstable; once e overflows, the law's sample is NaN and fails
    # the bound, and the refusal says that the error state, not the source, went wrong. The
    # worst-case run refuses with no RuntimeWarning on the way; a custom sampler is user
    # code, and its overflow and NaN warnings are not under test here
    p = paper_minimization.P_star
    worst = make_disturbance("worst_case", paper_plant, P=p)
    law = worst.law
    dist = worst if kind == "worst_case" else make_disturbance(
        "custom", paper_plant, sample=lambda t, e: law.unwhiten @ law.unit(e, np.eye(2)[0]))
    quiet = np.errstate(over="ignore", invalid="ignore")
    with quiet if kind == "custom" else contextlib.nullcontext(), pytest.raises(
            DisturbanceBoundViolatedError,
            match=r"t=7\.957 violates the Q bound; the error state is not finite"):
        simulate(paper_plant, fig1_topology, -paper_gain, [0.0], paper_x0, dist, 100.0, 1e-3,
                 P=p)


def test_sample_of_wrong_length_is_refused(paper_plant, fig1_topology, paper_gain, paper_x0):
    # p = 2: a length-1 sample must not broadcast, a length-3 one must not be cut
    for bad in (np.array([0.01]), np.full(3, 0.01)):
        dist = DisturbanceSpec("custom", lambda t, e, bad=bad: bad)
        with pytest.raises(DimensionMismatchError, match="length 2"):
            simulate(paper_plant, fig1_topology, paper_gain, [0.0], paper_x0, dist, 1.0, 1e-2)


def test_worst_case_from_zero_error_starts_on_fallback(paper_plant, fig1_topology, paper_gain,
                                                       paper_minimization):
    from reference import rk4_stage_loop, worst_case_reference

    # e0 = 0 gives no growth direction: the first sample is e_1 / sqrt(Q_11),
    # after which the forced error picks the direction up
    args = (paper_plant, fig1_topology, paper_gain, [0.2], np.tile([0.4, -0.1], (4, 1)))
    traj = simulate(*args, make_disturbance("worst_case", paper_plant,
                                            P=paper_minimization.P_star), 2.0, 1e-3)
    leader, errors, samples = rk4_stage_loop(
        *args, worst_case_reference(paper_minimization.P_star, paper_plant), 2.0, 1e-3)
    np.testing.assert_array_equal(traj.disturbances[0],
                                  [1.0 / np.sqrt(paper_plant.Q[0, 0]), 0.0])
    for got, want in ((traj.errors, errors), (traj.leader_states, leader),
                      (traj.disturbances, samples)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("case", ["paper", "N10", "fallback"])
def test_fused_worst_case_matches_independent_oracle(case, paper_plant, fig1_topology,
                                                     paper_gain, paper_x0, paper_minimization):
    from reference import rk4_stage_loop, worst_case_reference
    from test_graph import random_connected_topology

    # the fused step against stage-by-stage RK4 driven by the closed form of
    # omega*, which shares no code with the package's whitened law; the N = 10
    # plant's Q is not diagonal, so a transposed L^-1 or L^-T shows
    plant, topology, k, x0 = paper_plant, fig1_topology, paper_gain, paper_x0
    P, t_final = paper_minimization.P_star, 20.0
    if case == "N10":
        rng = np.random.default_rng(10)
        plant = PlantModel(A=plant.A, B=plant.B, E=plant.E, Q=[[800.0, 300.0], [300.0, 4000.0]],
                           eta=plant.eta)
        topology = random_connected_topology(rng, 10)
        k = design_gain(plant, build_laplacian(topology), gamma=10.0)
        x0 = rng.normal(size=(11, 2))
        P, t_final = minimize_trace(plant, build_laplacian(topology), k).P_star, 5.0
    elif case == "fallback":  # P = I: the follower errors cancel, so the first sample is held
        x0 = np.array([[0.5, -0.25], [1.5, 1.75], [-0.5, -2.25], [0.5, -0.25]])
        P, t_final = np.eye(6), 2.0
    traj = simulate(plant, topology, k, [0.2], x0, make_disturbance("worst_case", plant, P=P),
                    t_final, 1e-3)
    leader, errors, samples = rk4_stage_loop(plant, topology, k, [0.2], x0,
                                             worst_case_reference(P, plant), t_final, 1e-3)
    if case == "fallback":
        np.testing.assert_array_equal(samples[0], [1.0 / np.sqrt(plant.Q[0, 0]), 0.0])
    for got, want in ((traj.errors, errors), (traj.leader_states, leader),
                      (traj.disturbances, samples)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_worst_case_with_nan_start_is_refused_at_t0(paper_plant, fig1_topology, paper_gain,
                                                    paper_x0, paper_minimization):
    # refused as a start before any step, not as the NaN sample it would draw at t = 0
    x0 = paper_x0.copy()
    x0[2, 1] = np.nan
    dist = make_disturbance("worst_case", paper_plant, P=paper_minimization.P_star)
    with pytest.raises(ValueError, match="x0 and u0 must be finite"):
        simulate(paper_plant, fig1_topology, paper_gain, [0.0], x0, dist, 1.0, 1e-2)


@pytest.mark.parametrize("scale", [1e-170, 1e160])
def test_fused_worst_case_survives_extreme_errors(scale, paper_plant, fig1_topology,
                                                  paper_gain, paper_x0, paper_minimization):
    # z^T z underflows or overflows: the fused step takes the scaled branch of
    # the law and draws omega*(e0), without a RuntimeWarning
    from minellip import worst_disturbance

    x0 = scale * paper_x0
    dist = make_disturbance("worst_case", paper_plant, P=paper_minimization.P_star)
    traj = simulate(paper_plant, fig1_topology, paper_gain, [0.0], x0, dist, 0.01, 1e-3)
    want = worst_disturbance(paper_minimization.P_star, paper_plant, (x0[1:] - x0[0]).ravel())
    assert np.abs(traj.disturbances[0] - want).max() <= 1e-12 * np.abs(want).max()


# --- simulate ----------------------------------------------------------

def test_equilibrium_stays_at_machine_precision(paper_plant, fig1_topology, paper_gain):
    x0 = np.tile([0.4, -0.1], (4, 1))
    dist = make_disturbance("none", paper_plant)
    traj = simulate(paper_plant, fig1_topology, paper_gain, [0.3], x0, dist, 2.0, 1e-3)
    assert np.abs(traj.errors).max() <= 1e-14


def test_designed_gain_reaches_consensus(paper_plant, fig1_topology, fig1_laplacian):
    k = design_gain(paper_plant, fig1_laplacian, gamma=10.0)
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=(4, 2))
    dist = make_disturbance("none", paper_plant)
    traj = simulate(paper_plant, fig1_topology, k, [0.0], x0, dist, 40.0, 1e-3)
    assert np.linalg.norm(traj.errors[-1]) <= 1e-6


def test_paper_example_converges_to_neighborhood(paper_plant, fig1_topology, paper_gain,
                                                 paper_x0):
    dist = make_disturbance("sinusoid", paper_plant, amplitudes=PAPER_AMPS,
                            angular_frequency=PAPER_FREQ)
    traj = simulate(paper_plant, fig1_topology, paper_gain, [0.0], paper_x0, dist, 30.0, 1e-3)
    tail = np.abs(traj.errors[traj.times >= 15.0])
    assert tail.max() <= 0.05
    assert np.abs(traj.errors[0]).max() == pytest.approx(1.0)


def test_rejects_bad_dimensions(paper_plant, fig1_topology, paper_gain, paper_x0):
    dist = make_disturbance("none", paper_plant)
    with pytest.raises(DimensionMismatchError):
        simulate(paper_plant, fig1_topology, paper_gain, [0.0], np.zeros((3, 2)),
                 dist, 1.0, 1e-2)
    # a V matrix of the wrong order is refused before any step is taken
    never = make_disturbance("custom", paper_plant,
                             sample=lambda t, e: pytest.fail("integrated before refusing P"))
    with pytest.raises(DimensionMismatchError):
        simulate(paper_plant, fig1_topology, paper_gain, [0.0], paper_x0, never, 1.0, 1e-2,
                 P=np.eye(5))


def test_unstable_rk4_step_is_refused(monkeypatch, paper_plant, fig1_topology, paper_gain,
                                     paper_x0):
    # each run builds the closed loop once, and its abscissa only when rho(Phi) >= 1:
    # never for the paper gain (rho < 1), once for 10 K and once for K = 0
    from test_ellipsoid import counted_calls

    loops = counted_calls(monkeypatch, sim, "closed_loop")
    modal = counted_calls(monkeypatch, sim, "modal_form")
    dist = make_disturbance("none", paper_plant)
    simulate(paper_plant, fig1_topology, paper_gain, [0.0], paper_x0, dist, 1.0, 1e-2)
    assert len(loops) == 1 and not modal
    # 10 K keeps the error loop Hurwitz (abscissa -1.82), but at dt = 0.01 its
    # fast modes leave the RK4 stability region: rho(Phi) = 161
    with pytest.raises(UnstableStepError, match=r"dt=0\.01 .* 161\.4"):
        simulate(paper_plant, fig1_topology, 10 * paper_gain, [0.0], paper_x0, dist, 1.0, 1e-2)
    assert len(loops) == 2 and len(modal) == 1
    # a loop that is not Hurwitz has no decay to protect and still simulates: K = 0 leaves
    # I_N (x) A, whose Phi is unit upper triangular, so rho(Phi) = 1 exactly
    traj = simulate(paper_plant, fig1_topology, np.zeros((1, 2)), [0.0], paper_x0, dist,
                    1.0, 1e-2)
    assert np.all(np.isfinite(traj.errors))
    assert len(loops) == 3 and len(modal) == 2
    # a step so long that Phi overflows has no finite spectral radius, and is refused alike,
    # with no overflow warning first
    with pytest.raises(UnstableStepError, match="radius inf >= 1"):
        simulate(paper_plant, fig1_topology, paper_gain, [0.0], paper_x0, dist, 1e80, 1e80)
    # so is a gain so large that Phi overflows at dt = 0.01: its abscissa is lost to rounding
    # beside eigenvalues near -1e81, so the run is refused for its non-finite error instead
    with pytest.raises(UnstableStepError, match="not finite from t=0.01: .* radius inf"):
        simulate(paper_plant, fig1_topology, 1e80 * paper_gain, [0.0], paper_x0, dist, 1.0,
                 1e-2)


@pytest.mark.parametrize("kind", ["none", "sinusoid"])
def test_non_finite_trajectory_is_refused(kind, paper_plant, fig1_topology, paper_gain,
                                          paper_x0):
    # at 1e20 K the slow eigenvalue -1.82 is lost beside one of order -2.6e21, so the abscissa
    # reads 0.0 and the step-size test lets the run through; its errors overflow at t = 0.04,
    # which is refused by name, with no RuntimeWarning. 1e8 K is refused by the step-size test
    dist = make_disturbance(kind, paper_plant, amplitudes=PAPER_AMPS, angular_frequency=PAPER_FREQ)
    args = (paper_plant, fig1_topology)
    with pytest.raises(UnstableStepError, match=r"not finite from t=0\.04: step map spectral "
                                                r"radius 2\.43996e\+78$"):
        simulate(*args, 1e20 * paper_gain, [0.0], paper_x0, dist, 0.1, 1e-2)
    with pytest.raises(UnstableStepError, match=r"outside the RK4 stability region"):
        simulate(*args, 1e8 * paper_gain, [0.0], paper_x0, dist, 0.1, 1e-2)


def test_controls_match_stacked_protocol(paper_plant, fig1_topology, paper_gain, paper_x0):
    from reference import stacked_control
    from test_graph import random_connected_topology

    # the paper system, and N = 10 followers with m = 2 inputs, where a transposition of
    # the follower and input axes shows
    rng = np.random.default_rng(2)
    plant2 = PlantModel(A=paper_plant.A, B=np.eye(2), E=paper_plant.E, Q=paper_plant.Q,
                        eta=paper_plant.eta)
    topology2 = random_connected_topology(rng, 10)
    cases = [(paper_plant, fig1_topology, paper_gain, [0.25], paper_x0),
             (plant2, topology2, design_gain(plant2, build_laplacian(topology2), gamma=10.0),
              [0.25, -0.5], rng.normal(size=(11, 2)))]
    for plant, topology, k, u0, x0 in cases:
        dist = make_disturbance("sinusoid", plant, amplitudes=PAPER_AMPS,
                                angular_frequency=PAPER_FREQ)
        traj = simulate(plant, topology, k, u0, x0, dist, 0.5, 1e-2)
        lp = build_laplacian(topology)
        for e, u in zip(traj.errors, traj.controls, strict=True):
            np.testing.assert_allclose(u, stacked_control(lp, k, e, u0), atol=1e-12)


def test_agent_states_match_agent_level_rk4(paper_plant, fig1_topology, paper_gain, paper_x0):
    # oracle: RK4 on the agents one by one (reference.agent_rhs), sampling the
    # disturbance at the same stage times; RK4 commutes with the linear change
    # of state to [sigma0; e], so the two agree up to rounding
    from reference import agent_rhs

    dist = make_disturbance("sinusoid", paper_plant, amplitudes=PAPER_AMPS,
                            angular_frequency=PAPER_FREQ)
    u0, dt = [0.25], 1e-2
    traj = simulate(paper_plant, fig1_topology, paper_gain, u0, paper_x0, dist, 1.0, dt)

    def rhs(t, x):
        return agent_rhs(paper_plant, fig1_topology, paper_gain, x, u0, dist.sampler(t, None))

    x = paper_x0.astype(float)
    expected = [x]
    for t in traj.times[:-1]:
        k1 = rhs(t, x)
        k2 = rhs(t + dt / 2, x + dt / 2 * k1)
        k3 = rhs(t + dt / 2, x + dt / 2 * k2)
        k4 = rhs(t + dt, x + dt * k3)
        x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        expected.append(x)
    expected = np.array(expected)
    np.testing.assert_allclose(traj.leader_states, expected[:, 0], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(traj.follower_states, expected[:, 1:].reshape(len(expected), -1),
                               rtol=0.0, atol=1e-10)


def oracle_cases(plant, n_followers, direction):
    """``none``, ``sinusoid``, error-reading ``custom`` and ``worst_case`` sources along a
    Q-unit ``direction``, for an error of ``n_followers`` agents, each paired with the source
    its oracle draws from: the same one, or the closed form of the worst case."""
    from reference import worst_case_reference

    p = np.eye(n_followers * plant.n)
    sources = [make_disturbance("none", plant),
               make_disturbance("sinusoid", plant, amplitudes=0.9 * direction,
                                angular_frequency=1.3),
               make_disturbance("custom", plant,
                                sample=lambda t, e: 0.9 * np.sin(2.0 * t + e[0]) * direction)]
    return [(s, s) for s in sources] + [(make_disturbance("worst_case", plant, P=p),
                                         worst_case_reference(p, plant))]


@pytest.mark.parametrize("followers", [3, 10])
def test_affine_step_matches_stage_loop(followers, paper_plant, fig1_topology, paper_gain,
                                        paper_x0):
    from reference import rk4_stage_loop
    from test_graph import random_connected_topology

    rng = np.random.default_rng(followers)
    topology, k, x0 = fig1_topology, paper_gain, paper_x0
    if followers != 3:
        topology = random_connected_topology(rng, followers)
        k = design_gain(paper_plant, build_laplacian(topology), gamma=10.0)
        x0 = rng.normal(size=(followers + 1, 2))
    u0 = [0.3]
    direction = rng.normal(size=paper_plant.p)
    direction /= np.sqrt(direction @ paper_plant.Q @ direction)
    for dist, ref_dist in oracle_cases(paper_plant, followers, direction):
        traj = simulate(paper_plant, topology, k, u0, x0, dist, 2.0, 1e-3)
        leader, errors, samples = rk4_stage_loop(paper_plant, topology, k, u0, x0, ref_dist,
                                                 2.0, 1e-3)
        for got, want in ((traj.errors, errors), (traj.leader_states, leader)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), dist.kind
        np.testing.assert_array_equal(
            traj.follower_states, traj.errors + np.tile(traj.leader_states, (1, followers)))
        if dist.kind in ("none", "sinusoid"):
            np.testing.assert_array_equal(traj.disturbances, samples)
        else:  # these read the error, which agrees to rounding
            scale = np.abs(samples).max()
            assert np.abs(traj.disturbances - samples).max() <= 1e-12 * scale, dist.kind


def test_vectorised_and_per_stage_sampling_agree(paper_plant, fig1_topology, paper_gain,
                                                 paper_minimization, paper_x0):
    amps = np.array(PAPER_AMPS)
    runs = [simulate(paper_plant, fig1_topology, paper_gain, [0.0], paper_x0, dist, 10.0, 1e-3,
                     P=paper_minimization.P_star)
            for dist in (make_disturbance("sinusoid", paper_plant, amplitudes=amps,
                                          angular_frequency=PAPER_FREQ),
                         make_disturbance("custom", paper_plant,
                                          sample=lambda t, e: amps * np.sin(PAPER_FREQ * t)))]
    vectorised, per_stage = runs
    for field in ("errors", "V", "disturbances"):
        got, want = getattr(per_stage, field), getattr(vectorised, field)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), field


def test_errors_do_not_depend_on_leader_offset(paper_plant, fig1_topology, paper_gain,
                                               paper_minimization):
    # e0 and the offset are exact in binary, so both runs start from the same
    # e0; the error system does not see the leader, so neither may e or V
    e0 = np.array([[1.0, 0.0], [0.625, 0.0], [0.125, 0.5]])
    dist = make_disturbance("sinusoid", paper_plant, amplitudes=PAPER_AMPS,
                            angular_frequency=PAPER_FREQ)
    runs = []
    for leader in ([0.0, 0.0], [2.0**20, 2.0**10]):
        x0 = np.vstack([leader, leader + e0])
        runs.append(simulate(paper_plant, fig1_topology, paper_gain, [0.1], x0, dist, 5.0,
                             1e-3, P=paper_minimization.P_star))
    at_origin, offset = runs
    np.testing.assert_allclose(offset.errors, at_origin.errors, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(offset.V, at_origin.V, rtol=1e-15, atol=0.0)
    # follower states are formed from e and sigma0 on each read, never stored
    assert "follower_states" not in {f.name for f in dataclasses.fields(Trajectory)}
    np.testing.assert_array_equal(offset.follower_states,
                                  offset.errors + np.tile(offset.leader_states, (1, 3)))


@pytest.mark.parametrize("followers, gain, steps",
                         [(3, gain, steps) for gain in ("paper", [[0.0, 0.0]], [[-0.5, 0.3]])
                          for steps in (1, 2, 9, 10, 101, 5000)] + [(100, "designed", 2000)])
def test_chunked_recurrence_matches_step_loop(followers, gain, steps, paper_plant, fig1_laplacian,
                                              paper_gain):
    # T = 1, 2, 9, 10, 101, 5000: one-step chunks, a perfect square and ragged last chunks; the
    # paper gain is Hurwitz, K = 0 leaves Jordan blocks on the unit circle, and the last one grows
    from reference import affine_loop
    from test_graph import random_connected_topology

    rng = np.random.default_rng(steps)
    lp, k = fig1_laplacian, paper_gain if gain == "paper" else np.array(gain)
    if followers != 3:
        lp = build_laplacian(random_connected_topology(rng, followers))
        k = design_gain(paper_plant, lp, gamma=10.0)
    phi, g = _rk4_step_map(closed_loop(paper_plant, lp, k),
                           disturbance_channel(paper_plant, followers), 1e-3)
    e0, f = rng.normal(size=len(phi)), rng.normal(size=(steps, g.shape[1])) @ g.T
    want = affine_loop(phi, e0, f)
    got = _affine_orbit(phi, e0, f)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# --- metrics -----------------------------------------------------------

def test_metrics_zero_trajectory(paper_plant, fig1_topology, paper_gain):
    x0 = np.zeros((4, 2))
    dist = make_disturbance("none", paper_plant)
    traj = simulate(paper_plant, fig1_topology, paper_gain, [0.0], x0, dist, 1.0, 1e-2,
                    P=np.eye(6))
    met = metrics(traj, 0.5)
    np.testing.assert_array_equal(met.max_abs_error_per_agent, np.zeros((3, 2)))
    assert met.entry_time == 0.0
    assert met.steady_window[0] < met.steady_window[1]


def test_metrics_window_selection(scalar_plant, scalar_topology, scalar_gain):
    dist = make_disturbance("none", scalar_plant)
    traj = simulate(scalar_plant, scalar_topology, scalar_gain, [0.0], [[0.0], [1.0]],
                    dist, 10.0, 1e-2)
    met_full = metrics(traj, 1.0)
    met_tail = metrics(traj, 0.2)
    assert met_full.max_abs_error_per_agent[0, 0] == pytest.approx(1.0)
    # |e| = exp(-t) decays, so the late window peak sits at its left edge t=8
    assert met_tail.max_abs_error_per_agent[0, 0] == pytest.approx(np.exp(-8.0), rel=1e-3)


# --- integration accuracy and invariance -------------------------------

def test_halving_dt_leaves_metrics_unchanged(paper_plant, fig1_topology, paper_gain, paper_x0):
    dist = make_disturbance("sinusoid", paper_plant, amplitudes=PAPER_AMPS,
                            angular_frequency=PAPER_FREQ)
    met = []
    for dt in (2e-3, 1e-3):
        traj = simulate(paper_plant, fig1_topology, paper_gain, [0.0], paper_x0,
                        dist, 40.0, dt)
        met.append(metrics(traj, 0.5).max_abs_error_per_agent)
    drift = np.abs(met[0] - met[1]).max() / np.abs(met[1]).max()
    assert drift < 1e-3


def test_worst_case_dominates_sinusoid(paper_plant, fig1_topology, paper_gain,
                                       paper_minimization, paper_x0):
    sin_dist = make_disturbance("sinusoid", paper_plant, amplitudes=PAPER_AMPS,
                                angular_frequency=PAPER_FREQ)
    worst = make_disturbance("worst_case", paper_plant, P=paper_minimization.P_star)
    met = {}
    for name, dist in (("sin", sin_dist), ("worst", worst)):
        traj = simulate(paper_plant, fig1_topology, paper_gain, [0.0], paper_x0,
                        dist, 40.0, 1e-3)
        met[name] = metrics(traj, 0.5).max_abs_error_per_agent
    assert (met["worst"] >= met["sin"] - 1e-9).all()


def test_invariance_once_inside_stays_inside(scalar_plant, scalar_topology, scalar_laplacian,
                                             scalar_gain):
    res = minimize_trace(scalar_plant, scalar_laplacian, scalar_gain)
    p = res.P_star
    beta = find_beta(scalar_plant, scalar_laplacian, scalar_gain, p)
    assert beta is not None
    rng = np.random.default_rng(9)
    # the worst-case push drives a scalar error to the boundary from any side,
    # so that run starts inside; the rest start outside and must enter
    cases = [(make_disturbance("sinusoid", scalar_plant, amplitudes=[0.95],
                               angular_frequency=0.7), 2.0),
             (make_disturbance("worst_case", scalar_plant, P=p), 0.5)]
    cases += [(make_disturbance("custom", scalar_plant,
                                sample=random_admissible(scalar_plant, rng)), 2.0)
              for _ in range(5)]
    for spec, e0 in cases:
        traj = simulate(scalar_plant, scalar_topology, scalar_gain, [0.0],
                        [[0.0], [e0]], spec, 20.0, 1e-3, P=p)
        v = traj.V
        inside = np.nonzero(v <= 1.0)[0]
        assert inside.size > 0
        assert v[inside[0]:].max() <= 1.0 + 5e-3
        outside = v[:-1] >= 1.0 + 1e-3
        assert np.all(v[1:][outside] < v[:-1][outside])


@pytest.mark.parametrize("call, error, match", [
    (lambda plant, run: make_disturbance("sinusoid", plant, amplitudes=PAPER_AMPS),
     ValueError, "needs amplitudes and angular_frequency"),
    (lambda plant, run: make_disturbance("sinusoid", plant, amplitudes=[0.02],
                                         angular_frequency=PAPER_FREQ),
     DimensionMismatchError, "amplitudes must have length 2"),
    (lambda plant, run: make_disturbance("custom", plant), ValueError, "needs a sample function"),
    (lambda plant, run: make_disturbance("square", plant), ValueError, "unknown disturbance kind"),
    (lambda plant, run: run(dt=0.0), ValueError, "dt must be positive"),
    (lambda plant, run: run(t_final=0.001, dt=0.01), ValueError, "t_final must be at least dt"),
    (lambda plant, run: run(u0=[0.0, 0.0]), DimensionMismatchError, "u0 must have length 1"),
    (lambda plant, run: run(dist=DisturbanceSpec("none", lambda t, e: np.zeros((len(t), 3)))),
     DimensionMismatchError, "sample must have length 2"),
    (lambda plant, run: metrics(run(), 0.0), ValueError, "window_fraction must lie in"),
    (lambda plant, run: run(dt=np.nan), ValueError, "dt must be positive"),
    (lambda plant, run: run(t_final=np.nan), ValueError, "t_final must be at least dt"),
    (lambda plant, run: run(t_final=np.inf), ValueError, "t_final must be at least dt"),
    (lambda plant, run: run(x0=[[0.0, 0.0], [1.0, 0.0], [np.nan, 0.0], [0.0, 1.0]]),
     ValueError, "x0 and u0 must be finite"),
    (lambda plant, run: run(u0=[np.inf]), ValueError, "x0 and u0 must be finite"),
    # refused before its sampler is ever called
    (lambda plant, run: run(dist=DisturbanceSpec(
        "worst_case", lambda t, e: pytest.fail("law-less worst_case sampler was called"))),
     MissingEllipsoidError, "needs the law make_disturbance builds"),
    (lambda plant, run: make_disturbance("sinusoid", plant, amplitudes=PAPER_AMPS,
                                         angular_frequency=np.nan),
     ValueError, "needs a finite angular_frequency"),
    (lambda plant, run: make_disturbance("sinusoid", plant, amplitudes=PAPER_AMPS,
                                         angular_frequency=-np.inf),
     ValueError, "needs a finite angular_frequency"),
], ids=["sinusoid-args", "sinusoid-length", "custom-sampler", "kind", "dt", "t_final", "u0",
        "sample-size", "metrics-window", "dt-nan", "t_final-nan", "t_final-inf", "x0-nan",
        "u0-inf", "worst_case-without-law", "sinusoid-frequency-nan", "sinusoid-frequency-inf"])
def test_sim_refusals(call, error, match, paper_plant, fig1_topology, paper_gain, paper_x0):
    def run(u0=(0.0,), x0=paper_x0, dist=None, t_final=0.1, dt=0.01):
        return simulate(paper_plant, fig1_topology, paper_gain, u0, x0,
                        dist or make_disturbance("none", paper_plant), t_final, dt)

    with pytest.raises(error, match=match):
        call(paper_plant, run)
