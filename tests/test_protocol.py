import numpy as np
import pytest

from minellip import (
    PlantModel,
    Topology,
    build_laplacian,
    closed_loop,
    make_disturbance,
    simulate,
    spectrum,
)
from minellip.errors import DimensionMismatchError
from minellip.protocol import check_gain, modal_form
from reference import agent_rhs, control_inputs, error_rhs, stacked_control


def random_instance(rng):
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 3))
    p = int(rng.integers(1, 3))
    n_followers = int(rng.integers(1, 5))
    plant = PlantModel(
        A=rng.normal(size=(n, n)),
        B=rng.normal(size=(n, m)),
        E=rng.normal(size=(n, p)),
        Q=np.eye(p),
        eta=1.0,
    )
    adj = np.zeros((n_followers + 1, n_followers + 1))
    block = rng.uniform(0, 2, size=(n_followers, n_followers))
    block = np.triu(block, 1)
    block = block + block.T
    adj[1:, 1:] = block
    adj[1:, 0] = rng.uniform(0, 2, size=n_followers)
    topo = Topology(adjacency=adj)
    k = rng.normal(size=(m, n))
    return plant, topo, k


def test_plant_rejects_inconsistent_dims():
    with pytest.raises(DimensionMismatchError):
        PlantModel(A=[[0.0, 1.0], [0.0, 0.0]], B=[[1.0]], E=np.eye(2), Q=np.eye(2), eta=1.0)


def test_plant_rejects_indefinite_q():
    with pytest.raises(ValueError):
        PlantModel(A=[[0.0]], B=[[1.0]], E=[[1.0]], Q=[[-1.0]], eta=1.0)
    for q in (np.diag([1.0, 0.0]), np.diag([1e-12, -1e-15])):
        with pytest.raises(ValueError, match="Q must be positive definite"):
            PlantModel(A=np.zeros((2, 2)), B=np.eye(2), E=np.eye(2), Q=q, eta=1.0)


def test_plant_accepts_q_at_any_scale():
    # definiteness does not depend on scale: the paper's Q times 1e-12 is still a bound
    q = 1e-12 * np.diag([800.0, 4000.0])
    plant = PlantModel(A=np.zeros((2, 2)), B=np.eye(2), E=np.eye(2), Q=q, eta=1.0)
    np.testing.assert_array_equal(plant.Q, q)


def test_closed_loop_zero_gain(paper_plant, fig1_laplacian):
    a_cl = closed_loop(paper_plant, fig1_laplacian, np.zeros((1, 2)))
    np.testing.assert_array_equal(a_cl, np.kron(np.eye(3), paper_plant.A))


def test_closed_loop_single_follower(paper_plant, paper_gain):
    lp = build_laplacian(Topology(adjacency=[[0.0, 0.0], [1.0, 0.0]]))
    np.testing.assert_allclose(
        closed_loop(paper_plant, lp, paper_gain),
        paper_plant.A - paper_plant.B @ paper_gain,
    )


def test_closed_loop_paper_gain_is_hurwitz(paper_plant, fig1_laplacian, paper_gain):
    a_cl = closed_loop(paper_plant, fig1_laplacian, paper_gain)
    assert spectrum(a_cl).spectral_abscissa < 0


def test_modal_form_block_diagonalizes_closed_loop(paper_plant, fig1_laplacian, paper_gain):
    modal = modal_form(paper_plant, fig1_laplacian, paper_gain)
    rot = np.kron(modal.U, np.eye(2))
    rotated = rot.T @ closed_loop(paper_plant, fig1_laplacian, paper_gain) @ rot
    expected = np.zeros((6, 6))
    for i, block in enumerate(modal.blocks):
        expected[2 * i:2 * i + 2, 2 * i:2 * i + 2] = block
    np.testing.assert_allclose(rotated, expected, atol=1e-12)
    np.testing.assert_allclose(modal.c, modal.U.T @ np.ones(3), atol=1e-15)
    dense = spectrum(closed_loop(paper_plant, fig1_laplacian, paper_gain))
    np.testing.assert_allclose(np.sort_complex(modal.spectrum.eigenvalues.ravel()),
                               np.sort_complex(dense.eigenvalues), atol=1e-9)
    assert modal.spectrum.spectral_abscissa == pytest.approx(dense.spectral_abscissa, rel=1e-12)


def test_control_consensus_fixed_point(paper_plant, fig1_topology, paper_gain):
    sigma = np.tile([0.3, -0.2], (4, 1))
    u0 = np.array([0.7])
    u = control_inputs(paper_plant, fig1_topology, paper_gain, sigma, u0)
    np.testing.assert_allclose(u, np.tile(u0, (3, 1)), atol=1e-14)


def test_control_single_follower_definition(paper_plant, paper_gain):
    topo = Topology(adjacency=[[0.0, 0.0], [1.0, 0.0]])
    sigma = np.array([[0.2, 0.1], [1.0, -1.0]])
    u0 = np.array([0.5])
    u = control_inputs(paper_plant, topo, paper_gain, sigma, u0)
    expected = paper_gain @ (sigma[0] - sigma[1]) + u0
    np.testing.assert_allclose(u[0], expected)


def test_stacked_equals_per_agent_on_random_instances():
    rng = np.random.default_rng(321)
    for _ in range(100):
        plant, topo, k = random_instance(rng)
        lp = build_laplacian(topo)
        n_followers = topo.follower_count
        states = rng.normal(size=(n_followers + 1, plant.n))
        u0 = rng.normal(size=plant.m)
        per_agent = control_inputs(plant, topo, k, states, u0)
        e = (states[1:] - states[0]).ravel()
        stacked = stacked_control(lp, k, e, u0).reshape(n_followers, plant.m)
        assert np.abs(per_agent - stacked).max() <= 1e-12 * max(1.0, np.abs(per_agent).max())


def test_error_rhs_zero_everything(paper_plant, fig1_laplacian, paper_gain):
    out = error_rhs(paper_plant, fig1_laplacian, paper_gain, np.zeros(6), np.zeros(2))
    np.testing.assert_array_equal(out, np.zeros(6))


def test_error_rhs_disturbance_block_structure(paper_plant, fig1_laplacian, paper_gain):
    omega = np.array([0.3, -0.1])
    out = error_rhs(paper_plant, fig1_laplacian, paper_gain, np.zeros(6), omega)
    block = paper_plant.E @ omega
    np.testing.assert_array_equal(out.reshape(3, 2), np.tile(block, (3, 1)))


def test_error_rhs_without_disturbance_matches_closed_loop(paper_plant, fig1_laplacian, paper_gain):
    rng = np.random.default_rng(17)
    e = rng.normal(size=6)
    lhs = error_rhs(paper_plant, fig1_laplacian, paper_gain, e, np.zeros(2))
    rhs = closed_loop(paper_plant, fig1_laplacian, paper_gain) @ e
    np.testing.assert_array_equal(lhs, rhs)


def test_error_rhs_matches_full_state_finite_difference(paper_plant, fig1_topology, paper_gain):
    # oracle: leader and followers agent by agent (reference.agent_rhs), which
    # never forms L_tilde or closed_loop; their differenced rates must equal
    # the certified error system, and simulate's agent states must move at them
    rng = np.random.default_rng(8)
    x0 = rng.normal(size=(4, 2)) * 0.3
    omega = np.array([0.015, 0.01])
    u0 = [0.2]
    rates = agent_rhs(paper_plant, fig1_topology, paper_gain, x0, u0, omega)
    e0 = (x0[1:] - x0[0]).ravel()
    analytic = error_rhs(paper_plant, build_laplacian(fig1_topology), paper_gain, e0, omega)
    scale = max(1.0, np.abs(rates).max())
    assert np.abs((rates[1:] - rates[0]).ravel() - analytic).max() <= 1e-12 * scale
    dist = make_disturbance("custom", paper_plant, sample=lambda t, e: omega)
    dt = 1e-6
    traj = simulate(paper_plant, fig1_topology, paper_gain, u0, x0, dist, 10 * dt, dt)
    moved = np.vstack([traj.leader_states[1], traj.follower_states[1].reshape(3, 2)])
    numeric = (moved - x0) / dt
    assert np.abs(numeric - rates).max() <= 1e-4 * scale


@pytest.mark.parametrize("call, error, match", [
    (lambda p: PlantModel(A=np.ones((2, 3)), B=p.B, E=p.E, Q=p.Q, eta=1.0),
     DimensionMismatchError, "A must be square"),
    (lambda p: PlantModel(A=p.A, B=p.B, E=np.eye(3), Q=np.eye(3), eta=1.0),
     DimensionMismatchError, "E must have 2 rows"),
    (lambda p: PlantModel(A=p.A, B=p.B, E=p.E, Q=p.Q, eta=0.0), ValueError,
     "eta must be positive"),
    (lambda p: check_gain(p, np.ones((2, 2))), DimensionMismatchError, "K must be 1x2"),
    (lambda p: PlantModel(A=p.A, B=p.B, E=p.E, Q=p.Q, eta=np.nan), ValueError,
     "eta must be positive"),
], ids=["A-square", "E-rows", "eta", "K-shape", "eta-nan"])
def test_protocol_refusals(call, error, match, paper_plant):
    with pytest.raises(error, match=match):
        call(paper_plant)
