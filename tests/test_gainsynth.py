import re

import numpy as np
import pytest

from minellip import (
    PlantModel,
    Topology,
    build_laplacian,
    closed_loop,
    consensus_feasible,
    design_gain,
    ellipsoid,
    gainsynth,
    matkit,
    optimize_gain,
    scenario,
    spectrum,
)
from minellip.errors import (
    NoFeasibleDesignError,
    NoSpanningTreeError,
    NotHurwitzError,
    NotStabilizableError,
    SingularSylvesterError,
)
from minellip.gainsynth import DEFAULT_GAMMA_GRID
from minellip.matkit import are_solve
from reference import eig_sym, gamma_sweep
from test_ellipsoid import counted_calls, recorded_searches, seeded_adjacency


@pytest.fixture(scope="module")
def scalar_integrator_plant():
    return PlantModel(A=[[0.0]], B=[[1.0]], E=[[1.0]], Q=[[1.0]], eta=100.0)


@pytest.fixture(scope="module")
def single_follower_lp():
    return build_laplacian(Topology(adjacency=[[0.0, 0.0], [1.0, 0.0]]))


def disconnected_lp():
    return build_laplacian(Topology(adjacency=np.zeros((3, 3))))


def test_design_scalar_closed_form(scalar_integrator_plant, single_follower_lp):
    k = design_gain(scalar_integrator_plant, single_follower_lp, gamma=1.0, q0=[[1.0]])
    assert k[0, 0] == pytest.approx(0.5, abs=1e-10)
    assert spectrum(np.array([[0.0]]) - np.array([[1.0]]) @ k).spectral_abscissa \
        == pytest.approx(-0.5, abs=1e-10)


def test_design_stabilizes_every_mode(paper_plant, fig1_laplacian):
    lam = eig_sym(fig1_laplacian.L_tilde)
    for gamma in (0.1, 1.0, 10.0):
        k = design_gain(paper_plant, fig1_laplacian, gamma)
        for lam_i in lam:
            modal = paper_plant.A - lam_i * paper_plant.B @ k
            assert spectrum(modal).spectral_abscissa < 0
        assert spectrum(closed_loop(paper_plant, fig1_laplacian, k)).spectral_abscissa < 0


def test_design_satisfies_strict_gain_inequality(paper_plant, fig1_laplacian):
    # A X + X A' - gamma B B' < 0 must hold strictly for X from the Riccati solve
    for gamma in (0.5, 2.0, 20.0):
        p = are_solve(paper_plant.A, paper_plant.B, np.eye(2), gamma)
        x = np.linalg.inv(p)
        slack = -(paper_plant.A @ x + x @ paper_plant.A.T
                  - gamma * paper_plant.B @ paper_plant.B.T)
        assert np.linalg.eigvalsh(0.5 * (slack + slack.T)).min() > 0


def test_design_rejects_unstabilizable(single_follower_lp):
    plant = PlantModel(A=[[1.0]], B=[[0.0]], E=[[1.0]], Q=[[1.0]], eta=1.0)
    with pytest.raises(NotStabilizableError):
        design_gain(plant, single_follower_lp, gamma=1.0)


def test_design_rejects_disconnected(paper_plant):
    with pytest.raises(NoSpanningTreeError):
        design_gain(paper_plant, disconnected_lp(), gamma=1.0)


def test_consensus_feasible_gate(paper_plant, fig1_laplacian):
    assert consensus_feasible(paper_plant, fig1_laplacian)
    assert not consensus_feasible(paper_plant, disconnected_lp())
    pbh_failing = PlantModel(
        A=[[1.0, 0.0], [0.0, 1.0]], B=[[1.0], [0.0]], E=np.eye(2), Q=np.eye(2), eta=1.0)
    assert not consensus_feasible(pbh_failing, fig1_laplacian)


def scalar_design_trace(gamma):
    # closed forms for A=-1, B=E=Q=1, single follower: the Riccati solution is
    # (sqrt(1+gamma)-1)/gamma, the designed gain (sqrt(1+gamma)-1)/2, and the
    # minimal family trace 1/(1+K)^2
    k = (np.sqrt(1.0 + gamma) - 1.0) / 2.0
    return 1.0 / (1.0 + k) ** 2


def test_optimize_scalar_grid_picks_smallest_trace(scalar_plant, scalar_laplacian):
    grid = [0.5, 1.0, 2.0, 4.0]
    result = optimize_gain(scalar_plant, scalar_laplacian, gamma_grid=grid)
    assert result.gamma == pytest.approx(4.0)
    assert result.minimization.trace_value == pytest.approx(scalar_design_trace(4.0), rel=1e-6)
    assert result.input_ok


def test_optimize_infeasible_for_tiny_eta(scalar_plant, scalar_laplacian):
    cramped = PlantModel(A=[[-1.0]], B=[[1.0]], E=[[1.0]], Q=[[1.0]], eta=1e-6)
    with pytest.raises(NoFeasibleDesignError):
        optimize_gain(cramped, scalar_laplacian, gamma_grid=[0.5, 1.0, 2.0, 4.0])


def test_optimize_skips_the_smallest_trace_over_the_input_bound(scalar_laplacian):
    # the trace falls and the peak input K/(1+K) rises with gamma: at eta = 0.3,
    # gamma = 4 (peak 0.382) has the smallest trace but fails the bound, and
    # gamma = 2 (peak 0.268) is the smallest trace that passes it
    cramped = PlantModel(A=[[-1.0]], B=[[1.0]], E=[[1.0]], Q=[[1.0]], eta=0.3)
    result = optimize_gain(cramped, scalar_laplacian, gamma_grid=[4.0, 0.5, 2.0, 1.0])
    assert result.gamma == 2.0
    assert result.minimization.trace_value == pytest.approx(scalar_design_trace(2.0), rel=1e-6)
    assert result.input_ok


def test_optimize_refuses_an_empty_grid(paper_plant, fig1_laplacian):
    # no gamma was tried, so no design can be said to violate the bound
    with pytest.raises(ValueError, match="gamma_grid is empty"):
        optimize_gain(paper_plant, fig1_laplacian, gamma_grid=[])


def test_optimize_paper_system_default_grid(paper_plant, fig1_laplacian):
    result = optimize_gain(paper_plant, fig1_laplacian)
    assert result.input_ok
    assert np.isfinite(result.minimization.trace_value)
    assert spectrum(closed_loop(paper_plant, fig1_laplacian, result.K)).spectral_abscissa < 0


def test_optimize_exhaustive_comparison(scalar_plant, scalar_laplacian):
    grid = [0.25, 0.75, 1.5, 3.0, 6.0]
    result = optimize_gain(scalar_plant, scalar_laplacian, gamma_grid=grid)
    traces = [scalar_design_trace(g) for g in grid]
    assert result.minimization.trace_value <= min(traces) * (1 + 1e-9)


def test_grid_refinement_never_increases_trace(scalar_plant, scalar_laplacian):
    coarse = [0.5, 2.0, 8.0]
    fine = coarse + [1.0, 4.0, 16.0]
    r_coarse = optimize_gain(scalar_plant, scalar_laplacian, gamma_grid=coarse)
    r_fine = optimize_gain(scalar_plant, scalar_laplacian, gamma_grid=fine)
    assert r_fine.minimization.trace_value <= r_coarse.minimization.trace_value * (1 + 1e-12)


@pytest.mark.parametrize("a", [1e-12, 1e-9, 1.0, 1e9, 1e12])
def test_consensus_feasible_at_any_time_scale(a, paper_plant, fig1_laplacian):
    # A x a is the paper plant on time scale 1/a; at lambda = 0 the pencil
    # [A - lambda I, B] = [[0, a, 0], [0, 0, 1]] has full rank at every a
    scaled = PlantModel(A=a * paper_plant.A, B=paper_plant.B, E=paper_plant.E,
                        Q=paper_plant.Q, eta=paper_plant.eta)
    assert consensus_feasible(scaled, fig1_laplacian)


def test_pbh_margin_is_relative_to_a(fig1_laplacian):
    # a stable mode at -0.5 s is stable at any s; an unstable mode that B
    # misses is refused at any s
    def plant(a):
        return PlantModel(A=a, B=[[0.0], [1.0]], E=np.eye(2), Q=np.eye(2), eta=1.0)

    assert consensus_feasible(plant(1e-9 * np.diag([-0.5, 0.0])), fig1_laplacian)
    for s in (1e-9, 1.0, 1e9):
        assert not consensus_feasible(plant(s * np.diag([0.5, 0.0])), fig1_laplacian)


def test_optimize_rejects_disconnected_through_design_gain(paper_plant):
    # one spanning-tree gate, in design_gain; the PBH gate comes first
    with pytest.raises(NoSpanningTreeError):
        optimize_gain(paper_plant, disconnected_lp(), gamma_grid=[1.0, 2.0])
    unstabilizable = PlantModel(A=[[1.0, 0.0], [0.0, 1.0]], B=[[1.0], [0.0]], E=np.eye(2),
                                Q=np.eye(2), eta=1.0)
    with pytest.raises(NotStabilizableError):
        optimize_gain(unstabilizable, disconnected_lp(), gamma_grid=[1.0])


def sweep_system(system, paper_plant):
    """``(plant, lp, grid)``: the paper example, a scalar plant and seeded N = 10 and N = 20
    graphs, on the last three of which the input bound passes some gammas and fails others."""
    if system == "paper_example1":
        cfg = scenario.load_bundled(system)
        return cfg.plant, build_laplacian(cfg.topology), DEFAULT_GAMMA_GRID
    if system == "scalar":
        plant = PlantModel(A=[[-1.0]], B=[[1.0]], E=[[1.0]], Q=[[1.0]], eta=0.3)
        lp = build_laplacian(Topology(adjacency=[[0.0, 0.0], [1.0, 0.0]]))
        return plant, lp, [4.0, 0.5, 2.0, 1.0, 8.0]
    # the peak inputs span 0.097-0.24 over the grid at N = 10 and 0.14-0.32 at N = 20
    plant = PlantModel(A=paper_plant.A, B=paper_plant.B, E=paper_plant.E, Q=paper_plant.Q,
                       eta=0.15)
    n_followers = int(system.removeprefix("seeded N="))
    return plant, build_laplacian(Topology(adjacency=seeded_adjacency(n_followers, 7))), \
        DEFAULT_GAMMA_GRID


@pytest.mark.parametrize("system", ["paper_example1", "scalar", "seeded N=10", "seeded N=20"])
def test_stacked_sweep_is_the_per_gamma_loop_bit_for_bit(system, paper_plant):
    # the lockstep searches, the stacked X*/P* assembly (two chunks at N = 20) and the stacked
    # input test give each gamma exactly what public one-gain calls give it
    plant, lp, grid = sweep_system(system, paper_plant)
    reference = gamma_sweep(plant, lp, grid)
    gains = [k for k, _, _ in reference]
    verdicts = [r is not None for r in ellipsoid._minimize_traces(plant, lp, gains, plant.eta)]
    assert verdicts == [ok for *_, ok in reference]
    assert len(set(verdicts)) == (1 if system == "paper_example1" else 2)
    for (_, one, _), res in zip(reference, ellipsoid._minimize_traces(plant, lp, gains)):
        assert (res.beta_star, res.trace_value, res.beta_max) == (
            one.beta_star, one.trace_value, one.beta_max)
        np.testing.assert_array_equal(res.X_star, one.X_star)
        np.testing.assert_array_equal(res.P_star, one.P_star)
    best = optimize_gain(plant, lp, gamma_grid=grid)
    trace, gamma = min((one.trace_value, gamma) for gamma, (_, one, ok)
                       in zip(grid, reference) if ok)
    assert (best.minimization.trace_value, best.gamma) == (trace, gamma)
    np.testing.assert_array_equal(best.minimization.P_star,
                                  reference[list(grid).index(gamma)][1].P_star)


def test_sweep_searches_make_one_lu_per_lockstep_round(monkeypatch, paper_plant):
    # every round solves the live searches in one kron_solve, as many rounds as the longest
    # search has evaluations; one residual check then covers every search's solves, and
    # design_gain's Riccati solve still runs once per gamma
    lp = build_laplacian(Topology(adjacency=seeded_adjacency(10, 7)))
    events = []
    solve, checks = matkit.kron_solve, counted_calls(monkeypatch, matkit, "check_residual")
    check = matkit.check_residual
    monkeypatch.setattr(matkit, "kron_solve", lambda *a: events.append("LU") or solve(*a))
    monkeypatch.setattr(matkit, "check_residual",
                        lambda *a: events.append("check") or check(*a))
    riccati = matkit.are_solve
    monkeypatch.setattr(matkit, "are_solve",
                        lambda *a: (riccati(*a), events.append("Riccati"))[0])
    searches = recorded_searches(monkeypatch, checks)
    optimize_gain(paper_plant, lp)
    assert events.count("Riccati") == len(searches) == len(DEFAULT_GAMMA_GRID)
    sweep = events[len(events) - events[::-1].index("Riccati"):]  # after the last design
    rounds = max(len(evaluations) - 1 for evaluations in searches)
    assert sweep[:rounds + 1] == ["LU"] * rounds + ["check"]
    (m, n, x, _) = checks[len(checks) - sweep.count("check")]
    assert n is m and len(x) == sum(len(evaluations) - 1 for evaluations in searches)


def test_sweep_refuses_a_destabilizing_gain_as_one_search_does(monkeypatch, paper_plant,
                                                               fig1_laplacian):
    # a gain that leaves the closed loop unstable at one gamma is refused by name, as the
    # per-gamma loop refused it
    design, calls = gainsynth.design_gain, []

    def destabilizing(*args):
        calls.append(args)
        k = design(*args)
        return -k if len(calls) == 5 else k

    monkeypatch.setattr(gainsynth, "design_gain", destabilizing)
    k = -design(paper_plant, fig1_laplacian, DEFAULT_GAMMA_GRID[4])
    abscissa = spectrum(closed_loop(paper_plant, fig1_laplacian, k)).spectral_abscissa
    with pytest.raises(NotHurwitzError, match=re.escape(
            f"closed loop has spectral abscissa {abscissa:.3e} >= 0")):
        optimize_gain(paper_plant, fig1_laplacian)


def test_sweep_refuses_one_perturbed_solve_after_the_searches(monkeypatch, paper_plant,
                                                               fig1_laplacian):
    # one gain's solve in the third lockstep round off by a relative 1e-6: the searches run on
    # to their ends, and the check after them refuses it before any X* is assembled
    solve, calls, searches = matkit.kron_solve, [], recorded_searches(monkeypatch, [])

    def mutant(op, rhs):  # counts the LUs from the first search on, after every design
        calls.extend([op] if searches else [])
        x = solve(op, rhs)
        if len(calls) == 3:
            x[5] *= 1.0 + 1e-6
        return x

    monkeypatch.setattr(matkit, "kron_solve", mutant)
    with pytest.raises(SingularSylvesterError, match="residual"):
        optimize_gain(paper_plant, fig1_laplacian)
    assert len(calls[2]) == len(DEFAULT_GAMMA_GRID)  # every search was live in that round
    assert len(calls) == max(len(evaluations) - 1 for evaluations in searches) > 3
