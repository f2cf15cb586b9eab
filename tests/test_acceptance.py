"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The reference error magnitudes in criterion 4 are matched by the per-agent
peak error over the steady window (the largest error coordinate of the
agent); the per-coordinate breakdown is printed alongside for inspection.
"""

import time

import numpy as np
import pytest

from minellip import (
    Topology,
    build_laplacian,
    check_input_bound,
    consensus_feasible,
    eig_sym,
    invariance_block,
    lyap_solve,
    make_disturbance,
    metrics,
    minimize_trace,
    optimize_gain,
    simulate,
    spectrum,
    worst_disturbance,
)
from minellip import PlantModel, scenario
from minellip.errors import NoSpanningTreeError, NotStabilizableError
from minellip.matkit import are_solve
from reference import family_solution, kron

SQRT2 = np.sqrt(2.0)


def _report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE CRITERION {number} [{label}]: {status} {detail}".rstrip())
    assert ok, f"criterion {number} ({label}) failed: {detail}"


@pytest.fixture(scope="session")
def paper_trajectories(paper_minimization):
    """The three bundled scenarios simulated at their configured settings,
    with V = e' P* e recorded against the trace-minimal ellipsoid."""
    p_star = paper_minimization.P_star
    runs = {}
    for name in ("paper_example1", "paper_example2", "paper_example3"):
        cfg = scenario.load_bundled(name)
        dist = make_disturbance(
            cfg.disturbance["kind"],
            cfg.plant,
            P=p_star,
            amplitudes=cfg.disturbance.get("amplitudes"),
            angular_frequency=cfg.disturbance.get("angular_frequency"),
        )
        traj = simulate(
            cfg.plant,
            cfg.topology,
            cfg.gain,
            cfg.simulation.u0,
            cfg.simulation.x0,
            dist,
            cfg.simulation.t_final,
            cfg.simulation.dt,
            P=p_star,
        )
        runs[name] = (cfg, traj)
    return runs


def test_criterion_1_laplacian_regression(fig1_topology):
    start = time.perf_counter()
    lp = build_laplacian(fig1_topology)
    expected_full = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [-1.0, 2.0, 0.0, -1.0],
        [-1.0, 0.0, 2.0, -1.0],
        [0.0, -1.0, -1.0, 2.0],
    ])
    expected_reduced = np.array([[2.0, 0.0, -1.0], [0.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
    exact = np.array_equal(lp.L, expected_full) and np.array_equal(lp.L_tilde, expected_reduced)
    eig_ok = np.allclose(eig_sym(lp.L_tilde), [2.0 - SQRT2, 2.0, 2.0 + SQRT2], atol=1e-10)
    elapsed = time.perf_counter() - start
    _report(1, "laplacian regression", exact and eig_ok and elapsed < 1.0,
            f"(runtime {elapsed:.3f}s)")


def test_criterion_2_scalar_oracles(scalar_plant, scalar_laplacian, scalar_gain):
    grid = np.linspace(0.08, 1.92, 20)
    family_ok = all(
        abs(family_solution(scalar_plant, scalar_laplacian, scalar_gain, b)[0, 0]
            - 1.0 / (b * (2.0 - b))) <= 1e-10
        for b in grid
    )
    res = minimize_trace(scalar_plant, scalar_laplacian, scalar_gain)
    beta_ok = abs(res.beta_star - 1.0) <= 1e-6
    trace_ok = abs(res.trace_value - 1.0) <= 1e-8
    _report(2, "scalar oracle suite", family_ok and beta_ok and trace_ok,
            f"(beta*={res.beta_star:.9f}, trace={res.trace_value:.12f})")


def test_criterion_3_certificate_consistency(paper_plant, fig1_laplacian, paper_gain):
    start = time.perf_counter()
    res = minimize_trace(paper_plant, fig1_laplacian, paper_gain)
    block = invariance_block(paper_plant, fig1_laplacian, paper_gain,
                             res.P_star, res.beta_star)
    max_eig = float(np.linalg.eigvalsh(block)[-1])
    block_ok = max_eig <= 1e-6 * (1.0 + np.linalg.norm(block, 2))
    input_ok = check_input_bound(fig1_laplacian, paper_gain, res.P_star, eta=50000.0)
    elapsed = time.perf_counter() - start
    _report(3, "certificate consistency", block_ok and input_ok and elapsed < 10.0,
            f"(beta*={res.beta_star:.6f}, trace={res.trace_value:.6g}, "
            f"block max eig={max_eig:.3e}, runtime {elapsed:.2f}s)")


def test_criterion_4_paper_error_regression(paper_trajectories, paper_minimization):
    bands = {
        "paper_example1": 0.01659,
        "paper_example2": 0.0243,
        "paper_example3": 0.0397,
    }
    checks = []
    details = []
    for name, reference in bands.items():
        cfg, traj = paper_trajectories[name]
        met = metrics(traj, cfg.simulation.window_fraction)
        agent3 = met.max_abs_error_per_agent[2]
        peak = float(agent3.max())
        ok = 0.8 * reference <= peak <= 1.2 * reference
        checks.append(ok)
        details.append(f"{name}: peak={peak:.6g} vs {reference}+-20% "
                       f"(per-coordinate {np.array2string(agent3, precision=6)})")

    # worst-case peak must hold nearly constant across the steady window
    cfg3, traj3 = paper_trajectories["paper_example3"]
    half = np.searchsorted(traj3.times, traj3.times[-1] * 0.5)
    agent3_abs = np.abs(traj3.errors[half:, 4:6]).max(axis=1)
    variation = float((agent3_abs.max() - agent3_abs.min()) / agent3_abs.max())
    checks.append(variation < 0.10)
    details.append(f"worst-case window variation {variation:.2e}")

    # halving dt must not move the steady metrics
    cfg1, traj1 = paper_trajectories["paper_example1"]
    dist = make_disturbance("sinusoid", cfg1.plant,
                            amplitudes=cfg1.disturbance["amplitudes"],
                            angular_frequency=cfg1.disturbance["angular_frequency"])
    halved = simulate(cfg1.plant, cfg1.topology, cfg1.gain, cfg1.simulation.u0,
                      cfg1.simulation.x0, dist, cfg1.simulation.t_final,
                      cfg1.simulation.dt / 2.0)
    met_full = metrics(traj1, 0.5).max_abs_error_per_agent
    met_half = metrics(halved, 0.5).max_abs_error_per_agent
    drift = float(np.abs(met_full - met_half).max() / np.abs(met_full).max())
    checks.append(drift < 1e-3)
    details.append(f"dt-halving drift {drift:.2e}")

    _report(4, "paper error regression", all(checks), "(" + "; ".join(details) + ")")


def test_criterion_5_invariance_property_suite(paper_trajectories, paper_minimization):
    p_star = paper_minimization.P_star
    cfg, sin_traj = paper_trajectories["paper_example1"]
    _, worst_traj = paper_trajectories["paper_example3"]
    plant = cfg.plant

    rng = np.random.default_rng(2718)

    def random_spec():
        direction = rng.normal(size=plant.p)
        direction /= np.sqrt(direction @ plant.Q @ direction)
        level = rng.uniform(0.3, 0.99)
        freq = rng.uniform(0.1, 2.0)
        phase = rng.uniform(0.0, 2 * np.pi)
        return make_disturbance(
            "custom", plant,
            sample=lambda t, e, d=direction, a=level, w=freq, ph=phase:
                a * np.sin(w * t + ph) * d)

    traces = [("sinusoid", sin_traj.V), ("worst_case", worst_traj.V)]
    none_traj = simulate(plant, cfg.topology, cfg.gain, cfg.simulation.u0,
                         cfg.simulation.x0, make_disturbance("none", plant),
                         cfg.simulation.t_final, cfg.simulation.dt, P=p_star)
    traces.append(("none", none_traj.V))
    for i in range(20):
        traj = simulate(plant, cfg.topology, cfg.gain, cfg.simulation.u0,
                        cfg.simulation.x0, random_spec(),
                        cfg.simulation.t_final, cfg.simulation.dt, P=p_star)
        traces.append((f"random{i}", traj.V))

    ok = True
    worst_overshoot = 0.0
    for name, v in traces:
        started_outside = v[0] > 1.0
        inside = np.nonzero(v <= 1.0)[0]
        entered = inside.size > 0
        stays = bool(v[inside[0]:].max() <= 1.005) if entered else False
        overshoot = float(v[inside[0]:].max() - 1.0) if entered else np.inf
        worst_overshoot = max(worst_overshoot, overshoot)
        above = v[:-1] >= 1.001
        decreasing = bool(np.all(v[1:][above] < v[:-1][above]))
        ok &= started_outside and entered and stays and decreasing
    _report(5, "invariance property suite", ok,
            f"({len(traces)} trajectories, max post-entry overshoot {worst_overshoot:.2e})")


def test_criterion_6_worst_case_optimality(paper_plant, paper_minimization):
    rng = np.random.default_rng(424242)
    p_star = paper_minimization.P_star
    ones_e = np.kron(np.ones((3, 1)), paper_plant.E)
    q_sqrt_inv = np.linalg.inv(np.linalg.cholesky(paper_plant.Q)).T
    dominated = True
    normalized = True
    for _ in range(50):
        e = rng.normal(size=6)
        w_star = worst_disturbance(p_star, paper_plant, e)
        normalized &= abs(float(w_star @ paper_plant.Q @ w_star) - 1.0) <= 1e-12
        v = ones_e.T @ (p_star @ e)
        best = float(w_star @ v)
        g = rng.normal(size=(10_000, 2))
        candidates = (g / np.linalg.norm(g, axis=1, keepdims=True)) @ q_sqrt_inv.T
        dominated &= bool((candidates @ v < best).all())
    _report(6, "worst-case optimality", dominated and normalized,
            "(50 states x 10000 random Q-unit directions)")


def test_criterion_7_numerical_kernel_suite():
    rng = np.random.default_rng(1234)

    lyap_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 9))
        m = rng.normal(size=(n, n))
        m -= (spectrum(m).spectral_abscissa + rng.uniform(0.5, 2.0)) * np.eye(n)
        c = rng.normal(size=(n, n))
        c = c + c.T
        x = lyap_solve(m, c)
        residual = np.linalg.norm(m @ x + x @ m.T + c, "fro")
        scale = np.linalg.norm(m, "fro") * np.linalg.norm(x, "fro") + np.linalg.norm(c, "fro")
        lyap_ok &= residual <= 1e-9 * max(scale, 1.0)

    are_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 5))
        m_in = int(rng.integers(1, 3))
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, m_in))
        gamma = float(rng.uniform(0.1, 10.0))
        p = are_solve(a, b, np.eye(n), gamma)
        residual = np.linalg.norm(a.T @ p + p @ a - gamma * p @ b @ b.T @ p + np.eye(n), "fro")
        scale = max(1.0, 2 * np.linalg.norm(a, "fro") * np.linalg.norm(p, "fro")
                    + gamma * np.linalg.norm(p @ b, "fro") ** 2 + np.sqrt(n))
        are_ok &= residual <= 1e-8 * scale
        are_ok &= spectrum(a - gamma * b @ b.T @ p).spectral_abscissa < 0

    kron_ok = True
    for _ in range(100):
        ra, ca, rb, cb = rng.integers(2, 4, size=4)
        a = rng.normal(size=(ra, ca))
        c = rng.normal(size=(ca, ra))
        b = rng.normal(size=(rb, cb))
        d = rng.normal(size=(cb, rb))
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        kron_ok &= np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())

    _report(7, "numerical kernel suite", lyap_ok and are_ok and kron_ok,
            "(100 Lyapunov, 100 Riccati, 100 Kronecker instances)")


def test_criterion_8_design_pipeline(paper_plant, fig1_topology, fig1_laplacian):
    from minellip import closed_loop, has_spanning_tree

    design = optimize_gain(paper_plant, fig1_laplacian)
    hurwitz = spectrum(closed_loop(paper_plant, fig1_laplacian, design.K)).spectral_abscissa < 0

    disconnected = build_laplacian(Topology(adjacency=np.zeros((4, 4))))
    tree_gate = not has_spanning_tree(disconnected)
    tree_gate &= not consensus_feasible(paper_plant, disconnected)
    try:
        optimize_gain(paper_plant, disconnected)
        tree_raise = False
    except NoSpanningTreeError:
        tree_raise = True

    pbh_failing = PlantModel(A=np.eye(2), B=[[1.0], [0.0]], E=np.eye(2), Q=np.eye(2), eta=1.0)
    pbh_gate = not consensus_feasible(pbh_failing, fig1_laplacian)
    try:
        optimize_gain(pbh_failing, fig1_laplacian)
        pbh_raise = False
    except NotStabilizableError:
        pbh_raise = True

    ok = hurwitz and design.input_ok and tree_gate and tree_raise and pbh_gate and pbh_raise
    _report(8, "design pipeline", ok,
            f"(selected gamma={design.gamma:.4g}, trace={design.minimization.trace_value:.6g})")
