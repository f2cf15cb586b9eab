import time

import numpy as np
import pytest
import scipy.linalg
import yaml
from scipy.optimize import minimize_scalar

from minellip import (
    PlantModel,
    Topology,
    build_laplacian,
    check_input_bound,
    check_invariant,
    closed_loop,
    family_solution,
    find_beta,
    invariance_block,
    make_disturbance,
    minimize_trace,
    simulate,
    worst_disturbance,
)
from minellip.ellipsoid import _log_golden_min
from minellip import ellipsoid, scenario
from minellip.errors import (
    BetaOutOfRangeError,
    ConfigError,
    DegenerateDirectionError,
    DimensionMismatchError,
    NotHurwitzError,
    NotSymmetricError,
)
from minellip.matkit import lyap_solve
from minellip.protocol import modal_form
from reference import disturbance_gramian, family_residual, is_pd, solves_family, widening


def scalar_family_reference(beta):
    return 1.0 / (beta * (2.0 - beta))


def scipy_min_trace(plant, lp, k):
    """``(beta*, X(beta) as a function, beta_max)`` of the equality family,
    built from the stacked matrices with SciPy's Lyapunov solver and a
    bounded scalar minimizer over log beta."""
    n_followers = lp.L_tilde.shape[0]
    a_cl = np.kron(np.eye(n_followers), plant.A) - np.kron(lp.L_tilde, plant.B @ k)
    ones_e = np.kron(np.ones((n_followers, 1)), plant.E)
    g = ones_e @ np.linalg.solve(plant.Q, ones_e.T)

    def family(beta):
        shifted = a_cl + 0.5 * beta * np.eye(a_cl.shape[0])
        return scipy.linalg.solve_continuous_lyapunov(shifted, -g / beta)

    top = -2.0 * float(scipy.linalg.eigvals(a_cl).real.max())
    found = minimize_scalar(lambda log_b: float(np.trace(family(np.exp(log_b)))),
                            bounds=(np.log(1e-6 * top), np.log((1.0 - 1e-6) * top)),
                            method="bounded", options={"xatol": 1e-12, "maxiter": 500})
    return float(np.exp(found.x)), family, top


def seeded_adjacency(n_followers, seed):
    """Leader-rooted adjacency: a random weighted spanning tree over the
    followers, N // 2 extra edges and 1 + N // 8 followers pinned to the
    leader, weights uniform on [0.5, 2]."""
    rng = np.random.default_rng(seed)
    w = np.zeros((n_followers, n_followers))
    pairs = [(i, int(rng.integers(0, i))) for i in range(1, n_followers)]
    pairs += [tuple(rng.choice(n_followers, 2, replace=False)) for _ in range(n_followers // 2)]
    for i, j in pairs:
        w[i, j] = w[j, i] = rng.uniform(0.5, 2.0)
    adj = np.zeros((n_followers + 1, n_followers + 1))
    adj[1:, 1:] = w
    pins = rng.choice(n_followers, 1 + n_followers // 8, replace=False)
    adj[1 + pins, 0] = rng.uniform(0.5, 2.0, size=pins.size)
    return adj


def assert_matches_scipy(plant, lp, k):
    res = minimize_trace(plant, lp, k)
    beta_ref, family, top = scipy_min_trace(plant, lp, k)
    assert res.beta_max == pytest.approx(top, rel=1e-6)
    assert res.beta_star == pytest.approx(beta_ref, rel=1e-5)
    assert res.trace_value == pytest.approx(np.trace(family(beta_ref)), rel=1e-6)
    x_ref = family(res.beta_star)
    assert np.linalg.norm(res.X_star - x_ref) <= 1e-6 * np.linalg.norm(x_ref)
    return res


# --- invariance block and certificate ----------------------------------

def test_block_scalar_boundary(scalar_plant, scalar_laplacian, scalar_gain):
    block = invariance_block(scalar_plant, scalar_laplacian, scalar_gain, [[1.0]], 1.0)
    np.testing.assert_allclose(block, [[-1.0, 1.0], [1.0, -1.0]], atol=1e-14)
    cert = check_invariant(scalar_plant, scalar_laplacian, scalar_gain, [[1.0]], 1.0)
    assert cert.feasible
    assert abs(cert.max_eig) <= 1e-12


def test_block_scalar_infeasible(scalar_plant, scalar_laplacian, scalar_gain):
    block = invariance_block(scalar_plant, scalar_laplacian, scalar_gain, [[2.0]], 1.0)
    np.testing.assert_allclose(block, [[-2.0, 2.0], [2.0, -1.0]], atol=1e-14)
    cert = check_invariant(scalar_plant, scalar_laplacian, scalar_gain, [[2.0]], 1.0)
    assert not cert.feasible


def test_block_infeasible_as_beta_vanishes(scalar_plant, scalar_laplacian, scalar_gain):
    # with E != 0 the bottom-right block vanishes with beta while the
    # off-diagonal coupling stays, so feasibility is impossible
    for beta in (1e-3, 1e-6, 1e-9):
        cert = check_invariant(scalar_plant, scalar_laplacian, scalar_gain, [[1.0]], beta)
        assert not cert.feasible


def test_minimizer_certificate_is_tight(paper_plant, fig1_laplacian, paper_gain,
                                        paper_minimization):
    res = paper_minimization
    cert = check_invariant(paper_plant, fig1_laplacian, paper_gain, res.P_star, res.beta_star)
    assert cert.feasible
    block = invariance_block(paper_plant, fig1_laplacian, paper_gain, res.P_star, res.beta_star)
    assert abs(cert.max_eig) <= 1e-6 * (1.0 + np.linalg.norm(block, 2))


def test_doubled_p_infeasible_for_all_beta(scalar_plant, scalar_laplacian, scalar_gain):
    # scalar closed form: P <= beta (2 - beta) <= 1, so P = 2 never certifies
    for beta in np.linspace(0.05, 1.95, 25):
        cert = check_invariant(scalar_plant, scalar_laplacian, scalar_gain, [[2.0]], beta)
        assert not cert.feasible
    assert find_beta(scalar_plant, scalar_laplacian, scalar_gain, [[2.0]]) is None


def test_halved_p_remains_feasible(scalar_plant, scalar_laplacian, scalar_gain):
    beta = find_beta(scalar_plant, scalar_laplacian, scalar_gain, [[0.5]])
    assert beta is not None
    # feasible multipliers form the interval [1 - sqrt(1/2), 1 + sqrt(1/2)]
    assert 1.0 - np.sqrt(0.5) - 1e-6 <= beta <= 1.0 + np.sqrt(0.5) + 1e-6


def test_unstable_zero_gain_never_feasible(paper_plant, fig1_laplacian):
    rng = np.random.default_rng(4)
    zero_gain = np.zeros((1, 2))
    for _ in range(10):
        g = rng.normal(size=(6, 6))
        p = g @ g.T + 0.1 * np.eye(6)
        for beta in (0.01, 0.1, 1.0, 10.0):
            cert = check_invariant(paper_plant, fig1_laplacian, zero_gain, p, beta)
            assert not cert.feasible
        assert find_beta(paper_plant, fig1_laplacian, zero_gain, p) is None


NOT_PD = (np.zeros((6, 6)), -np.eye(6), np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -1.0]))


def test_not_positive_definite_p_is_refused(paper_plant, fig1_laplacian, paper_gain):
    # {e : e'Pe <= 1} is no ellipsoid here: P = 0 gave beta = 3.7e-6 and a
    # feasible certificate before P was required to be positive definite
    for p in NOT_PD:
        with pytest.raises(ValueError, match="positive definite"):
            find_beta(paper_plant, fig1_laplacian, paper_gain, p)
        with pytest.raises(ValueError, match="positive definite"):
            check_invariant(paper_plant, fig1_laplacian, paper_gain, p, 1.0)


#: Defective P matrices for the three-follower paper system (order 6), each
#: built from P* and paired with the error every entry point must raise.
BAD_P = (
    ("zero", lambda p: np.zeros((6, 6)), ValueError),
    ("minus_P*", lambda p: -p, ValueError),
    ("indefinite", lambda p: np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -1.0]), ValueError),
    ("P*+skew", lambda p: p + np.triu(np.full((6, 6), 1e-3 * np.abs(p).max()), 1),
     NotSymmetricError),
    ("I4", lambda p: np.eye(4), DimensionMismatchError),
    ("I8", lambda p: np.eye(8), DimensionMismatchError),
    ("ones", lambda p: np.ones((6, 6)), ValueError),
)
P_ENTRY_POINTS = ("scenario", "check_invariant", "find_beta", "check_input_bound",
                  "worst_disturbance", "worst_case_sampler", "simulate")


@pytest.mark.parametrize("entry", P_ENTRY_POINTS)
@pytest.mark.parametrize("make_p, error", [b[1:] for b in BAD_P], ids=[b[0] for b in BAD_P])
def test_every_p_entry_point_refuses_alike(entry, make_p, error, paper_plant, fig1_topology,
                                           fig1_laplacian, paper_gain, paper_x0,
                                           paper_minimization):
    # one rule wherever P enters: not positive definite is a ValueError, not
    # symmetric a NotSymmetricError, a wrong order a DimensionMismatchError
    p = make_p(paper_minimization.P_star)
    plant, lp, k, e = paper_plant, fig1_laplacian, paper_gain, np.ones(6)
    match = "positive definite" if error is ValueError else None
    if entry == "scenario":
        data = yaml.safe_load(scenario.bundled_path("paper_example1").read_text())
        data["ellipsoid"] = {"P": p.tolist()}
        with pytest.raises(ConfigError, match=match) as exc:
            scenario.from_dict(data)
        assert isinstance(exc.value.__cause__, error)
        return
    calls = {
        "check_invariant": lambda: check_invariant(plant, lp, k, p,
                                                   paper_minimization.beta_star),
        "find_beta": lambda: find_beta(plant, lp, k, p),
        "check_input_bound": lambda: check_input_bound(lp, k, p, plant.eta),
        "worst_disturbance": lambda: worst_disturbance(p, plant, e),
        "worst_case_sampler": lambda: make_disturbance("worst_case", plant, P=p).sampler(0.0, e),
        "simulate": lambda: simulate(plant, fig1_topology, k, [0.0], paper_x0,
                                     make_disturbance("none", plant), 0.1, 1e-2, P=p),
    }
    with pytest.raises(error, match=match):
        calls[entry]()


# --- find_beta ----------------------------------------------------------

def test_find_beta_unique_boundary_point(scalar_plant, scalar_laplacian, scalar_gain):
    beta = find_beta(scalar_plant, scalar_laplacian, scalar_gain, [[1.0]])
    assert beta == pytest.approx(1.0, abs=1e-4)


def test_find_beta_no_disturbance_channel():
    plant = PlantModel(A=[[-1.0]], B=[[1.0]], E=[[0.0]], Q=[[1.0]], eta=1.0)
    lp = build_laplacian(Topology(adjacency=[[0.0, 0.0], [1.0, 0.0]]))
    p = lyap_solve(np.array([[-1.0]]), np.eye(1))  # Lyapunov certificate, P = 0.5
    beta = find_beta(plant, lp, np.array([[0.0]]), p)
    assert beta is not None


def test_find_beta_on_reference_ellipsoid(paper_plant, fig1_laplacian, paper_gain):
    # published ellipsoid matrix for this system; find_beta must certify it
    p_ref = 1e3 * np.array([
        [1.9963, 0.0008, -1.2544, -0.0003, -0.6919, -0.0018],
        [0.0008, 0.0188, -0.0005, -0.0135, 0.0014, -0.0037],
        [-1.2544, -0.0005, 1.9291, -0.0000, -0.6245, -0.0027],
        [-0.0003, -0.0135, -0.0000, 0.0186, 0.0030, -0.0030],
        [-0.6919, 0.0014, -0.6245, 0.0030, 1.2549, 0.0049],
        [-0.0018, -0.0037, -0.0027, -0.0030, 0.0049, 0.0080],
    ])
    p_ref = 0.5 * (p_ref + p_ref.T)
    assert is_pd(p_ref)
    beta = find_beta(paper_plant, fig1_laplacian, paper_gain, p_ref)
    assert beta is not None
    cert = check_invariant(paper_plant, fig1_laplacian, paper_gain, p_ref, beta)
    assert cert.feasible


def test_find_beta_near_lower_end_of_bracket(paper_plant, fig1_laplacian, paper_gain,
                                             paper_minimization):
    # the family member at beta0 has beta0 as its multiplier; near the low
    # end of the searched (1e-6, 1) * beta_max it must still be found
    beta_max = paper_minimization.beta_max
    for beta0 in (1e-3 * beta_max, 1e-5 * beta_max):
        p = np.linalg.inv(family_solution(paper_plant, fig1_laplacian, paper_gain, beta0))
        p = 0.5 * (p + p.T)
        beta = find_beta(paper_plant, fig1_laplacian, paper_gain, p)
        assert beta is not None
        assert beta / beta0 == pytest.approx(1.0, abs=0.05)
        assert check_invariant(paper_plant, fig1_laplacian, paper_gain, p, beta).feasible


# --- family solution ----------------------------------------------------

def test_family_scalar_closed_form(scalar_plant, scalar_laplacian, scalar_gain):
    for beta in np.linspace(0.1, 1.9, 19):
        x = family_solution(scalar_plant, scalar_laplacian, scalar_gain, beta)
        assert x[0, 0] == pytest.approx(scalar_family_reference(beta), abs=1e-12)


def test_family_diverges_at_interval_edge(scalar_plant, scalar_laplacian, scalar_gain):
    x_inner = family_solution(scalar_plant, scalar_laplacian, scalar_gain, 1.0)
    x_edge = family_solution(scalar_plant, scalar_laplacian, scalar_gain, 2.0 - 1e-6)
    assert x_edge[0, 0] > 1e4 * x_inner[0, 0]
    with pytest.raises(BetaOutOfRangeError):
        family_solution(scalar_plant, scalar_laplacian, scalar_gain, 2.5)
    with pytest.raises(BetaOutOfRangeError):
        family_solution(scalar_plant, scalar_laplacian, scalar_gain, -0.1)


def test_family_requires_hurwitz(paper_plant, fig1_laplacian):
    with pytest.raises(NotHurwitzError):
        family_solution(paper_plant, fig1_laplacian, np.zeros((1, 2)), 0.5)


def test_family_paper_system_spd_with_residual(paper_plant, fig1_laplacian, paper_gain):
    a_cl = closed_loop(paper_plant, fig1_laplacian, paper_gain)
    g = disturbance_gramian(paper_plant, 3)
    for beta in (0.5, 1.0, 1.9, 3.0):
        x = family_solution(paper_plant, fig1_laplacian, paper_gain, beta)
        w = np.linalg.eigvalsh(x)
        assert w.min() > 0.0
        shifted = a_cl + 0.5 * beta * np.eye(6)
        residual = np.linalg.norm(shifted @ x + x @ shifted.T + g / beta, "fro")
        scale = max(1.0, np.linalg.norm(shifted, "fro") * np.linalg.norm(x, "fro")
                    + np.linalg.norm(g, "fro") / beta)
        assert residual <= 1e-8 * scale


# --- trace minimization --------------------------------------------------

def test_minimize_scalar_closed_form(scalar_laplacian, scalar_gain):
    # A = -a: tr X(beta) = 1 / (beta (2a - beta)), minimal at beta* = a with
    # X* = 1/a^2; the answer must hold to the same relative accuracy at any a.
    # P* is tangent to the feasible set: beta = a is its only multiplier
    for a in (1e-10, 1e-6, 1.0, 1e3, 1e10):
        plant = PlantModel(A=[[-a]], B=[[1.0]], E=[[1.0]], Q=[[1.0]], eta=10.0)
        res = minimize_trace(plant, scalar_laplacian, scalar_gain)
        assert res.beta_star / a == pytest.approx(1.0, abs=1e-6)
        assert res.trace_value * a**2 == pytest.approx(1.0, abs=1e-8)
        assert res.P_star[0, 0] / a**2 == pytest.approx(1.0, abs=1e-8)
        assert res.beta_max / a == pytest.approx(2.0, abs=1e-12)
        beta = find_beta(plant, scalar_laplacian, scalar_gain, res.P_star)
        assert beta is not None
        assert beta / a == pytest.approx(1.0, abs=1e-6)


def test_minimize_requires_hurwitz(paper_plant, fig1_laplacian):
    with pytest.raises(NotHurwitzError):
        minimize_trace(paper_plant, fig1_laplacian, np.zeros((1, 2)))


def test_trace_convex_along_family(paper_plant, fig1_laplacian, paper_gain,
                                   paper_minimization):
    # the premise of the search: the family's trace and find_beta's objective
    # lambda_max(M0 + beta P + P G P / beta) are convex in beta
    a_cl = closed_loop(paper_plant, fig1_laplacian, paper_gain)
    g = disturbance_gramian(paper_plant, 3)
    beta_max = paper_minimization.beta_max
    grid = np.linspace(1e-3 * beta_max, (1 - 1e-3) * beta_max, 30)
    objectives = [lambda beta: np.trace(lyap_solve(a_cl + 0.5 * beta * np.eye(6), g / beta))]
    for scale in (1.0, 0.5, 2.0):
        p = scale * paper_minimization.P_star
        m0, pgp = p @ a_cl + a_cl.T @ p, p @ g @ p
        objectives.append(lambda beta, p=p, m0=m0, pgp=pgp:
                          np.linalg.eigvalsh(m0 + beta * p + pgp / beta)[-1])
    for f in objectives:
        values = np.array([f(beta) for beta in grid])
        second_diff = values[:-2] - 2 * values[1:-1] + values[2:]
        assert second_diff.min() >= -1e-8 * max(1.0, np.abs(values).max())


def test_log_golden_min_convex_objectives():
    # golden-section search needs no pre-scan on a convex objective: it finds
    # the minimizer anywhere in [1e-6, 1 - 1e-6] * beta_max to relative width
    # rtol, in a number of evaluations fixed by the bracket and rtol alone
    beta_max, golden_ratio = 2.5, (1.0 + np.sqrt(5.0)) / 2.0
    width = np.log((1 - 1e-6) / 1e-6)
    for rtol, budget in ((1e-8, 46), (1e-9, 51)):
        assert budget == int(np.ceil(np.log(width / rtol) / np.log(golden_ratio))) + 2
        for frac in (3e-6, 1e-3, 0.3, 0.9, 1 - 3e-6):
            beta0 = frac * beta_max
            calls = []

            def f(beta):
                calls.append(beta)
                return (np.log(beta) - np.log(beta0)) ** 2 + ((beta - beta0) / beta_max) ** 2

            beta = _log_golden_min(f, beta_max, rtol)
            assert abs(beta / beta0 - 1.0) <= rtol
            assert len(calls) <= budget


def test_minimizer_is_locally_optimal(paper_plant, fig1_laplacian, paper_gain,
                                      paper_minimization):
    res = paper_minimization
    for factor in (0.9, 1.1):
        x = family_solution(paper_plant, fig1_laplacian, paper_gain, factor * res.beta_star)
        assert np.trace(x) >= res.trace_value - 1e-10 * max(1.0, res.trace_value)


def test_minimizer_invariants(paper_minimization):
    res = paper_minimization
    assert 0.0 < res.beta_star < res.beta_max
    assert res.trace_value == pytest.approx(np.trace(res.X_star), rel=1e-12)
    w = np.linalg.eigvalsh(res.P_star)
    assert w.min() > 0.0


# --- modal solve against SciPy on the stacked system ---------------------

def test_modal_repeated_laplacian_eigenvalues(paper_plant, paper_gain):
    # complete follower graph, every follower pinned with weight 1:
    # L_tilde = 5 I - 1 1^T has the eigenvalue 5 four times over
    adj = np.zeros((5, 5))
    adj[1:, 1:] = 1.0 - np.eye(4)
    adj[1:, 0] = 1.0
    lp = build_laplacian(Topology(adjacency=adj))
    np.testing.assert_allclose(modal_form(paper_plant, lp, paper_gain).lam, [1, 5, 5, 5])
    assert_matches_scipy(paper_plant, lp, paper_gain)


def test_modal_defective_block(paper_plant, paper_gain):
    # the pin weight 4 k1 / k2^2 gives A - lambda B K a double eigenvalue
    # with a single eigenvector
    k1, k2 = paper_gain[0]
    lp = build_laplacian(Topology(adjacency=[[0.0, 0.0], [4.0 * k1 / k2**2, 0.0]]))
    block = modal_form(paper_plant, lp, paper_gain).blocks[0]
    assert np.linalg.matrix_rank(block + 2.0 * k1 / k2 * np.eye(2)) == 1
    assert_matches_scipy(paper_plant, lp, paper_gain)


def test_modal_unreachable_mode_is_widened(paper_plant, fig1_laplacian, paper_gain):
    # on the Fig. 1 graph the mode of L_tilde's eigenvector (1, -1, 0) has
    # c_2 = 0, so X* is singular up to the widening
    assert np.abs(modal_form(paper_plant, fig1_laplacian, paper_gain).c).min() <= 1e-12
    res = assert_matches_scipy(paper_plant, fig1_laplacian, paper_gain)
    assert np.linalg.cond(res.X_star) > 1e9
    cert = check_invariant(paper_plant, fig1_laplacian, paper_gain, res.P_star, res.beta_star)
    assert cert.feasible


def test_modal_seeded_hundred_followers(paper_plant, paper_gain):
    lp = build_laplacian(Topology(adjacency=seeded_adjacency(100, 2010)))
    start = time.perf_counter()
    minimize_trace(paper_plant, lp, paper_gain)
    # about 0.1 s on two cores; a dense Kronecker solve of this order needs
    # a 40000 x 40000 operator
    assert time.perf_counter() - start < 5.0
    assert_matches_scipy(paper_plant, lp, paper_gain)


@pytest.mark.parametrize("followers", [None, 3, 10, 20, 100])  # None: the Fig. 1 graph
def test_x_star_solves_the_stacked_equation(followers, paper_plant, fig1_laplacian, paper_gain):
    # the package checks each modal block; only this oracle, built with
    # np.kron, checks the rotation back to stacked coordinates
    lp = fig1_laplacian if followers is None else build_laplacian(
        Topology(adjacency=seeded_adjacency(followers, 7)))
    res = minimize_trace(paper_plant, lp, paper_gain)
    assert solves_family(paper_plant, lp, paper_gain, res.X_star, res.beta_star)
    x_half = family_solution(paper_plant, lp, paper_gain, 0.5 * res.beta_max)
    assert solves_family(paper_plant, lp, paper_gain, x_half, 0.5 * res.beta_max)
    if followers is None:  # an unreachable mode: X* solves the widened equation to round-off
        residuals = [family_residual(paper_plant, lp, paper_gain, res.X_star, res.beta_star, reg)
                     for reg in (0.0, widening(paper_plant, lp))]
        assert residuals[1] <= 1e-14 < residuals[0]


@pytest.mark.parametrize("wrong", ["blocks transposed", "modes permuted"])
def test_stacked_oracle_refuses_a_wrong_rotation(wrong, monkeypatch, paper_plant, paper_gain):
    lp = build_laplacian(Topology(adjacency=seeded_adjacency(10, 7)))
    rotate, n = ellipsoid._stacked, paper_plant.n

    def blocks_transposed(u, y):  # X_ij^T in place of X_ij
        return rotate(u, y.reshape(len(u), n, len(u), n).transpose(0, 3, 2, 1).reshape(y.shape))

    def modes_permuted(u, y):
        return rotate(u[:, ::-1], y)

    monkeypatch.setattr(ellipsoid, "_stacked", {"blocks transposed": blocks_transposed,
                                                "modes permuted": modes_permuted}[wrong])
    res = minimize_trace(paper_plant, lp, paper_gain)
    assert not solves_family(paper_plant, lp, paper_gain, res.X_star, res.beta_star)


def test_ill_conditioned_p_star_certifies(paper_plant, paper_gain):
    # followers 1-2-3 in a weighted triangle, the leader pinned to follower 3
    # only: cond(X*) is 7.8e9, just under the widening switch, so P* is
    # accurate enough for its own block test only if the inverse is taken
    # where the modes are decoupled
    adj = np.array([[0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 1.4997, 1.8133],
                    [0.0, 1.4997, 0.0, 1.4575],
                    [1.3501, 1.8133, 1.4575, 0.0]])
    lp = build_laplacian(Topology(adjacency=adj))
    res = minimize_trace(paper_plant, lp, paper_gain)
    assert check_invariant(paper_plant, lp, paper_gain, res.P_star, res.beta_star).feasible
    assert find_beta(paper_plant, lp, paper_gain, res.P_star) is not None


@pytest.mark.parametrize("call, match", [
    (lambda plant, lp, k, p: invariance_block(plant, lp, k, p, 0.0), "beta must be positive"),
    (lambda plant, lp, k, p: check_invariant(plant, lp, k, p, -1.0), "beta must be positive"),
    (lambda plant, lp, k, p: check_input_bound(lp, k, p, 0.0), "eta must be positive"),
], ids=["block-beta", "check_invariant-beta", "input-bound-eta"])
def test_nonpositive_beta_or_eta_refused(call, match, paper_plant, fig1_laplacian, paper_gain,
                                         paper_minimization):
    with pytest.raises(ValueError, match=match):
        call(paper_plant, fig1_laplacian, paper_gain, paper_minimization.P_star)


# --- input bound ----------------------------------------------------------

def test_input_bound_zero_gain(fig1_laplacian):
    rng = np.random.default_rng(2)
    g = rng.normal(size=(6, 6))
    p = g @ g.T + 0.5 * np.eye(6)
    assert check_input_bound(fig1_laplacian, np.zeros((1, 2)), p, eta=1e-6)


def test_input_bound_scalar_boundary(scalar_laplacian):
    assert check_input_bound(scalar_laplacian, [[1.0]], [[1.0]], eta=1.0)
    assert not check_input_bound(scalar_laplacian, [[1.0]], [[1.0]], eta=0.5)


def test_input_bound_paper_design(fig1_laplacian, paper_gain, paper_minimization):
    assert check_input_bound(fig1_laplacian, paper_gain, paper_minimization.P_star, eta=50000.0)


def test_input_bound_refuses_below_peak_input(fig1_laplacian, paper_gain, paper_minimization):
    # the peak max_{e'P*e <= 1} ||(L_tilde (x) K) e|| from SciPy on X* = P*^-1;
    # P* has cond 2.5e10, so a margin scaled by its largest eigenvalue would
    # accept eta at half the peak
    r = np.kron(fig1_laplacian.L_tilde, paper_gain)
    peak = np.sqrt(scipy.linalg.eigvalsh(r @ paper_minimization.X_star @ r.T)[-1])
    p_star = paper_minimization.P_star
    for factor, holds in ((0.5, False), (0.999, False), (1.001, True), (2.0, True)):
        assert check_input_bound(fig1_laplacian, paper_gain, p_star, factor * peak) is holds
    for not_pd in (np.zeros((6, 6)), p_star - 1e3 * np.eye(6)):
        with pytest.raises(ValueError):
            check_input_bound(fig1_laplacian, paper_gain, not_pd, 2.0 * peak)


def test_schur_and_direct_input_tests_agree(scalar_laplacian, fig1_laplacian):
    rng = np.random.default_rng(31)
    count = 0
    while count < 100:
        lp = scalar_laplacian if rng.random() < 0.5 else fig1_laplacian
        n_followers = lp.L_tilde.shape[0]
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        k = rng.normal(size=(m, n))
        g = rng.normal(size=(n_followers * n, n_followers * n))
        p = g @ g.T + 0.1 * np.eye(n_followers * n)
        eta = float(rng.uniform(0.1, 10.0))
        r = np.kron(lp.L_tilde, k)
        direct_min = np.linalg.eigvalsh(eta**2 * p - r.T @ r).min()
        scale = 1.0 + abs(direct_min)
        if abs(direct_min) <= 1e-5 * scale:
            continue  # boundary case, verdict genuinely ambiguous
        # Schur-complement form of the same bound: [[P, R^T], [R, eta^2 I]] >= 0
        schur = np.block([[p, r.T], [r, eta**2 * np.eye(r.shape[0])]])
        schur_min = np.linalg.eigvalsh(schur).min()
        assert (schur_min > 0) == (direct_min > 0)
        assert check_input_bound(lp, k, p, eta) == (direct_min > 0)
        count += 1


# --- worst-case disturbance -----------------------------------------------

def test_worst_direction_identity_weights():
    plant = PlantModel(A=np.zeros((2, 2)), B=np.eye(2), E=np.eye(2), Q=np.eye(2), eta=1.0)
    e = np.array([0.6, -0.8])
    w = worst_disturbance(np.eye(2), plant, e)
    np.testing.assert_allclose(w, e / np.linalg.norm(e), atol=1e-14)


def test_worst_direction_unit_q_norm(paper_plant, paper_minimization):
    rng = np.random.default_rng(15)
    for _ in range(25):
        e = rng.normal(size=6)
        w = worst_disturbance(paper_minimization.P_star, paper_plant, e)
        assert abs(w @ paper_plant.Q @ w - 1.0) <= 1e-12


def test_worst_direction_beats_random_directions(paper_plant, paper_minimization):
    rng = np.random.default_rng(16)
    p_star = paper_minimization.P_star
    ones_e = np.kron(np.ones((3, 1)), paper_plant.E)
    q_sqrt_inv = np.linalg.inv(np.linalg.cholesky(paper_plant.Q)).T
    for _ in range(20):
        e = rng.normal(size=6)
        v = ones_e.T @ (p_star @ e)
        best = worst_disturbance(p_star, paper_plant, e) @ v
        g = rng.normal(size=(1000, 2))
        candidates = (g / np.linalg.norm(g, axis=1, keepdims=True)) @ q_sqrt_inv.T
        q_norms = np.einsum("ij,jk,ik->i", candidates, paper_plant.Q, candidates)
        np.testing.assert_allclose(q_norms, 1.0, atol=1e-9)
        assert (candidates @ v <= best + 1e-12 * (1 + abs(best))).all()


def test_worst_direction_degenerate():
    plant = PlantModel(A=np.zeros((2, 2)), B=np.eye(2), E=[[1.0], [0.0]], Q=[[1.0]], eta=1.0)
    with pytest.raises(DegenerateDirectionError):
        worst_disturbance(np.eye(2), plant, np.array([0.0, 1.0]))


def test_worst_case_sampler_and_worst_disturbance_share_one_law(paper_plant,
                                                                 paper_minimization):
    # bitwise-equal samples; at e = 0 the sampler holds its last sample where
    # worst_disturbance raises; neither accepts a non-symmetric P
    p_star = paper_minimization.P_star
    spec = make_disturbance("worst_case", paper_plant, P=p_star)
    for e in np.random.default_rng(23).normal(size=(200, 6)):
        np.testing.assert_array_equal(spec.sampler(0.0, e),
                                      worst_disturbance(p_star, paper_plant, e))
    np.testing.assert_array_equal(spec.sampler(0.1, np.zeros(6)), spec.sampler(0.0, e))
    with pytest.raises(DegenerateDirectionError):
        worst_disturbance(p_star, paper_plant, np.zeros(6))
    skew = p_star.copy()
    skew[0, 1] += 1e-6 * np.abs(p_star).max()
    with pytest.raises(NotSymmetricError):
        make_disturbance("worst_case", paper_plant, P=skew)
    with pytest.raises(NotSymmetricError):
        worst_disturbance(skew, paper_plant, e)


# --- Schur-complement agreement of the invariance test ---------------------

def test_block_and_schur_feasibility_agree():
    rng = np.random.default_rng(77)
    count = 0
    while count < 100:
        n = int(rng.integers(1, 3))
        p_dim = int(rng.integers(1, 3))
        n_followers = int(rng.integers(1, 4))
        plant = PlantModel(
            A=rng.normal(size=(n, n)),
            B=rng.normal(size=(n, 1)),
            E=rng.normal(size=(n, p_dim)),
            Q=np.diag(rng.uniform(0.5, 5.0, size=p_dim)),
            eta=1.0,
        )
        adj = np.zeros((n_followers + 1, n_followers + 1))
        adj[1:, 0] = 1.0
        topo = Topology(adjacency=adj)
        lp = build_laplacian(topo)
        k = rng.normal(size=(1, n))
        g = rng.normal(size=(n_followers * n, n_followers * n))
        p_mat = g @ g.T + 0.2 * np.eye(n_followers * n)
        beta = float(rng.uniform(0.05, 3.0))
        block = invariance_block(plant, lp, k, p_mat, beta)
        block_max = np.linalg.eigvalsh(block).max()
        a_cl = closed_loop(plant, lp, k)
        gram = disturbance_gramian(plant, n_followers)
        schur = p_mat @ a_cl + a_cl.T @ p_mat + beta * p_mat + (p_mat @ gram @ p_mat) / beta
        schur_max = np.linalg.eigvalsh(0.5 * (schur + schur.T)).max()
        if abs(block_max) <= 1e-6 * (1 + abs(block_max)) or \
           abs(schur_max) <= 1e-6 * (1 + abs(schur_max)):
            continue  # too close to the boundary for a sign comparison
        assert (block_max < 0) == (schur_max < 0)
        count += 1


# --- attractiveness along trajectories -------------------------------------

def test_certified_ellipsoid_is_attractive(scalar_plant, scalar_topology, scalar_laplacian,
                                           scalar_gain):
    p = np.array([[0.5]])
    beta = find_beta(scalar_plant, scalar_laplacian, scalar_gain, p)
    assert beta is not None
    dist = make_disturbance("sinusoid", scalar_plant, amplitudes=[0.9], angular_frequency=1.3)
    traj = simulate(scalar_plant, scalar_topology, scalar_gain, [0.0], [[0.0], [4.0]],
                    dist, 12.0, 1e-3, P=p)
    v = traj.V
    assert v[0] > 1.0
    outside = v[:-1] >= 1.0 + 1e-3
    assert np.all(v[1:][outside] <= v[:-1][outside] + 1e-12)
    assert v[-1] <= 1.0
