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
    find_beta,
    invariance_block,
    make_disturbance,
    minimize_trace,
    simulate,
    worst_disturbance,
)
from minellip.ellipsoid import _log_golden_min
from minellip import ellipsoid, matkit, scenario
from minellip.errors import (
    ConfigError,
    DegenerateDirectionError,
    DimensionMismatchError,
    NotHurwitzError,
    NotSymmetricError,
)
from minellip.matkit import lyap_solve
from minellip.protocol import modal_form
from reference import (
    disturbance_gramian,
    family_residual,
    family_solution,
    golden_log_min,
    is_pd,
    solves_family,
    widening,
)


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
    # inside the bracket's scalar closed form [p g / (2a), 2a], here a = g = 1, p = 1/2
    lo, hi = multiplier_bracket(scalar_plant, scalar_laplacian, scalar_gain, np.array([[0.5]]))
    assert (lo, hi) == (pytest.approx(0.25, rel=1e-15), pytest.approx(2.0, rel=1e-15))
    assert lo < 1.0 - np.sqrt(0.5) and 1.0 + np.sqrt(0.5) < hi


def test_unstable_zero_gain_never_feasible(monkeypatch, paper_plant, fig1_laplacian):
    rng = np.random.default_rng(4)
    zero_gain = np.zeros((1, 2))
    eigs = counted_calls(monkeypatch, np.linalg, "eigvalsh")
    for _ in range(10):
        g = rng.normal(size=(6, 6))
        p = g @ g.T + 0.1 * np.eye(6)
        for beta in (0.01, 0.1, 1.0, 10.0):
            cert = check_invariant(paper_plant, fig1_laplacian, zero_gain, p, beta)
            assert not cert.feasible
        # -M0 fails its Cholesky, so the bracket is empty and nothing is searched
        before = len(eigs)
        assert find_beta(paper_plant, fig1_laplacian, zero_gain, p) is None
        assert len(eigs) == before


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
        # the worst-case source as simulate steps it: I4 and I8 reach its law-order check
        "worst_case_sampler": lambda: simulate(plant, fig1_topology, k, [0.0], paper_x0,
                                               make_disturbance("worst_case", plant, P=p),
                                               0.1, 1e-2),
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
    # P G P = 0 puts the bracket's low end at 0 exactly: every beta in (0, 2a) works, and
    # find_beta takes the middle one, with no floor
    assert multiplier_bracket(plant, lp, np.array([[0.0]]), p) == (0.0, pytest.approx(2.0))
    assert beta == pytest.approx(1.0, rel=1e-15)


#: The published ellipsoid matrix for the paper system, symmetrized.
P_REF = 1e3 * np.array([
    [1.9963, 0.0008, -1.2544, -0.0003, -0.6919, -0.0018],
    [0.0008, 0.0188, -0.0005, -0.0135, 0.0014, -0.0037],
    [-1.2544, -0.0005, 1.9291, -0.0000, -0.6245, -0.0027],
    [-0.0003, -0.0135, -0.0000, 0.0186, 0.0030, -0.0030],
    [-0.6919, 0.0014, -0.6245, 0.0030, 1.2549, 0.0049],
    [-0.0018, -0.0037, -0.0027, -0.0030, 0.0049, 0.0080],
])
P_REF = 0.5 * (P_REF + P_REF.T)


def test_find_beta_on_reference_ellipsoid(paper_plant, fig1_laplacian, paper_gain):
    # published ellipsoid matrix for this system; find_beta must certify it
    assert is_pd(P_REF)
    beta = find_beta(paper_plant, fig1_laplacian, paper_gain, P_REF)
    assert beta is not None
    cert = check_invariant(paper_plant, fig1_laplacian, paper_gain, P_REF, beta)
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
    # the bracket comes from P with no floor: at 1e-10 beta_max the rounding of P = X^-1
    # (cond 1e10) hides beta0, but the search reaches far below 1e-6 beta_max, where the
    # former fixed bracket ended, and certifies P there
    p = np.linalg.inv(family_solution(paper_plant, fig1_laplacian, paper_gain, 1e-10 * beta_max))
    p = 0.5 * (p + p.T)
    beta = find_beta(paper_plant, fig1_laplacian, paper_gain, p)
    assert beta < 1e-7 * beta_max
    assert check_invariant(paper_plant, fig1_laplacian, paper_gain, p, beta).feasible


def multiplier_bracket(plant, lp, k, p):
    """``ellipsoid._multiplier_bracket`` on the operands that ``find_beta`` builds for p."""
    m0, h = ellipsoid._block_terms(plant, lp, k, p)
    pgp = h @ np.linalg.solve(plant.Q, h.T)
    return ellipsoid._multiplier_bracket(m0, 0.5 * (pgp + pgp.T), p)


@pytest.mark.parametrize("case", ["paper P*", "p_ref", "seeded N=3 P*", "seeded N=10 P*"])
def test_multiplier_bracket_matches_scipy(case, paper_plant, fig1_laplacian, paper_gain,
                                          paper_minimization):
    # lo = lambda_max(P G P, -M0) and hi = lambda_min(-M0, P) against SciPy's definite
    # generalized eigensolver on the same M0 and P G P
    plant, lp, k = paper_plant, fig1_laplacian, paper_gain
    if case == "paper P*":
        p = paper_minimization.P_star
    elif case == "p_ref":
        p = P_REF
    else:
        followers = 3 if case == "seeded N=3 P*" else 10
        lp = build_laplacian(Topology(adjacency=seeded_adjacency(followers, 7)))
        p = minimize_trace(plant, lp, k).P_star
    m0, h = ellipsoid._block_terms(plant, lp, k, p)
    pgp = h @ np.linalg.solve(plant.Q, h.T)
    lo, hi = multiplier_bracket(plant, lp, k, p)
    assert lo == pytest.approx(scipy.linalg.eigh(pgp, -m0, eigvals_only=True)[-1], rel=1e-9)
    # hi is the smallest eigenvalue of its pencil: the rounding of M0 = P A_cl + A_cl^T P,
    # eps ||P|| ||A_cl|| in norm, moves it by up to that over lambda_min(P), 1e-5 relative
    # on the N=10 P* (cond 1e11) and 5e-9 on p_ref
    a_cl = closed_loop(plant, lp, k)
    floor = (np.finfo(float).eps * np.linalg.norm(p, 2) * np.linalg.norm(a_cl, 2)
             / np.linalg.eigvalsh(p)[0])
    assert abs(hi - scipy.linalg.eigh(-m0, p, eigvals_only=True)[0]) <= 1e-9 * hi + floor
    beta = find_beta(plant, lp, k, p)
    assert lo <= beta <= hi


# --- family solution ----------------------------------------------------

def test_family_scalar_closed_form(scalar_plant, scalar_laplacian, scalar_gain):
    for beta in np.linspace(0.1, 1.9, 19):
        x = family_solution(scalar_plant, scalar_laplacian, scalar_gain, beta)
        assert x[0, 0] == pytest.approx(scalar_family_reference(beta), abs=1e-12)


def test_family_diverges_at_interval_edge(scalar_plant, scalar_laplacian, scalar_gain):
    x_inner = family_solution(scalar_plant, scalar_laplacian, scalar_gain, 1.0)
    x_edge = family_solution(scalar_plant, scalar_laplacian, scalar_gain, 2.0 - 1e-6)
    assert x_edge[0, 0] > 1e4 * x_inner[0, 0]
    with pytest.raises(ValueError, match="beta must lie in"):
        family_solution(scalar_plant, scalar_laplacian, scalar_gain, 2.5)
    with pytest.raises(ValueError, match="beta must lie in"):
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


def golden_budget(lo, hi, rtol):
    """Evaluations plain golden-section search in log beta needs to shrink [lo, hi] to rtol."""
    return int(np.ceil(np.log(np.log(hi / lo) / rtol) / np.log((1.0 + np.sqrt(5.0)) / 2.0))) + 2


def test_log_golden_min_convex_objectives():
    # the search needs no pre-scan on a convex objective: it finds the minimizer
    # anywhere in [1e-6, 1 - 1e-6] * beta_max to relative accuracy rtol, on a smooth
    # objective and on an asymmetric kink in log beta like find_beta's lambda_max,
    # within the evaluations that plain golden-section search needs to reach rtol.
    # On find_beta's brackets, a wide one and one as narrow as a P*'s, started at the
    # log midpoint, it finds the minimizer over the bracket, inside it, at either end or
    # beyond one, within the golden-section budget of that bracket
    beta_max = 2.5
    objectives = {
        "smooth": lambda beta, beta0: ((np.log(beta) - np.log(beta0)) ** 2
                                       + ((beta - beta0) / beta_max) ** 2),
        "kinked": lambda beta, beta0: max(3.0 * (np.log(beta0) - np.log(beta)),
                                          0.2 * (np.log(beta) - np.log(beta0))),
    }
    full = (1e-6 * beta_max, (1 - 1e-6) * beta_max, 0.5 * beta_max)
    runs = [(full, frac * beta_max) for frac in (3e-6, 1e-3, 0.3, 0.9, 1 - 3e-6)]
    for lo, hi in ((0.2 * beta_max, 0.7 * beta_max), (0.99 * beta_max, 0.995 * beta_max)):
        mid = np.sqrt(lo * hi)
        runs += [((lo, hi, mid), beta0) for beta0 in (0.5 * lo, lo, 0.7 * lo + 0.3 * hi, hi,
                                                      2.0 * hi)]
    for rtol, budget in ((1e-8, 46), (1e-9, 51)):
        assert budget == golden_budget(*full[:2], rtol)
        for (lo, hi, start), beta0 in runs:
            best = min(max(beta0, lo), hi)
            for name, objective in objectives.items():
                calls = []

                def f(beta):
                    calls.append(beta)
                    return objective(beta, beta0)

                beta = _log_golden_min(f, lo, hi, rtol, start)
                assert abs(beta / best - 1.0) <= rtol, (name, rtol, lo, hi, beta0)
                assert len(calls) <= golden_budget(lo, hi, rtol), (name, rtol, lo, hi, beta0)


@pytest.mark.parametrize("followers", [3, 10, 20])
def test_trace_search_matches_scipy_and_golden_section(followers, paper_plant, paper_gain):
    # Brent's search against SciPy's bounded minimizer over log beta on the same
    # bracket; the trace is flat at beta*, so it must not move from the value that
    # golden-section search finds
    from test_graph import random_connected_topology

    rng = np.random.default_rng((2024, followers))
    lp = build_laplacian(random_connected_topology(rng, followers))
    res = minimize_trace(paper_plant, lp, paper_gain)
    assert res.beta_star == pytest.approx(scipy_min_trace(paper_plant, lp, paper_gain)[0],
                                          rel=1e-6)

    def trace(beta):
        return np.trace(family_solution(paper_plant, lp, paper_gain, beta))

    beta_golden = golden_log_min(trace, res.beta_max, 1e-8)
    assert res.trace_value == pytest.approx(trace(beta_golden), rel=1e-12)


@pytest.mark.parametrize("system", ["paper_example1", "seeded N=10"])
def test_trace_search_evaluations_are_few_and_each_checked(system, monkeypatch, paper_plant,
                                                           paper_gain):
    if system == "paper_example1":
        cfg = scenario.load_bundled(system)
        plant, lp, k = cfg.plant, build_laplacian(cfg.topology), cfg.gain
    else:
        plant, k = paper_plant, paper_gain
        lp = build_laplacian(Topology(adjacency=seeded_adjacency(10, 7)))
    checks = []
    check_residual = matkit.check_residual
    monkeypatch.setattr(matkit, "check_residual",
                        lambda *args: checks.append(args) or check_residual(*args))
    search = ellipsoid._log_golden_min
    evaluations = []

    def counted_search(f, *bracket_rtol_start):
        def counted(beta):
            before = len(checks)
            value = f(beta)
            evaluations.append((beta, checks[before:]))
            return value

        return search(counted, *bracket_rtol_start)

    monkeypatch.setattr(ellipsoid, "_log_golden_min", counted_search)
    minimize_trace(plant, lp, k)
    assert 0 < len(evaluations) <= 24
    # one residual check per evaluation, on the shifted blocks themselves, not
    # on the operator the solve reused
    blocks = modal_form(plant, lp, k).blocks
    for beta, calls in evaluations:
        assert len(calls) == 1
        m, n = calls[0][:2]
        np.testing.assert_array_equal(m, blocks + 0.5 * beta * np.eye(plant.n))
        np.testing.assert_array_equal(n, m)


def counted_calls(monkeypatch, module, name) -> list:
    """Replace ``module.name`` by a wrapper that records the arguments of each call."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_find_beta_builds_the_closed_loop_once(monkeypatch, paper_plant, fig1_laplacian,
                                               paper_gain, paper_minimization):
    # the closing certificate reuses the M0 and H that the search was built from, and the
    # bracket comes from P with no modal form: two eigvalsh for it, two for the objective
    # at its top and one for the certificate. On the seeded N=10 P* the objective falls by
    # 0.7 over the last search width to hi, far above its rounding, so hi is taken with no
    # search; on the paper P* it moves by 0.05 there, its rounding at a block norm of 5e12,
    # so the search may run, within the golden-section budget of its own bracket
    seeded = build_laplacian(Topology(adjacency=seeded_adjacency(10, 7)))
    for lp, p in ((fig1_laplacian, paper_minimization.P_star),
                  (seeded, minimize_trace(paper_plant, seeded, paper_gain).P_star)):
        budget = golden_budget(*multiplier_bracket(paper_plant, lp, paper_gain, p), 1e-9)
        calls = counted_calls(monkeypatch, ellipsoid, "closed_loop")
        modal = counted_calls(monkeypatch, ellipsoid, "modal_form")
        factors = counted_calls(monkeypatch, np.linalg, "cholesky")
        eigs = counted_calls(monkeypatch, np.linalg, "eigvalsh")
        assert find_beta(paper_plant, lp, paper_gain, p)
        assert len(calls) == 1 and not modal
        assert len(factors) == 2  # P's own in check_pd, then the one of -M0
        assert len(eigs) <= (5 if lp is seeded else 5 + budget)
        monkeypatch.undo()


def test_widening_reuses_the_trace_search_operator(monkeypatch, paper_plant, fig1_laplacian,
                                                   paper_gain):
    ops = counted_calls(monkeypatch, matkit, "kron_sum")
    solves = counted_calls(monkeypatch, ellipsoid, "_diagonal_blocks")
    minimize_trace(paper_plant, fig1_laplacian, paper_gain)
    assert len(solves[-1]) == 5 and solves[-1][4] > 0.0  # the widening fired, with its reg
    assert sum(m.ndim == 3 for m, _ in ops) == 1  # kron_sum(A_i, A_i), once per call


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
    (lambda plant, lp, k, p: invariance_block(plant, lp, k, p, np.nan), "beta must be positive"),
    (lambda plant, lp, k, p: check_invariant(plant, lp, k, p, np.inf), "beta must be positive"),
    (lambda plant, lp, k, p: check_input_bound(lp, k, p, np.nan), "eta must be positive"),
], ids=["block-beta", "check_invariant-beta", "input-bound-eta", "block-beta-nan",
        "check_invariant-beta-inf", "input-bound-eta-nan"])
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


@pytest.mark.parametrize("width", [1, 3])
def test_input_bound_names_a_gain_of_the_wrong_width(width, fig1_laplacian, paper_minimization):
    # the paper P* is 6x6 over N = 3 followers, so K needs n = 2 columns: a K of another width
    # is the fault, not P
    with pytest.raises(DimensionMismatchError, match=r"K must have 2 columns"):
        check_input_bound(fig1_laplacian, np.ones((1, width)), paper_minimization.P_star, 5e4)


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


@pytest.mark.parametrize("p_scale, e_scale", [(1e-20, 1.0), (1e20, 1.0), (1.0, 1e-20),
                                              (1.0, 1e20), (1e-150, 1.0), (1e150, 1.0),
                                              (1.0, 1e-150), (1.0, 1e150), (1.0, 1e-170),
                                              (1.0, 1e160), (1.0, 1e170)])
def test_worst_direction_is_scale_free(p_scale, e_scale, paper_plant, paper_minimization):
    # omega* depends on the direction of (1_N (x) E)^T P e alone, so no scale
    # of P or e makes it degenerate, and none whose squares leave the double
    # range changes it (a RuntimeWarning fails the test); e = 0 still does
    p_star = paper_minimization.P_star
    for e in np.random.default_rng(31).normal(size=(20, 6)):
        want = worst_disturbance(p_star, paper_plant, e)
        got = worst_disturbance(p_scale * p_star, paper_plant, e_scale * e)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)
    with pytest.raises(DegenerateDirectionError):
        worst_disturbance(p_scale * p_star, paper_plant, np.zeros(6))


def test_worst_case_sampler_and_worst_disturbance_share_one_law(paper_plant, fig1_topology,
                                                                 paper_gain, paper_x0,
                                                                 paper_minimization):
    # every sample of a fused worst-case run is worst_disturbance at its step's error, wherever
    # the direction is defined (at e = 0 the run holds its last sample where worst_disturbance
    # raises); neither accepts a non-symmetric P. The two form z = Z e in different orders, so
    # their rounding differs by up to the cancellation ||Z| |e|| / ||Z e|| of that product
    # (1020 at t = 0.026, where they differ by 2.5e-14 relative)
    p_star = paper_minimization.P_star
    spec = make_disturbance("worst_case", paper_plant, P=p_star)
    traj = simulate(paper_plant, fig1_topology, paper_gain, [0.0], paper_x0, spec, 2.0, 1e-3)
    z = spec.law.Z
    for e, got in zip(traj.errors, traj.disturbances, strict=True):
        want = worst_disturbance(p_star, paper_plant, e)
        cancellation = np.linalg.norm(np.abs(z) @ np.abs(e)) / np.linalg.norm(z @ e)
        assert np.abs(got - want).max() <= 1e-14 * cancellation * np.abs(want).max()
    with pytest.raises(DegenerateDirectionError):
        worst_disturbance(p_star, paper_plant, np.zeros(6))
    skew = p_star.copy()
    skew[0, 1] += 1e-6 * np.abs(p_star).max()
    with pytest.raises(NotSymmetricError):
        make_disturbance("worst_case", paper_plant, P=skew)
    with pytest.raises(NotSymmetricError):
        worst_disturbance(skew, paper_plant, e)


def test_p_is_checked_once_per_call_chain(monkeypatch, paper_plant, fig1_topology,
                                           fig1_laplacian, paper_gain, paper_x0,
                                           paper_minimization):
    # find_beta certifies the P it checked: one check_pd (one Cholesky) of P per call. The
    # worst-case law keeps no P, so make_disturbance and simulate each check the P they are
    # given, once, and the law factors the plant's Q, which PlantModel checked, with no
    # second check; the refusals stay those of test_every_p_entry_point_refuses_alike
    import minellip.sim

    checked = []

    def counting(s, order, name="matrix"):
        checked.append(name)
        return real(s, order, name)

    real = ellipsoid.matkit.check_pd
    monkeypatch.setattr(ellipsoid.matkit, "check_pd", counting)
    monkeypatch.setattr(minellip.sim, "check_pd", counting)
    p_star = paper_minimization.P_star
    assert find_beta(paper_plant, fig1_laplacian, paper_gain, p_star) is not None
    assert checked.count("P") == 1
    checked.clear()
    dist = make_disturbance("worst_case", paper_plant, P=p_star)
    simulate(paper_plant, fig1_topology, paper_gain, [0.0], paper_x0, dist, 0.1, 1e-2, P=p_star)
    assert checked == ["P", "P"]


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
