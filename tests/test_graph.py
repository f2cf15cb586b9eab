import runpy
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from minellip import (
    Topology,
    build_laplacian,
    check_input_bound,
    check_invariant,
    cli,
    consensus_feasible,
    find_beta,
    has_spanning_tree,
    matkit,
    minimize_trace,
    optimize_gain,
    scenario,
    worst_disturbance,
)
from minellip.errors import InvalidTopologyError
from minellip.graph import LaplacianPair
from reference import eig_sym, spectrum_relation_check

SQRT2 = np.sqrt(2.0)


def random_connected_topology(rng, n_followers):
    """Random weighted topology whose leader reaches every follower."""
    adj = np.zeros((n_followers + 1, n_followers + 1))
    # random follower spanning tree keeps the follower block connected
    for i in range(2, n_followers + 1):
        j = int(rng.integers(1, i))
        w = rng.uniform(0.2, 3.0)
        adj[i, j] = adj[j, i] = w
    # extra undirected follower edges
    for i in range(1, n_followers + 1):
        for j in range(i + 1, n_followers + 1):
            if rng.random() < 0.3:
                w = rng.uniform(0.2, 3.0)
                adj[i, j] = adj[j, i] = w
    # at least one leader link
    leader_targets = rng.choice(np.arange(1, n_followers + 1),
                                size=int(rng.integers(1, n_followers + 1)), replace=False)
    for i in leader_targets:
        adj[i, 0] = rng.uniform(0.2, 3.0)
    return Topology(adjacency=adj)


def test_fig1_laplacian_matches_reference(fig1_laplacian):
    expected_full = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [-1.0, 2.0, 0.0, -1.0],
        [-1.0, 0.0, 2.0, -1.0],
        [0.0, -1.0, -1.0, 2.0],
    ])
    expected_reduced = np.array([
        [2.0, 0.0, -1.0],
        [0.0, 2.0, -1.0],
        [-1.0, -1.0, 2.0],
    ])
    np.testing.assert_array_equal(fig1_laplacian.L, expected_full)
    np.testing.assert_array_equal(fig1_laplacian.L_tilde, expected_reduced)


def test_single_follower_laplacian():
    lp = build_laplacian(Topology(adjacency=[[0.0, 0.0], [1.0, 0.0]]))
    np.testing.assert_array_equal(lp.L, [[0.0, 0.0], [-1.0, 1.0]])
    np.testing.assert_array_equal(lp.L_tilde, [[1.0]])


@pytest.mark.parametrize("adjacency", [
    [[0.0, 0.0], [-1.0, 0.0]],                         # negative weight
    [[0.5, 0.0], [1.0, 0.0]],                          # nonzero diagonal
    [[0.0, 1.0], [1.0, 0.0]],                          # leader receives
    [[0.0, 0.0, 0.0], [1.0, 0.0, 2.0], [0.0, 1.0, 0.0]],  # asymmetric followers
    np.zeros((1, 1)),                                  # no follower
    np.zeros((2, 3)),                                  # not square
    np.zeros(3),                                       # not 2-D
    [[0.0, 0.0], [np.nan, 0.0]],                       # not finite
    [[0.0, 0.0], [np.inf, 0.0]],
])
def test_invalid_topologies_rejected(adjacency):
    with pytest.raises(InvalidTopologyError):
        Topology(adjacency=adjacency)


def test_fig1_has_spanning_tree(fig1_laplacian):
    assert has_spanning_tree(fig1_laplacian)


def test_all_zero_adjacency_has_no_tree():
    lp = build_laplacian(Topology(adjacency=np.zeros((3, 3))))
    assert not has_spanning_tree(lp)


def test_followers_disconnected_from_leader():
    # two followers linked to each other but not to the leader: the full
    # Laplacian has a double zero eigenvalue
    adj = np.zeros((3, 3))
    adj[1, 2] = adj[2, 1] = 1.0
    lp = build_laplacian(Topology(adjacency=adj))
    w = np.sort(np.linalg.eigvals(lp.L).real)
    assert np.count_nonzero(np.abs(w) < 1e-9) == 2
    assert not has_spanning_tree(lp)


def test_spectrum_relation_fig1(fig1_laplacian):
    assert spectrum_relation_check(fig1_laplacian)
    w = np.sort(np.linalg.eigvals(fig1_laplacian.L).real)
    np.testing.assert_allclose(w, [0.0, 2.0 - SQRT2, 2.0, 2.0 + SQRT2], atol=1e-9)


def test_spectrum_relation_single_follower():
    lp = build_laplacian(Topology(adjacency=[[0.0, 0.0], [1.0, 0.0]]))
    assert spectrum_relation_check(lp)


def test_spectrum_relation_rejects_broken_row_sum(fig1_laplacian):
    broken = fig1_laplacian.L.copy()
    broken[1, 1] += 0.7
    assert not spectrum_relation_check(LaplacianPair(L=broken, L_tilde=fig1_laplacian.L_tilde))


def test_random_connected_topologies():
    rng = np.random.default_rng(12345)
    for _ in range(200):
        n_followers = int(rng.integers(1, 7))
        topo = random_connected_topology(rng, n_followers)
        lp = build_laplacian(topo)
        # zero row sums
        np.testing.assert_allclose(lp.L @ np.ones(n_followers + 1), 0.0, atol=1e-12)
        # reduced block symmetric PSD
        np.testing.assert_array_equal(lp.L_tilde, lp.L_tilde.T)
        w = eig_sym(lp.L_tilde)
        assert w.min() >= -1e-10 * max(1.0, w.max())
        # spanning tree <=> smallest reduced eigenvalue positive
        tol = 1e-8 * w.max()
        assert has_spanning_tree(lp) == (w.min() > tol)
        assert has_spanning_tree(lp)
        assert spectrum_relation_check(lp)


def test_spanning_tree_at_any_weight_scale(paper_plant, fig1_topology, paper_gain):
    # weights times 1e-9 and K times 1e9 give the same closed loop: the tree
    # test must not depend on the weights' scale (an absolute floor would
    # refuse this graph, whose lambda_min / lambda_max is 0.17)
    lp = build_laplacian(fig1_topology)
    small = build_laplacian(Topology(adjacency=1e-9 * fig1_topology.adjacency))
    assert has_spanning_tree(small) and consensus_feasible(paper_plant, small)
    ref = minimize_trace(paper_plant, lp, paper_gain)
    scaled = minimize_trace(paper_plant, small, 1e9 * paper_gain)
    assert scaled.beta_star == pytest.approx(ref.beta_star, rel=1e-7)
    assert scaled.trace_value == pytest.approx(ref.trace_value, rel=1e-12)


def test_deleting_leader_links_breaks_tree():
    rng = np.random.default_rng(777)
    for _ in range(20):
        topo = random_connected_topology(rng, int(rng.integers(1, 7)))
        cut = topo.adjacency.copy()
        cut[:, 0] = 0.0
        lp = build_laplacian(Topology(adjacency=cut))
        assert not has_spanning_tree(lp)


def test_laplacians_are_read_only(fig1_topology):
    # the pair caches its basis, so neither Laplacian nor the basis may change under it
    lp = build_laplacian(fig1_topology)
    for a in (lp.L, lp.L_tilde, *lp.modes):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


def laplacian_reads(monkeypatch, l_tilde) -> Counter:
    """Count the ``eigh``, ``eigvalsh`` and ``check_symmetric`` calls on a matrix equal to
    ``l_tilde``, whichever module makes them."""
    counts = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(s, *args, **kwargs):
            counts[name] += np.array_equal(s, l_tilde)
            return real(s, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(np.linalg, "eigh")
    count(np.linalg, "eigvalsh")
    count(matkit, "check_symmetric")
    return counts


ONCE = Counter(eigh=1, eigvalsh=0, check_symmetric=1)


def test_one_decomposition_per_graph_in_a_gamma_sweep(monkeypatch, paper_plant):
    # the N = 10 system of the benchmark's gamma sweep (seed 1): 16 design_gain and 16
    # minimize_trace calls read one basis, where each used to decompose L_tilde on its own
    bench = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))
    lp = build_laplacian(Topology(
        adjacency=bench["random_adjacency"](10, np.random.default_rng((1, 10, 0)))))
    counts = laplacian_reads(monkeypatch, lp.L_tilde)
    optimize_gain(paper_plant, lp)
    assert counts == ONCE


def test_one_decomposition_per_graph_in_verify(monkeypatch, tmp_path):
    path = scenario.bundled_path("paper_example1")
    counts = laplacian_reads(monkeypatch, build_laplacian(scenario.load(path).topology).L_tilde)
    assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert counts == ONCE


def test_one_decomposition_per_graph_in_a_certificate_chain(monkeypatch, paper_plant,
                                                            fig1_topology, paper_gain):
    lp = build_laplacian(fig1_topology)
    counts = laplacian_reads(monkeypatch, lp.L_tilde)
    assert consensus_feasible(paper_plant, lp)
    res = minimize_trace(paper_plant, lp, paper_gain)
    check_invariant(paper_plant, lp, paper_gain, res.P_star, res.beta_star)
    find_beta(paper_plant, lp, paper_gain, res.P_star)
    check_input_bound(lp, paper_gain, res.P_star, paper_plant.eta)
    worst_disturbance(res.P_star, paper_plant, np.ones(6))
    assert counts == ONCE
