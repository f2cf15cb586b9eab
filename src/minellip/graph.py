"""Leader-follower communication graphs and their Laplacians.

Only one graph class is representable: node 0 is the leader and receives
nothing (row 0 of the adjacency matrix is zero), the followers exchange
information over an undirected weighted graph, and the leader may feed any
subset of followers. The reduced Laplacian obtained by deleting the leader
row and column is then symmetric positive semidefinite, which the protocol
and ellipsoid analysis rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matkit
from .errors import InvalidTopologyError


@dataclass(frozen=True, eq=False)
class Topology:
    """Weighted communication graph over the leader (node 0) and N followers."""

    adjacency: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=float)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1] or adj.shape[0] < 2:
            raise InvalidTopologyError(f"adjacency must be square with >= 2 nodes, got {adj.shape}")
        if not np.all(np.isfinite(adj)):
            raise InvalidTopologyError("adjacency contains non-finite entries")
        if np.any(adj < 0):
            raise InvalidTopologyError("edge weights must be nonnegative")
        if np.any(np.diagonal(adj) != 0):
            raise InvalidTopologyError("self-loops are excluded (nonzero diagonal)")
        if np.any(adj[0] != 0):
            raise InvalidTopologyError("the leader row must be zero (leader receives nothing)")
        followers = adj[1:, 1:]
        if not np.array_equal(followers, followers.T):
            raise InvalidTopologyError("the follower block must be symmetric (undirected)")
        adj = adj.copy()
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)

    @property
    def follower_count(self) -> int:
        return self.adjacency.shape[0] - 1


@dataclass(frozen=True, eq=False)
class LaplacianPair:
    """Full Laplacian L and the follower (reduced) block L_tilde."""

    L: np.ndarray
    L_tilde: np.ndarray


def build_laplacian(topology: Topology) -> LaplacianPair:
    """Laplacian of the topology and its reduced follower block.

    Off-diagonal entries are the negated edge weights and each diagonal entry
    is the corresponding row sum of weights, so L has zero row sums. The
    reduced block is L with the leader row and column deleted.
    """
    c = topology.adjacency
    lap = np.diag(c.sum(axis=1)) - c
    return LaplacianPair(L=lap, L_tilde=lap[1:, 1:].copy())


def has_spanning_tree(lp: LaplacianPair) -> bool:
    """True when the graph has a spanning tree rooted at the leader,
    equivalently when L has exactly one zero eigenvalue. The leader row of L
    is zero, so ``eig(L) = {0} U eig(L_tilde)`` and the test is
    ``lambda_min(L_tilde) > 1e-8 max(1, ||L||_F)``."""
    tol = 1e-8 * max(1.0, float(np.linalg.norm(lp.L, "fro")))
    return bool(matkit.eig_sym(lp.L_tilde)[0] > tol)
