"""Constructive consensus gain design and the input-constrained gamma sweep.

A single Riccati solve per gamma yields a gain that stabilizes every modal
subsystem ``A - lambda_i B K`` at once, hence the whole stacked error
dynamics. The outer sweep scans a gamma grid, minimizes the ellipsoid trace
for each candidate gain and keeps the smallest-trace design whose protocol
inputs respect the eta bound. The gains' trace searches run in lockstep, one
batched LU per round, and their X*, P* and input tests are stacked; each
result is bitwise that of ``minimize_trace`` and ``check_input_bound`` on its
gain alone. The sweep is an exhaustive scan, so the returned design is the
best on the grid, not a certified global optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matkit
from .ellipsoid import MinimizationResult, _minimize_traces
from .errors import NoFeasibleDesignError, NoSpanningTreeError, NotStabilizableError
from .graph import LaplacianPair, has_spanning_tree
from .protocol import PlantModel

#: Default gamma sweep: 16 log-spaced points spanning four decades.
DEFAULT_GAMMA_GRID = tuple(np.geomspace(1e-2, 1e2, 16))


@dataclass(frozen=True, eq=False)
class DesignResult:
    """Gain selected by the sweep together with its certificates."""

    K: np.ndarray
    gamma: float
    minimization: MinimizationResult
    input_ok: bool


def design_gain(plant: PlantModel, lp: LaplacianPair, gamma: float, q0=None) -> np.ndarray:
    """Consensus gain ``K = gamma / (2 lambda_min) B^T P`` from the Riccati
    solution ``P`` of ``A^T P + P A - gamma P B B^T P + q0 = 0``.

    With ``X = P^{-1}`` the strict inequality ``A X + X A^T - gamma B B^T < 0``
    holds, which makes every ``A - lambda_i B K`` Hurwitz for the reduced
    Laplacian eigenvalues ``lambda_i >= lambda_min > 0``.
    """
    if not has_spanning_tree(lp):
        raise NoSpanningTreeError("topology has no spanning tree rooted at the leader")
    lam_min = float(lp.modes[0][0])
    if q0 is None:
        q0 = np.eye(plant.n)
    p_are = matkit.are_solve(plant.A, plant.B, q0, gamma)
    return (gamma / (2.0 * lam_min)) * (plant.B.T @ p_are)


def _pbh_stabilizable(a: np.ndarray, b: np.ndarray) -> bool:
    """PBH test: every eigenvalue of ``a`` with real part ``>= -1e-9 ||a||_F``
    must leave ``[a - lambda I, b]`` at full row rank. Each column block is
    divided by its own norm first: column scaling keeps the rank, a zero block
    stays zero, and the test holds at any scale of a and b."""
    margin = -1e-9 * float(np.linalg.norm(a, "fro"))
    for lam in np.linalg.eigvals(a):
        if lam.real < margin:
            continue
        blocks = [m / (np.linalg.norm(m) or 1.0) for m in (a - lam * np.eye(len(a)), b)]
        sv = np.linalg.svd(np.hstack(blocks), compute_uv=False)
        if sv[-1] <= 1e-9 * sv[0]:
            return False
    return True


def consensus_feasible(plant: PlantModel, lp: LaplacianPair) -> bool:
    """True when a linear consensus gain exists: spanning tree plus
    stabilizable (A, B)."""
    return has_spanning_tree(lp) and _pbh_stabilizable(plant.A, plant.B)


def optimize_gain(
    plant: PlantModel,
    lp: LaplacianPair,
    gamma_grid=None,
    q0=None,
) -> DesignResult:
    """Sweep the gamma grid, keep input-feasible designs, return the one of
    smallest ellipsoid trace (ties broken by smaller gamma).

    Raises ``ValueError`` on an empty grid, ``NoFeasibleDesignError`` when
    every grid point violates the input bound, ``NotStabilizableError`` /
    ``NoSpanningTreeError`` (the latter from :func:`design_gain`) when the
    consensus preconditions fail.
    """
    if not _pbh_stabilizable(plant.A, plant.B):
        raise NotStabilizableError("(A, B) fails the PBH stabilizability test")
    grid = [float(gamma) for gamma in (DEFAULT_GAMMA_GRID if gamma_grid is None else gamma_grid)]
    if not grid:
        raise ValueError("gamma_grid is empty")

    gains = [design_gain(plant, lp, gamma, q0) for gamma in grid]
    feasible = [DesignResult(K=k, gamma=gamma, minimization=minimization, input_ok=True)
                for gamma, k, minimization in zip(grid, gains, _minimize_traces(
                    plant, lp, gains, plant.eta)) if minimization is not None]
    if not feasible:
        raise NoFeasibleDesignError("every gamma on the grid violates the input bound")
    return min(feasible, key=lambda d: (d.minimization.trace_value, d.gamma))
