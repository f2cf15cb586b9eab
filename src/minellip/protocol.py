"""Plant model and the linear consensus protocol.

The leader evolves as ``sigma0' = A sigma0 + B u0`` and each follower as
``sigma_i' = A sigma_i + B u_i + E omega`` with a shared disturbance omega
bounded by ``omega^T Q omega <= 1``. The protocol feeds each follower the
weighted state differences to its neighbours plus the known leader input,
so the stacked follower-minus-leader error obeys a linear system driven
only by the disturbance. The reduced Laplacian is symmetric, so that system
splits into N decoupled n x n modes in its eigenbasis (:func:`modal_form`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matkit
from .errors import DimensionMismatchError
from .graph import LaplacianPair


@dataclass(eq=False)
class PlantModel:
    """Agent dynamics (A, B), disturbance channel E with bound Q, input bound eta."""

    A: np.ndarray
    B: np.ndarray
    E: np.ndarray
    Q: np.ndarray
    eta: float

    def __post_init__(self):
        self.A = matkit.as_matrix(self.A, "A")
        self.B = matkit.as_matrix(self.B, "B")
        self.E = matkit.as_matrix(self.E, "E")
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise DimensionMismatchError(f"A must be square, got {self.A.shape}")
        if self.B.shape[0] != n:
            raise DimensionMismatchError(f"B must have {n} rows, got {self.B.shape}")
        if self.E.shape[0] != n:
            raise DimensionMismatchError(f"E must have {n} rows, got {self.E.shape}")
        self.Q = matkit.check_pd(self.Q, self.p, "Q")[0]
        self.eta = float(self.eta)
        if not self.eta > 0.0:  # NaN fails it too; inf means no input bound
            raise ValueError("eta must be positive")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.E.shape[1]


def check_gain(plant: PlantModel, k) -> np.ndarray:
    """Validate a feedback gain against the plant dimensions (m x n)."""
    k = matkit.as_matrix(k, "K")
    if k.shape != (plant.m, plant.n):
        raise DimensionMismatchError(f"K must be {plant.m}x{plant.n}, got {k.shape}")
    return k


def closed_loop(plant: PlantModel, lp: LaplacianPair, k) -> np.ndarray:
    """Stacked closed-loop error matrix ``I_N (x) A - L_tilde (x) B K``."""
    k = check_gain(plant, k)
    n_followers = lp.L_tilde.shape[0]
    return np.kron(np.eye(n_followers), plant.A) - np.kron(lp.L_tilde, plant.B @ k)


def disturbance_channel(plant: PlantModel, n_followers: int) -> np.ndarray:
    """Stacked disturbance input matrix ``1_N (x) E`` of the error system
    ``e' = A_cl e + (1_N (x) E) omega``."""
    return np.tile(plant.E, (n_followers, 1))


@dataclass(frozen=True, eq=False)
class ModalForm:
    """The error closed loop in the eigenbasis of ``L_tilde = U diag(lam) U^T``:
    ``(U^T (x) I_n) A_cl (U (x) I_n) = blockdiag(blocks)`` with
    ``blocks[i] = A - lam[i] B K``, and the disturbance channel ``1_N (x) E``
    becomes ``c (x) E`` with ``c = U^T 1_N``."""

    lam: np.ndarray
    U: np.ndarray
    c: np.ndarray
    blocks: np.ndarray
    spectrum: matkit.SpectrumSummary


def modal_form(plant: PlantModel, lp: LaplacianPair, k) -> ModalForm:
    """Decouple ``closed_loop(plant, lp, k)`` into its N modal n x n blocks;
    their eigenvalues together are the spectrum of the stacked closed loop."""
    k = check_gain(plant, k)
    lam, u = np.linalg.eigh(matkit.check_symmetric(lp.L_tilde, name="L_tilde"))
    blocks = plant.A - lam[:, None, None] * (plant.B @ k)
    return ModalForm(lam=lam, U=u, c=u.sum(axis=0), blocks=blocks,
                     spectrum=matkit.spectrum(blocks))
