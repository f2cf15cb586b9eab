"""Invariant-ellipsoid analysis of the stacked error system.

The set ``{e : e^T P e <= 1}`` with symmetric positive definite P is
invariant for the disturbed error dynamics exactly when some S-procedure
multiplier beta > 0 makes the block matrix

    [ P A_cl + A_cl^T P + beta P    P (1_N (x) E) ]
    [ (1_N (x) E)^T P               -beta Q       ]

negative semidefinite. This module implements that test, the search over
beta for a given P, the one-parameter equality family along which the trace
of ``X = P^{-1}`` (the sum of squared ellipsoid semiaxes) is minimized, the
input-norm bound, and the worst-case admissible disturbance direction.
The family is solved block by block in the modal coordinates of
:func:`~minellip.protocol.modal_form`: O(N n^6) per trace evaluation and
O(N^2 n^6 + (nN)^3) once for X*, where the stacked equation costs O((nN)^6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matkit
from .errors import DegenerateDirectionError, DimensionMismatchError, NotHurwitzError
from .graph import LaplacianPair
from .protocol import PlantModel, closed_loop, disturbance_channel, modal_form

_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0  # golden-section step, 1 - 1/phi


@dataclass(frozen=True)
class InvarianceCertificate:
    """Outcome of the block-matrix invariance test at a fixed multiplier."""

    beta: float
    max_eig: float
    feasible: bool


@dataclass(frozen=True, eq=False)
class MinimizationResult:
    """Minimal-trace member of the one-parameter ellipsoid family."""

    beta_star: float
    X_star: np.ndarray
    P_star: np.ndarray
    trace_value: float
    beta_max: float


def invariance_block(plant: PlantModel, lp: LaplacianPair, k, P, beta: float) -> np.ndarray:
    """Symmetric block matrix of the invariance test; P must pass ``check_pd`` at order nN."""
    if not 0.0 < beta < np.inf:  # NaN fails it too
        raise ValueError("beta must be positive and finite")
    P = matkit.check_pd(P, lp.L_tilde.shape[0] * plant.n, "P")[0]
    return _block(*_block_terms(plant, lp, k, P), P, beta, plant.Q)


def _block_terms(plant: PlantModel, lp: LaplacianPair, k, P: np.ndarray):
    """``M0 = P A_cl + A_cl^T P`` and ``H = P (1_N (x) E)``, the parts of the block that do
    not depend on beta, for a P that passed ``check_pd``."""
    a_cl = closed_loop(plant, lp, k)
    return P @ a_cl + a_cl.T @ P, P @ disturbance_channel(plant, lp.L_tilde.shape[0])


def _block(m0: np.ndarray, h: np.ndarray, P: np.ndarray, beta: float, Q: np.ndarray):
    """The block ``[[M0 + beta P, H], [H^T, -beta Q]]`` from :func:`_block_terms`."""
    return np.block([[m0 + beta * P, h], [h.T, -beta * Q]])


def check_invariant(
    plant: PlantModel, lp: LaplacianPair, k, P, beta: float
) -> InvarianceCertificate:
    """Invariance test: feasible iff the block matrix is <= 0 up to
    ``1e-7 * (1 + ||block||_2)``; entries of P can reach 1e3 and beyond on
    realistic data, so the test must be scale-aware.
    """
    return _certificate(invariance_block(plant, lp, k, P, beta), beta)


def _certificate(block: np.ndarray, beta: float) -> InvarianceCertificate:
    w = np.linalg.eigvalsh(block)
    max_eig = float(w[-1])
    return InvarianceCertificate(beta=float(beta), max_eig=max_eig,
                                 feasible=max_eig <= 1e-7 * (1.0 + float(np.abs(w).max())))


def _log_brent(lo: float, hi: float, rtol: float, start: float):
    """Brent's method (*Algorithms for Minimization without Derivatives*, 1973, ch. 5) in log
    beta for a convex f on ``[lo, hi]`` from ``start``, as a generator that yields each beta, is
    sent f(beta) and returns the minimizer to relative accuracy ``rtol``. It steps to the vertex
    of the parabola through the three best points, or golden-section into the larger side where
    that vertex leaves the bracket or the step would not halve the one before last. Convex in
    beta is unimodal in log beta, so no pre-scan is needed. The trace ``tr X(b) = int_0^inf
    (e^{bt}/b) tr(e^{A_cl t} G e^{A_cl^T t}) dt`` is strictly convex, as ``d^2/db^2 (e^{bt}/b) =
    e^{bt} ((bt - 1)^2 + 1) / b^3 > 0``, and ``M0 + b P + P G P / b`` is matrix-convex, so
    ``find_beta``'s lambda_max is convex (Boyd et al., *LMIs in System and Control Theory*)."""
    a, b = math.log(lo), math.log(hi)
    tol = 0.5 * math.log1p(rtol)  # the bracket around x ends within 2 tol of x
    x = w = v = math.log(start)
    fx = fw = fv = yield start
    d = e = 0.0  # the last step and the one before it
    while max(x - a, b - x) > 2.0 * tol:
        r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)  # the parabola through v, w and x
        p, q = (x - v) * q - (x - w) * r, 2.0 * (r - q)  # has its vertex at x + p / q
        p, q = (p, q) if q >= 0.0 else (-p, -q)
        if abs(e) > tol and abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
            e, d = d, p / q
            if min(x + d - a, b - x - d) < 2.0 * tol:
                d = math.copysign(tol, a + b - 2.0 * x)
        else:
            e = (a if 2.0 * x >= a + b else b) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = yield math.exp(u)
        if fu <= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v in (x, w):
                v, fv = u, fu
    return math.exp(x)


def _log_golden_min(f, lo: float, hi: float, rtol: float, start: float) -> float:
    """Minimizer of a convex ``f`` on ``[lo, hi]``: :func:`_log_brent` driven by f."""
    search, value = _log_brent(lo, hi, rtol, start), None
    while True:
        try:
            value = f(search.send(value))
        except StopIteration as done:
            return done.value


def _multiplier_bracket(m0: np.ndarray, pgp: np.ndarray, P: np.ndarray):
    """``(lambda_max(P G P, -M0), lambda_min(-M0, P))``, each through ``-M0 = C C^T`` as the
    top eigenvalue of a congruence by C^-1; the empty ``(inf, 0)`` where that Cholesky fails."""
    try:
        c_inv = np.linalg.inv(np.linalg.cholesky(-m0))
    except np.linalg.LinAlgError:
        return math.inf, 0.0
    return (float(np.linalg.eigvalsh(c_inv @ pgp @ c_inv.T)[-1]),
            1.0 / float(np.linalg.eigvalsh(c_inv @ P @ c_inv.T)[-1]))


def find_beta(plant: PlantModel, lp: LaplacianPair, k, P) -> float | None:
    """Search for a multiplier beta > 0 certifying invariance of a given P.

    Minimizes the largest eigenvalue of the Schur complement ``M0 + beta P + (1/beta) P G P``,
    ``G = (1_N (x) E) Q^{-1} (1_N (x) E)^T``, convex in beta, so the feasible set is an
    interval. A feasible beta has ``-M0 >= beta P + P G P / beta``, so it lies in ``[lo, hi] =
    [lambda_max(P G P, -M0), lambda_min(-M0, P)]`` (GEVPs, Boyd et al., 1994), empty unless
    -M0 > 0; Brent's search runs there to relative width 1e-9, with no floor. A member of the
    equality family at beta0 (P*, up to its widening) has ``-M0 - beta0 P = P G P / beta0``,
    singular when nN > p, so hi = beta0: where the objective at hi is no higher than one
    search width below it, convexity puts the minimizer within that width of hi, taken with
    no search. Where no disturbance reaches the errors (P G P = 0, lo = 0) every beta in (0, hi)
    works and hi/2 is taken. Returns a feasible beta, or None when the bracket is empty or the
    certificate fails at the beta found; P must pass ``check_pd`` at order nN.
    """
    P = matkit.check_pd(P, lp.L_tilde.shape[0] * plant.n, "P")[0]
    m0, h = _block_terms(plant, lp, k, P)
    pgp = h @ np.linalg.solve(plant.Q, h.T)
    pgp = 0.5 * (pgp + pgp.T)
    lo, hi = _multiplier_bracket(m0, pgp, P)
    if lo > hi:
        return None

    def schur_max_eig(beta: float) -> float:
        return float(np.linalg.eigvalsh(m0 + beta * P + pgp / beta)[-1])

    if lo <= 0.0:
        beta = 0.5 * hi
    elif schur_max_eig(hi / (1.0 + 1e-9)) >= schur_max_eig(hi):  # e^(-2 tol) of the search
        beta = hi
    else:
        beta = _log_golden_min(schur_max_eig, lo, hi, 1e-9, math.sqrt(lo) * math.sqrt(hi))
    return beta if _certificate(_block(m0, h, P, beta, plant.Q), beta).feasible else None


def _family_setup(plant: PlantModel, lp: LaplacianPair, k):
    """Modal form, ``W = E Q^{-1} E^T`` and ``beta_max = -2 abscissa(A_cl)``;
    raises ``NotHurwitzError`` unless A_cl is Hurwitz."""
    modal = modal_form(plant, lp, k)
    abscissa = modal.spectrum.spectral_abscissa
    if abscissa >= 0.0:
        raise NotHurwitzError(f"closed loop has spectral abscissa {abscissa:.3e} >= 0")
    w = plant.E @ np.linalg.solve(plant.Q, plant.E.T)
    return modal, 0.5 * (w + w.T), -2.0 * abscissa


def _family_at(blocks: np.ndarray, c: np.ndarray, w: np.ndarray, beta: np.ndarray, op):
    """X(beta_g) in modal coordinates for each gain g of the (G, N, n, n) blocks: the N^2 blocks
    ``X_ij`` of ``(A_i + beta/2) X_ij + X_ij (A_j + beta/2)^T + c_i c_j W / beta = 0`` by one
    batched LU, as (G, nN, nN). A widened gain's diagonal blocks, with ``c_i^2 W + reg I``, are
    solved again by the search's ``op + beta I``; one residual check covers every block."""
    n_gains, n_followers, n = blocks.shape[:3]
    beta = beta[:, None, None, None]
    shifted = blocks + 0.5 * beta * np.eye(n)
    m, rhs = shifted[:, :, None], np.multiply.outer(c, c)[:, :, None, None] * w / beta[..., None]
    y = matkit.kron_solve(matkit.kron_sum(m, shifted[:, None]),
                          -rhs.reshape(rhs.shape[:-2] + (n * n, 1))).reshape(rhs.shape)
    ev = np.linalg.eigvalsh(y.transpose(0, 1, 3, 2, 4).reshape(n_gains, n_followers * n, -1))
    # Error directions unreachable from the shared disturbance make the
    # Gramian singular; a tiny isotropic widening keeps X invertible and
    # the resulting certificate strictly feasible. U is orthogonal, so
    # the widening lands on the diagonal blocks only.
    wide = np.flatnonzero(ev[:, 0] <= 1e-10 * np.maximum(ev[:, -1], 1e-300))
    if len(wide):
        reg = 1e-8 * max(float(c @ c) * float(np.linalg.eigvalsh(w)[-1]), 1e-30)
        at = wide[:, None], np.arange(n_followers), np.arange(n_followers)
        diag = rhs[at] = (c[:, None, None] ** 2 * w + reg * np.eye(n)) / beta[wide]
        y[at] = matkit.kron_solve(op[wide] + beta[wide] * np.eye(n * n),
                                  -diag.reshape(diag.shape[:-2] + (n * n, 1))).reshape(diag.shape)
    matkit.check_residual(m, shifted[:, None], y, rhs)
    return y.transpose(0, 1, 3, 2, 4).reshape(n_gains, n_followers * n, -1)


def _stacked(u: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``(U (x) I_n) Y_g (U (x) I_n)^T``, symmetrized, for a (G, nN, nN) stack of Y_g in modal
    coordinates: two products by U over the follower axes, O(n^2 N^3) per item, never forming
    ``U (x) I_n``."""
    x = (u @ y.reshape(len(y), len(u), -1)).reshape(y.shape)  # (U (x) I_n) Y
    x = (u @ x.swapaxes(-1, -2).reshape(len(y), len(u), -1)).reshape(y.shape)  # = X^T
    return 0.5 * (x + x.swapaxes(-1, -2))


#: Bound on G N^2 per X*/P* assembly (G N^2 n^4 operator entries): one gain at a time at large N.
_ASSEMBLY_ITEMS = 4096


def _minimize_traces(plant: PlantModel, lp: LaplacianPair, gains, eta=None) -> list:
    """:func:`minimize_trace` for each of ``gains``, bitwise as for one gain alone: the searches
    run in lockstep, one batched LU per round over the live ones, one residual check after all.
    X*, P* and, given ``eta``, :func:`check_input_bound`'s test (None where a gain fails it)
    follow in chunks of ``_ASSEMBLY_ITEMS``."""
    setups = [_family_setup(plant, lp, k) for k in gains]
    (modal, w, _), beta_max = setups[0], [s[2] for s in setups]
    blocks = np.array([s[0].blocks for s in setups])
    op = matkit.kron_sum(blocks, blocks)
    eye, c2w = np.eye(op.shape[-1]), modal.c[:, None, None] ** 2 * w
    rhs = -c2w.reshape(c2w.shape[:1] + op.shape[-1:] + (1,))
    searches = [_log_brent(1e-6 * b, (1 - 1e-6) * b, 1e-8, b / 2) for b in beta_max]
    beta, beta_star = [next(s) for s in searches], [0.0] * len(gains)
    live, live_op, owners, evaluated, solves = list(range(len(gains))), op, [], [], []
    while live:  # beta holds the next multiplier of each live search, in the order of live
        shift = np.array(beta)[:, None, None, None]
        x = matkit.kron_solve(live_op + shift * eye, rhs / shift).reshape((-1,) + c2w.shape)
        owners, evaluated, beta = owners + live, evaluated + beta, []
        solves.append(x)
        for g, value in zip(live, np.einsum("gkii->g", x).tolist()):
            try:
                beta.append(searches[g].send(value))
            except StopIteration as done:
                beta_star[g] = done.value
        if len(beta) < len(live):  # the live operators are re-indexed only when a search ends
            live = [g for g in live if not beta_star[g]]
            live_op = op[live]
    shift = np.array(evaluated).reshape(-1, 1, 1, 1)
    shifted = blocks[owners] + 0.5 * shift * np.eye(plant.n)
    matkit.check_residual(shifted, shifted, np.concatenate(solves), c2w / shift)
    del solves, shifted  # so that no search solve is held through the assembly
    results, step = [], max(1, _ASSEMBLY_ITEMS // len(c2w) ** 2)
    for chunk in (slice(g, g + step) for g in range(0, len(gains), step)):
        y = _family_at(blocks[chunk], modal.c, w, np.array(beta_star[chunk]), op[chunk])
        # P is inverted before the rotation, where unreachable modes stay
        # decoupled, so an ill-conditioned X costs P no accuracy
        x, p = (_stacked(modal.U, z) for z in (y, np.linalg.inv(0.5 * (y + y.swapaxes(-1, -2)))))
        ok = [True] * len(y) if eta is None else _input_bounds(
            lp, np.array(gains[chunk], dtype=float), np.linalg.cholesky(p), eta)
        results += [MinimizationResult(b, x_g, p_g, float(np.trace(x_g)), top) if ok_g else None
                    for b, x_g, p_g, top, ok_g in zip(beta_star[chunk], x, p, beta_max[chunk], ok)]
    return results


def minimize_trace(plant: PlantModel, lp: LaplacianPair, k) -> MinimizationResult:
    """Minimize ``tr(X)`` (sum of squared semiaxes of the ellipsoid of
    ``P = X^{-1}``) over the one-parameter equality family.

    Brent's method in log beta finds beta* to relative accuracy 1e-8 on ``[1e-6, 1 - 1e-6]
    * beta_max`` from ``beta_max / 2``, the scalar family's minimizer; an evaluation solves
    only the N modal diagonal blocks, ``tr X = sum_i tr X_ii``, O(N n^6), by one batched LU of
    ``kron_sum(A_i, A_i) + beta I``, its operator and right side built once. One residual
    check over every evaluation's blocks follows the search; X* is assembled at beta*. It is
    the one-gain case of the gamma sweep's lockstep searches."""
    return _minimize_traces(plant, lp, [k])[0]


def _input_bounds(lp: LaplacianPair, k: np.ndarray, c: np.ndarray, eta: float) -> np.ndarray:
    """:func:`check_input_bound` for a gain K and the Cholesky factor of its P, or stacks of both."""
    z = np.linalg.solve(c, np.kron(lp.L_tilde, k).swapaxes(-1, -2))
    return np.linalg.eigvalsh(z.swapaxes(-1, -2) @ z)[..., -1] <= eta**2 * (1.0 + 1e-7)


def check_input_bound(lp: LaplacianPair, k, P, eta: float) -> bool:
    """Input-norm certificate: the peak ``max_{e^T P e <= 1} ||R e||`` with
    ``R = L_tilde (x) K`` is at most eta, tested as ``lambda_max(R P^{-1} R^T)
    <= eta^2 (1 + 1e-7)`` through the Cholesky factor ``P = C C^T``. The margin
    is relative to eta^2, so the largest eigenvalues of an ill-conditioned P
    cannot loosen it. P must pass :func:`~minellip.matkit.check_pd`, which yields C."""
    if not eta > 0.0:  # NaN fails it too; inf means no input bound
        raise ValueError("eta must be positive")
    k, n = matkit.as_matrix(k, "K"), len(np.atleast_1d(P)) / len(lp.L_tilde)
    if n.is_integer() and k.shape[1] != n:  # else P's order is wrong, and check_pd says so
        raise DimensionMismatchError(f"K must have {n:.0f} columns to match P, got {k.shape}")
    c = matkit.check_pd(P, len(lp.L_tilde) * k.shape[1], "P")[1]
    return bool(_input_bounds(lp, k, c, eta))


@dataclass(frozen=True, eq=False)
class WorstCaseLaw:
    """:func:`worst_case_law` whitened by ``Q = L L^T``: ``omega* = unwhiten u``, ``unwhiten =
    L^-T``, ``u = z / ||z||`` for the readout ``z = Z e``, ``Z = L^-1 (1_N (x) E)^T P`` over its
    max-abs entry (omega* has degree 0 in P and e), so ``omega*^T Q omega* = u^T u``. ``unit``
    is the scaled form, which the fused step calls only off its fast path ``Z e / ||Z e||``."""

    Z: np.ndarray
    unwhiten: np.ndarray
    floor: float

    def unit(self, e: np.ndarray, held=None) -> np.ndarray | None:
        """u at e, or ``held`` where ``||z|| <= floor ||e||`` (e = 0 too). z is formed from e
        over its max-abs entry, which no scale of e or P over- or underflows. A NaN in e gives
        a NaN u."""
        if e.shape != self.Z.shape[1:]:
            raise DimensionMismatchError(f"error shape {e.shape} is not {self.Z.shape[1:]}")
        e = e / (np.abs(e).max() or 1.0)
        z = self.Z.dot(e)
        r = math.sqrt(z.dot(z))
        return held if r <= self.floor * math.sqrt(e.dot(e)) else z / r


def worst_case_law(P, plant: PlantModel) -> WorstCaseLaw:
    """The map ``e -> omega*`` to the admissible disturbance that maximizes
    the growth rate of ``e^T P e``, for a P of order nN:

        omega* = Q^{-1} (1_N (x) E)^T P e / || Q^{-1/2} (1_N (x) E)^T P e ||,

    with ``omega*^T Q omega* = 1``, or None where ``||z|| <= 1e-12 ||Z||_F ||e||`` (see
    :class:`WorstCaseLaw`). Its operands are built once, so a simulation can call it every
    step. N is P's order over n, P must pass ``check_pd``; ``DimensionMismatchError`` when n
    does not divide it or e misses it. Q is the plant's, which ``PlantModel`` checked."""
    n_followers, rest = divmod(len(P), plant.n)
    if rest:
        raise DimensionMismatchError(f"P's order {len(P)} is not a multiple of n={plant.n}")
    P = matkit.check_pd(P, n_followers * plant.n, "P")[0]
    l_inv = np.linalg.inv(np.linalg.cholesky(plant.Q))
    z = l_inv @ (disturbance_channel(plant, n_followers).T @ P)
    z /= np.abs(z).max() or 1.0
    return WorstCaseLaw(z, l_inv.T, 1e-12 * float(np.linalg.norm(z, "fro")))


def worst_disturbance(P, plant: PlantModel, e) -> np.ndarray:
    """:func:`worst_case_law` at ``e``; ``DegenerateDirectionError`` where the
    direction degenerates."""
    law = worst_case_law(P, plant)
    u = law.unit(np.asarray(e, dtype=float).ravel())
    if u is None:
        raise DegenerateDirectionError("P e is orthogonal to the disturbance channel")
    return law.unwhiten.dot(u)
