"""Tests of the benchmark's SciPy oracles against closed forms.

Run with ``python3 -m pytest perfbench/oracle_checks.py``. The file name
keeps these tests out of the repository's default test collection; they
test the benchmark, not the package.
"""

import numpy as np
import pytest

import oracles

SQRT2 = np.sqrt(2.0)
#: Leader-rooted adjacency of the paper's Fig. 1 graph.
FIG1 = [[0, 0, 0, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]]


def test_scalar_demo_minimum():
    # A = -1, E = Q = 1, K = 0, one follower: X(beta) = 1 / (beta (2 - beta)),
    # minimal at beta* = 1 with trace 1, on (0, beta_max = 2).
    a_cl = oracles.closed_loop(np.array([[-1.0]]), np.array([[1.0]]), np.array([[0.0]]),
                               oracles.reduced_laplacian([[0, 0], [1, 0]]))
    assert oracles.beta_max(a_cl) == pytest.approx(2.0, rel=1e-14)
    beta, trace = oracles.min_trace(a_cl, np.array([[1.0]]))
    assert beta == pytest.approx(1.0, rel=1e-6)
    assert trace == pytest.approx(1.0, rel=1e-12)
    assert oracles.family_X(a_cl, np.array([[1.0]]), 0.5)[0, 0] == pytest.approx(1 / 0.75, rel=1e-13)


def test_fig1_laplacian_spectrum():
    w = np.linalg.eigvalsh(oracles.reduced_laplacian(FIG1))
    assert w == pytest.approx([2 - SQRT2, 2.0, 2 + SQRT2], rel=1e-14)


@pytest.mark.parametrize("gamma", [0.01, 1.0, 100.0])
def test_are_gain_scalar_integrator(gamma):
    # A = 0, B = 1, q0 = 1: gamma P^2 = 1, so K = gamma / (2 lambda_min) / sqrt(gamma)
    # with lambda_min = 2 - sqrt(2) on the Fig. 1 graph.
    k = oracles.are_gain(np.zeros((1, 1)), np.ones((1, 1)), oracles.reduced_laplacian(FIG1), gamma)
    assert k[0, 0] == pytest.approx(np.sqrt(gamma) / (2 * (2 - SQRT2)), rel=1e-10)


@pytest.mark.parametrize("omega", [0.1, 0.5, 2.0])
def test_steady_amplitude_first_order(omega):
    # e' = -e + a sin(w t) settles to amplitude a / sqrt(1 + w^2).
    amp = oracles.steady_amplitude(np.array([[-1.0]]), np.ones((1, 1)), np.array([0.9]), omega)
    assert amp[0] == pytest.approx(0.9 / np.sqrt(1 + omega**2), rel=1e-14)


def test_input_bound_margin_sign():
    # scalar: eta^2 P - (l k)^2 with l = 1, k = 2, eta = 1 changes sign at P = 4
    lt = np.ones((1, 1))
    assert oracles.input_bound_margin(lt, np.array([[2.0]]), np.array([[5.0]]), 1.0) > 0
    assert oracles.input_bound_margin(lt, np.array([[2.0]]), np.array([[3.0]]), 1.0) < 0
