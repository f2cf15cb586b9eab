"""Output checks of the benchmark workloads.

Every check compares a program output with a computation made apart from
the program (``oracles.py``) or with a property the method must have; none
compares with a stored copy of earlier output. The tolerances and the
reasons for them are listed in README.md. Each checker returns a list of
problems; an empty list means the round's outputs are correct.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import scipy.linalg as sla
import yaml

import oracles
from minellip import gainsynth

BETA_RTOL = 1e-5
TRACE_RTOL = 1e-6
GAIN_RTOL = 1e-6
BLOCK_RTOL = 1e-6
CERT_RTOL = 1e-7
EIG_RTOL = 1e-9
INPUT_RTOL = 1e-7
PEAK_RTOL = 1e-6
UNIT_TOL = 1e-9
ERROR_RTOL = 1e-12
V_RTOL = 1e-9
V_STAY = 1.005
V_DECREASE = 1.001


class Problems(list):
    def expect(self, ok, message: str) -> None:
        if not ok:
            self.append(message)


def _close(a, b, rtol: float) -> bool:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b))) <= rtol * float(np.linalg.norm(b))


class Model:
    """Oracle view of one system: matrices rebuilt from raw data, never
    through the package, and the minimal-trace reference solution."""

    def __init__(self, A, B, E, Q, eta, adjacency, K):
        self.A, self.B, self.E, self.Q = (np.asarray(m, dtype=float) for m in (A, B, E, Q))
        self.eta, self.K = float(eta), np.asarray(K, dtype=float)
        self.L_tilde = oracles.reduced_laplacian(adjacency)
        self.n_followers = self.L_tilde.shape[0]
        self.a_cl = oracles.closed_loop(self.A, self.B, self.K, self.L_tilde)
        self.ones_e = oracles.channel(self.E, self.n_followers)
        self.G = self.ones_e @ np.linalg.solve(self.Q, self.ones_e.T)
        self.beta_max = oracles.beta_max(self.a_cl)
        self.beta, self.trace = oracles.min_trace(self.a_cl, self.G)
        self._sweep = None

    def trace_at(self, beta: float) -> float:
        return float(np.trace(oracles.family_X(self.a_cl, self.G, beta)))

    def block_ok(self, P, beta: float) -> bool:
        top, norm = oracles.block_max_eig(self.a_cl, self.ones_e, self.Q, P, beta)
        return top <= BLOCK_RTOL * (1.0 + norm)

    def check_certificate(self, problems: Problems, where: str, P, beta_star, cert,
                          beta) -> None:
        """``check_invariant(P*, beta*)`` and ``find_beta(P*)``. The block's
        largest eigenvalue must match the oracle's, and a verdict must match
        the oracle's at the program's own tolerance: a refusal is right only
        when P* really misses the block test at beta* (the FOUND defect of
        minimize_trace), and a multiplier must pass the block test."""
        top, norm = oracles.block_max_eig(self.a_cl, self.ones_e, self.Q, P, beta_star)
        slack = EIG_RTOL * (1.0 + norm)
        problems.expect(abs(cert.max_eig - top) <= slack,
                        f"{where}: check_invariant max eig {cert.max_eig} vs oracle {top}")
        misses = top > CERT_RTOL * (1.0 + norm) + slack
        problems.expect(cert.feasible != misses or abs(top - CERT_RTOL * (1.0 + norm)) <= slack,
                        f"{where}: check_invariant says {cert.feasible}, oracle top {top:.3g} "
                        f"against tolerance {CERT_RTOL * (1.0 + norm):.3g}")
        if beta is None:
            problems.expect(misses, f"{where}: find_beta found no multiplier for a P* that "
                                    f"passes its block test at beta*")
        else:
            problems.expect(self.block_ok(P, beta), f"{where}: P* fails the block test at "
                                                    f"find_beta's multiplier {beta}")

    def check_minimum(self, problems: Problems, where: str, beta, trace, beta_max) -> None:
        problems.expect(0.0 < beta < self.beta_max,
                        f"{where}: beta* {beta} outside (0, {self.beta_max})")
        problems.expect(abs(beta_max - self.beta_max) <= 1e-6 * self.beta_max,
                        f"{where}: beta_max {beta_max} vs oracle {self.beta_max}")
        problems.expect(abs(beta - self.beta) <= BETA_RTOL * self.beta,
                        f"{where}: beta* {beta} vs oracle {self.beta}")
        problems.expect(abs(trace - self.trace) <= TRACE_RTOL * self.trace,
                        f"{where}: trace {trace} vs oracle {self.trace}")
        if 0.0 < beta * (1 + 1e-3) < self.beta_max:
            here = self.trace_at(beta)
            problems.expect(here <= min(self.trace_at(beta * (1 - 1e-3)),
                                        self.trace_at(beta * (1 + 1e-3))),
                            f"{where}: trace at beta* is not a local minimum")

    def design_sweep(self, grid) -> list[tuple[float, np.ndarray, float, bool]]:
        """``(gamma, K, tr X*, input bound holds)`` for each grid point, with
        the input bound taken in the form ``lambda_max(R X* R') <= eta^2``,
        which stays defined when X* is singular on unreachable modes."""
        rows = []
        for gamma in grid:
            k = oracles.are_gain(self.A, self.B, self.L_tilde, float(gamma))
            a_cl = oracles.closed_loop(self.A, self.B, k, self.L_tilde)
            beta, trace = oracles.min_trace(a_cl, self.G)
            r = np.kron(self.L_tilde, k)
            peak = float(sla.eigvalsh(r @ oracles.family_X(a_cl, self.G, beta) @ r.T)[-1])
            rows.append((float(gamma), k, trace, peak <= self.eta**2 * (1 + INPUT_RTOL)))
        return rows

    def check_design(self, problems: Problems, where: str, gamma, K, trace, input_ok) -> None:
        if self._sweep is None:
            self._sweep = self.design_sweep(gainsynth.DEFAULT_GAMMA_GRID)
        rows = self._sweep
        best = min((t for _, _, t, ok in rows if ok), default=None)
        chosen = [row for row in rows if np.isclose(row[0], gamma, rtol=1e-12)]
        problems.expect(best is not None and len(chosen) == 1,
                        f"{where}: gamma {gamma} not on the grid or no feasible point")
        if best is None or len(chosen) != 1:
            return
        _, k_ref, t_ref, ok_ref = chosen[0]
        problems.expect(ok_ref and input_ok, f"{where}: chosen gamma {gamma} violates the input bound")
        problems.expect(t_ref <= best * (1 + TRACE_RTOL),
                        f"{where}: gamma {gamma} has trace {t_ref}, grid best is {best}")
        problems.expect(_close(K, k_ref, GAIN_RTOL), f"{where}: K {K} vs ARE oracle {k_ref}")
        problems.expect(abs(trace - t_ref) <= TRACE_RTOL * t_ref,
                        f"{where}: design trace {trace} vs oracle {t_ref}")


class PaperCliChecks:
    def __init__(self, workload):
        self.cfg = {name: yaml.safe_load(Path(path).read_text())
                    for name, path in workload.configs.items()}
        c = self.cfg["paper_example1"]
        p = c["plant"]
        self.model = Model(p["A"], p["B"], p["E"], p["Q"], p["eta"],
                           c["topology"]["adjacency"], c["gain"]["K"])

    def __call__(self, outputs: dict) -> Problems:
        problems = Problems()
        out = outputs["out"]
        for key, rc in outputs["rc"].items():
            problems.expect(rc == 0, f"paper-cli {key}: exit code {rc}")
        if problems:
            return problems
        verdict = outputs["stdout"][("verify", "paper_example1")].strip().splitlines()[-1]
        problems.expect(verdict == "verdict: PASS", f"paper-cli verify: {verdict!r}")

        m = self.model
        mini = yaml.safe_load((out / "paper_example1_minimize.yaml").read_text())
        m.check_minimum(problems, "paper-cli minimize", mini["beta_star"], mini["trace"],
                        mini["beta_max"])
        P = np.loadtxt(out / mini["P_star_file"])
        problems.expect(m.block_ok(P, mini["beta_star"]), "paper-cli minimize: P* fails the block test")

        design = yaml.safe_load((out / "paper_example1_design.yaml").read_text())
        m.check_design(problems, "paper-cli design", design["gamma"], design["K"],
                       design["trace"], design["input_ok"])

        for name in ("paper_example1", "paper_example2", "paper_example3"):
            self._check_simulation(problems, out, name)

        summary = (out / "summary.txt").read_text()
        for expected in ("paper_example1_minimize.yaml", "paper_example1_design.yaml",
                         "paper_example3_metrics.yaml", "paper_example1_verify.txt: verdict: PASS"):
            problems.expect(expected in summary, f"paper-cli report: no {expected!r}")
        return problems

    def _check_simulation(self, problems: Problems, out, name: str) -> None:
        c = self.cfg[name]
        sim_cfg, dist = c["simulation"], c["disturbance"]
        m = self.model
        n, n_f = m.A.shape[0], m.n_followers
        rows = int(np.floor(sim_cfg["t_final"] / sim_cfg["dt"] + 1e-9)) + 1
        table = np.loadtxt(out / f"{name}_trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
        width = 1 + n + 2 * n * n_f + m.B.shape[1] * n_f + m.E.shape[1] + 1
        problems.expect(table.shape == (rows, width),
                        f"{name}: CSV shape {table.shape}, expected {(rows, width)}")
        if table.shape != (rows, width):
            return
        leader = table[:, 1:1 + n]
        followers = table[:, 1 + n:1 + n + n * n_f]
        errors = table[:, 1 + n + n * n_f:1 + n + 2 * n * n_f]
        scale = 1.0 + np.abs(table[:, 1:1 + n + n * n_f]).max()
        problems.expect(np.abs(errors - (followers - np.tile(leader, n_f))).max() <= ERROR_RTOL * scale,
                        f"{name}: CSV e differs from sigma_i - sigma_0")
        omega = table[:, -1 - m.E.shape[1]:-1]
        if dist["kind"] == "worst_case":
            unit = np.einsum("ti,ij,tj->t", omega, m.Q, omega)
            problems.expect(np.abs(unit - 1.0).max() <= UNIT_TOL,
                            f"{name}: worst-case omega'Q omega off 1 by {np.abs(unit - 1).max():.3g}")
        if dist["kind"] == "sinusoid":
            met = yaml.safe_load((out / f"{name}_metrics.yaml").read_text())
            peaks = np.asarray(met["max_abs_error_per_agent"]).ravel()
            amp = oracles.steady_amplitude(m.a_cl, m.ones_e, np.asarray(dist["amplitudes"], float),
                                           float(dist["angular_frequency"]))
            problems.expect(np.abs(peaks - amp).max() <= PEAK_RTOL * amp.max(),
                            f"{name}: steady peaks {peaks} vs frequency response {amp}")


class ScaleAnalysisChecks:
    def __init__(self, workload):
        self.models, self.probes = {}, {}
        for key, s in workload.systems.items():
            p = s.plant
            self.models[key] = Model(p.A, p.B, p.E, p.Q, p.eta, s.topology.adjacency, s.K)
            self.probes[key] = s.probes

    def __call__(self, outputs: dict) -> Problems:
        problems = Problems()
        for (what, n, i), result in outputs["results"].items():
            if result is None:
                continue
            m, where = self.models[(n, i)], f"scale-analysis {what} N={n} #{i}"
            if what == "design":
                m.check_design(problems, where, result.gamma, result.K,
                               result.minimization.trace_value, result.input_ok)
                continue
            res = result["min"]
            problems.expect(result["feasible"], f"{where}: consensus reported infeasible")
            m.check_minimum(problems, where, res.beta_star, res.trace_value, res.beta_max)
            m.check_certificate(problems, where, res.P_star, res.beta_star, result["cert"],
                                result["beta"])
            x_ref = oracles.family_X(m.a_cl, m.G, res.beta_star)
            problems.expect(_close(res.X_star, x_ref, TRACE_RTOL), f"{where}: X* differs from the oracle")
            margin = oracles.input_bound_margin(m.L_tilde, m.K, res.P_star, m.eta)
            problems.expect(result["input_ok"] and margin >= -INPUT_RTOL,
                            f"{where}: input bound fails, relative margin {margin:.3g}")
            q_inv = np.linalg.inv(m.Q)
            for omega, e in zip(result["omegas"], self.probes[(n, i)]):
                v = m.ones_e.T @ (res.P_star @ e)
                problems.expect(abs(omega @ m.Q @ omega - 1.0) <= UNIT_TOL
                                and omega @ v >= (1 - 1e-9) * np.sqrt(v @ q_inv @ v),
                                f"{where}: worst disturbance not the Q-unit maximiser")
        return problems


class InvarianceMCChecks:
    def __init__(self, workload):
        self.systems = workload.systems

    def __call__(self, outputs: dict) -> Problems:
        problems = Problems()
        for j, (spec, traj) in outputs.items():
            if traj is None:
                continue
            where = f"invariance-mc trajectory {j} (N={spec['n']}, {spec['kind']})"
            s = self.systems[spec["n"]]
            P, Q = s["P"], s["plant"].Q
            n_f = spec["n"]
            leader, followers, errors = traj.leader_states, traj.follower_states, traj.errors
            scale = 1.0 + max(np.abs(leader).max(), np.abs(followers).max())
            problems.expect(np.abs(errors - (followers - np.tile(leader, n_f))).max()
                            <= ERROR_RTOL * scale, f"{where}: e differs from sigma_i - sigma_0")
            v = np.einsum("ti,ij,tj->t", errors, P, errors)
            v_scale = 1.0 + np.linalg.norm(P, 2) * np.einsum("ti,ti->t", errors, errors)
            problems.expect(np.all(np.abs(traj.V - v) <= V_RTOL * v_scale),
                            f"{where}: recorded V differs from e' P* e")
            unit = np.einsum("ti,ij,tj->t", traj.disturbances, Q, traj.disturbances)
            problems.expect(unit.max() <= 1.0 + UNIT_TOL, f"{where}: inadmissible disturbance sample")
            if spec["kind"] == "worst_case":
                problems.expect(np.abs(unit - 1.0).max() <= UNIT_TOL,
                                f"{where}: worst-case omega'Q omega is not 1")
            inside = np.nonzero(v <= 1.0)[0]
            problems.expect(v[0] > 1.0, f"{where}: starts inside, V(0) = {v[0]}")
            problems.expect(inside.size > 0, f"{where}: never enters, min V = {v.min()}")
            if inside.size:
                problems.expect(v[inside[0]:].max() <= V_STAY,
                                f"{where}: V leaves after entry, max {v[inside[0]:].max()}")
            above = v[:-1] >= V_DECREASE
            problems.expect(np.all(v[1:][above] < v[:-1][above]),
                            f"{where}: V not strictly decreasing while >= {V_DECREASE}")
        return problems


CHECKS = {"paper-cli": PaperCliChecks, "scale-analysis": ScaleAnalysisChecks,
          "invariance-mc": InvarianceMCChecks}
