"""Command-line front end.

Subcommands: ``verify`` (consensus and invariance certificates for an
explicit gain), ``minimize`` (trace-minimal ellipsoid), ``simulate``
(trajectory CSV plus steady-state error metrics), ``design`` (gamma-sweep
gain synthesis) and ``report`` (summary of prior outputs in a directory).

Exit codes: 0 on success, 1 on analytic infeasibility, 2 on config or IO
errors. The output directory resolves as ``--out``, then the MINELLIP_OUT
environment variable, then the scenario's own output section.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path

import numpy as np
import yaml

from . import scenario
from .ellipsoid import (
    check_input_bound,
    check_invariant,
    find_beta,
    minimize_trace,
)
from .errors import ConfigError, NotHurwitzError, ToolkitError
from .gainsynth import consensus_feasible, optimize_gain
from .graph import build_laplacian
from .protocol import modal_form
from .sim import make_disturbance, metrics, simulate

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_CONFIG = 2


def _out_dir(cfg, args) -> Path:
    directory = args.out or os.environ.get("MINELLIP_OUT") or cfg.output.directory
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _apply_overrides(cfg, args) -> None:
    if args.dt is not None:
        cfg.simulation.dt = args.dt
    if args.t_final is not None:
        cfg.simulation.t_final = args.t_final
    if not 0 < cfg.simulation.dt <= cfg.simulation.t_final < np.inf:  # NaN fails it too
        raise ConfigError("overrides must keep dt > 0 and t_final >= dt, both finite")


def _design(cfg):
    syn = cfg.synthesize or {}
    return optimize_gain(
        cfg.plant, build_laplacian(cfg.topology),
        gamma_grid=syn.get("gamma_grid"), q0=syn.get("q0"),
    )


def _gain_of(cfg):
    return cfg.gain if cfg.gain is not None else _design(cfg).K


def _emit(out: Path, cfg, command: str, lines, summary=None, summary_stem=None) -> None:
    """Write the summary, if any, as ``<prefix>_<summary_stem or command>.yaml``, then
    the headed report as ``<prefix>_<command>.txt``, and print the report."""
    prefix = cfg.output.file_prefix
    if summary is not None:
        (out / f"{prefix}_{summary_stem or command}.yaml").write_text(
            yaml.safe_dump(summary, sort_keys=False))
    text = "\n".join([f"scenario: {prefix}", f"command: {command}", *lines])
    (out / f"{prefix}_{command}.txt").write_text(text + "\n")
    print(text)


def cmd_verify(cfg, args, out: Path) -> int:
    if cfg.gain is None:
        raise ConfigError("verify needs an explicit gain.K in the scenario")
    k = cfg.gain
    lp = build_laplacian(cfg.topology)

    feasible = consensus_feasible(cfg.plant, lp)
    lines = [f"consensus feasible (spanning tree + stabilizable): {'yes' if feasible else 'no'}"]
    ok = feasible

    abscissa = modal_form(cfg.plant, lp, k).spectrum.spectral_abscissa
    hurwitz = abscissa < 0.0
    lines.append(f"closed-loop spectral abscissa: {abscissa:.6g} (Hurwitz: {'yes' if hurwitz else 'no'})")
    ok &= hurwitz

    if hurwitz:
        if cfg.ellipsoid_P is None:
            result = minimize_trace(cfg.plant, lp, k)
            p_used, beta = result.P_star, result.beta_star
            label, key, extra = "trace-minimal", "beta*", f" trace={result.trace_value:.6g}"
        else:
            p_used, label, key, extra = cfg.ellipsoid_P, "given P", "beta", ""
            beta = find_beta(cfg.plant, lp, k, p_used)
        if beta is None:
            lines.append(f"invariant ellipsoid ({label}): no feasible multiplier")
            ok = False
        else:
            cert = check_invariant(cfg.plant, lp, k, p_used, beta)
            lines.append(f"invariant ellipsoid ({label}): {key}={beta:.6g}{extra} "
                         f"max_eig={cert.max_eig:.3e} feasible={'yes' if cert.feasible else 'no'}")
            ok &= cert.feasible

        input_ok = check_input_bound(lp, k, p_used, cfg.plant.eta)
        lines.append(f"input bound at eta={cfg.plant.eta:.6g}: {'pass' if input_ok else 'fail'}")
        ok &= input_ok

    lines.append(f"verdict: {'PASS' if ok else 'FAIL'}")
    _emit(out, cfg, "verify", lines)
    return EXIT_OK if ok else EXIT_INFEASIBLE


def cmd_minimize(cfg, args, out: Path) -> int:
    k = _gain_of(cfg)
    lp = build_laplacian(cfg.topology)
    result = minimize_trace(cfg.plant, lp, k)
    prefix = cfg.output.file_prefix
    np.savetxt(out / f"{prefix}_P_star.txt", result.P_star, fmt="%.17g")
    summary = {
        "beta_star": result.beta_star,
        "beta_max": result.beta_max,
        "trace": result.trace_value,
        "P_star_file": f"{prefix}_P_star.txt",
    }
    lines = [
        f"beta*: {result.beta_star:.9g} (admissible interval (0, {result.beta_max:.9g}))",
        f"trace of X* = P*^-1: {result.trace_value:.9g}",
        f"P* written to {prefix}_P_star.txt",
    ]
    _emit(out, cfg, "minimize", lines, summary)
    return EXIT_OK


def _csv_header(n: int, m: int, p: int, n_followers: int, with_v: bool) -> list[str]:
    cols = ["t"]
    cols += [f"sigma0_{j + 1}" for j in range(n)]
    for i in range(1, n_followers + 1):
        cols += [f"sigma{i}_{j + 1}" for j in range(n)]
    for i in range(1, n_followers + 1):
        cols += [f"e{i}_{j + 1}" for j in range(n)]
    for i in range(1, n_followers + 1):
        cols += [f"u{i}_{j + 1}" for j in range(m)]
    cols += [f"omega_{j + 1}" for j in range(p)]
    if with_v:
        cols.append("V")
    return cols


def _format_block(block) -> str:
    row = ",".join(["%.17g"] * block.shape[1]) + "\n"
    return (row * len(block)) % tuple(block.ravel().tolist())


def _write_table(fh, table) -> None:
    """Write exactly ``np.savetxt(fh, table, fmt="%.17g", delimiter=",")``'s bytes, one %-format
    per 2048 rows, in one contiguous share of blocks per usable CPU: this process writes the first,
    then what each forked child formats and sends through a pipe. A failed child raises OSError."""
    blocks = np.split(table, range(2048, len(table), 2048))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    shares = min(cpus or 1, len(blocks)) if hasattr(os, "fork") else 1
    bounds = [len(blocks) * i // shares for i in range(shares + 1)]
    pids, pipes = [], []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            with open(write_end, "wb") as sink:  # this process closes its write end on leaving
                with warnings.catch_warnings():  # Python >= 3.12 warns on a fork with live threads
                    warnings.filterwarnings("ignore", "This process", DeprecationWarning)
                    pid = os.fork()
                if pid == 0:  # the child only formats: it never returns nor flushes ``fh``
                    try:
                        os.close(read_end)  # so that its write fails once this process closes it
                        sink.write("".join(map(_format_block, blocks[lo:hi])).encode())
                        sink.flush()
                        os._exit(0)
                    finally:
                        os._exit(1)
            pids.append(pid)
        fh.writelines(map(_format_block, blocks[:bounds[1]]))
        for pipe in pipes:
            fh.write(pipe.read().decode())
    finally:  # close every read end first, so that a child blocked on its pipe exits; reap all
        for pipe in pipes:
            pipe.close()
        failed = [pid for pid in pids if os.waitpid(pid, 0)[1]]
    if failed:
        raise OSError(f"CSV formatting processes {failed} failed")


def cmd_simulate(cfg, args, out: Path) -> int:
    _apply_overrides(cfg, args)
    k = _gain_of(cfg)
    lp = build_laplacian(cfg.topology)
    kind = cfg.disturbance["kind"]

    p_star = None
    try:
        p_star = minimize_trace(cfg.plant, lp, k).P_star
    except NotHurwitzError:
        if kind == "worst_case":
            raise
    dist = make_disturbance(
        kind,
        cfg.plant,
        P=p_star,
        amplitudes=cfg.disturbance.get("amplitudes"),
        angular_frequency=cfg.disturbance.get("angular_frequency"),
    )
    traj = simulate(
        cfg.plant,
        cfg.topology,
        k,
        cfg.simulation.u0,
        cfg.simulation.x0,
        dist,
        cfg.simulation.t_final,
        cfg.simulation.dt,
        P=p_star,
    )
    met = metrics(traj, cfg.simulation.window_fraction)

    prefix = cfg.output.file_prefix
    header = _csv_header(
        cfg.plant.n, cfg.plant.m, cfg.plant.p, cfg.topology.follower_count, traj.V is not None
    )
    blocks = [
        traj.times[:, None],
        traj.leader_states,
        traj.follower_states,
        traj.errors,
        traj.controls,
        traj.disturbances,
    ]
    if traj.V is not None:
        blocks.append(traj.V[:, None])
    table = np.hstack(blocks)
    with open(out / f"{prefix}_trajectory.csv", "w") as fh:
        fh.write(",".join(header) + "\n")
        _write_table(fh, table)
    summary = {
        "disturbance": kind,
        "steady_window": [met.steady_window[0], met.steady_window[1]],
        "max_abs_error_per_agent": met.max_abs_error_per_agent.tolist(),
        "entry_time": met.entry_time,
        "rows": int(table.shape[0]),
    }
    lines = [f"trajectory: {prefix}_trajectory.csv ({table.shape[0]} rows)",
             f"steady window: [{met.steady_window[0]:.6g}, {met.steady_window[1]:.6g}] s"]
    for i, row in enumerate(met.max_abs_error_per_agent, start=1):
        formatted = ", ".join(f"{v:.6g}" for v in row)
        lines.append(f"agent {i} max |error| per coordinate: [{formatted}]")
    if met.entry_time is not None:
        lines.append(f"ellipsoid entry time: {met.entry_time:.6g} s")
    _emit(out, cfg, "simulate", lines, summary, summary_stem="metrics")
    return EXIT_OK


def cmd_design(cfg, args, out: Path) -> int:
    design = _design(cfg)
    summary = {
        "K": design.K.tolist(),
        "gamma": design.gamma,
        "beta_star": design.minimization.beta_star,
        "trace": design.minimization.trace_value,
        "input_ok": design.input_ok,
    }
    lines = [
        f"selected gamma: {design.gamma:.6g}",
        f"gain K: {design.K.tolist()}",
        f"trace of X*: {design.minimization.trace_value:.9g} at beta*={design.minimization.beta_star:.6g}",
        f"input bound at eta={cfg.plant.eta:.6g}: {'pass' if design.input_ok else 'fail'}",
    ]
    _emit(out, cfg, "design", lines, summary)
    return EXIT_OK


def cmd_report(cfg, args, out: Path) -> int:
    lines = [f"summary of {out}"]
    for path in sorted(out.glob("*.yaml")):
        try:
            data = yaml.safe_load(path.read_text())
        except (yaml.YAMLError, UnicodeDecodeError):  # not a report this tool wrote
            continue
        if not isinstance(data, dict):
            continue
        keys = ("beta_star", "trace", "gamma", "entry_time", "disturbance", "rows")
        found = {k: data[k] for k in keys if k in data}
        lines.append(f"{path.name}: " + ", ".join(f"{k}={v}" for k, v in found.items()))
    for path in sorted(out.glob("*_verify.txt")):
        try:
            lines.append(f"{path.name}: {path.read_text().strip().splitlines()[-1]}")
        except (IndexError, UnicodeDecodeError):  # empty or not text: skipped like bad YAML
            continue
    if len(lines) == 1:
        lines.append("(no prior outputs found)")
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minellip",
        description="Leader-following consensus design with minimal invariant ellipsoids",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("verify", cmd_verify),
        ("minimize", cmd_minimize),
        ("simulate", cmd_simulate),
        ("design", cmd_design),
        ("report", cmd_report),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="scenario YAML file")
        sp.add_argument("--out", default=None, help="output directory override")
        if name == "verify":
            sp.add_argument("--seed", type=int, default=0, help="accepted and ignored (existing callers)")
        if name == "simulate":
            sp.add_argument("--dt", type=float, default=None, help="integration step override")
            sp.add_argument("--t-final", type=float, default=None, help="horizon override")
        sp.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = scenario.load(args.config)
        return args.func(cfg, args, _out_dir(cfg, args))
    except (ConfigError, MemoryError) as exc:  # a horizon too long to hold is a config error
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ToolkitError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
