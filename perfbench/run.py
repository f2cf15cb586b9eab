#!/usr/bin/env python3
"""Benchmark of the minellip toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. After set-up it runs whole rounds of
the workload's operations for about S seconds (always at least one round,
and in a traced run at least one untraced and one traced round), checks
every output and prints one JSON object as the last line of standard
output: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``. README.md describes the workloads and the metrics.
"""

import time

_START = time.perf_counter()  # the set-up clock: imports, inputs, warm-up

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: every workload is a single closed-loop caller, and the
# package's small dense solves ran faster on one OpenBLAS thread than on its
# default pool. Set before NumPy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("paper-cli", "scale-analysis", "invariance-mc")
SETUP_SAMPLES = 9


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _child_setup(args) -> float:
    """Set-up time of a fresh process running the same workload set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _measure(workload, checker, seconds: float, tracer):
    """Run rounds until the next one would end after ``seconds``; a traced
    run alternates untraced and traced rounds, starting untraced. Returns
    the rounds, the failed checks and the totals of the traced rounds'
    ``csv_bytes`` and ``refused`` outputs."""
    from workloads import Timer

    rounds, problems, totals = [], [], Counter()
    start = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        began = time.perf_counter()
        timer = Timer()
        if traced:
            tracer.install()
        try:
            outputs = workload.run_round(index, timer)
        finally:
            if traced:
                tracer.uninstall()
        problems += checker(outputs)
        if traced:
            totals.update({k: outputs.get(k, 0) for k in ("csv_bytes", "refused")})
        rounds.append((traced, timer.ops))
        index += 1
        now = time.perf_counter()
        if (tracer is None or index >= 2) and now - start + (now - began) > seconds:
            return rounds, problems, totals


def _round_seconds(rounds, traced: bool) -> list[float]:
    return [sum(op.seconds for op in ops) for t, ops in rounds if t == traced]


def _end_to_end(workload, rounds, setups) -> dict:
    heavy = [op.seconds for t, ops in rounds for op in ops
             if op.kind == workload.heavy and not op.failed]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "round_s": (statistics.median(_round_seconds(rounds, False)), "s"),
        "heavy_op_s": (statistics.median(heavy) if heavy else float("nan"), "s"),
    }


def _per_layer(tracer, rounds, totals) -> dict:
    s = tracer.summary()
    calls, total, self_time, under = s["calls"], s["total"], s["self"], s["under"]
    n = sum(1 for t, _ in rounds if t)
    steps = tracer.counters["sim_steps"]
    minimize, optimize = "ellipsoid.minimize_trace", "gainsynth.optimize_gain"
    gammas = under[(optimize, "matkit.are_solve")]
    overhead = (statistics.median(_round_seconds(rounds, True))
                / statistics.median(_round_seconds(rounds, False)) - 1.0) * 100.0
    return {
        "matkit.lyap_solve.calls": (calls["matkit.lyap_solve"] / n, "count"),
        "matkit.lyap_solve.s": (total["matkit.lyap_solve"] / n, "s"),
        "matkit.lyap_solve.max_order": (tracer.lyap_max_order, "rows"),
        "matkit.lyap_solve.gflop_computed": (tracer.counters["lyap_flop"] / 1e9 / n, "Gflop"),
        "ellipsoid.minimize_trace.s": (total[minimize] / n, "s"),
        "ellipsoid.minimize_trace.lyap_per_call": (
            under[(minimize, "matkit.lyap_solve")] / calls[minimize] if calls[minimize] else 0.0,
            "count"),
        "matkit.are_solve.calls": (calls["matkit.are_solve"] / n, "count"),
        "matkit.are_solve.s": (total["matkit.are_solve"] / n, "s"),
        "gainsynth.optimize_gain.s_per_gamma": (total[optimize] / gammas if gammas else 0.0, "s"),
        "ellipsoid.check_invariant.s": (total["ellipsoid.check_invariant"] / n, "s"),
        "ellipsoid.find_beta.s": (total["ellipsoid.find_beta"] / n, "s"),
        "ellipsoid.certificate_refused": (totals["refused"] / n, "count"),
        "ellipsoid.check_input_bound.s": (total["ellipsoid.check_input_bound"] / n, "s"),
        "matkit.spectrum.calls": (calls["matkit.spectrum"] / n, "count"),
        "protocol.closed_loop.calls": (calls["protocol.closed_loop"] / n, "count"),
        "graph.build_laplacian.calls": (calls["graph.build_laplacian"] / n, "count"),
        "sim.simulate.s": (total["sim.simulate"] / n, "s"),
        "sim.simulate.us_per_step": (total["sim.simulate"] / steps * 1e6 if steps else 0.0, "us"),
        "sim.draws_per_step": (tracer.counters["sim_draws"] / steps if steps else 0.0, "count"),
        "cli.simulate.self_s": (self_time["cli.simulate"] / n, "s"),
        "cli.csv_bytes": (totals["csv_bytes"] / n, "bytes"),
        "scenario.load.s": (total["scenario.load"] / n, "s"),
        "trace.overhead_pct": (overhead, "%"),
    }


def _write_spans(tracer, args) -> None:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "spans": tracer.spans}))


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "minellip" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workdir = WORK / "scratch" / f"{args.workload}-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup = time.perf_counter() - _START
        if args.setup_only:
            print(json.dumps({"setup_s": setup}))
            return 0
        # fresh-process set-ups, half before and half after measuring, so
        # that their median spans the run rather than its first seconds
        fresh = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [setup] + [_child_setup(args) for _ in range(fresh // 2)]

        import checks  # SciPy oracles: imported after the set-up clock stops
        from tracer import Tracer

        tracer = Tracer() if args.trace else None
        checker = checks.CHECKS[args.workload](workload)
        rounds, problems, totals = _measure(workload, checker, args.seconds, tracer)
        setups += [_child_setup(args) for _ in range(fresh - fresh // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    if tracer is not None:
        _write_spans(tracer, args)
        metrics = _per_layer(tracer, rounds, totals)
    else:
        metrics = _end_to_end(workload, rounds, setups)
    all_ops = [op for _, ops in rounds for op in ops]
    print(json.dumps({
        "correct": not problems,
        "attempted": len(all_ops),
        "failed": sum(op.failed for op in all_ops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
