"""Run the three bundled reference scenarios end to end.

Verifies the certificates once, then simulates each scenario and prints the
per-agent steady-state error peaks alongside the ellipsoid entry times.
Outputs (trajectory CSVs, metric files, reports) land in ./out by default.
Each step goes through ``minellip.cli.main``, so a bad scenario reports a
config error and exit code 2 like the ``minellip`` command does.

Usage: python scripts/run_paper_examples.py [outdir]
"""

import sys

from minellip import cli, scenario

OUT = sys.argv[1] if len(sys.argv) > 1 else "out"


def run(command, name):
    code = cli.main([command, "--config", str(scenario.bundled_path(name)), "--out", OUT])
    print(f"[{name}] {command} -> exit {code}\n")
    return code


def main():
    worst = run("verify", "paper_example1")
    worst = max(worst, run("minimize", "paper_example1"))
    for name in ("paper_example1", "paper_example2", "paper_example3"):
        worst = max(worst, run("simulate", name))
    return max(worst, run("report", "paper_example1"))


if __name__ == "__main__":
    sys.exit(main())
