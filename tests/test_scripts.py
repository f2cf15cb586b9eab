"""The experiment scripts still run against the package's public names."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_scripts_run_against_public_names(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["gamma_sweep.py", "paper_example1", "2"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "gamma_sweep.py"), run_name="__main__")
    assert exc.value.code is None
    assert "selected: gamma=" in capsys.readouterr().out

    monkeypatch.setattr(sys, "argv", ["run_paper_examples.py"])
    module = runpy.run_path(str(SCRIPTS / "run_paper_examples.py"))
    assert callable(module["main"])


def test_paper_examples_report_config_errors(monkeypatch, tmp_path, capsys):
    from minellip import scenario

    bad = tmp_path / "bad.yaml"
    bad.write_text("plant: [unclosed\n")
    monkeypatch.setattr(sys, "argv", ["run_paper_examples.py", str(tmp_path / "out")])
    module = runpy.run_path(str(SCRIPTS / "run_paper_examples.py"))
    monkeypatch.setattr(scenario, "bundled_path", lambda name: bad)
    assert module["run"]("verify", "paper_example1") == 2
    assert "config error" in capsys.readouterr().err


def test_paper_examples_exit_with_the_worst_code(monkeypatch):
    # an infeasible verify (1) and then a config error (2) exit 2, a code the CLI uses, not 1 | 2
    from minellip import cli

    monkeypatch.setattr(sys, "argv", ["run_paper_examples.py"])
    module = runpy.run_path(str(SCRIPTS / "run_paper_examples.py"))
    codes = iter([1, 2])
    monkeypatch.setattr(cli, "main", lambda argv: next(codes, 0))
    assert module["main"]() == 2
