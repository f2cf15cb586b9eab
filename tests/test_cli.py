import dataclasses
import errno
import os
import signal
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from minellip import cli, scenario
from minellip.cli import main
from minellip.errors import ConfigError


@pytest.fixture()
def outdir(tmp_path):
    return tmp_path / "out"


def run(*argv):
    return main([str(a) for a in argv])


def cli_env():
    """A CLI subprocess's environment: this source tree first on its path, one BLAS thread."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, OPENBLAS_NUM_THREADS="1",
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def bundled_yaml(name):
    return yaml.safe_load(scenario.bundled_path(name).read_text())


def test_bundled_scenarios_parse():
    for name in ("paper_example1", "paper_example2", "paper_example3", "scalar_demo"):
        cfg = scenario.load_bundled(name)
        assert cfg.output.file_prefix == name


def plain(obj):
    """A config as nested dicts and lists, arrays by dtype, shape and bytes, so == compares all."""
    if dataclasses.is_dataclass(obj):
        return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    return [plain(v) for v in obj] if isinstance(obj, (list, tuple)) else obj


@pytest.fixture(params=["libyaml", "pure-python"])
def yaml_loader(request, monkeypatch):
    """Each loader ``scenario.load`` and ``report`` may read with, set as the module's choice."""
    if request.param == "libyaml" and not yaml.__with_libyaml__:
        pytest.skip("PyYAML was built without libyaml")
    loader = yaml.CSafeLoader if request.param == "libyaml" else yaml.SafeLoader
    monkeypatch.setattr(scenario, "YAML_LOADER", loader)
    return loader


def test_libyaml_loader_is_chosen_where_pyyaml_has_it():
    assert scenario.YAML_LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)
    # a PyYAML built without libyaml has no CSafeLoader: the pure-Python loader is chosen
    probe = ("import yaml\ndel yaml.CSafeLoader\nfrom minellip import scenario\n"
             "assert scenario.YAML_LOADER is yaml.SafeLoader\n"
             "assert scenario.load_bundled('paper_example1').output.file_prefix == 'paper_example1'\n")
    proc = subprocess.run([sys.executable, "-c", probe], env=cli_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")
def test_bundled_scenarios_load_equal_through_both_loaders(monkeypatch):
    for name in ("paper_example1", "paper_example2", "paper_example3", "scalar_demo"):
        configs = []
        for loader in (yaml.CSafeLoader, yaml.SafeLoader):
            monkeypatch.setattr(scenario, "YAML_LOADER", loader)
            configs.append(plain(scenario.load_bundled(name)))
        assert configs[0] == configs[1], name


def test_malformed_yaml_exits_2_through_each_loader(yaml_loader, tmp_path, outdir, capsys):
    path = tmp_path / "malformed.yaml"
    path.write_text("plant: {A: [[0.0, 1.0], [0.0, 0.0]\n")  # the flow mapping is never closed
    with pytest.raises(ConfigError, match="cannot parse scenario file"):
        scenario.load(path)
    assert run("verify", "--config", path, "--out", outdir) == 2
    assert "config error: cannot parse" in capsys.readouterr().err


def test_verify_paper_scenario_passes(outdir):
    code = run("verify", "--config", scenario.bundled_path("paper_example1"), "--out", outdir)
    assert code == 0
    report = (outdir / "paper_example1_verify.txt").read_text()
    assert "Hurwitz: yes" in report
    assert "feasible=yes" in report
    assert "input bound at eta=50000: pass" in report
    assert report.strip().endswith("PASS")


def test_verify_zero_gain_fails_hurwitz(tmp_path, outdir):
    data = bundled_yaml("paper_example1")
    data["gain"] = {"K": [[0.0, 0.0]]}
    path = tmp_path / "zero_gain.yaml"
    path.write_text(yaml.safe_dump(data))
    code = run("verify", "--config", path, "--out", outdir)
    assert code == 1
    assert "Hurwitz: no" in (outdir / "paper_example1_verify.txt").read_text()


@pytest.mark.parametrize("name, code", [("paper_example1", 0), ("paper_example3", 1)])
def test_simulate_zero_gain_has_no_ellipsoid(name, code, tmp_path, outdir, capsys):
    # K = 0 is not Hurwitz, so there is no P*: a sinusoid run records no V and reports no
    # entry time, and a worst-case run, whose law needs P*, is refused
    data = bundled_yaml(name)
    data["gain"] = {"K": [[0.0, 0.0]]}
    path = tmp_path / "zero_gain.yaml"
    path.write_text(yaml.safe_dump(data))
    assert run("simulate", "--config", path, "--out", outdir, "--t-final", "1") == code
    captured = capsys.readouterr()
    if code:
        assert "closed loop has spectral abscissa" in captured.err
        return
    header = (outdir / f"{name}_trajectory.csv").read_text().split("\n", 1)[0].split(",")
    assert header[-1] == "omega_2" and "V" not in header
    assert "ellipsoid entry time" not in captured.out


def test_malformed_matrix_exits_2(tmp_path, outdir):
    data = bundled_yaml("paper_example1")
    data["plant"]["A"] = [[0.0, 1.0], [0.0]]  # ragged row
    path = tmp_path / "broken.yaml"
    path.write_text(yaml.safe_dump(data))
    assert run("verify", "--config", path, "--out", outdir) == 2


def test_missing_config_exits_2(outdir):
    assert run("verify", "--config", outdir / "nope.yaml", "--out", outdir) == 2


def test_minimize_scalar_demo(outdir):
    code = run("minimize", "--config", scenario.bundled_path("scalar_demo"), "--out", outdir)
    assert code == 0
    summary = yaml.safe_load((outdir / "scalar_demo_minimize.yaml").read_text())
    assert summary["beta_star"] == pytest.approx(1.0, abs=1e-6)
    assert summary["trace"] == pytest.approx(1.0, abs=1e-8)
    p_star = np.loadtxt(outdir / "scalar_demo_P_star.txt", ndmin=2)
    assert p_star[0, 0] == pytest.approx(1.0, abs=1e-8)


def test_minimize_disconnected_exits_1(tmp_path, outdir):
    data = bundled_yaml("scalar_demo")
    data["topology"]["adjacency"] = [[0.0, 0.0], [0.0, 0.0]]
    data["gain"] = {"synthesize": {}}
    path = tmp_path / "disconnected.yaml"
    path.write_text(yaml.safe_dump(data))
    assert run("minimize", "--config", path, "--out", outdir) == 1


def test_simulate_unstable_step_exits_1(tmp_path, outdir):
    data = bundled_yaml("paper_example1")
    data["gain"]["K"] = [[466.001, 256.217]]
    path = tmp_path / "fast_gain.yaml"
    path.write_text(yaml.safe_dump(data))
    assert run("simulate", "--config", path, "--out", outdir,
               "--t-final", "1.0", "--dt", "0.01") == 1
    assert not (outdir / "paper_example1_trajectory.csv").exists()


@pytest.mark.parametrize("key, value", [
    ("angular_frequency", float("nan")),
    ("angular_frequency", float("inf")),
    ("amplitudes", [float("nan"), 0.0]),
    ("amplitudes", [0.0, float("-inf")]),
], ids=["frequency-nan", "frequency-inf", "amplitude-nan", "amplitude-inf"])
@pytest.mark.parametrize("command", ["simulate", "verify", "minimize"])
def test_non_finite_sinusoid_exits_2(command, key, value, tmp_path, outdir, capsys):
    # every command loads the scenario first, so each refuses it alike
    data = bundled_yaml("paper_example1")
    data["disturbance"][key] = value
    path = tmp_path / "non_finite_sinusoid.yaml"
    path.write_text(yaml.safe_dump(data))
    assert run(command, "--config", path, "--out", outdir) == 2
    assert capsys.readouterr().err.startswith(f"config error: disturbance.{key} must")
    assert not outdir.exists() or not any(outdir.iterdir())


def test_malformed_ellipsoid_p_exits_2(tmp_path, outdir, capsys):
    data = bundled_yaml("paper_example1")
    rng = np.random.default_rng(0)
    # wrong order, not symmetric, then symmetric but not positive definite
    for p in (np.eye(2), np.eye(6) + np.triu(rng.normal(size=(6, 6)), 1), np.zeros((6, 6)),
              -np.eye(6), np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -1.0])):
        data["ellipsoid"] = {"P": p.tolist()}
        path = tmp_path / "bad_p.yaml"
        path.write_text(yaml.safe_dump(data))
        assert run("verify", "--config", path, "--out", outdir) == 2
        assert "config error" in capsys.readouterr().err


def test_options_only_on_the_subcommand_that_reads_them(outdir):
    config = ("--config", scenario.bundled_path("scalar_demo"), "--out", outdir)
    for argv in (("minimize", *config, "--dt", "0.1"),
                 ("simulate", *config, "--seed", "3"),
                 ("verify", *config, "--t-final", "1.0")):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2


def test_simulate_csv_schema(outdir):
    code = run("simulate", "--config", scenario.bundled_path("scalar_demo"),
               "--out", outdir, "--t-final", "2.0", "--dt", "0.001")
    assert code == 0
    csv_path = outdir / "scalar_demo_trajectory.csv"
    header = csv_path.read_text().splitlines()[0].split(",")
    assert header == ["t", "sigma0_1", "sigma1_1", "e1_1", "u1_1", "omega_1", "V"]
    table = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    assert table.shape[0] == int(np.floor(2.0 / 0.001)) + 1
    metrics = yaml.safe_load((outdir / "scalar_demo_metrics.yaml").read_text())
    assert metrics["rows"] == table.shape[0]


def test_simulate_rerun_is_bit_identical(outdir, tmp_path):
    args = ("simulate", "--config", scenario.bundled_path("scalar_demo"),
            "--t-final", "3.0")
    assert run(*args, "--out", outdir) == 0
    first = (outdir / "scalar_demo_trajectory.csv").read_bytes()
    other = tmp_path / "second"
    assert run(*args, "--out", other) == 0
    assert first == (other / "scalar_demo_trajectory.csv").read_bytes()


@pytest.mark.parametrize("dt", ["0.001", "0.0002"])  # one block of rows, and three
def test_simulate_csv_bytes_match_savetxt(dt, outdir, tmp_path):
    assert run("simulate", "--config", scenario.bundled_path("paper_example1"),
               "--out", outdir, "--t-final", "1", "--dt", dt) == 0
    written = (outdir / "paper_example1_trajectory.csv").read_bytes()
    # %.17g round-trips every double, so the parsed table is the one written
    header = written.decode().split("\n", 1)[0]
    table = np.loadtxt(outdir / "paper_example1_trajectory.csv", delimiter=",", skiprows=1)
    np.savetxt(tmp_path / "ref.csv", table, delimiter=",", header=header, comments="",
               fmt="%.17g")
    assert written == (tmp_path / "ref.csv").read_bytes()


def test_simulate_paper_example_headers(outdir):
    code = run("simulate", "--config", scenario.bundled_path("paper_example1"),
               "--out", outdir, "--t-final", "1.0")
    assert code == 0
    header = (outdir / "paper_example1_trajectory.csv").read_text().splitlines()[0].split(",")
    expected = (
        ["t"]
        + [f"sigma0_{j}" for j in (1, 2)]
        + [f"sigma{i}_{j}" for i in (1, 2, 3) for j in (1, 2)]
        + [f"e{i}_{j}" for i in (1, 2, 3) for j in (1, 2)]
        + [f"u{i}_1" for i in (1, 2, 3)]
        + ["omega_1", "omega_2", "V"]
    )
    assert header == expected


def test_design_command(outdir, tmp_path):
    data = bundled_yaml("paper_example1")
    data["gain"] = {"synthesize": {"gamma_grid": [0.5, 1.0, 2.0]}}
    path = tmp_path / "design.yaml"
    path.write_text(yaml.safe_dump(data))
    assert run("design", "--config", path, "--out", outdir) == 0
    summary = yaml.safe_load((outdir / "paper_example1_design.yaml").read_text())
    assert summary["input_ok"] is True
    assert summary["gamma"] in (0.5, 1.0, 2.0)
    assert np.asarray(summary["K"]).shape == (1, 2)


def test_each_command_writes_what_it_prints(outdir, capsys):
    # <prefix>_<command>.txt is the printed report, headed by the scenario and
    # the command; minimize, design and simulate also write a YAML summary
    config = scenario.bundled_path("scalar_demo")
    for command, extra in (("verify", ()), ("minimize", ()), ("design", ()),
                           ("simulate", ("--t-final", "1.0"))):
        assert run(command, "--config", config, "--out", outdir, *extra) == 0
        printed = capsys.readouterr().out
        assert (outdir / f"scalar_demo_{command}.txt").read_bytes() == printed.encode()
        assert printed.startswith(f"scenario: scalar_demo\ncommand: {command}\n")
    assert sorted(path.name for path in outdir.glob("*.yaml")) == [
        "scalar_demo_design.yaml", "scalar_demo_metrics.yaml", "scalar_demo_minimize.yaml"]


def test_malformed_q0_exits_2(tmp_path, outdir, capsys):
    data = bundled_yaml("paper_example1")
    # wrong order, indefinite, then not symmetric
    for q0 in ([[1.0]], [[1.0, 0.0], [0.0, -1.0]], [[1.0, 0.5], [0.0, 1.0]]):
        data["gain"] = {"synthesize": {"gamma_grid": [1.0], "q0": q0}}
        path = tmp_path / "bad_q0.yaml"
        path.write_text(yaml.safe_dump(data))
        assert run("design", "--config", path, "--out", outdir) == 2
        assert "config error" in capsys.readouterr().err


def test_report_collects_outputs(outdir):
    run("minimize", "--config", scenario.bundled_path("scalar_demo"), "--out", outdir)
    # outputs that report cannot read are skipped: an empty verify record, YAML not in UTF-8
    (outdir / "empty_verify.txt").write_text("")
    (outdir / "latin1.yaml").write_bytes("trace: \xe9".encode("latin-1"))
    assert run("report", "--config", scenario.bundled_path("scalar_demo"),
               "--out", outdir) == 0
    summary = (outdir / "summary.txt").read_text()
    assert "scalar_demo_minimize.yaml" in summary


def test_report_skips_yaml_that_is_not_a_mapping(outdir, capsys):
    outdir.mkdir()
    (outdir / "list.yaml").write_text("- 1\n- 2\n")
    assert run("report", "--config", scenario.bundled_path("scalar_demo"), "--out", outdir) == 0
    assert capsys.readouterr().out.endswith("(no prior outputs found)\n")


def test_report_skips_malformed_yaml_through_each_loader(yaml_loader, outdir):
    run("minimize", "--config", scenario.bundled_path("scalar_demo"), "--out", outdir)
    (outdir / "malformed.yaml").write_text("trace: [1.0\n")
    assert run("report", "--config", scenario.bundled_path("scalar_demo"), "--out", outdir) == 0
    summary = (outdir / "summary.txt").read_text()
    assert "scalar_demo_minimize.yaml: beta_star=" in summary
    assert "malformed.yaml" not in summary


def test_commands_run_without_test_only_packages(tmp_path):
    # the runtime is NumPy and PyYAML only: the packages that only the tests use are blocked
    blocked = ("import sys\n"
               "for name in ('scipy', 'hypothesis', 'mpmath', 'sympy'):\n"
               "    sys.modules[name] = None\n"
               "from minellip.cli import main\n"
               "sys.exit(main(sys.argv[1:]))\n")
    config = str(scenario.bundled_path("paper_example1"))
    for argv in (["verify"], ["simulate", "--t-final", "0.05"]):
        proc = subprocess.run([sys.executable, "-c", blocked, *argv, "--config", config,
                               "--out", str(tmp_path)],
                              env=cli_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "paper_example1_trajectory.csv").exists()


def test_env_var_overrides_output_dir(tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("MINELLIP_OUT", str(target))
    assert run("minimize", "--config", scenario.bundled_path("scalar_demo")) == 0
    assert (target / "scalar_demo_minimize.yaml").exists()


def test_unknown_bundled_name():
    with pytest.raises(ConfigError):
        scenario.bundled_path("does_not_exist")


# the published ellipsoid matrix of test_find_beta_on_reference_ellipsoid
PUBLISHED_P = 1e3 * np.array([
    [1.9963, 0.0008, -1.2544, -0.0003, -0.6919, -0.0018],
    [0.0008, 0.0188, -0.0005, -0.0135, 0.0014, -0.0037],
    [-1.2544, -0.0005, 1.9291, -0.0000, -0.6245, -0.0027],
    [-0.0003, -0.0135, -0.0000, 0.0186, 0.0030, -0.0030],
    [-0.6919, 0.0014, -0.6245, 0.0030, 1.2549, 0.0049],
    [-0.0018, -0.0037, -0.0027, -0.0030, 0.0049, 0.0080],
])


@pytest.mark.parametrize("scale, code, line", [
    (1.0, 0, "invariant ellipsoid (given P): beta=0.0218167 max_eig=-5.001e-02 feasible=yes"),
    (4.0, 1, "invariant ellipsoid (given P): no feasible multiplier"),
])
def test_verify_given_p(scale, code, line, tmp_path, outdir):
    data = bundled_yaml("paper_example1")
    p = scale * PUBLISHED_P
    data["ellipsoid"] = {"P": (0.5 * (p + p.T)).tolist()}
    path = tmp_path / "given_p.yaml"
    path.write_text(yaml.safe_dump(data))
    assert run("verify", "--config", path, "--out", outdir) == code
    report = (outdir / "paper_example1_verify.txt").read_text().splitlines()
    assert line in report
    assert report[-1] == ("verdict: PASS" if code == 0 else "verdict: FAIL")


def test_verify_output_does_not_depend_on_seed(tmp_path, capsys):
    # --seed is accepted for existing callers and changes nothing
    outputs = []
    for seed in (0, 7):
        out = tmp_path / f"seed{seed}"
        assert run("verify", "--config", scenario.bundled_path("paper_example1"),
                   "--out", out, "--seed", seed) == 0
        outputs.append((capsys.readouterr().out, (out / "paper_example1_verify.txt").read_bytes()))
    assert outputs[0] == outputs[1]
    assert "dominance" not in outputs[0][0]
    assert outputs[0][0].splitlines()[-1] == "verdict: PASS"


@pytest.mark.parametrize("a", [1e-9, 1e9])
def test_verify_passes_at_any_time_scale(a, tmp_path, outdir):
    # A and K x a: the paper system on time scale 1/a, beta* x a
    data = bundled_yaml("paper_example1")
    data["plant"]["A"] = (a * np.array(data["plant"]["A"])).tolist()
    data["gain"]["K"] = (a * np.array(data["gain"]["K"])).tolist()
    path = tmp_path / "scaled.yaml"
    path.write_text(yaml.safe_dump(data))
    assert run("verify", "--config", path, "--out", outdir) == 0
    report = (outdir / "paper_example1_verify.txt").read_text()
    assert "consensus feasible (spanning tree + stabilizable): yes" in report
    assert f"beta*={1.90308 * a:.6g} " in report


DROP = object()


@pytest.mark.parametrize("section, key, value, message", [
    ("plant", "eta", DROP, "missing key 'eta' in section 'plant'"),
    (None, None, [1, 2], "mapping at top level"),
    ("topology", "followers", 4, "inconsistent with adjacency"),
    ("gain", None, {"K": [[1.0, 1.0]], "synthesize": {}}, "either K or synthesize"),
    ("gain", None, {"synthesize": {"gamma_grid": [1.0, -1.0]}}, "hold positive values"),
    ("gain", None, {}, "needs K or synthesize"),
    ("disturbance", "kind", "square", "disturbance.kind must be one of"),
    ("disturbance", "amplitudes", [0.02], "amplitudes must have length 2"),
    ("simulation", "x0", [[0.0, 0.0]], "simulation.x0 must be (4, 2)"),
    ("simulation", "u0", [0.0, 0.0], "u0 must have length 1"),
    ("simulation", "dt", 0.0, "dt > 0 and t_final >= dt"),
    ("simulation", "window_fraction", 1.5, "window_fraction must lie in (0, 1]"),
    ("simulation", "dt", float("nan"), "dt > 0 and t_final >= dt"),
    ("simulation", "t_final", float("nan"), "dt > 0 and t_final >= dt"),
    ("simulation", "t_final", float("inf"), "dt > 0 and t_final >= dt"),
    ("simulation", "u0", [float("nan")], "u0 must have length 1, all finite"),
    ("simulation", "u0", [float("inf")], "u0 must have length 1, all finite"),
    ("gain", None, {"synthesize": {"gamma_grid": [float("nan")]}}, "positive values, all finite"),
    ("gain", None, {"synthesize": {"gamma_grid": [float("inf")]}}, "positive values, all finite"),
    ("gain", None, {"synthesize": {"gamma_grid": [1.0, float("nan")]}},
     "positive values, all finite"),
    ("plant", "eta", float("nan"), "eta must be positive"),
    ("output", "directory", None, "output.directory and output.file_prefix must not be null"),
    ("output", "directory", "", "output.directory and output.file_prefix must not be null"),
    ("output", "file_prefix", None, "output.directory and output.file_prefix must not be null"),
    ("output", "file_prefix", "", "output.directory and output.file_prefix must not be null"),
    ("topology", "followers", 3.5, "topology.followers must be a whole number, got 3.5"),
    ("topology", "followers", float("inf"), "topology.followers must be a whole number"),
])
def test_scenario_refusals_exit_2(section, key, value, message, tmp_path, outdir, capsys):
    data = bundled_yaml("paper_example1")
    if section is None:
        data = value
    elif key is None:
        data[section] = value
    elif value is DROP:
        del data[section][key]
    else:
        data[section][key] = value
    path = tmp_path / "refused.yaml"
    path.write_text(yaml.safe_dump(data))
    assert run("verify", "--config", path, "--out", outdir) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and message in err


@pytest.mark.parametrize("gain, argv, message", [
    (None, ("simulate", "--dt", "-0.1"), "config error: overrides must keep dt > 0"),
    (None, ("simulate", "--dt", "0.5", "--t-final", "0.1"), "config error: overrides must keep"),
    ({"synthesize": {}}, ("verify",), "config error: verify needs an explicit gain.K"),
    (None, ("simulate", "--dt", "nan"), "config error: overrides must keep"),
    (None, ("simulate", "--t-final", "nan"), "config error: overrides must keep"),
    (None, ("simulate", "--t-final", "inf"), "config error: overrides must keep"),
])
def test_command_refusals_exit_2(gain, argv, message, tmp_path, outdir, capsys):
    data = bundled_yaml("scalar_demo")
    if gain is not None:
        data["gain"] = gain
    path = tmp_path / "refused.yaml"
    path.write_text(yaml.safe_dump(data))
    assert run(*argv, "--config", path, "--out", outdir) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not (outdir / "scalar_demo_trajectory.csv").exists()


@pytest.mark.parametrize("t_final", ["1e7", "1e12"])
def test_horizon_too_long_to_hold_exits_2(t_final, tmp_path):
    resource = pytest.importorskip("resource")

    def cap_address_space():  # 3 GB: a huge allocation fails at once, never overcommitted
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, hard))

    proc = subprocess.run(
        [sys.executable, "-m", "minellip.cli", "simulate", "--out", str(tmp_path),
         "--config", str(scenario.bundled_path("paper_example1")), "--t-final", t_final],
        env=cli_env(), preexec_fn=cap_address_space, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: Unable to allocate")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert not (tmp_path / "paper_example1_trajectory.csv").exists()


def test_unwritable_output_exits_2(tmp_path, capsys):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    assert run("minimize", "--config", scenario.bundled_path("scalar_demo"),
               "--out", blocker) == 2
    assert capsys.readouterr().err.startswith("io error")


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# NaN, infinities, signed zero, the extreme doubles, an exact 17-digit tie (2**-25 has 18
# significant digits ending in 5) and the neighbours of powers of ten
SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                    -1.7976931348623157e308, 2.0**-25, -(2.0**-25)]
                   + [np.nextafter(10.0**k, to) for k in (-300, -5, 0, 1, 16, 17, 22, 300)
                      for to in (0.0, np.inf)] + [10.0**k for k in (-5, 16, 17, 22)])


@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
@pytest.mark.parametrize("rows", [1, 2047, 2048, 2049, 6145])
def test_table_writer_bytes_match_savetxt_at_every_share_count(rows, cpus, monkeypatch, tmp_path):
    rng = np.random.default_rng(rows)
    table = rng.standard_normal((rows, 21)) * 10.0 ** rng.integers(-300, 300, size=(rows, 21))
    flat = table.reshape(-1)
    flat[::3] = np.resize(SPECIAL, flat[::3].size)
    _cpus(monkeypatch, cpus)
    forks, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    with open(tmp_path / "written.csv", "w") as fh:
        fh.write("header\n")  # still in the buffer that every child inherits
        cli._write_table(fh, table)
    np.savetxt(tmp_path / "ref.csv", table, fmt="%.17g", delimiter=",", header="header",
               comments="")
    assert (tmp_path / "written.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert len(forks) == min(cpus, -(-rows // 2048)) - 1
    _no_child_left()


def test_failed_child_exits_2_and_is_reaped(monkeypatch, outdir, capsys):
    parent, real = os.getpid(), cli._format_block

    def format_block(block):
        if os.getpid() != parent:
            raise RuntimeError("formatting failed in the child")
        return real(block)

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "_format_block", format_block)
    assert run("simulate", "--config", scenario.bundled_path("scalar_demo"), "--out", outdir,
               "--t-final", "5") == 2
    assert capsys.readouterr().err.startswith("io error")
    _no_child_left()


def test_failed_parent_write_does_not_hang(monkeypatch):
    class FullDisk:
        def write(self, text):
            raise OSError(errno.ENOSPC, "No space left on device")

        def writelines(self, lines):
            for line in lines:
                self.write(line)

    def hang(signum, frame):
        pytest.fail("the table writer hangs")

    _cpus(monkeypatch, 2)
    table = np.full((6145, 21), np.pi)  # each child's share is far larger than a pipe buffer
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(60)
    try:
        with pytest.raises(OSError, match="No space left"):
            cli._write_table(FullDisk(), table)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    _no_child_left()


def test_fork_beside_a_live_thread_does_not_warn(monkeypatch, tmp_path):
    # Python >= 3.12 warns on a fork while the process runs another thread
    _cpus(monkeypatch, 2)
    table = np.full((4097, 3), np.pi)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with open(tmp_path / "written.csv", "w") as fh:
                cli._write_table(fh, table)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert [str(w.message) for w in caught] == []
    np.savetxt(tmp_path / "ref.csv", table, fmt="%.17g", delimiter=",")
    assert (tmp_path / "written.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    _no_child_left()


def test_small_tables_never_fork(monkeypatch, outdir, tmp_path):
    def refuse():
        raise AssertionError("a one-block table forked")

    _cpus(monkeypatch, 4)
    monkeypatch.setattr(os, "fork", refuse)
    assert run("simulate", "--config", scenario.bundled_path("paper_example1"), "--out", outdir,
               "--t-final", "0.01") == 0
    test_simulate_csv_bytes_match_savetxt("0.001", outdir, tmp_path)
