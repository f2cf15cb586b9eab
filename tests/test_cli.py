import numpy as np
import pytest
import yaml

from minellip import scenario
from minellip.cli import main
from minellip.errors import ConfigError


@pytest.fixture()
def outdir(tmp_path):
    return tmp_path / "out"


def run(*argv):
    return main([str(a) for a in argv])


def bundled_yaml(name):
    return yaml.safe_load(scenario.bundled_path(name).read_text())


def test_bundled_scenarios_parse():
    for name in ("paper_example1", "paper_example2", "paper_example3", "scalar_demo"):
        cfg = scenario.load_bundled(name)
        assert cfg.output.file_prefix == name


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


def test_simulate_nan_frequency_exits_1(tmp_path, outdir):
    data = bundled_yaml("paper_example1")
    data["disturbance"]["angular_frequency"] = float("nan")
    path = tmp_path / "nan_frequency.yaml"
    path.write_text(yaml.safe_dump(data))
    assert run("simulate", "--config", path, "--out", outdir, "--t-final", "0.5") == 1
    assert not (outdir / "paper_example1_trajectory.csv").exists()


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
    assert run("report", "--config", scenario.bundled_path("scalar_demo"),
               "--out", outdir) == 0
    summary = (outdir / "summary.txt").read_text()
    assert "scalar_demo_minimize.yaml" in summary


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


def test_unwritable_output_exits_2(tmp_path, capsys):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    assert run("minimize", "--config", scenario.bundled_path("scalar_demo"),
               "--out", blocker) == 2
    assert capsys.readouterr().err.startswith("io error")
