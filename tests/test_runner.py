"""Scenario execution, alignment, and the CLI."""

import ast
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import ltvslam
from ltvslam import runner as runner_mod
from ltvslam import dunk, slam_local, vmeas
from ltvslam.cli import main as cli_main, run_cmd
from ltvslam.core import rotation2d
from ltvslam.kalman import DivergenceError
from ltvslam.runner import (BUILTIN_SCENARIOS, ConfigError, Metrics,
                            RunConfig, align_procrustes, load_scenario, run)
from ltvslam.sim import scenario_single_vehicle_2d


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(mode="batch")
    with pytest.raises(ConfigError):
        RunConfig(case=6)
    assert RunConfig(mode="coop-robots").case == 2
    with pytest.raises(ConfigError, match="case 2"):
        RunConfig(mode="coop-robots", case=4)   # robot sightings: bearing + range
    for bad in (dict(duration=0.0), dict(duration=-5.0), dict(seed=-1),
                dict(duration=math.inf), dict(duration=math.nan),
                # a bool or a float is no case or seed, and a bool no duration
                dict(case=True), dict(case=2.0), dict(seed=True), dict(seed=1.5),
                dict(duration=True)):
        with pytest.raises(ConfigError):
            RunConfig(**bad)
    # shorter than one step: nothing would run
    with pytest.raises(ConfigError, match="under one"):
        run(RunConfig(duration=0.001))


def test_load_scenario_builtin_file_and_missing(tmp_path):
    sc = load_scenario("single-vehicle-2d")
    assert sc.name == "single-vehicle-2d"
    path = tmp_path / "world.json"
    path.write_text(scenario_single_vehicle_2d().to_json())
    assert load_scenario(str(path)).seed == sc.seed
    with pytest.raises(ConfigError):
        load_scenario("no-such-scenario")


def test_align_procrustes_recovers_rigid_transform(rng):
    pts = rng.uniform(-10, 10, size=(20, 2))
    R_true = rotation2d(0.7)
    t_true = np.array([3.0, -1.0])
    est = (pts - t_true) @ R_true       # so that R est + t == pts
    R, t, rms = align_procrustes(est, pts)
    assert np.allclose(R @ R_true.T, np.eye(2), atol=1e-10)
    assert np.allclose(t, t_true, atol=1e-10)
    assert rms < 1e-10
    with pytest.raises(ValueError):
        align_procrustes(est[:1], pts[:1])


def test_run_local_is_deterministic_and_writes_outputs(tmp_path):
    cfg = dict(mode="local", case=2, scenario="single-vehicle-2d",
               duration=2.0)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run(RunConfig(out_dir=str(out_a), **cfg))
    run(RunConfig(out_dir=str(out_b), **cfg))
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
    metrics = json.loads((out_a / "metrics.json").read_text())
    assert metrics["mode"] == "local" and metrics["case"] == 2
    assert set(metrics["final_errors_m"]) == {"1", "2", "3"}
    assert metrics["diverged"] is False and metrics["divergence"] is None


#: metrics.json of each mode's 1 s run, as written before the run loop was
#: unified (timings left out).  Dunk's vehicle ATE did not exist then; the
#: coop-full and coop-partial errors of the aligned consensus came later.
PINNED_METRICS = {
    "local": {
        "mode": "local", "case": 2, "scenario": "single-vehicle-2d",
        "final_errors_m": {"1": 0.18978123358877283, "2": 0.10000558744476691,
                           "3": 0.3231076815215489},
        "vehicle_ate_m": None, "contraction_rate": 0.8272735088322869,
        "contraction_r2": 0.8551910768943913, "final_e_c": None,
        "final_e_h": None, "final_discrepancy_m": None,
        "diverged": False, "divergence": None},
    "global": {
        "mode": "global", "case": 2, "scenario": "single-vehicle-2d",
        "final_errors_m": {"1": 0.0707715159853453, "2": 0.0485407171815456,
                           "3": 0.06617797682423125},
        "vehicle_ate_m": 0.0003029467097896813,
        "contraction_rate": 2.392854118858198,
        "contraction_r2": 0.5667958696919101, "final_e_c": None,
        "final_e_h": None, "final_discrepancy_m": None,
        "diverged": False, "divergence": None},
    "dunk": {
        "mode": "dunk", "case": 2, "scenario": "single-vehicle-2d",
        "final_errors_m": {"1": 0.07082224705565694, "2": 0.04858077285469343,
                           "3": 0.06619059404664342},
        "contraction_rate": 2.3906398303323186,
        "contraction_r2": 0.5665451079554569, "final_e_c": None,
        "final_e_h": None, "final_discrepancy_m": None,
        "diverged": False, "divergence": None},
    "coop-full": {
        "mode": "coop-full", "case": 2, "scenario": "coop-full",
        "final_errors_m": {
            "1": 0.35414270872078274, "2": 0.25203973475137664,
            "3": 0.35814153659926945, "4": 0.25054039947149176,
            "5": 0.0026247375686609437, "6": 0.25678917420727737,
            "7": 0.3523964557453225, "8": 0.2556977706580102,
            "9": 0.35788911603586115, "10": 0.08516888224517098,
            "11": 0.08535044760380449, "12": 0.17286634878048399,
            "13": 0.17057123921512407},
        "vehicle_ate_m": None, "contraction_rate": None,
        "contraction_r2": None, "final_e_c": 940.8347317276994,
        "final_e_h": 3161.2832546051127, "final_discrepancy_m": 25.309604818236707,
        "diverged": False, "divergence": None},
    "coop-partial": {
        "mode": "coop-partial", "case": 2, "scenario": "coop-partial",
        "final_errors_m": {
            "1": 33.515043156255544, "2": 20.2232882747547,
            "3": 28.89953480117239, "4": 5.407866714710187,
            "5": 13.53400122928619, "6": 29.21350623234616,
            "7": 25.557396581342672, "8": 21.197599459115235,
            "9": 36.206663375724624, "10": 11.212249814724055,
            "11": 5.070080903638298, "12": 3.5076869776569066,
            "13": 24.44213443901451},
        "vehicle_ate_m": None, "contraction_rate": None,
        "contraction_r2": None, "final_e_c": 5836.759923942767,
        "final_e_h": 1385.7045999804543, "final_discrepancy_m": 35.94166082995718,
        "diverged": False, "divergence": None},
    "coop-robots": {
        "mode": "coop-robots", "case": 2, "scenario": "coop-robots",
        "final_errors_m": {}, "vehicle_ate_m": None, "contraction_rate": None,
        "contraction_r2": None, "final_e_c": 869.314052535752,
        "final_e_h": 519.6171925505904, "final_discrepancy_m": 21.633055281551247,
        "diverged": False, "divergence": None},
}


@pytest.mark.parametrize("mode,scenario,fields", [
    ("local", "single-vehicle-2d", ["contraction_rate"]),
    ("global", "single-vehicle-2d", ["vehicle_ate_m"]),
    ("dunk", "single-vehicle-2d", ["contraction_rate"]),
    ("coop-full", "coop-full", ["final_discrepancy_m", "final_e_c"]),
    ("coop-partial", "coop-partial", ["final_discrepancy_m", "final_e_c"]),
    ("coop-robots", "coop-robots", ["final_discrepancy_m", "final_e_c"]),
])
def test_run_every_mode_writes_its_metrics(tmp_path, mode, scenario, fields):
    run(RunConfig(mode=mode, scenario=scenario, duration=1.0,
                  out_dir=str(tmp_path)))
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["mode"] == mode
    assert metrics["diverged"] is False
    assert metrics["wall_time_per_step_s"] > 0.0
    for name in fields:
        assert isinstance(metrics[name], float) and math.isfinite(metrics[name])
    assert set(metrics["stage_seconds"]) == {"sense", "step", "record"}
    if mode == "dunk":   # from the consensus vehicle
        assert math.isfinite(metrics["vehicle_ate_m"])
    pinned = PINNED_METRICS[mode]
    assert set(metrics) - set(pinned) <= {"wall_time_per_step_s",
                                          "stage_seconds", "vehicle_ate_m"}
    for key, want in pinned.items():
        assert metrics[key] == pytest.approx(want, rel=1e-9), key

    with open(tmp_path / "trace.csv", newline="") as f:
        header, *rows = list(csv.reader(f))
    assert header == ["t", "robot", "entity", "id", "component", "est",
                      "true", "var"]
    assert rows
    coop = mode.startswith("coop")
    for t, robot, entity, ident, comp, est, true, var in rows:
        assert entity in ("landmark", "vehicle") and comp in ("0", "1")
        float(t), float(est), int(robot), int(ident)   # numbers parse
        assert float(var) >= 0.0
        assert (true == "") == coop


def test_run_seed_override_changes_noise(tmp_path):
    m1 = run(RunConfig(mode="local", case=2, duration=2.0, seed=1))
    m2 = run(RunConfig(mode="local", case=2, duration=2.0, seed=2))
    assert m1.final_errors() != m2.final_errors()


def test_metrics_final_errors():
    m = Metrics(landmark_errors={1: [(0.0, 1.0), (1.0, 0.5)], 2: []})
    assert m.final_errors() == {1: 0.5}


def test_cli_run_and_exit_codes(tmp_path):
    runner = CliRunner()
    out = runner.invoke(cli_main, ["run", "--mode", "local", "--case", "2",
                                   "--duration", "2.0",
                                   "--out", str(tmp_path / "o")])
    assert out.exit_code == 0, out.output
    assert "final error" in out.output
    assert (tmp_path / "o" / "metrics.json").exists()
    bad = runner.invoke(cli_main, ["run", "--case", "9"])
    assert bad.exit_code == 2
    missing = runner.invoke(cli_main, ["run", "--scenario", "nope.json"])
    assert missing.exit_code == 2
    log = runner.invoke(cli_main, ["run", "--log", "x.csv"])
    assert log.exit_code == 2
    for flags in (["--duration", "0"], ["--duration", "-5"],
                  ["--duration", "0.001"], ["--seed", "-1"]):
        bad_number = runner.invoke(cli_main, ["run", "--mode", "local",
                                              "--duration", "0.5", *flags])
        assert bad_number.exit_code == 2, (flags, bad_number.output)
        assert "config error" in bad_number.output
    for mode in ("local", "global", "dunk"):
        multi = runner.invoke(cli_main, ["run", "--mode", mode,
                                         "--scenario", "coop-full"])
        assert multi.exit_code == 2, multi.output
        assert "single-vehicle" in multi.output
    no_landmarks = runner.invoke(cli_main, ["run", "--mode", "coop-full",
                                            "--scenario", "coop-robots"])
    assert no_landmarks.exit_code == 2, no_landmarks.output
    assert "needs landmarks" in no_landmarks.output
    one_robot = runner.invoke(cli_main, ["run", "--mode", "coop-robots"])
    assert one_robot.exit_code == 2, one_robot.output
    assert "two or more robots" in one_robot.output
    # the range bound and the gains are constants and dt comes only from the
    # scenario: their old flags are unknown
    for flag in ("--gamma-beta", "--gamma-v", "--gamma-omega", "--r-max", "--dt"):
        gone = runner.invoke(cli_main, ["run", flag, "1", "--duration", "0.05"])
        assert gone.exit_code == 2, (flag, gone.output)
        assert "No such option" in gone.output


def test_run_options_are_the_run_config_fields():
    options = {p.name for p in run_cmd.params}
    assert options == {f.name for f in dataclasses.fields(RunConfig)}


#: Each edit turns the builtin single-vehicle scenario file into a bad one.
BAD_SCENARIO_EDITS = {
    "dimension-3": lambda d: d.update(dimension=3),
    "3d-landmark": lambda d: d["landmarks"][0].update(position_m=[1.0, 2.0, 3.0]),
    "no-noise": lambda d: d.pop("noise"),
    "negative-radius": lambda d: d["vehicles"][0].update(radius=-5.0),
    "negative-sigma": lambda d: d["noise"].update(sigma_r=-1.0),
    "zero-dt": lambda d: d.update(dt_s=0),
    "unknown-visibility": lambda d: d.update(visibility="cone"),
    "beyond-r-max": lambda d: d["landmarks"][0].update(position_m=[0.0, 200.0]),
    "broken-json": None,
    "infinite-duration": lambda d: d.update(duration_s=math.inf),
    "nan-dt": lambda d: d.update(dt_s=math.nan),
    "nan-r-visible": lambda d: d.update(visibility="range", r_visible_m=math.nan),
    "nan-landmark": lambda d: d["landmarks"][0].update(position_m=[math.nan, 1.0]),
    "infinite-diameter": lambda d: d["landmarks"][0].update(diameter_m=math.inf),
    "zero-diameter": lambda d: d["landmarks"][0].update(diameter_m=0.0),
    "negative-diameter": lambda d: d["landmarks"][0].update(diameter_m=-2.0),
    "zero-r-visible": lambda d: d.update(visibility="range", r_visible_m=0.0),
    "negative-r-visible": lambda d: d.update(visibility="range", r_visible_m=-1.0),
    "nan-omega": lambda d: d["vehicles"][0].update(omega=math.nan),
    "infinite-center": lambda d: d["vehicles"][0].update(center=[math.inf, 0.0]),
    "nan-sigma": lambda d: d["noise"].update(sigma_r=math.nan),
    "infinite-sigma": lambda d: d["noise"].update(sigma_theta=math.inf),
    "duplicate-landmark-id": lambda d: d["landmarks"][1].update(id=1),
    "negative-seed": lambda d: d.update(seed=-1),
    "fractional-seed": lambda d: d.update(seed=1.5),
    "string-seed": lambda d: d.update(seed="7"),
    "boolean-seed": lambda d: d.update(seed=True),
    "off-circle-start": lambda d: d["vehicles"][0].update(x0=[6.0, 0.0]),
    "string-landmark-id": lambda d: d["landmarks"][0].update(id="a"),
    "boolean-landmark-id": lambda d: d["landmarks"][0].update(id=True),
    "boolean-vehicle-id": lambda d: d["vehicles"][0].update(id=False),
}


@pytest.mark.parametrize("bad", sorted(BAD_SCENARIO_EDITS))
def test_cli_rejects_bad_scenario_file(tmp_path, bad):
    text = scenario_single_vehicle_2d().to_json()
    if BAD_SCENARIO_EDITS[bad] is None:
        text = text[:len(text) // 2]
    else:
        world = json.loads(text)
        BAD_SCENARIO_EDITS[bad](world)
        text = json.dumps(world)
    path = tmp_path / f"{bad}.json"
    path.write_text(text)
    out = CliRunner().invoke(cli_main, ["run", "--scenario", str(path),
                                        "--duration", "0.05"])
    assert out.exit_code == 2, out.output
    assert "config error" in out.output and str(path) in out.output


def test_cli_rejects_a_duplicate_vehicle_id(tmp_path):
    world = json.loads(BUILTIN_SCENARIOS["coop-full"]().to_json())
    world["vehicles"][1]["id"] = world["vehicles"][0]["id"]
    path = tmp_path / "twins.json"
    path.write_text(json.dumps(world))
    out = CliRunner().invoke(cli_main, ["run", "--mode", "coop-full", "--scenario",
                                        str(path), "--duration", "0.05"])
    assert out.exit_code == 2, out.output
    assert "vehicle ids must be unique" in out.output


def test_cli_rejects_an_unusable_output_path(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    for out_path in (taken, taken / "sub"):
        out = CliRunner().invoke(cli_main, ["run", "--duration", "0.05",
                                            "--out", str(out_path)])
        assert out.exit_code == 2, out.output
        assert "config error" in out.output and str(out_path) in out.output


@pytest.mark.parametrize("mode, module, per_tick", [
    ("local", "slam_local", 1), ("global", "slam_global", 1),
    ("dunk", "dunk", 1), ("coop-full", "dunk", 4)])
def test_each_robot_builds_its_rows_once_per_tick(monkeypatch, mode, module, per_tick):
    # one build_measurement call per robot per tick carries all its sightings
    # (single-vehicle-2d: 3 landmarks; coop-full: 4 robots, 13 landmarks each)
    real, sightings = vmeas.build_measurement, []
    monkeypatch.setattr(f"ltvslam.{module}.build_measurement",
                        lambda case, bundles, *args: sightings.append(len(bundles))
                        or real(case, bundles, *args))
    scenario = "coop-full" if mode == "coop-full" else "single-vehicle-2d"
    run(RunConfig(mode=mode, scenario=scenario, duration=0.05))   # 5 ticks
    assert sightings == [13 if per_tick == 4 else 3] * (5 * per_tick)


@pytest.mark.parametrize("mode, module, name, per_tick", [
    ("local", slam_local, "step", 1), ("dunk", dunk, "ode_step", 1),
    ("coop-full", dunk, "ode_step", 1)], ids=["local", "dunk", "coop-full"])
def test_each_map_steps_its_filters_once_per_tick(monkeypatch, mode, module, name,
                                                  per_tick):
    # one filter step per tick carries all of the map's filters; coop-full's
    # one step carries every robot's map
    real, steps = getattr(module, name), []
    monkeypatch.setattr(module, name, lambda state, *args: steps.append(state.x.ndim)
                        or real(state, *args))
    scenario = "coop-full" if mode == "coop-full" else "single-vehicle-2d"
    run(RunConfig(mode=mode, scenario=scenario, duration=0.05))   # 5 ticks
    assert steps == [2] * (5 * per_tick)


@pytest.mark.parametrize("mode", ["local", "global", "dunk"])
def test_case4_runs_with_a_landmark_at_the_circle_centre(tmp_path, mode):
    # the range to it never changes, so its sightings carry no time to contact
    world = json.loads(scenario_single_vehicle_2d().to_json())
    world["landmarks"].append({"id": 9, "position_m": [0.0, 0.0], "diameter_m": 2.0})
    path = tmp_path / "centre.json"
    path.write_text(json.dumps(world))
    out = CliRunner().invoke(cli_main, ["run", "--mode", mode, "--case", "4",
                                        "--scenario", str(path), "--duration", "0.5"])
    assert out.exit_code == 0, out.output
    assert "landmark 9: final error" in out.output


def test_diverged_run_still_writes_metrics(tmp_path, monkeypatch):
    real_step = runner_mod.dunk_step
    calls = []

    def diverge_on_tick_50(net, *args):
        calls.append(None)
        if len(calls) == 50:
            raise DivergenceError(f"filter diverged at t={net.state.t:g}")
        return real_step(net, *args)

    monkeypatch.setattr(runner_mod, "dunk_step", diverge_on_tick_50)
    out = CliRunner().invoke(cli_main, ["run", "--mode", "dunk", "--duration",
                                        "2.0", "--out", str(tmp_path)])
    assert out.exit_code == 3, out.output
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["diverged"] is True
    assert metrics["divergence"] == "filter diverged at t=0.49"
    assert metrics["final_errors_m"]   # the ticks before the divergence count
    assert metrics["wall_time_per_step_s"] > 0
    assert (tmp_path / "trace.csv").exists()


def test_cli_scenarios_list():
    out = CliRunner().invoke(cli_main, ["scenarios", "list"])
    assert out.exit_code == 0
    assert set(out.output.split()) == set(BUILTIN_SCENARIOS)


def test_cli_noise_report():
    out = CliRunner().invoke(cli_main, ["noise-report", "--sigma-theta", "5",
                                        "--r", "4", "--samples", "2000"])
    assert out.exit_code == 0
    assert "analytic radial bias" in out.output
    assert "monte carlo mean" in out.output


@pytest.mark.parametrize("flags", [["--samples", "10"], ["--r", "0"],
                                   ["--sigma-theta", "-1"], ["--theta", "nan"],
                                   ["--theta", "inf"], ["--r", "inf"],
                                   ["--r", "nan"], ["--sigma-theta", "inf"],
                                   ["--sigma-theta", "nan"]])
def test_cli_noise_report_rejects_bad_input(flags):
    out = CliRunner().invoke(cli_main, ["noise-report", *flags])
    assert out.exit_code == 2, out.output


def test_package_import_skips_scipy_stats():
    # the runtime needs only numpy and click: no scipy module loads at all
    src = os.path.dirname(os.path.dirname(os.path.abspath(ltvslam.__file__)))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import ltvslam.cli, ltvslam.runner; "
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_package_modules_have_no_unused_imports():
    # every name a module imports must be read somewhere in that module;
    # __init__ imports only to re-export
    pkg = os.path.dirname(os.path.abspath(ltvslam.__file__))
    unused = []
    for fname in sorted(os.listdir(pkg)):
        if not fname.endswith(".py") or fname == "__init__.py":
            continue
        with open(os.path.join(pkg, fname)) as f:
            tree = ast.parse(f.read(), filename=fname)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{fname}:{line} {name}" for name, line in imported.items()
                   if name not in read]
    assert not unused, f"unused imports: {unused}"


#: Parameters whose callers fix the signature: click's option callback and
#: a one-choice click argument, and the ``robot`` the bench passes to sense.
UNREAD_PARAMETERS = {"cli._finite(ctx)", "cli._finite(param)",
                     "cli.scenarios(action)", "sim.sense(robot)"}


def unread_parameters(source: str, module: str) -> set[str]:
    """``module.function(parameter)`` for each parameter its body never reads."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  a.vararg, a.kwarg) if p is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        found |= {f"{module}.{node.name}({p})" for p in params
                  if p not in read and p not in ("self", "cls")}
    return found


def test_package_functions_read_every_parameter():
    pkg = os.path.dirname(os.path.abspath(ltvslam.__file__))
    unread = set()
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname)) as f:
                unread |= unread_parameters(f.read(), fname[:-3])
    assert unread == UNREAD_PARAMETERS


def test_unread_parameter_guard_catches_a_leftover():
    leftover = ("def noisy_bundle(true, noise, rng, diameter):\n"
                "    return true, noise, rng\n")
    assert unread_parameters(leftover, "vmeas") == {"vmeas.noisy_bundle(diameter)"}


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builtin_scenarios_carry_their_key_as_name(name):
    # metrics.json records scenario.name, which --scenario must accept back
    assert load_scenario(name).name == name
