import dataclasses
import json
import os

import numpy as np
import pytest

import segreopt
from segreopt.cli import main
from segreopt.harness import ExperimentConfig


def test_decompose_smoke(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["decompose", "--preset", "smoke-decompose", "--out", str(out)])
    assert rc == 0
    assert (out / "aggregate.csv").exists()
    assert (out / "manifest.json").exists()
    captured = capsys.readouterr()
    assert "final rms rel err" in captured.out


def test_regress_smoke_with_overrides(tmp_path):
    out = tmp_path / "run"
    rc = main(["regress", "--preset", "smoke-regress", "--out", str(out),
               "--replicates", "1", "--max-iters", "2", "--method", "rgn"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["replicates"] == 1
    assert manifest["config"]["methods"] == ["rgn"]
    assert (out / "trace_rgn_0.csv").exists()
    assert not (out / "trace_rgd_0.csv").exists()


def test_config_file_and_env_override(tmp_path, monkeypatch):
    cfg = {
        "task": "decompose", "dims": [5, 5, 5], "rank": 2, "rho": 0.0,
        "noise_sd": 0.1, "methods": ["rgn"], "replicates": 2, "seed": 3,
        "max_iters": 2,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    monkeypatch.setenv("SEGREOPT_REPLICATES", "1")
    rc = main(["decompose", "--config", str(path), "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["replicates"] == 1


def test_bench_expands_grid(tmp_path):
    # a grid over a field other than noise_sd and rho gets its own cells too
    for name, grid in (("noise", {"noise_sd": [0.0, 0.5]}), ("kappa", {"kappa": [1.0, 10.0]})):
        cfg = {
            "task": "decompose", "dims": [5, 5, 5], "rank": 2, "rho": 0.0,
            "noise_sd": 0.0, "methods": ["rgn"], "replicates": 1, "seed": 3,
            "max_iters": 2, "init_refine_sweeps": 1, "grid": grid,
        }
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / name
        rc = main(["bench", "--config", str(path), "--out", str(out)])
        assert rc == 0
        cells = sorted(os.listdir(out))
        assert len(cells) == 2
        for cell in cells:
            assert (out / cell / "aggregate.csv").exists()


def test_missing_preset_and_config_errors(tmp_path):
    with pytest.raises(SystemExit):
        main(["decompose", "--out", str(tmp_path / "x")])


@pytest.mark.parametrize("env, argv", [
    ({"SEGREOPT_RHO": "2"}, ["decompose", "--preset", "smoke-decompose"]),
    ({"SEGREOPT_SEED": "abc"}, ["decompose", "--preset", "smoke-decompose"]),
    ({}, ["bench", "--preset", "smoke-decompose", "--replicates", "0"]),
    ({}, ["decompose", "--config", "{missing}"]),
    ({}, ["decompose", "--config", "{bad_json}"]),
    ({"SEGREOPT_NOISE_SD": "nan"}, ["regress", "--preset", "smoke-regress"]),
    ({"SEGREOPT_KAPPA": "inf"}, ["decompose", "--preset", "smoke-decompose"]),
    ({}, ["decompose", "--config", "{string_rank}"]),
    ({}, ["decompose", "--config", "{string_flag}"]),
    ({}, ["decompose", "--config", "{list_top}"]),
    ({}, ["decompose", "--config", "{number_top}"]),
    ({}, ["bench", "--config", "{string_top}"]),
    ({}, ["decompose", "--preset", "smoke-decompose", "--seed", "-1"]),
    ({"SEGREOPT_SEED": "-3"}, ["regress", "--preset", "smoke-regress"]),
    ({}, ["decompose", "--preset", "smoke-decompose", "--method", "rgn", "--method", "rgn"]),
    ({"SEGREOPT_METHODS": '["als", "als"]'}, ["bench", "--preset", "smoke-decompose"]),
    ({"SEGREOPT_RANK": "[2]"}, ["decompose", "--preset", "smoke-decompose"]),
    ({"SEGREOPT_REPLICATES": "0"}, ["decompose", "--preset", "smoke-decompose"]),
], ids=["env-rho", "env-seed", "bench-replicates", "missing-config", "bad-json-config",
        "env-noise-nan", "env-kappa-inf", "string-rank-config", "string-flag-config",
        "list-config", "number-config", "string-config", "negative-seed-flag",
        "env-negative-seed", "repeated-method-flag", "env-repeated-method", "env-list-rank",
        "env-replicates"])
def test_bad_configuration_ends_in_error_line(tmp_path, monkeypatch, capsys, env, argv):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    paths = {"missing": str(tmp_path / "missing.json"), "bad_json": str(bad_json)}
    # a value of the wrong type: once a raw TypeError, once Gauss-Seidel switched on
    for name, field in (("string_rank", {"rank": "2"}), ("string_flag", {"gauss_seidel": "no"})):
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump({"dims": [4, 4, 4], "replicates": 1, "max_iters": 1, **field}, fh)
    # valid JSON whose top level is not an object: once a raw TypeError
    for name, value in (("list_top", [1, 2]), ("number_top", 5), ("string_top", "x")):
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(value, fh)
    out = tmp_path / "out"
    rc = main([a.format(**paths) for a in argv] + ["--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    # a bad environment value is named by its field
    assert all(name.removeprefix("SEGREOPT_").lower() in err for name in env)
    if "_top" in argv[-1]:
        assert "must be a JSON object" in err and paths[argv[-1][1:-1]] in err
    assert not out.exists()


# per field, a valid value that differs from the base config of the test below
ENV_VALUES = {
    "task": "regress", "dims": [3, 4, 5], "rank": 1, "rho": 0.5,
    "weight_law": "geometric-kappa", "kappa": 2.5, "noise_sd": 0.25, "n_samples": 40,
    "methods": ["als"], "init_method": "cpca", "init_refine_sweeps": 2, "cpca_split": [0],
    "replicates": 2, "seed": 5, "max_iters": 3, "step_size": 0.5, "stop_tol": 1e-9,
    "pinv_tol": 1e-8, "gauss_seidel": True,
}


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ExperimentConfig)])
def test_every_field_set_from_environment(tmp_path, monkeypatch, field):
    # `bench` takes even the task from the environment; strings go in as
    # bare text, everything else as JSON
    base = {"task": "decompose", "dims": [4, 4, 4], "rank": 2, "methods": ["rgn"],
            "replicates": 1, "max_iters": 1}
    value = ENV_VALUES[field]
    assert value != ExperimentConfig.from_dict(base).to_dict()[field]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base))
    monkeypatch.setenv("SEGREOPT_" + field.upper(),
                       value if isinstance(value, str) else json.dumps(value))
    out = tmp_path / "o"
    assert main(["bench", "--config", str(path), "--out", str(out)]) == 0
    (cell,) = os.listdir(out)
    manifest = json.loads((out / cell / "manifest.json").read_text())
    assert manifest["config"][field] == value


def test_flags_and_subcommand_override_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("SEGREOPT_TASK", "regress")
    monkeypatch.setenv("SEGREOPT_REPLICATES", "2")
    out = tmp_path / "o"
    assert main(["decompose", "--preset", "smoke-decompose", "--out", str(out),
                 "--replicates", "1", "--max-iters", "1"]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert (config["task"], config["replicates"]) == ("decompose", 1)


def test_unknown_environment_variable_ends_in_error_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SEGREOPT_BOGUS", "1")
    out = tmp_path / "o"
    assert main(["decompose", "--preset", "smoke-decompose", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: unknown config key(s): bogus\n"
    assert not out.exists()


def test_environment_grid_expanded_by_bench(tmp_path, monkeypatch):
    monkeypatch.setenv("SEGREOPT_GRID", '{"noise_sd": [0, 0.5]}')
    out = tmp_path / "o"
    assert main(["bench", "--preset", "smoke-decompose", "--out", str(out),
                 "--replicates", "1", "--max-iters", "1"]) == 0
    # a JSON integer in a float field is stored, and so named, as a float
    assert sorted(os.listdir(out)) == ["noise0.0_rho0.0", "noise0.5_rho0.0"]


def test_overflowing_observations_recorded_per_replicate(tmp_path, monkeypatch, capsys):
    # noise of sd 1e308 overflows the observations of every replicate: once a
    # traceback from Problem with nothing written, now a failure of every
    # method on every replicate, after the outputs are written
    monkeypatch.setenv("SEGREOPT_NOISE_SD", "1e308")
    out = tmp_path / "o"
    with np.errstate(over="ignore"):
        rc = main(["decompose", "--preset", "smoke-decompose", "--out", str(out),
                   "--replicates", "2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: method 'rgd' failed on every replicate" in err and "Traceback" not in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["init_rel_errors"] == [None, None]
    assert len(manifest["failures"]) == 2 * len(manifest["config"]["methods"])
    assert all(f["message"] == "initialization failed: observations y contain non-finite "
               "values" for f in manifest["failures"])


@pytest.mark.parametrize("grid, message", [
    ({"bogus": [1, 2]}, "unknown config key(s): bogus"),
    ({"noise_sd": 0.5}, "grid values of 'noise_sd' must be a nonempty list"),
    (["noise_sd"], "grid must map config fields to lists of values"),
], ids=["unknown-key", "not-a-list", "not-a-mapping"])
def test_bench_bad_grid_ends_in_error_line(tmp_path, capsys, grid, message):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"task": "decompose", "dims": [5, 5, 5], "rank": 2, "grid": grid}))
    out = tmp_path / "out"
    assert main(["bench", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert not out.exists()


def test_package_exports_resolve():
    names = segreopt.__all__
    assert len(set(names)) == len(names)
    assert names == sorted(names)
    assert [n for n in names if not hasattr(segreopt, n)] == []
