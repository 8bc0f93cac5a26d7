import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from mfbsde import backward, forward, harness
from mfbsde.backward import solve_bsde_n, solve_mfbsde
from mfbsde.fluctuation import solve_limit_system
from mfbsde.harness import (
    ConfigError,
    coupled_gaps,
    emit_report,
    fit_loglog_slope,
    parse_config,
    run_clt_study,
    run_convergence_study,
    study_law,
    StudyReport,
)
from mfbsde.model import catalog_model, check_gradients, random_probes
from mfbsde.noise import StreamKey, TimeGrid, brownian_increments, generator


MINIMAL = {
    "model": {"name": "ou_mean_field", "beta": 1.0, "s": 0.5, "x0": [1.0], "T": 1.0},
    "study": {"kind": "convergence", "n_values": [8, 16, 32], "seed": 7},
}


# env_cloud sizes every cloud; verdict thresholds and the block batch are
# module constants; every lattice entry is evaluated at the reference state;
# the limit ensemble has reps members
REMOVED_STUDY_KEYS = {
    "kernel_cloud": 4096,
    "center_cloud": 8192,
    "slope_band_x": [-1.25, -0.75],
    "slope_band_y": [-1.3, -0.7],
    "slope_band_z": [-1.3, -0.7],
    "variance_tolerance": 0.15,
    "ks_alpha": 0.01,
    "exact_tol": 1e-20,
    "chunk": 256,
    "lattice_probes": [[0.0]],
    "members": 2000,
}


def test_minimal_config_gets_documented_defaults(tmp_path, capsys):
    cfg = parse_config(json.dumps(MINIMAL))
    assert cfg.grid.steps == 64
    assert cfg.study["degree"] == 2
    assert cfg.study["env_cloud"] == 4096
    assert cfg.study["metrics"] == ["x", "y", "z"]
    assert len(cfg.study) == 13
    from mfbsde.cli import main

    # environments always come from the limit law, so there is no law
    # iteration and no picard_sweeps
    for key in ("picard_sweeps", *REMOVED_STUDY_KEYS):
        doc = json.loads(json.dumps(MINIMAL))
        doc["study"][key] = REMOVED_STUDY_KEYS.get(key, 5)
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert err.value.violations == [f"unknown study key {key!r}"]
        path = tmp_path / "study.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["validate", "--config", str(path)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "invalid configuration:", f"  - unknown study key {key!r}"
        ]


def _clt_doc(**study):
    return {
        "model": {"name": "ou_mean_field", "beta": 1.0, "s": 0.5, "x0": 1.0},
        "grid": {"steps": 32},
        "study": {"kind": "clt", "n": 64, "seed": 5, **study},
    }


ENV_CLOUD_CASES = [
    # a cloud law needs two paths; the study died building the limit law
    (
        {
            "model": {"name": "tanh_bounded"},
            "grid": {"steps": 4},
            "study": {
                "kind": "convergence", "n_values": [2, 4, 8], "reps": 4, "metrics": ["x"],
                "env_cloud": 1, "seed": 1,
            },
        },
        2,
        "study.env_cloud must be at least 2, got 1",
    ),
    # the field kernels need 100 paths; the study died after the gaps and
    # the limit system
    (_clt_doc(env_cloud=10), 100, "study.env_cloud must be at least 100 for clt studies, got 10"),
    # tanh_bounded's driver reads partner y, so the study regresses a value
    # law of env_cloud paths as one block; the study died there
    (
        {
            "model": {"name": "tanh_bounded"},
            "grid": {"steps": 4},
            "study": {
                "kind": "convergence", "n_values": [2, 4, 8], "reps": 4, "metrics": ["y"],
                "env_cloud": 10, "seed": 1,
            },
        },
        30,
        "study.env_cloud must be at least 10 * basis size = 30 for y or z metrics "
        "when the driver reads partner y, got 10",
    ),
    # a clt study's limit system solves backward whatever the metrics, on a
    # value law of env_cloud paths; the x-only study died there
    (
        {
            "model": {"name": "tanh_bounded"},
            "grid": {"steps": 4},
            "study": {
                "kind": "clt", "n": 64, "metrics": ["x"], "env_cloud": 100, "degree": 10,
                "seed": 1,
            },
        },
        110,
        "study.env_cloud must be at least 10 * basis size = 110 for clt studies "
        "when the driver reads partner y, got 100",
    ),
]


@pytest.mark.parametrize("doc, least, violation", ENV_CLOUD_CASES)
def test_undersized_env_cloud_rejected_before_compute(doc, least, violation, tmp_path, capsys):
    from mfbsde.cli import main

    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    capsys.readouterr()
    for argv in (["validate"], [doc["study"]["kind"], "--out", str(out)]):
        assert main([*argv, "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().out.splitlines() == ["invalid configuration:", f"  - {violation}"]
    assert not out.exists()
    doc["study"]["env_cloud"] = least
    parse_config(json.dumps(doc))


TIME_LIST_CASES = [
    # 0.3 is not a node of the grid; the study would raise mid-run
    pytest.param(key, [0.5, 0.3], "entry 0.3 is not a node of {grid}", id=key)
    for key in ("probe_times", "y_probe_times", "lattice_times")
] + [
    # a string raised a TypeError after the coupled run and the limit system,
    # an empty lattice an IndexError, and true was read as the time 1.0
    pytest.param("probe_times", ["1.0"], "entry '1.0' is not a finite number", id="probe_times-string"),
    pytest.param("lattice_times", ["0.5"], "entry '0.5' is not a finite number", id="lattice_times-string"),
    pytest.param("lattice_times", [], "must not be empty", id="lattice_times-empty"),
    pytest.param("probe_times", [True], "entry True is not a finite number", id="probe_times-bool"),
    # an integer beyond the float range raised in the checks themselves
    pytest.param(
        "probe_times", [10**400], f"entry {10**400} is not a finite number", id="probe_times-huge"
    ),
] + [
    # two spellings of one node gave two report rows under one name, or one
    # kernel entry twice
    pytest.param(
        key, [1, 0.5, 1.0], "entries 1 and 1.0 name one node", id=f"{key}-duplicate"
    )
    for key in ("probe_times", "y_probe_times", "lattice_times")
]


@pytest.mark.parametrize("key, times, violation", TIME_LIST_CASES)
def test_off_grid_times_rejected_before_compute(key, times, violation, tmp_path, capsys):
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(_clt_doc(**{key: times})))
    grid = TimeGrid(1.0, 32)
    assert err.value.violations == [f"study.{key} {violation.format(grid=grid)}"]
    parse_config(json.dumps(_clt_doc(**{key: [0.5, 0.25]})))
    if key != "lattice_times":
        return
    # a clt --lattice file goes through the same checks, on the default grid
    from mfbsde.cli import main

    (tmp_path / "model.json").write_text(json.dumps(_clt_doc()["model"]))
    (tmp_path / "lattice.json").write_text(json.dumps({"times": times}))
    argv = [
        "clt", "--model", str(tmp_path / "model.json"), "--lattice", str(tmp_path / "lattice.json"),
        "--n", "64", "--seed", "5", "--out", str(tmp_path / "out"),
    ]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().out.splitlines() == [
        "invalid configuration:", f"  - study.{key} {violation.format(grid=TimeGrid(1.0, 64))}"
    ]
    assert not (tmp_path / "out").exists()


def test_unread_probe_times_are_not_checked():
    # a forward-only study never reads y_probe_times
    parse_config(json.dumps(_clt_doc(metrics=["x"], y_probe_times=[0.3])))


def test_forward_only_clt_study_runs_on_a_grid_without_the_y_probe():
    # the default y_probe_times [0.5] is no node of a 63-step grid; a study
    # that passes the checks must not read it after the compute has run
    doc = _clt_doc(metrics=["x"], reps=200, field_reps=100, env_cloud=256, lattice_times=[1.0])
    doc["grid"]["steps"] = 63
    report = run_clt_study(parse_config(json.dumps(doc)))
    assert list(report.comparison["probes"]) == ["x@1.0"]


def test_clt_probe_names_follow_the_grid_time_not_its_spelling():
    # probe_times [1] used to give the row x@1 and the verdicts
    # variance_match:x@1 and ks:x@1, where [1.0] gives x@1.0
    doc = _clt_doc(
        metrics=["x"], reps=200, field_reps=100, env_cloud=256, lattice_times=[1], probe_times=[1]
    )
    report = run_clt_study(parse_config(json.dumps(doc)))
    assert list(report.comparison["probes"]) == ["x@1.0"]
    criteria = {v["criterion"] for v in report.verdicts}
    assert {"variance_match:x@1.0", "ks:x@1.0"} <= criteria


def test_too_few_inner_paths_rejected_before_compute():
    # degree 2 in one dimension has 3 basis functions: at least 30 inner paths
    for kind in ({"kind": "convergence", "n_values": [4, 8, 16]}, {"kind": "clt", "n": 64}):
        doc = _clt_doc(inner_paths=29, **kind)
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert err.value.violations == [
            "study.inner_paths must be at least 10 * basis size = 30 for y or z metrics, got 29"
        ]
        parse_config(json.dumps(_clt_doc(inner_paths=30, **kind)))
        parse_config(json.dumps(_clt_doc(inner_paths=29, metrics=["x"], **kind)))


def test_undersized_clt_ensembles_rejected_before_compute(tmp_path, capsys):
    # clt_compare needs 200 samples per side, and a sample covariance two
    # field replications; the study would raise, or write NaN covariances,
    # after running every block and the limit system
    for key, least in (("reps", 200), ("field_reps", 2)):
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(_clt_doc(**{key: least - 1})))
        assert err.value.violations == [
            f"study.{key} must be at least {least} for clt studies, got {least - 1}"
        ]
        parse_config(json.dumps(_clt_doc(**{key: least})))
    # the --reps flag overrides study.reps after parsing
    from mfbsde.cli import main

    cfg_path = tmp_path / "clt.json"
    cfg_path.write_text(json.dumps(_clt_doc(metrics=["x"])))
    capsys.readouterr()
    assert main(["clt", "--config", str(cfg_path), "--reps", "50", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "invalid configuration:", "  - study.reps must be at least 200 for clt studies, got 50"
    ]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("metrics", [["X"], [], ["x", "x"], "x"])
def test_bad_metrics_rejected(metrics, tmp_path, capsys):
    # ["X"] would compute nothing and pass an "exact" X_slope verdict; []
    # would pass with no verdicts at all
    doc = json.loads(json.dumps(MINIMAL))
    doc["study"]["metrics"] = metrics
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.violations == [
        f"study.metrics must be a non-empty list of distinct entries of ['x', 'y', 'z'], got {metrics!r}"
    ]
    from mfbsde.cli import main

    path = tmp_path / "study.json"
    path.write_text(json.dumps(doc))
    assert main(["convergence", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "study, lattice",
    [
        ({"lattice_probes": [[0.0]]}, None),
        ({}, {"times": [0.5], "probes": [[0.0]]}),
        ({}, [0.5]),
    ],
)
def test_lattice_probes_rejected_before_compute(study, lattice, tmp_path, capsys):
    # every field entry is evaluated at the reference state: there is no
    # probe to choose, in a study config or in a clt --lattice file
    from mfbsde.cli import main

    doc = _clt_doc(**study)
    if lattice is None:
        (tmp_path / "clt.json").write_text(json.dumps(doc))
        argv = ["clt", "--config", str(tmp_path / "clt.json")]
    else:
        (tmp_path / "model.json").write_text(json.dumps(doc["model"]))
        (tmp_path / "lattice.json").write_text(json.dumps(lattice))
        argv = [
            "clt", "--model", str(tmp_path / "model.json"),
            "--lattice", str(tmp_path / "lattice.json"), "--n", "64", "--seed", "5",
        ]
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "invalid configuration:" and len(printed) == 2
    assert not (tmp_path / "out").exists()


def test_clt_lattice_file_that_is_not_json_is_reported(tmp_path, capsys):
    from mfbsde.cli import main

    (tmp_path / "m.json").write_text(json.dumps(_clt_doc()["model"]))
    (tmp_path / "lat.txt").write_text("times = 1")
    argv = ["clt", "--model", str(tmp_path / "m.json"), "--lattice", str(tmp_path / "lat.txt")]
    capsys.readouterr()
    assert main(argv + ["--n", "4", "--seed", "1", "--out", str(tmp_path / "d")]) == 1
    captured = capsys.readouterr()
    printed = captured.out.splitlines()
    assert printed[0] == "invalid configuration:" and len(printed) == 2
    assert printed[1].startswith("  - invalid lattice file: not valid JSON")
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("degree", [-1, 1.5, "2", None])
def test_bad_degree_rejected(degree):
    for doc in (_clt_doc(degree=degree), {**MINIMAL, "study": {**MINIMAL["study"], "degree": degree}}):
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert err.value.violations == [f"study.degree must be an integer >= 0, got {degree!r}"]
    parse_config(json.dumps(_clt_doc(degree=0)))


@pytest.mark.parametrize(
    "model, violation",
    [
        ({"beta": "1"}, "parameter beta='1' is not a finite number"),
        ({"x0": [1, 2]}, "x0 must have shape (1,)"),
        ({"name": "tanh_bounded", "rho": 1.5}, "need |rho| < 1 to keep the diffusion positive"),
        ({"T": -1}, "T must be positive and finite"),
    ],
)
def test_bad_model_block_is_an_invalid_configuration(model, violation, tmp_path, capsys):
    # the model builder's own checks become violations, not tracebacks
    from mfbsde.cli import main

    doc = json.loads(json.dumps(MINIMAL))
    doc["model"] = {"name": "tanh_bounded"} if "rho" in model else doc["model"]
    doc["model"].update(model)
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.violations == [f"invalid model block: {violation}"]
    path = tmp_path / "study.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "invalid configuration:", f"  - invalid model block: {violation}"
    ]
    assert main(["convergence", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "block, key, value, violations",
    [
        ("study", "seed", "abc", ["study.seed must be an integer, got 'abc'"]),
        ("study", "seed", 1.5, ["study.seed must be an integer, got 1.5"]),
        ("study", "seed", True, ["study.seed must be an integer, got True"]),
        ("grid", "steps", True, ["grid.steps must be a positive integer"]),
        ("study", "n_values", [True, 8, 16], ["study.n_values must be positive integers"]),
        ("study", "reps", True, ["study.reps must be a positive integer"]),
        ("study", "degree", True, ["study.degree must be an integer >= 0, got True"]),
    ],
)
def test_integer_keys_reject_non_integers_and_booleans(block, key, value, violations, tmp_path):
    # JSON true is not the integer 1, and a seed must be an integer
    from mfbsde.cli import main

    doc = json.loads(json.dumps(MINIMAL))
    doc.setdefault(block, {})[key] = value
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.violations == violations
    path = tmp_path / "study.json"
    path.write_text(json.dumps(doc))
    assert main(["convergence", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out_dir", [5, "", None, ["out"]])
def test_output_dir_must_be_a_non_empty_string(out_dir, tmp_path, monkeypatch, capsys):
    # a non-string dir used to pass validation and fail in emit_report,
    # after the whole study had run
    from mfbsde.cli import main

    monkeypatch.chdir(tmp_path)
    doc = {**MINIMAL, "output": {"dir": out_dir}}
    violation = f"output.dir must be a non-empty string, got {out_dir!r}"
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.violations == [violation]
    path = tmp_path / "study.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    for command in ("validate", "convergence"):
        assert main([command, "--config", str(path)]) == 1
        assert capsys.readouterr().out.splitlines() == ["invalid configuration:", f"  - {violation}"]
    assert [p.name for p in tmp_path.iterdir()] == ["study.json"]


def test_empty_out_flag_is_an_invalid_configuration(tmp_path, monkeypatch, capsys):
    # --out overrides output.dir, so it meets the same rule, before compute;
    # it used to run the study and write into the working directory
    from mfbsde import cli

    def no_compute(cfg):
        raise AssertionError("the study ran")

    monkeypatch.setattr(cli, "run_convergence_study", no_compute)
    monkeypatch.setattr(cli, "run_clt_study", no_compute)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "conv.json").write_text(json.dumps(MINIMAL))
    (tmp_path / "clt.json").write_text(json.dumps(_clt_doc()))
    (tmp_path / "model.json").write_text(json.dumps(_clt_doc()["model"]))
    inputs = sorted(p.name for p in tmp_path.iterdir())
    for argv in (
        ["convergence", "--config", "conv.json"],
        ["clt", "--config", "clt.json"],
        ["clt", "--model", "model.json", "--n", "64", "--seed", "5"],
    ):
        capsys.readouterr()
        assert cli.main(argv + ["--out", ""]) == 1, argv
        assert capsys.readouterr().out.splitlines() == [
            "invalid configuration:", "  - output.dir must be a non-empty string, got ''"
        ], argv
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs


def test_missing_seed_is_reported_by_name():
    doc = {"model": {"name": "constant"}, "study": {"kind": "convergence", "n_values": [8, 16, 32]}}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert any("seed" in v for v in err.value.violations)


def test_non_increasing_n_list_rejected():
    doc = dict(MINIMAL)
    doc["study"] = {"kind": "convergence", "n_values": [16, 8, 32], "seed": 1}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert any("strictly increasing" in v for v in err.value.violations)


def test_all_violations_collected_not_just_first():
    doc = {
        "model": {"name": "nope", "bogus": 1},
        "study": {"kind": "weird", "n_values": [1], "mystery": 2},
        "extra": {},
    }
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    v = err.value.violations
    assert len(v) >= 5
    assert any("unknown top-level key" in s for s in v)
    assert any("mystery" in s for s in v)


def test_unknown_model_param_rejected():
    doc = {
        "model": {"name": "ou_mean_field", "beta": 1.0, "sigma": 0.5},
        "study": {"kind": "convergence", "n_values": [8, 16, 32], "seed": 3},
    }
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert any("sigma" in s for s in err.value.violations)


def test_slope_estimator_self_test():
    # errors c/N with 5 percent multiplicative noise fit to slope near -1
    rng = generator(StreamKey(seed=505))
    ns = np.array([8, 16, 32, 64, 128, 256])
    for _ in range(10):
        errors = (3.0 / ns) * (1.0 + 0.05 * rng.standard_normal(len(ns)))
        fit = fit_loglog_slope(ns, errors, 0.05 * errors)
        assert -1.1 <= fit["slope"] <= -0.9


def test_slope_estimator_degrades_below_three_points():
    fit = fit_loglog_slope([8, 16, 32], [1.0, float("nan"), 0.25], [0.1, 0.1, 0.1])
    assert fit["slope"] is None
    assert fit["verdict"] == "degraded"


def test_emit_report_empty_study(tmp_path):
    report = StudyReport("convergence", {}, {}, [], {})
    written = emit_report(report, tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["schema_version"] == 1
    assert written == [str(tmp_path / "report.json")]


def _mini_convergence_config(seed=11, metrics=("x",)):
    return parse_config(
        json.dumps(
            {
                "model": {"name": "ou_mean_field", "beta": 1.0, "s": 0.5, "x0": [1.0], "T": 1.0},
                "grid": {"steps": 16},
                "study": {
                    "kind": "convergence",
                    "n_values": [4, 8, 16],
                    "reps": 64,
                    "inner_paths": 32,
                    "env_cloud": 512,
                    "metrics": list(metrics),
                    "seed": seed,
                },
            }
        )
    )


def test_convergence_study_rows_and_files(tmp_path):
    cfg = _mini_convergence_config(metrics=("x", "y", "z"))
    report = run_convergence_study(cfg)
    rows = report.tables["errors"]
    assert len(rows) == 3 * 3  # |N list| x 3 metrics
    written = emit_report(report, tmp_path)
    assert str(tmp_path / "errors.csv") in written
    assert str(tmp_path / "slope.csv") in written
    lines = (tmp_path / "errors.csv").read_text().strip().splitlines()
    assert lines[0] == "N,metric,value,stderr"
    assert len(lines) == 1 + 9


def test_convergence_study_decoupled_verdict_exact():
    cfg = parse_config(
        json.dumps(
            {
                "model": {"name": "constant", "b0": 0.2, "s": 1.0, "phi0": 1.0},
                "grid": {"steps": 16},
                "study": {
                    "kind": "convergence",
                    "n_values": [4, 8, 16],
                    "reps": 32,
                    "inner_paths": 32,
                    "env_cloud": 64,
                    "seed": 21,
                },
            }
        )
    )
    report = run_convergence_study(cfg)
    assert all(r["value"] == 0.0 for r in report.tables["errors"])
    assert all(s.get("verdict") == "exact" for s in report.slopes.values())
    assert all(v["passed"] for v in report.verdicts)


def test_convergence_self_reference_mode_for_bounded_model():
    # no closed form: the limit reference is the cloud law itself; errors
    # still decay at the environment-size rate
    cfg = parse_config(
        json.dumps(
            {
                "model": {"name": "tanh_bounded", "s": 1.0, "rho": 0.4, "kappa": 0.0},
                "grid": {"steps": 16},
                "study": {
                    "kind": "convergence",
                    "n_values": [4, 16, 64],
                    "reps": 400,
                    "env_cloud": 1024,
                    "metrics": ["x"],
                    "seed": 77,
                },
            }
        )
    )
    report = run_convergence_study(cfg)
    assert report.provenance["reference"].startswith("self_reference")
    vals = {r["N"]: r["value"] for r in report.tables["errors"]}
    assert vals[4] > vals[16] > vals[64] > 0
    slope = report.slopes["x"]["slope"]
    assert -1.5 <= slope <= -0.5


def test_reports_reproducible_modulo_timestamp(tmp_path):
    cfg_a = _mini_convergence_config(seed=99)
    cfg_b = _mini_convergence_config(seed=99)
    emit_report(run_convergence_study(cfg_a), tmp_path / "a")
    emit_report(run_convergence_study(cfg_b), tmp_path / "b")
    doc_a = json.loads((tmp_path / "a" / "report.json").read_text())
    doc_b = json.loads((tmp_path / "b" / "report.json").read_text())
    doc_a.pop("timestamp")
    doc_b.pop("timestamp")
    assert doc_a == doc_b
    assert (tmp_path / "a" / "errors.csv").read_bytes() == (
        tmp_path / "b" / "errors.csv"
    ).read_bytes()


def test_clt_study_smoke(tmp_path):
    cfg = parse_config(
        json.dumps(
            {
                "model": {"name": "ou_mean_field", "beta": 1.0, "s": 0.5, "x0": [1.0], "T": 1.0},
                "grid": {"steps": 16},
                "study": {
                    "kind": "clt",
                    "n": 32,
                    "reps": 256,
                    "inner_paths": 32,
                    "env_cloud": 512,
                    "field_reps": 500,
                    "metrics": ["x"],
                    "lattice_times": [0.5, 1.0],
                    "seed": 31,
                },
            }
        )
    )
    report = run_clt_study(cfg)
    assert "x@1.0" in report.comparison["probes"]
    names = {v["criterion"] for v in report.verdicts}
    assert "field_covariance" in names
    written = emit_report(report, tmp_path)
    assert str(tmp_path / "covariance.csv") in written
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["kind"] == "clt"


def _small_clt(model, lattice_times):
    return parse_config(
        json.dumps(
            {
                "model": model,
                "grid": {"steps": 8},
                "study": {
                    "kind": "clt",
                    "n": 16,
                    "reps": 200,
                    "inner_paths": 32,
                    "env_cloud": 256,
                    "field_reps": 300,
                    "metrics": ["x"],
                    "lattice_times": lattice_times,
                    "seed": 41,
                },
            }
        )
    )


@pytest.mark.parametrize(
    "model, lattice_times",
    [
        ({"name": "ou_mean_field", "beta": 1.0, "s": 0.5, "x0": 1.0}, [1.0, 0.5]),
        ({"name": "tanh_bounded", "dim": 2}, [1.0, 0.25]),
    ],
)
def test_clt_covariance_table_reads_the_limit_kernel(monkeypatch, model, lattice_times):
    # the verdict checks the kernel the limit members were drawn from: its
    # drift entries at the lattice nodes, in the lattice's order
    from mfbsde import harness

    limits = []

    def spy(*args, **kwargs):
        limits.append(solve_limit_system(*args, **kwargs))
        return limits[-1]

    monkeypatch.setattr(harness, "solve_limit_system", spy)
    cfg = _small_clt(model, lattice_times)
    rows = run_clt_study(cfg).tables["covariance"]
    kernel = limits[0].kernel
    d = cfg.model.dim
    # the path kernel's drift block leads, node-major, then over the coordinates
    cols = [round(8 * t) * d + j for t in lattice_times for j in range(d)]
    assert [(r["i"], r["j"]) for r in rows] == [(i, j) for i in range(len(cols)) for j in range(len(cols))]
    emp = {(r["i"], r["j"]): r["empirical"] for r in rows}
    m = cfg.study["field_reps"]
    for r in rows:
        i, j = r["i"], r["j"]
        assert r["block"] == "drift"
        assert r["value"] == kernel.matrix[cols[i], cols[j]]
        # the empirical entry's stderr, as `_sample_covariance` computes it
        emp_se = np.sqrt((emp[i, i] * emp[j, j] + emp[i, j] * emp[i, j]) / m)
        assert r["stderr"] == np.sqrt(emp_se**2 + kernel.stderr[cols[i], cols[j]] ** 2)


def test_clt_study_builds_one_field_kernel(monkeypatch):
    # one kernel serves the limit members and the covariance verdict
    from mfbsde import fluctuation, harness

    calls = []
    real = fluctuation.theoretical_covariance

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (fluctuation, harness):
        monkeypatch.setattr(module, "theoretical_covariance", spy, raising=False)
    run_clt_study(_small_clt({"name": "ou_mean_field"}, [0.5, 1.0]))
    assert len(calls) == 1


@pytest.mark.parametrize(
    "model",
    [
        {"name": "ou_mean_field", "beta": 1.0, "s": 0.5, "x0": 0.3},
        {"name": "ou_mean_field", "beta": 1.0, "s": 0.5, "x0": 0.7},
        {"name": "tanh_bounded", "x0": 0.3},
    ],
    ids=["ou-0.3", "ou-0.7", "tanh-0.3"],
)
def test_field_covariance_passes_with_a_lattice_node_at_time_zero(model):
    # the kernel's t = 0 entry read ~1e-32 against an SE of ~1e-33 while the
    # empirical entry read 0, and the field_covariance verdict failed
    doc = {
        "model": model,
        "grid": {"steps": 16},
        "study": {
            "kind": "clt", "n": 64, "reps": 200, "field_reps": 500, "env_cloud": 512,
            "metrics": ["x"], "lattice_times": [0.0, 0.5, 1.0], "seed": 3,
        },
    }
    report = run_clt_study(parse_config(json.dumps(doc)))
    cov = report.tables["covariance"]
    assert cov[0]["value"] == cov[0]["empirical"] == 0.0
    assert {v["criterion"]: v["passed"] for v in report.verdicts}["field_covariance"]


def test_clt_forward_fluctuations_centred_at_canonical_seed():
    # at this seed a law iteration once swapped the exact law for a sampled
    # cloud, whose sqrt(N)-scaled sampling error biased x@1 by about 20 SE
    cfg = parse_config(
        json.dumps(
            {
                "model": {"name": "ou_mean_field", "beta": 1.0, "s": 0.5, "x0": 1.0},
                "grid": {"steps": 32},
                "study": {
                    "kind": "clt",
                    "n": 256,
                    "reps": 500,
                    "metrics": ["x"],
                    "field_reps": 1000,
                    "seed": 20260808,
                },
            }
        )
    )
    row = run_clt_study(cfg).comparison["probes"]["x@1.0"]["approx"]
    assert abs(row["mean"]) <= 4 * row["mean_se"], row


def test_clt_fluctuations_centred_on_a_value_law_model():
    # tanh_bounded reads partner y, so its backward blocks draw partners from
    # a value-law cloud; a limit path driven by a different cloud would pick
    # up the clouds' sampling gap, scaled by sqrt(N) (about 13 SE here)
    cfg = parse_config(
        json.dumps(
            {
                "model": {"name": "tanh_bounded", "s": 1.0, "rho": 0.4, "kappa": 0.25},
                "grid": {"steps": 16},
                "study": {
                    "kind": "clt",
                    "n": 1024,
                    "reps": 500,
                    "inner_paths": 32,
                    "field_reps": 100,
                    "metrics": ["x", "y"],
                    "lattice_times": [1.0],
                    "seed": 5,
                },
            }
        )
    )
    probes = run_clt_study(cfg).comparison["probes"]
    for probe in ("x@1.0", "y@0.5"):
        row = probes[probe]["approx"]
        assert abs(row["mean"]) <= 4 * row["mean_se"], (probe, row)


def _own_y_tanh():
    """tanh_bounded plus an own-y term in the driver's own part: every driver
    step is implicit, and blocks reach the fixed-point tolerance after
    different sweep counts."""
    model = catalog_model("tanh_bounded", x0=1.0)
    base, base_own = model.driver, model.grad_driver_own

    def grad_driver_own(x, y, z):
        out = base_own(x, y, z)
        out[..., model.dim] += 0.5 * np.cos(y)
        return out

    return dataclasses.replace(
        model,
        driver=lambda x, y, z: base(x, y, z) + 0.5 * np.sin(y),
        grad_driver_own=grad_driver_own,
    )


def test_own_y_tanh_declares_its_driver_gradients():
    model = _own_y_tanh()
    report = check_gradients(model, random_probes(model, 50, StreamKey(seed=9302)))
    assert report.passed, report.max_rel_error


def test_own_y_driver_keeps_the_fixed_point():
    # a driver that reads its own y steps implicitly, on both sides of a
    # coupled pair
    model = _own_y_tanh()
    assert backward._driver_reads_own_yz(model)
    grid = TimeGrid(1.0, 8)
    root = StreamKey(seed=9307)
    law = study_law(model, grid, 256, 2, root, backward=True)
    sim = forward.simulate_blocks(law, 8, 4, 32, root.child("w", 0), root.child("e", 0))
    assert solve_bsde_n(model, 8, sim).provenance["fixpoint_sweeps"] > 1
    assert solve_mfbsde(law, sim.xlim, sim.dw).provenance["fixpoint_sweeps"] > 1


def _recorded(monkeypatch, name, calls):
    """Replace ``harness.<name>`` by a wrapper that appends each call's
    keyword arguments and result to ``calls``."""
    fn = getattr(harness, name)

    def wrapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append((kwargs, result))
        return result

    monkeypatch.setattr(harness, name, wrapped)


def test_backward_solves_of_a_coupled_run_share_one_work_set(monkeypatch):
    # 8 + 8 + 4 blocks: all six solves write one pair of y and z arrays,
    # while each batch's bundle is its own
    monkeypatch.setattr(forward, "BLOCK_PATHS", 8 * 32)
    grid = TimeGrid(1.0, 8)
    root = StreamKey(seed=9308)
    law = study_law(catalog_model("tanh_bounded", x0=1.0), grid, 256, 2, root, backward=True)
    sims, sols = [], []
    _recorded(monkeypatch, "simulate_blocks", sims)
    for name in ("solve_bsde_n", "solve_mfbsde"):
        _recorded(monkeypatch, name, sols)
    coupled_gaps(law, 8, 20, 32, root.child("w", 0), root.child("e", 0), degree=2)
    assert [kwargs["block_offset"] for kwargs, _ in sims] == [0, 8, 16]
    assert len(sols) == 6
    work = sols[0][0]["work"]
    assert work is not None and all(kwargs["work"] is work for kwargs, _ in sols)
    first = sols[0][1]
    for _, sol in sols[1:]:
        assert np.shares_memory(sol.y_values, first.y_values)
        assert np.shares_memory(sol.z_values, first.z_values)
    assert not np.shares_memory(sims[0][1].xn, sims[1][1].xn)


def test_solves_outside_a_coupled_run_own_their_arrays():
    # without a work set every solve allocates its own y and z, so no two
    # solutions, and no solution and its bundle, share memory
    grid = TimeGrid(1.0, 8)
    root = StreamKey(seed=9308)
    law = study_law(catalog_model("tanh_bounded", x0=1.0), grid, 256, 2, root, backward=True)
    sim = forward.simulate_blocks(law, 8, 8, 32, root.child("w", 0), root.child("e", 0))
    sols = [solve_bsde_n(law.model, 8, sim), solve_mfbsde(law, sim.xlim, sim.dw), solve_bsde_n(law.model, 8, sim)]
    assert sols[0].y_values.tobytes() == sols[2].y_values.tobytes()
    arrays = [sim.dw, sim.xn, sim.xlim] + [a for sol in sols for a in (sol.y_values, sol.z_values)]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :]), i


@pytest.mark.parametrize("name", ["tanh_bounded", "mf_bsde_linear", "own_y_tanh"])
def test_coupled_gaps_invariant_under_chunk_size(monkeypatch, name):
    # every block's draws, forward paths and backward solves depend on its
    # keys alone, so the block batch cannot change a single bit
    grid = TimeGrid(1.0, 16)
    model = _own_y_tanh() if name == "own_y_tanh" else catalog_model(name, x0=1.0)
    root = StreamKey(seed=9301)
    law = study_law(model, grid, 256, 2, root, backward=True)
    # values are attached exactly when the driver reads partner y
    assert law.has_y == (not model.env_free("driver"))
    w_key, env_key = root.child("w", 0), root.child("e", 0)
    runs = []
    for batch in (1, 7, 256):
        monkeypatch.setattr(forward, "BLOCK_PATHS", batch * 32)
        runs.append(coupled_gaps(law, 8, 20, 32, w_key, env_key, degree=2))
    assert [g.shape for g in runs[0]] == [(20, 17, 1), (20, 17), (20, 17, 1)]
    assert np.any(runs[0][1] != 0.0)
    for run in runs[1:]:
        for a, b in zip(runs[0], run):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("route", ["coupled_gaps", "limit_system"])
def test_peak_memory_does_not_grow_with_the_batch_count(monkeypatch, route):
    # a loop holds one block batch at a time, so three batches peak where one
    # does; only the (count, n+1, ...) results grow, by a few kB here
    # 32 blocks of 128 paths, or 32 members of 64 inner paths on x and xbar
    monkeypatch.setattr(forward, "BLOCK_PATHS", 32 * 128)
    grid = TimeGrid(1.0, 32)
    root = StreamKey(seed=9305)
    law = study_law(catalog_model("ou_mean_field"), grid, 1024, 2, root, backward=True)
    w_key, env_key, limit_key = root.child("w", 0), root.child("e", 0), root.child("ls", 0)
    run = {
        "coupled_gaps": lambda count: coupled_gaps(law, 256, count, 128, w_key, env_key, degree=2),
        "limit_system": lambda count: solve_limit_system(
            law, count, limit_key, inner=64, cloud_size=1024
        ),
    }[route]
    run(32)  # warm-up: first-call allocations are not the loop's
    peaks = []
    for count in (32, 96):
        tracemalloc.start()
        try:
            run(count)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0], peaks


@pytest.mark.parametrize("name", ["tanh_bounded", "ou_mean_field"])
def test_coupled_gaps_x_does_not_depend_on_the_inner_paths(name):
    # a block's designated increments are the first of its draw and its
    # partner draws do not depend on the block size, so one run serves x,
    # y and z: its x gaps equal those of a one-path run, bit for bit
    grid = TimeGrid(1.0, 16)
    model = catalog_model(name, x0=1.0)
    root = StreamKey(seed=9303)
    law = study_law(model, grid, 256, 2, root, backward=True)
    assert law.kind == ("cloud" if name == "tanh_bounded" else "closed_form")
    assert law.has_y == (law.kind == "cloud")
    w_key, env_key = root.child("w", 0), root.child("e", 0)
    x1, _, _ = coupled_gaps(law, 8, 20, 1, w_key, env_key)
    x32, y32, _ = coupled_gaps(law, 8, 20, 32, w_key, env_key, degree=2)
    assert np.any(x1 != 0.0) and np.any(y32 != 0.0)
    assert np.array_equal(x1, x32)


def test_one_path_coupled_gaps_do_not_depend_on_the_block_paths(monkeypatch):
    # a one-path point holds up to BLOCK_PATHS blocks per batch: one batch
    # by default, 300 batches of one block, or 43 of seven
    grid = TimeGrid(1.0, 16)
    root = StreamKey(seed=9306)
    law = study_law(catalog_model("ou_mean_field", x0=1.0), grid, 256, 2, root, backward=False)
    w_key, env_key = root.child("w", 0), root.child("e", 0)
    assert forward.block_batches(300, 1) == [(0, 300)]
    want, _, _ = coupled_gaps(law, 8, 300, 1, w_key, env_key)
    assert np.any(want != 0.0)
    for paths in (1, 7):
        monkeypatch.setattr(forward, "BLOCK_PATHS", paths)
        x, _, _ = coupled_gaps(law, 8, 300, 1, w_key, env_key)
        assert x.tobytes() == want.tobytes(), paths


def test_convergence_study_does_not_depend_on_the_pool_workers(monkeypatch):
    # 300 one-path blocks at N = 16 fill three partner sub-batches, which
    # split across the threads; the reported tables do not move by a bit
    cfg = parse_config(json.dumps(_mini_convergence_config().canonical()), reps=300)
    tables = []
    for workers in (forward.WORKERS, 1, 3):
        monkeypatch.setattr(forward, "WORKERS", workers)
        tables.append(json.dumps(run_convergence_study(cfg).tables))
    assert tables[1] == tables[0] and tables[2] == tables[0]


def test_clt_study_reads_x_y_and_z_from_one_run():
    # on ou_mean_field the gap X^N - X is a function of the frozen
    # environment alone, so Y^N_t - Y_t = X^N_T - X_T on every path: the y
    # fluctuations of one coupled run repeat its terminal x fluctuations
    doc = _clt_doc(reps=200, inner_paths=32, field_reps=100, env_cloud=256)
    doc["study"]["lattice_times"] = [1.0]
    probes = run_clt_study(parse_config(json.dumps(doc))).comparison["probes"]
    x_row, y_row = probes["x@1.0"]["approx"], probes["y@0.5"]["approx"]
    assert y_row.keys() == x_row.keys()
    for key in x_row:
        assert abs(y_row[key] - x_row[key]) <= 1e-12, (key, x_row[key], y_row[key])


def test_cli_validate_and_forward(tmp_path):
    from mfbsde.cli import main

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(MINIMAL))
    assert main(["validate", "--config", str(cfg_path)]) == 0
    bad = dict(MINIMAL)
    bad["study"] = {"kind": "convergence", "n_values": [8], "seed": 1}
    cfg_path.write_text(json.dumps(bad))
    assert main(["validate", "--config", str(cfg_path)]) == 1

    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(MINIMAL["model"]))
    out_csv = tmp_path / "paths.csv"
    rc = main(
        [
            "forward",
            "--model", str(model_path),
            "--n", "8",
            "--steps", "8",
            "--reps", "5",
            "--seed", "42",
            "--env-cloud", "256",
            "--out", str(out_csv),
        ]
    )
    assert rc == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "rep,t,coord,value"
    assert len(lines) == 1 + 5 * 9  # reps * (steps + 1) rows


def test_cli_forward_with_no_replications_writes_a_header(tmp_path):
    # no keys give empty partner shifts, not the None of a partner-free
    # coefficient, so the drift still finds its (empty) shift
    from mfbsde.cli import main

    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"name": "ou_mean_field"}))
    out_csv = tmp_path / "paths.csv"
    argv = ["forward", "--model", str(model_path), "--n", "8", "--reps", "0", "--seed", "1"]
    assert main(argv + ["--out", str(out_csv)]) == 0
    assert out_csv.read_text().strip().splitlines() == ["rep,t,coord,value"]


def test_cli_backward_limit_mode(tmp_path):
    from mfbsde.cli import main

    model_path = tmp_path / "model.json"
    model_path.write_text(
        json.dumps({"name": "mf_bsde_linear", "beta": 1.0, "s": 1.0, "x0": [1.0], "T": 1.0})
    )
    out_csv = tmp_path / "bsde.csv"
    rc = main(
        [
            "backward",
            "--model", str(model_path),
            "--n", "limit",
            "--steps", "16",
            "--reps", "128",
            "--seed", "17",
            "--out", str(out_csv),
        ]
    )
    assert rc == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "rep,t,y,z_1"
    y0 = float(lines[1].split(",")[2])
    assert abs(y0 - 2 * math.e) < 0.6  # rough location check on one path


def test_cli_backward_limit_paths_are_the_block_route_limit_paths(tmp_path, monkeypatch):
    # fresh --n limit paths ride the stream of block 0 of the N mode: they
    # equal simulate_blocks' limit paths under the same keys, bit for bit
    import mfbsde.cli as cli
    from mfbsde.forward import simulate_blocks

    seen = {}
    solve = cli.solve_mfbsde

    def spy(law, x, dw, degree):
        seen.update(law=law, x=x)
        return solve(law, x, dw, degree=degree)

    monkeypatch.setattr(cli, "solve_mfbsde", spy)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"name": "tanh_bounded"}))
    argv = ["backward", "--model", str(model_path), "--n", "limit", "--steps", "8"]
    argv += ["--reps", "64", "--seed", "23", "--env-cloud", "256", "--out", str(tmp_path / "y.csv")]
    assert cli.main(argv) == 0
    root = StreamKey(seed=23)
    sim = simulate_blocks(
        seen["law"], 1, n_blocks=1, inner=64, w_key=root.child("w", 0), env_key=root.child("envs", 0)
    )
    assert seen["x"].shape == (1, 64, 9, 1)
    assert np.array_equal(seen["x"][0], sim.xlim[0])


@pytest.mark.parametrize("name", ["ou_mean_field", "tanh_bounded"])
def test_cli_backward_limit_paths_file_matches_the_fresh_run(name, tmp_path):
    # the fresh --n limit paths, written as a forward path CSV, give back the
    # fresh run's solution: the inversion uses the same law's drift and
    # diffusion means, so the recovered increments agree to round-off
    import mfbsde.cli as cli
    from mfbsde.harness import _PATH_HEADER, _path_rows, _write_csv

    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"name": name}))
    model = catalog_model(name)
    grid = TimeGrid(model.horizon, 8)
    root = StreamKey(seed=31)
    law = study_law(model, grid, 256, 2, root, backward=False)
    dw = brownian_increments([root.child("w", 0).child("path", 0)], (64, 8, 1), grid.h)
    _write_csv(tmp_path / "paths.csv", _PATH_HEADER, _path_rows(grid, law.euler(dw)[0]))
    argv = ["backward", "--model", str(model_path), "--n", "limit", "--steps", "8"]
    argv += ["--reps", "64", "--seed", "31", "--env-cloud", "256"]
    assert cli.main(argv + ["--out", str(tmp_path / "fresh.csv")]) == 0
    assert cli.main(argv + ["--paths", str(tmp_path / "paths.csv"), "--out", str(tmp_path / "file.csv")]) == 0

    def table(path):
        lines = path.read_text().splitlines()
        assert lines[0] == "rep,t,y,z_1"
        return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])

    fresh, from_file = table(tmp_path / "fresh.csv"), table(tmp_path / "file.csv")
    assert fresh.shape == from_file.shape == (64 * 9, 4)
    assert np.array_equal(fresh[:, :2], from_file[:, :2])
    assert np.max(np.abs(fresh - from_file)) <= 1e-12


def test_paths_file_on_another_grid_is_an_invalid_configuration(tmp_path, capsys):
    # a T = 1 file passed with a T = 2 model and as many steps used to run
    # and relabel the t column: 0.125 came back as 0.25
    from mfbsde.cli import main

    (tmp_path / "short.json").write_text(json.dumps({"name": "ou_mean_field", "T": 1.0}))
    (tmp_path / "long.json").write_text(json.dumps({"name": "ou_mean_field", "T": 2.0}))
    paths, out_csv = tmp_path / "paths.csv", tmp_path / "y.csv"
    forward = ["forward", "--model", str(tmp_path / "short.json"), "--n", "4", "--steps", "8"]
    assert main(forward + ["--reps", "40", "--seed", "3", "--env-cloud", "64", "--out", str(paths)]) == 0
    argv = ["backward", "--model", str(tmp_path / "long.json"), "--n", "limit", "--steps", "8"]
    capsys.readouterr()
    assert main(argv + ["--paths", str(paths), "--seed", "3", "--out", str(out_csv)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "invalid configuration:", "  - --paths file's t values are not the nodes of TimeGrid(T=2.0, n=8)"
    ]
    assert not out_csv.exists()
    # on its own grid the file runs
    argv[2] = str(tmp_path / "short.json")
    assert main(argv + ["--paths", str(paths), "--seed", "3", "--out", str(out_csv)]) == 0


BAD_MODEL_FILES = [
    ('{"name": "tanh_bounded", "rho": 1.5}', "need |rho| < 1 to keep the diffusion positive"),
    ('{"beta": 1.0}', "model.name is required"),
    ('{"name": "ou_mean_field", "sigma": 1.0}', "unknown parameters for ou_mean_field: ['sigma']"),
    ("beta = 1", "not valid JSON"),
]


@pytest.mark.parametrize("command", ["forward", "backward"])
@pytest.mark.parametrize("text, violation", BAD_MODEL_FILES)
def test_direct_commands_report_a_bad_model_file(command, text, violation, tmp_path, capsys):
    from mfbsde.cli import main

    model_path = tmp_path / "model.json"
    model_path.write_text(text)
    out_csv = tmp_path / "out.csv"
    capsys.readouterr()
    argv = [command, "--model", str(model_path), "--n", "8", "--seed", "1", "--out", str(out_csv)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    printed = captured.out.splitlines()
    assert printed[0] == "invalid configuration:"
    assert len(printed) == 2 and printed[1].startswith("  - invalid model block: ")
    assert violation in printed[1]
    assert "Traceback" not in captured.out + captured.err
    assert not out_csv.exists()


def _ten_path_file(path):
    """A forward path CSV of 10 replications on the default 64-step grid."""
    lines = ["rep,t,coord,value"] + [f"{r},{i / 64!r},0,1.0" for r in range(10) for i in range(65)]
    path.write_text("\n".join(lines) + "\n")


NO_DRAWS = "--paths needs --n limit: externally supplied paths carry no environment draws"
BAD_SIZE_FLAGS = [
    ("backward", ["--n", "8", "--inner", "16"],
     ["--inner must give at least 10 * basis size = 30 paths per block, got 16"]),
    ("backward", ["--n", "limit", "--reps", "8"],
     ["--reps must give at least 10 * basis size = 30 paths per block, got 8"]),
    ("backward", ["--n", "limit", "--paths", "PATHS"],
     ["--paths must give at least 10 * basis size = 30 paths per block, got 10"]),
    ("backward", ["--n", "8", "--paths", "PATHS"], [NO_DRAWS]),
    ("backward", ["--n", "0"], ["--n must be 'limit' or an integer >= 1, got '0'"]),
    ("backward", ["--n", "abc"], ["--n must be 'limit' or an integer >= 1, got 'abc'"]),
    ("backward", ["--n", "8", "--degree", "-1"], ["--degree must be an integer >= 0, got -1"]),
    ("forward", ["--n", "0"], ["--n must be an integer >= 1, got 0"]),
    ("forward", ["--n", "8", "--reps", "-1"], ["--reps must be an integer >= 0, got -1"]),
    ("forward", ["--n", "8", "--steps", "0"], ["--steps must be an integer >= 1, got 0"]),
    ("forward", ["--n", "8", "--env-cloud", "1"], ["--env-cloud must be an integer >= 2, got 1"]),
    ("forward", ["--n", "0", "--steps", "0"],
     ["--n must be an integer >= 1, got 0", "--steps must be an integer >= 1, got 0"]),
    ("backward", ["--n", "8", "--env-cloud", "10"],
     ["--env-cloud must give at least 10 * basis size = 30 paths for the value law, got 10"]),
]


@pytest.mark.parametrize("command, flags, violations", BAD_SIZE_FLAGS)
def test_direct_commands_check_size_flags_before_compute(
    command, flags, violations, tmp_path, capsys
):
    # each of these used to end in a traceback, some after the law and the
    # blocks were built
    from mfbsde.cli import main

    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"name": "tanh_bounded"}))
    _ten_path_file(tmp_path / "paths.csv")
    flags = [str(tmp_path / "paths.csv") if f == "PATHS" else f for f in flags]
    out_csv = tmp_path / "out.csv"
    capsys.readouterr()
    argv = [command, "--model", str(model_path), *flags, "--seed", "1", "--out", str(out_csv)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["invalid configuration:", *(f"  - {v}" for v in violations)]
    assert "Traceback" not in captured.out + captured.err
    assert not out_csv.exists()


MISSING_INPUTS = [
    (["validate", "--config", "MISSING"], "config file"),
    (["convergence", "--config", "MISSING"], "config file"),
    (["forward", "--model", "MISSING", "--n", "8"], "model block"),
    (["clt", "--model", "MODEL", "--lattice", "MISSING", "--n", "8"], "lattice file"),
    (["backward", "--model", "MODEL", "--n", "limit", "--paths", "MISSING"], "--paths file"),
]


@pytest.mark.parametrize(
    "argv, what", MISSING_INPUTS, ids=["validate", "convergence", "forward", "clt", "backward"]
)
def test_missing_input_file_is_an_invalid_configuration(argv, what, tmp_path, capsys):
    # each of these used to end in a FileNotFoundError traceback
    from mfbsde.cli import main

    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"name": "ou_mean_field"}))
    missing = tmp_path / "missing.json"
    argv = [{"MISSING": str(missing), "MODEL": str(model_path)}.get(a, a) for a in argv]
    out = tmp_path / "out"
    if argv[0] != "validate":
        argv += ["--seed", "1", "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "invalid configuration:", f"  - cannot read {what} {missing}: No such file or directory"
    ]
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()


HEADER = "rep,t,coord,value"
BAD_PATH_FILES = [
    ("", "--paths: PATH is not a forward path CSV"),
    (HEADER, "--paths: PATH has no path rows"),
    (f"{HEADER}\n0,0.0,1,1.0", "--paths: line 2 has coordinate 1, not below dimension 1"),
    (f"{HEADER}\n0,0.0,0,1.0\n0,0.5,0,1.0\n1,0.0,0,1.0",
     "--paths: replication 1 does not have the nodes and 1 coordinates of replication 0"),
    (f"{HEADER}\n0,0.0,0", "--paths: line 2 is not rep,t,coord,value: '0,0.0,0'"),
]


@pytest.mark.parametrize(
    "text, violation", BAD_PATH_FILES,
    ids=["empty", "header_only", "coordinate_out_of_range", "missing_node", "short_row"],
)
def test_bad_paths_file_is_an_invalid_configuration(text, violation, tmp_path, capsys):
    # empty, header-only and out-of-range files used to end in a traceback
    from mfbsde.cli import main

    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"name": "ou_mean_field"}))
    paths = tmp_path / "paths.csv"
    paths.write_text(text)
    out_csv = tmp_path / "out.csv"
    capsys.readouterr()
    argv = ["backward", "--model", str(model_path), "--n", "limit", "--paths", str(paths)]
    assert main(argv + ["--seed", "1", "--out", str(out_csv)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "invalid configuration:", f"  - {violation.replace('PATH', str(paths))}"
    ]
    assert "Traceback" not in captured.out + captured.err
    assert not out_csv.exists()


@pytest.mark.parametrize(
    "flags, flag_violations",
    [
        (["--degree", "-1", "--reps", "0"],
         ["--reps must be an integer >= 1, got 0", "--degree must be an integer >= 0, got -1"]),
        # a bad file has no replications to count, and --reps is not read
        (["--reps", "5"], []),
    ],
    ids=["bad_flags", "unread_reps"],
)
def test_bad_paths_file_is_reported_with_the_flag_violations(flags, flag_violations, tmp_path, capsys):
    # the file's violation used to hide the flag violations found before it
    from mfbsde.cli import main

    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"name": "ou_mean_field"}))
    paths = tmp_path / "empty.csv"
    paths.write_text("")
    out_csv = tmp_path / "out.csv"
    capsys.readouterr()
    argv = ["backward", "--model", str(model_path), "--n", "limit", "--paths", str(paths), *flags]
    assert main(argv + ["--seed", "1", "--out", str(out_csv)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "invalid configuration:",
        *(f"  - {v}" for v in flag_violations),
        f"  - --paths: {paths} is not a forward path CSV",
    ]
    assert not out_csv.exists()


def test_cli_import_loads_no_scipy():
    # numpy is the only numerical package at run time; scipy is a test extra
    code = "import sys, mfbsde.cli; print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == "[]"


def test_model_and_study_violations_reported_in_one_pass():
    doc = _clt_doc(reps=True)
    doc["model"] = {"name": "tanh_bounded", "rho": 1.5}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    v = err.value.violations
    assert sorted(v) == sorted([
        "invalid model block: need |rho| < 1 to keep the diffusion positive",
        "study.reps must be a positive integer",
    ])


CLT_FLAG_CASES = [
    # --model and --lattice used to be ignored next to --config: the study ran
    # on the config's model and lattice and exited 0
    pytest.param(
        ["--config", "CONFIG", "--model", "BAD"],
        ["--model belongs to direct mode, not to --config"],
        id="config-model",
    ),
    pytest.param(
        ["--config", "CONFIG", "--lattice", "LATTICE", "--model", "BAD"],
        [
            "--model belongs to direct mode, not to --config",
            "--lattice belongs to direct mode, not to --config",
        ],
        id="config-lattice-model",
    ),
    # direct mode printed a bare line on stderr for a missing flag
    pytest.param(["--model", "MODEL", "--n", "8"], ["direct mode needs --seed"], id="no-seed"),
    pytest.param(
        ["--lattice", "LATTICE"],
        ["direct mode needs --model", "direct mode needs --n", "direct mode needs --seed"],
        id="no-model-n-seed",
    ),
]


@pytest.mark.parametrize("flags, violations", CLT_FLAG_CASES)
def test_clt_flags_of_the_other_mode_are_an_invalid_configuration(
    flags, violations, tmp_path, capsys
):
    from mfbsde.cli import main

    doc = _clt_doc(metrics=["x"])
    files = {
        "CONFIG": ("clt.json", json.dumps(doc)),
        "MODEL": ("model.json", json.dumps(doc["model"])),
        # 0.3 is no node of the 8-step grid
        "LATTICE": ("lat.json", json.dumps({"times": [0.3]})),
        "BAD": ("bad.json", "not json"),
    }
    argv = ["clt"]
    for flag in flags:
        if flag in files:
            name, text = files[flag]
            (tmp_path / name).write_text(text)
            flag = str(tmp_path / name)
        argv.append(flag)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["invalid configuration:", *(f"  - {v}" for v in violations)]
    assert captured.err == ""
    assert not out.exists()


def test_clt_environment_size_override_checked_before_compute(tmp_path, capsys):
    # --n 0 used to pass validation and fail with a ZeroDivisionError mid-run
    from mfbsde.cli import main

    cfg_path = tmp_path / "clt.json"
    cfg_path.write_text(json.dumps(_clt_doc(metrics=["x"])))
    capsys.readouterr()
    assert main(["clt", "--config", str(cfg_path), "--n", "0", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "invalid configuration:", "  - study.n must be a positive integer for clt studies"
    ]
    assert not (tmp_path / "out").exists()


WRONG_KIND_CASES = [
    # each used to pass validation and end in a TypeError mid-run
    pytest.param(
        "clt", MINIMAL,
        [
            "study.kind must be 'clt' for the clt command, got 'convergence'",
            "study.n must be a positive integer for clt studies",
        ],
        id="convergence-doc-to-clt",
    ),
    pytest.param(
        "convergence", _clt_doc(reps=0),
        [
            "study.kind must be 'convergence' for the convergence command, got 'clt'",
            "study.n_values needs at least 3 entries for slope fits",
            "study.reps must be a positive integer",
        ],
        id="clt-doc-to-convergence",
    ),
]


@pytest.mark.parametrize("command, doc, violations", WRONG_KIND_CASES)
def test_a_document_of_the_other_study_kind_is_an_invalid_configuration(
    command, doc, violations, tmp_path, capsys
):
    from mfbsde.cli import main

    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["invalid configuration:", *(f"  - {v}" for v in violations)]
    assert captured.err == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["convergence", "--config", "conv.json"],
        ["clt", "--config", "clt.json"],
        ["clt", "--model", "model.json", "--n", "16", "--seed", "5", "--reps", "200"],
    ],
    ids=["convergence", "clt-config", "clt-direct"],
)
def test_a_study_command_builds_its_model_once(argv, tmp_path, monkeypatch):
    # the parse builds the model and grid the run reads; nothing rebuilds them
    from mfbsde import cli, harness

    calls = []
    build = harness.model_from_block

    def spy(block):
        calls.append(block)
        return build(block)

    monkeypatch.setattr(harness, "model_from_block", spy)
    monkeypatch.setattr(cli, "model_from_block", spy)
    monkeypatch.chdir(tmp_path)
    small = {"inner_paths": 32, "env_cloud": 256, "field_reps": 300}
    conv = {**MINIMAL, "grid": {"steps": 8}}
    conv["study"] = {**MINIMAL["study"], "metrics": ["x"], "reps": 16}
    (tmp_path / "conv.json").write_text(json.dumps(conv))
    (tmp_path / "clt.json").write_text(json.dumps(_clt_doc(**small, metrics=["x"], reps=200, n=16)))
    (tmp_path / "model.json").write_text(json.dumps(_clt_doc()["model"]))
    assert cli.main(argv + ["--out", "out"]) in (0, 2)
    assert (tmp_path / "out" / "report.json").exists()
    assert len(calls) == 1


def test_a_parsed_config_is_frozen_and_carries_its_model_and_grid():
    cfg = parse_config(json.dumps(MINIMAL), "convergence", seed=11, out="elsewhere")
    assert (cfg.study["seed"], cfg.out_dir) == (11, "elsewhere")
    assert cfg.model.name == "ou_mean_field" and cfg.grid == TimeGrid(1.0, 64)
    assert cfg.canonical()["grid"] == {"steps": 64}
    for name, value in (("out_dir", "x"), ("study", {}), ("model", None), ("grid", None)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
