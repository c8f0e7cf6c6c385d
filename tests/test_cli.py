"""End-to-end tests of the command-line entry points."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from physrec import cli
from physrec.harness import data_nyquist_rate, load_dataset, load_real_csv


def test_generate_then_recover_sindyc(tmp_path):
    data = tmp_path / "data"
    overrides = json.dumps({"n_traces": 2, "k": 400})
    assert cli.main(["generate", "--system", "lotka_volterra", "--seed", "1",
                     "--out", str(data), "--overrides", overrides]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sindy_threshold": 0.05}))
    out = tmp_path / "result.json"
    assert cli.main(["recover", "--arch", "sindyc", "--data", str(data),
                     "--config", str(config), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"arch", "system", "coeffs_est", "coeff_names", "shifts",
                        "rmse_y", "rmse_coeffs", "loss_history", "solve_substeps"}
    assert doc["arch"] == "sindyc" and doc["solve_substeps"] == 1
    assert doc["shifts"] == [] and doc["loss_history"] == []
    assert len(doc["coeffs_est"]) == len(doc["coeff_names"]) == 4
    assert doc["rmse_y"] >= 0 and doc["rmse_coeffs"] >= 0


def _recover(tmp_path, arch, config):
    """``physrec recover`` on a tiny Lotka-Volterra dataset (n=2) under the
    JSON ``config``; returns the exit code."""
    data = tmp_path / "data"
    assert cli.main(["generate", "--system", "lotka_volterra", "--seed", "1", "--out", str(data),
                     "--overrides", json.dumps({"n_traces": 2, "k": 200})]) == 0
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return cli.main(["recover", "--arch", arch, "--data", str(data), "--config", str(path),
                     "--out", str(tmp_path / "result.json")])


def _refuse_constant(name):
    # json's parse_constant hook: a strict reader has no Infinity or NaN
    raise ValueError(f"non-standard JSON constant {name}")


def test_recover_writes_an_infinite_rmse_as_strict_json(tmp_path, monkeypatch):
    fit = cli.fit_traces
    monkeypatch.setattr(
        cli, "fit_traces", lambda *a, **kw: replace(fit(*a, **kw), rmse_y=float("inf"))
    )
    assert _recover(tmp_path, "sindyc", {}) == 0
    doc = json.loads((tmp_path / "result.json").read_text(), parse_constant=_refuse_constant)
    assert doc["rmse_y"] == "inf" and len(doc["coeffs_est"]) == 4


@pytest.mark.parametrize("mask", [[1], [1, 0, 1]])
def test_recover_rejects_a_mask_of_the_wrong_length(mask, tmp_path, capsys):
    train = {"epochs": 1, "hidden_width": 4, "head_layers": [6]}
    code = _recover(tmp_path, "ltc", {"k_window": 100, "mask": mask, "train": train})
    assert code == 1
    assert f"has {len(mask)} entries but the traces have 2 states" in capsys.readouterr().err


def test_recover_clamps_k_window_to_the_shortest_trace(tmp_path):
    # as a sweep point does: the dataset's traces have 200 samples
    train = {"epochs": 1, "hidden_width": 4, "head_layers": [6]}
    assert _recover(tmp_path, "ltc", {"k_window": 10_000, "train": train}) == 0
    assert json.loads((tmp_path / "result.json").read_text())["loss_history"]


@pytest.mark.parametrize(
    "config,keys",
    [({"train": {"explicit_loss": True}}, "unknown TrainConfig keys: explicit_loss"),
     ({"bogus": 1, "sindy_thresh": 0.1}, "unknown ExperimentConfig keys: bogus, sindy_thresh")],
    ids=["train", "experiment"],
)
def test_recover_rejects_unknown_config_keys(config, keys, tmp_path, capsys):
    assert _recover(tmp_path, "sindyc", config) == 1
    assert keys in capsys.readouterr().err


@pytest.mark.parametrize("arch", ["ltc", "ctrnn", "node"])
def test_generate_then_recover_neural(arch, tmp_path):
    data = tmp_path / "data"
    overrides = json.dumps({"n_traces": 2, "k": 200})
    assert cli.main(["generate", "--system", "lotka_volterra", "--seed", "1",
                     "--out", str(data), "--overrides", overrides]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k_window": 100, "train": {
        "epochs": 1, "hidden_width": 4, "head_layers": [6], "shift_channels": [0]}}))
    out = tmp_path / "result.json"
    assert cli.main(["recover", "--arch", arch, "--data", str(data),
                     "--config", str(config), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["arch"] == arch and doc["system"] == "lotka_volterra_unit"
    assert len(doc["coeffs_est"]) == len(doc["coeff_names"]) == 4
    assert len(doc["shifts"]) == 1 and len(doc["loss_history"]) == 1
    assert math.isfinite(doc["loss_history"][0]) and doc["rmse_y"] >= 0


def _sweep(tmp_path, experiment, arch, out_name, *flags, **fields):
    """Run ``physrec sweep`` on a tiny config; return its exit code and report path."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "arch": arch,
        "injected_shifts": [3],
        "generation": {"n_traces": 2, "k": 200},
        "train": {"epochs": 1, "hidden_width": 4, "solve_substeps": 2},
        **fields,
    }))
    out = tmp_path / out_name
    code = cli.main(["sweep", "--experiment", experiment, "--config", str(config),
                     "--out", str(out), *flags])
    return code, out


SHIFT_POINTS = [("baseline", 1), ("shift=3/search_off", 1), ("shift=3/search_on", 1)]
EEG_POINTS = [("input=sine", 1), ("input=wiener", 1)]


@pytest.mark.parametrize(
    "experiment,arch,system,points",
    [
        ("eeg", "ltc", "eeg_dvdp", EEG_POINTS),
        ("eeg", "sindyc", "eeg_dvdp", EEG_POINTS),
        ("aid", "ltc", "bergman_aid", SHIFT_POINTS),
        ("c1", "ltc", "lotka_volterra",
         [("factor=1", 1), ("factor=3", 3), ("factor=7", 7), ("factor=20", 20)]),
        ("c2", "ltc", "lotka_volterra", [("perturbed", 20), ("unperturbed", 20)]),
        ("c5", "ltc", "lotka_volterra", SHIFT_POINTS),
        ("single", "sindyc", "lotka_volterra", [("single", 20)]),
    ],
)
def test_sweep_fits_the_preset_system(experiment, arch, system, points, tmp_path):
    code, out = _sweep(tmp_path, experiment, arch, "rows.json")
    assert code == 0
    rows = json.loads(out.read_text())
    # the sweep's points, in row order, with their decimation factors
    assert [(row["point"], row["sampling_factor"]) for row in rows] == points
    for row in rows:
        assert row["status"] == "ok", row["status"]
        assert row["system"] == system and row["experiment"] == experiment


def test_sweep_fails_loudly_when_every_row_fails(tmp_path, capsys):
    # one observed state: every point fails the baseline's full-state check
    code, out = _sweep(tmp_path, "c1", "sindyc", "rows.json", mask=[1, 0])
    assert code == 1
    rows = json.loads(out.read_text())
    assert len(rows) == 4
    assert all(row["status"].startswith("error: ") for row in rows)
    err = capsys.readouterr().err
    assert "0 ok, 4 failed" in err
    assert err.count("needs full-state data") == 4


def test_sweep_reports_diverged_replays(tmp_path, capsys):
    # the SINDYc model fitted at the coarsest rate diverges on replay: the
    # row stays ok, carries the count, and the summary says so
    code, out = _sweep(tmp_path, "c1", "sindyc", "rows.json", generation={"n_traces": 1})
    assert code == 0
    rows = json.loads(out.read_text(), parse_constant=_refuse_constant)
    assert [row["status"] for row in rows] == ["ok"] * 4
    assert [row["diverged_windows"] for row in rows] == [0, 0, 0, 1]
    # strict JSON: the inf is the CSV report's text
    assert rows[-1]["rmse_y"] == "inf" and np.isfinite(rows[0]["rmse_y"])
    err = capsys.readouterr().err
    assert f"physrec: {rows[-1]['point']}: rmse_y inf, diverged replay windows: 1" in err
    assert "4 ok, 0 failed; diverged replay windows: 1" in err


@pytest.mark.parametrize(
    "experiment,fmt",
    [("c1", "csv"), ("c1", "json"), ("c5", "csv"), ("c5", "json"),
     ("c2", "csv"), ("aid", "csv"), ("eeg", "csv"), ("single", "csv")],
)
def test_identical_sweeps_write_identical_reports(experiment, fmt, tmp_path):
    # c5 and aid simulate once and package the truth once per injected shift
    reports = []
    for name in (f"a.{fmt}", f"b.{fmt}"):
        code, out = _sweep(tmp_path, experiment, "ltc", name)
        assert code == 0
        reports.append(out.read_bytes())
    code, timed = _sweep(tmp_path, experiment, "ltc", f"timed.{fmt}", "--include-runtime")
    assert code == 0
    assert reports[0] == reports[1]
    assert b"runtime_s" not in reports[0]
    assert b"runtime_s" in timed.read_bytes()


@pytest.mark.parametrize(
    "command,config,message",
    [
        ("generate", [1], "--overrides must be a JSON object, got list"),
        ("sweep", [1], "ExperimentConfig config must be a JSON object, got list"),
        ("recover", [1], "ExperimentConfig config must be a JSON object, got list"),
        ("recover", {"train": [1]}, "ExperimentConfig.train must be a JSON object, got list"),
    ],
    ids=["generate", "sweep", "recover", "recover-train"],
)
def test_a_config_that_is_not_a_json_object_is_named(command, config, message, tmp_path, capsys):
    out = tmp_path / "out"
    if command == "generate":
        argv = ["generate", "--system", "scalar", "--overrides", json.dumps(config)]
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = ["sweep", "--experiment", "c1"] if command == "sweep" else [
            "recover", "--arch", "sindyc", "--data", str(tmp_path / "data")]
        argv += ["--config", str(path)]
    assert cli.main([*argv, "--out", str(out)]) == 1
    assert not out.exists()
    assert f"physrec: error: {message}\n" in capsys.readouterr().err


def test_nyquist_prints_the_rate_of_the_loaded_traces(tmp_path, capsys):
    # a pure 2 Hz tone sampled at 50 Hz: the 90%-power rate is twice the tone
    path = tmp_path / "tone.csv"
    t = np.arange(500) / 50.0
    path.write_text("t,y1\n" + "".join(
        f"{ti!r},{yi!r}\n" for ti, yi in zip(t.tolist(), np.sin(2 * np.pi * 2.0 * t).tolist())
    ))
    assert cli.main(["nyquist", "--data", str(path)]) == 0
    rate = data_nyquist_rate(load_real_csv(path))
    assert capsys.readouterr().out == f"{rate:.6g}\n"
    assert rate == pytest.approx(4.0)


@pytest.mark.parametrize(
    "overrides,meta",
    [({}, {"perturbation": True, "injected_shift": 0}),
     ({"perturbation": False}, {"perturbation": False, "injected_shift": 0}),
     ({"injected_shift": 10}, {"perturbation": True, "injected_shift": 10}),
     ({"perturbation": False, "injected_shift": 4}, {"perturbation": False, "injected_shift": 4})],
)
def test_generate_applies_the_perturbation_and_shift_overrides(overrides, meta, tmp_path):
    out = tmp_path / "data"
    code = cli.main(["generate", "--system", "lotka_volterra", "--seed", "1", "--out", str(out),
                     "--overrides", json.dumps({"n_traces": 1, "k": 100, **overrides})])
    assert code == 0
    saved = load_dataset(out)[3]
    assert {key: saved[key] for key in meta} == meta


@pytest.mark.parametrize(
    "system,overrides,message",
    [
        ("lotka_volterra", {"n_trace": 2}, "preset 'lotka_volterra' reads no override 'n_trace'"),
        ("scalar", {"input_kind": "sine"}, "preset 'scalar' reads no override 'input_kind'"),
        ("bergman_aid", {"perturbation": False}, "preset 'bergman_aid' has no unperturbed"),
        ("eeg_dvdp", {"perturbation": False}, "preset 'eeg_dvdp' has no unperturbed variant"),
        ("bergman_aid", {"dt": 1.0}, "meals fall up to 400 min"),
        ("bergman_aid", {"injected_shift": -150}, "injected_shift must be >= 0 samples"),
        ("eeg_dvdp", {"injected_shift": -5}, "injected_shift must be >= 0 samples"),
    ],
)
def test_generate_rejects_what_the_preset_cannot_do(system, overrides, message, tmp_path, capsys):
    out = tmp_path / "data"
    code = cli.main(["generate", "--system", system, "--out", str(out),
                     "--overrides", json.dumps(overrides)])
    assert code == 1 and not out.exists()
    assert message in capsys.readouterr().err



@pytest.mark.parametrize("command", ["generate", "sweep", "recover"])
def test_invalid_json_names_the_flag_or_the_file(command, tmp_path, capsys):
    # the decoder's own message, line and column are kept
    out = tmp_path / "out"
    if command == "generate":
        source, decoded = "--overrides", "Expecting value: line 1 column 14 (char 13)"
        argv = ["generate", "--system", "scalar", "--overrides", '{"n_traces": }']
    else:
        path = tmp_path / "config.json"
        path.write_text('{"train": {"epochs": 1,\n')  # truncated
        source = str(path)
        decoded = "Expecting property name enclosed in double quotes: line 2 column 1 (char 24)"
        argv = ["sweep", "--experiment", "c1"] if command == "sweep" else [
            "recover", "--arch", "sindyc", "--data", str(tmp_path / "data")]
        argv += ["--config", source]
    assert cli.main([*argv, "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == f"physrec: error: {source}: not valid JSON ({decoded})\n"
