"""End-to-end tests of the command-line entry points."""

import json
import math

import pytest

from physrec import cli


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
                        "rmse_y", "rmse_coeffs", "loss_history"}
    assert doc["arch"] == "sindyc"
    assert doc["shifts"] == [] and doc["loss_history"] == []
    assert len(doc["coeffs_est"]) == len(doc["coeff_names"]) == 4
    assert doc["rmse_y"] >= 0 and doc["rmse_coeffs"] >= 0


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


@pytest.mark.parametrize(
    "experiment,arch,system,n_rows",
    [
        ("eeg", "ltc", "eeg_dvdp", 2),
        ("eeg", "sindyc", "eeg_dvdp", 2),
        ("aid", "ltc", "bergman_aid", 3),
        ("c1", "ltc", "lotka_volterra", 4),
        ("c2", "ltc", "lotka_volterra", 2),
        ("c5", "ltc", "lotka_volterra", 3),
    ],
)
def test_sweep_fits_the_preset_system(experiment, arch, system, n_rows, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "arch": arch,
        "injected_shifts": [3],
        "generation": {"n_traces": 2, "k": 200},
        "train": {"epochs": 1, "hidden_width": 4, "unfold_substeps": 2, "solve_substeps": 2},
    }))
    out = tmp_path / "rows.json"
    assert cli.main(["sweep", "--experiment", experiment, "--config", str(config),
                     "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == n_rows
    for row in rows:
        assert row["status"] == "ok", row["status"]
        assert row["system"] == system and row["experiment"] == experiment
