"""End-to-end tests of the command-line entry points."""

import json

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
