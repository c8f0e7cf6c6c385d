"""Tests for the experiment harness."""

import csv
import io
import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from physrec import harness
from physrec.dynamics import ConfigError, SpecError, from_json
from physrec.harness import (
    ExperimentConfig,
    ReportRow,
    _sindy_rmse_y,
    data_nyquist_rate,
    emit_report,
    generate_benchmark_data,
    load_real_csv,
    run_experiment,
)
from physrec.neural import TrainConfig, replay, train
from physrec.signals import Trace, make_batches, rmse_signal
from physrec.sindy import build_library, library_columns


def reference_sindy_rmse_y(xi, columns, traces, last_stage_reads_next=False):
    """Plain RK4 per trace, one step per sample, rebuilding the library at
    every stage; all four stages of step j read u[j].  With
    ``last_stage_reads_next`` the last stage reads u[j+1] instead, the
    hold rule the solver used to have."""

    def rhs(x, u):
        return build_library(columns, x[:, None], u[:, None])[0] @ xi

    rmses = []
    for tr in traces:
        x = tr.y[:, 0].copy()
        est = np.empty_like(tr.y)
        est[:, 0] = x
        ok = True
        with np.errstate(all="ignore"):
            for j in range(tr.k - 1):
                u0 = tr.u[:, j]
                u1 = tr.u[:, j + 1] if last_stage_reads_next else u0
                h = tr.dt
                k1 = rhs(x, u0)
                k2 = rhs(x + 0.5 * h * k1, u0)
                k3 = rhs(x + 0.5 * h * k2, u0)
                k4 = rhs(x + h * k3, u1)
                x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > 1e9:
                    ok = False
                    break
                est[:, j + 1] = x
        rmses.append(rmse_signal(est, tr.y) if ok else float("inf"))
    return float(np.mean(rmses))


def _lv_data():
    spec, coeffs, traces, _ = generate_benchmark_data(
        "lotka_volterra", {"n_traces": 3, "k": 300}, seed=4
    )
    return spec, coeffs, traces


def test_sindy_rmse_y_matches_plain_rk4(sindyc_fit):
    spec, coeffs, traces = _lv_data()
    cfg = ExperimentConfig(sindy_degree=2, sindy_threshold=0.05)
    xi, columns, _ = sindyc_fit(spec, coeffs, traces[:1], cfg)
    # the fit keeps no input term; give x1 one (u1) and the traces an input
    # step half way through, so that the hold rule shows in the replay
    xi[columns.index(((0, 0), 0)), 0] = 1.0
    steps = [
        Trace(tr.t0, tr.dt, tr.y, np.where(np.arange(tr.k) < tr.k // 2, 0.0, 0.05)[None, :],
              tr.labels, dict(tr.meta))
        for tr in traces
    ]
    got, diverged = _sindy_rmse_y(xi, columns, steps)
    assert diverged == 0
    want = reference_sindy_rmse_y(xi, columns, steps)
    assert np.isfinite(want) and want > 0
    assert abs(got - want) <= 1e-12 * want
    old = reference_sindy_rmse_y(xi, columns, steps, last_stage_reads_next=True)
    assert abs(old - want) > 1e-12 * want


def test_sindy_rmse_y_divergent_model_is_inf():
    traces = _lv_data()[2]
    columns = library_columns(2, 1, 2)
    xi = np.zeros((len(columns), 2))
    xi[columns.index(((2, 0), None)), 0] = 50.0  # x1' = 50 x1^2 blows up within the trace
    assert reference_sindy_rmse_y(xi, columns, traces) == float("inf")
    assert _sindy_rmse_y(xi, columns, traces) == (float("inf"), len(traces))


def test_sindyc_scores_traces_of_unequal_length_as_each_alone(sindyc_fit):
    spec, coeffs, traces = _lv_data()
    first, second = traces[:2]
    cut = replace(second, y=second.y[:, :-50], u=second.u[:, :-50])
    xi, columns, result = sindyc_fit(spec, coeffs, [first, cut], ExperimentConfig())
    alone = [_sindy_rmse_y(xi, columns, [tr]) for tr in (first, cut)]
    assert all(np.isfinite(rmse) and rmse > 0 for rmse, _ in alone)
    assert result.rmse_y == float(np.mean([rmse for rmse, _ in alone]))
    assert result.diverged_windows == 0 == sum(n for _, n in alone)


def test_experiment_digest_is_stable():
    # digests label report rows, so a config must keep its digest
    assert ExperimentConfig().digest() == "0db096f123ab"
    cfg = ExperimentConfig(
        experiment="aid",
        system="bergman_aid",
        mask=(1, 0, 1),
        generation=(("injected_shift", 10), ("n_traces", 2)),
        train=TrainConfig(epochs=3, shift_channels=(1,), head_layers=(16, 8), hidden_width=4),
    )
    assert cfg.digest() == "b2f2f6e33869"


def test_experiment_config_json_round_trip():
    pinned = {
        "0db096f123ab": ExperimentConfig(),
        "b2f2f6e33869": ExperimentConfig(
            experiment="aid",
            system="bergman_aid",
            mask=(1, 0, 1),
            generation=(("injected_shift", 10), ("n_traces", 2)),
            train=TrainConfig(epochs=3, shift_channels=(1,), head_layers=(16, 8), hidden_width=4),
        ),
    }
    for digest, cfg in pinned.items():
        back = from_json(ExperimentConfig, json.loads(json.dumps(asdict(cfg))))
        assert back == cfg
        assert back.digest() == digest


def test_experiment_config_from_json_normalizes_arrays():
    cfg = from_json(ExperimentConfig, {
        "mask": [1, 0],
        "injected_shifts": [5],
        "generation": {"n_traces": 2, "k": 300},
        "train": {"epochs": 2, "head_layers": [8]},
    })
    assert cfg.mask == (1, 0) and cfg.injected_shifts == (5,)
    assert cfg.generation == (("k", 300), ("n_traces", 2))
    assert cfg.train == TrainConfig(epochs=2, head_layers=(8,))
    pairs = from_json(ExperimentConfig, {"generation": [["n_traces", 2], ["k", 300]]})
    assert pairs.generation == cfg.generation


@pytest.mark.parametrize("points", [0, -2])
def test_experiment_config_rejects_rate_points_below_one(points):
    message = f"ExperimentConfig.rate_points must be >= 1, got {points}"
    with pytest.raises(SpecError, match=message):
        from_json(ExperimentConfig, {"rate_points": points})


def test_c5_generation_honours_perturbation(monkeypatch):
    seen = []
    simulate = harness._simulate

    def spy(preset, overrides, seed):
        seen.append(dict(overrides))
        return simulate(preset, overrides, seed)

    monkeypatch.setattr(harness, "_simulate", spy)
    cfg = ExperimentConfig(
        experiment="c5",
        injected_shifts=(3,),
        k_window=50,
        generation=(("k", 200), ("n_traces", 1), ("perturbation", False)),
        train=TrainConfig(epochs=0, hidden_width=4, solve_substeps=1),
    )
    rows = run_experiment(cfg)
    assert [r.status for r in rows] == ["ok"] * 3
    assert len(seen) == 1
    assert seen[0].get("perturbation") is False, seen


@pytest.mark.parametrize(
    "experiment,perturbation,seen",
    [("c1", False, [False]), ("c1", True, [True]), ("single", False, [False]),
     ("c2", False, [True, False]), ("c2", True, [True, False])],
)
def test_sweeps_generate_what_the_generation_overrides_say(
    experiment, perturbation, seen, monkeypatch
):
    # c2 sets perturbation on each of its two points; every other sweep
    # passes the generation overrides through unchanged
    calls = []
    generate = harness.generate_benchmark_data

    def spy(system, overrides, seed):
        calls.append(overrides["perturbation"])
        return generate(system, overrides, seed)

    monkeypatch.setattr(harness, "generate_benchmark_data", spy)
    cfg = ExperimentConfig(
        experiment=experiment,
        arch="sindyc",
        generation=(("k", 300), ("n_traces", 1), ("perturbation", perturbation)),
    )
    rows = run_experiment(cfg)
    assert calls == seen
    assert [r.status for r in rows] == ["ok"] * len(rows)


@pytest.mark.parametrize("experiment", ["c5", "aid"])
def test_shift_sweeps_make_one_generation_solve(experiment, monkeypatch):
    solves = []
    integrate = harness.integrate_batch

    def spy(*args, **kwargs):
        solves.append(args[1].shape[0])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(harness, "integrate_batch", spy)
    cfg = ExperimentConfig(
        experiment=experiment,
        injected_shifts=(3, 10, 20),
        k_window=50,
        generation=(("k", 200), ("n_traces", 2)),
        train=TrainConfig(epochs=0, hidden_width=4, solve_substeps=1),
    )
    rows = run_experiment(cfg)
    assert [r.status for r in rows] == ["ok"] * 7
    assert solves == [2]  # the ltc fits solve through neural's own binding
    # a negative shift is refused when the config is built, before any solve
    with pytest.raises(SpecError, match=r"^ExperimentConfig\.injected_shifts must be whole "
                                        r"numbers >= 0, got \(3, -1\)$"):
        replace(cfg, injected_shifts=(3, -1))


TINY_PRESETS = [
    ("scalar", {"n_traces": 2, "k": 100}),
    ("scalar", {"n_traces": 2, "k": 100, "perturbation": False}),
    ("lorenz", {"n_traces": 2, "k": 200}),
    ("lorenz", {"n_traces": 2, "k": 200, "perturbation": False}),
    ("lotka_volterra", {"n_traces": 2, "k": 300}),
    ("lotka_volterra", {"n_traces": 2, "k": 300, "perturbation": False}),
    ("bergman_aid", {"n_traces": 3, "k": 120}),
    ("eeg_dvdp", {"n_traces": 2, "k": 100}),
    ("eeg_dvdp", {"n_traces": 2, "k": 100, "input_kind": "wiener"}),
]


def _rendered_pulses(times, pulses, lead):
    return sum(
        a * np.exp(-0.5 * ((times - (c - lead)) / w) ** 2)
        for c, w, a in zip(pulses["centers"], pulses["widths"], pulses["amps"])
    ) + np.zeros_like(times)


@pytest.mark.parametrize("system,overrides", TINY_PRESETS)
def test_presets_report_one_truth_at_any_shift(system, overrides):
    _, _, base, meta = generate_benchmark_data(system, overrides, seed=3)
    assert meta["injected_shift"] == 0 and len(base) == overrides["n_traces"]
    for shift in (3, 10):
        _, _, shifted, meta = generate_benchmark_data(
            system, {**overrides, "injected_shift": shift}, seed=3
        )
        assert meta["injected_shift"] == shift
        for tr0, tr in zip(base, shifted):
            assert np.array_equal(tr.y, tr0.y) and tr.labels == tr0.labels
            assert tr.meta["injected_shift"] == shift
            times, u0, u = tr.dt * np.arange(tr.k), tr0.u, tr.u
            if system == "bergman_aid":
                # the insulin input is reported on time, the meal early
                assert np.array_equal(u[0], u0[0])
                (_, t_true, carbs), (_, t_rep, carbs_rep) = (
                    tr.meta["event_true"], tr.meta["event_reported"]
                )
                idx = round(t_true / tr.dt)
                assert carbs_rep == carbs and t_rep == max(idx - shift, 0) * tr.dt
                assert u0[1, idx] == u[1, max(idx - shift, 0)] == carbs
                assert np.count_nonzero(u[1]) == 1
            elif system == "eeg_dvdp":
                assert np.array_equal(u[:, :-shift], u0[:, shift:])
                assert not np.any(u[:, -shift:])
            else:
                key = "kicks" if system == "lotka_volterra" else "pulses"
                if overrides.get("perturbation", True):
                    np.testing.assert_allclose(
                        u[0], _rendered_pulses(times, tr.meta[key], shift * tr.dt),
                        rtol=1e-12, atol=1e-12,
                    )
                    np.testing.assert_allclose(
                        u0[0], _rendered_pulses(times, tr.meta[key], 0.0), rtol=1e-12, atol=1e-12
                    )
                    assert np.any(u0)
                else:
                    assert not np.any(u) and not np.any(u0)


@pytest.mark.parametrize("system,overrides", TINY_PRESETS)
def test_true_coefficients_replay_the_generated_data(system, overrides):
    # the rmse_y floor: the true model, replayed at TrainConfig's default
    # solve_substeps, reproduces the data generated at the preset's
    # gen_substeps.  train replays at one step instead only where its step
    # check finds one step within 1e-6 relative RMS of solve_substeps
    spec, coeffs, traces, _ = generate_benchmark_data(system, overrides, seed=3)
    rows = np.repeat(coeffs.values[None, :], len(traces), axis=0)
    y_est, diverged, _ = replay(
        spec, rows, np.stack([tr.u for tr in traces]), np.stack([tr.y for tr in traces]),
        list(range(spec.n)), traces[0].dt, TrainConfig().solve_substeps,
    )
    assert not np.any(diverged)
    for est, tr in zip(y_est, traces):
        assert rmse_signal(est, tr.y) <= 1e-6 * np.sqrt(np.mean(tr.y**2))


@pytest.mark.parametrize("system,overrides", TINY_PRESETS)
def test_generation_substeps_are_within_1e_6_of_a_fine_solve(system, overrides, monkeypatch):
    coarse = harness._simulate(system, overrides, seed=0).states
    monkeypatch.setitem(
        harness._PRESETS, system, replace(harness._PRESETS[system], gen_substeps=40)
    )
    fine = harness._simulate(system, overrides, seed=0).states
    assert np.linalg.norm(coarse - fine) <= 1e-6 * np.linalg.norm(fine)


BAD_GENERATION = [
    ("lotka_volterra", {"n_trace": 2}, r"preset 'lotka_volterra' reads no override 'n_trace'"),
    ("scalar", {"input_kind": "wiener"}, r"preset 'scalar' reads no override 'input_kind'"),
    ("bergman_aid", {"perturbation": False}, r"preset 'bergman_aid' has no unperturbed variant"),
    ("eeg_dvdp", {"perturbation": False}, r"preset 'eeg_dvdp' has no unperturbed variant"),
    ("bergman_aid", {"k": 50}, r"bergman_aid.*400 min"),
    ("bergman_aid", {"k": 80}, r"bergman_aid.*400 min"),
    ("bergman_aid", {"dt": 1.0}, r"bergman_aid.*400 min"),
    ("bergman_aid", {"injected_shift": -150}, r"injected_shift must be >= 0"),
    ("eeg_dvdp", {"injected_shift": -5}, r"injected_shift must be >= 0"),
    ("eeg_dvdp", {"input_kind": "pink"}, r"unknown input_kind 'pink'"),
]


@pytest.mark.parametrize("system,overrides,message", BAD_GENERATION)
def test_generation_rejects_what_a_preset_cannot_do(system, overrides, message):
    with pytest.raises(ConfigError, match=message):
        generate_benchmark_data(system, {"n_traces": 1, "k": 100, **overrides}, seed=0)


@pytest.mark.parametrize("experiment", ["aid", "eeg"])
def test_shift_and_eeg_sweeps_reject_an_unperturbed_preset(experiment):
    cfg = ExperimentConfig(experiment=experiment, generation=(("perturbation", False),))
    with pytest.raises(ConfigError, match=r"has no unperturbed variant"):
        run_experiment(cfg)


def test_c2_records_a_preset_without_an_unperturbed_variant():
    cfg = ExperimentConfig(
        experiment="c2",
        system="bergman_aid",
        k_window=50,
        generation=(("n_traces", 2),),
        train=TrainConfig(epochs=0, hidden_width=4, solve_substeps=1),
    )
    rows = run_experiment(cfg)
    assert [r.point for r in rows] == ["perturbed", "unperturbed"]
    assert rows[0].status == "ok"
    assert rows[1].status.startswith("error: preset 'bergman_aid' has no unperturbed variant")


def test_report_json_round_trip(tmp_path):
    rows = [
        ReportRow("abc", "c5", "lotka_volterra", "ltc", "shift=3/search_on", 1, 0.25, 0.5,
                  (0.1, 0.2), (3.5,), 1.0, 7),
        ReportRow("abc", "c5", "lotka_volterra", "ltc", "baseline", 2, 1.5, 2.5, (), (), 2.0,
                  7, status="error: boom"),
    ]
    path = tmp_path / "rows.json"
    emit_report(rows, "json", path)
    with open(path) as fh:
        got = json.load(fh)
    want = [
        {k: list(v) if isinstance(v, tuple) else v for k, v in vars(r).items() if k != "runtime_s"}
        for r in rows
    ]
    assert got == want


def _strict_json(path):
    """The JSON document at ``path``, refusing ``Infinity`` and ``NaN``."""

    def refuse(name):
        raise ValueError(f"{path}: non-standard JSON constant {name}")

    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


def test_report_json_is_strict_and_matches_the_csv(tmp_path):
    rows = [
        ReportRow("abc", "c1", "lotka_volterra", "sindyc", "factor=60", 60, 0.75, float("inf"),
                  (0.5, float("-inf")), (), 1.0, 7, diverged_windows=1),
        ReportRow("abc", "c1", "lotka_volterra", "sindyc", "factor=1", 1, float("nan"),
                  float("nan"), (), (), 2.0, 7, status="error: boom"),
    ]
    emit_report(rows, "json", tmp_path / "rows.json")
    emit_report(rows, "csv", tmp_path / "rows.csv")
    got = _strict_json(tmp_path / "rows.json")
    with open(tmp_path / "rows.csv", newline="") as fh:
        header, *body = csv.reader(fh)

    def as_csv_text(v):
        if isinstance(v, list):
            return ";".join(x if isinstance(x, str) else repr(float(x)) for x in v)
        return repr(v) if isinstance(v, float) else str(v)

    assert [list(doc) for doc in got] == [header] * 2
    assert [[as_csv_text(v) for v in doc.values()] for doc in got] == body
    assert got[0]["rmse_y"] == "inf" and got[0]["coeff_errors"] == [0.5, "-inf"]
    assert got[1]["rmse_coeffs"] == got[1]["rmse_y"] == "nan"


def test_load_real_csv_splits_at_gaps(tmp_path):
    # dt = 0.5; the 2.0 gap after t=1.5 is longer than 2 dt
    trace_path = tmp_path / "trace.csv"
    times = [0.0, 0.5, 1.0, 1.5, 3.5, 4.0, 4.5]
    trace_path.write_text(
        "t,y1,y2\n" + "".join(f"{t},{i % 2},{10.0 + i}\n" for i, t in enumerate(times))
    )
    traces = load_real_csv(trace_path)
    assert [(tr.t0, tr.dt, tr.k, tr.m) for tr in traces] == [(0.0, 0.5, 4, 0), (3.5, 0.5, 3, 0)]
    assert np.array_equal(traces[0].y, [[0.0, 1.0, 0.0, 1.0], [10.0, 11.0, 12.0, 13.0]])
    assert np.array_equal(traces[1].y, [[0.0, 1.0, 0.0], [14.0, 15.0, 16.0]])
    assert traces[1].labels == ("y1", "y2")


def test_load_real_csv_names_a_ragged_row(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t,y1,y2\n0.0,1.0,2.0\n0.1,1.0\n0.2,1.0,2.0\n")
    with pytest.raises(ConfigError, match=r"trace\.csv:3: 2 values for 3 columns"):
        load_real_csv(path)


def test_load_real_csv_accepts_quotes_crlf_blank_lines_and_spaces(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_bytes(
        b' t ,"y1", y2 \r\n"0.0","1.5", 2\r\n\r\n 0.5 ,-1.5 ,"3"\r\n\r\n1.0, 0.25,4 \r\n'
    )
    (tr,) = load_real_csv(path)
    assert (tr.t0, tr.dt, tr.k, tr.labels) == (0.0, 0.5, 3, ("y1", "y2"))
    assert np.array_equal(tr.y, [[1.5, -1.5, 0.25], [2.0, 3.0, 4.0]])


CSV_ERRORS = [
    ("t,y1\n0.0,1.0\n0.5,x\n", r"trace\.csv:3: non-numeric value"),
    ("t,y1\n0.0,1.0\n\n0.5,\n", r"trace\.csv:4: non-numeric value"),
    ("t,y1\n0.0,1\n0.5,1\n\n1.0,1\n1.6,1\n2.1,1\n", r"trace\.csv:6: non-uniform sample spacing"
     r" \(0.6 vs 0.5\)"),
    ("t,y1\n0.0,1\n0.5,1\n1.0,1\n1.0,1\n", r"trace\.csv:5: non-uniform sample spacing \(0 vs"),
    ("t,y1\n0.0,1\n0.0,1\n", r"trace\.csv: times must be strictly increasing"),
    ("time,y1\n0.0,1\n0.5,1\n", r"trace\.csv: first column must be 't'"),
    ("", r"trace\.csv: first column must be 't'"),
    ("t,y1\n0.0,1\n", r"trace\.csv: need at least two samples"),
    ("t,y1\n\r\n\n", r"trace\.csv: need at least two samples"),
    ("t,y1,y2\n0.0,1,2\n0.5,1,2,3\n", r"trace\.csv:3: 4 values for 3 columns"),
    ("t,y1\n\n0.0,1,2\n0.5,1,2\n", r"trace\.csv:3: 3 values for 2 columns"),
    # non-finite fields fail before the spacing checks, which would warn on them
    ("t,y1\n0.0,1\n0.5,nan\n1.0,1\n", r"trace\.csv:3: non-finite value"),
    ("t,y1\nnan,2\n0.5,1\n1.0,1\n", r"trace\.csv:2: non-finite value"),
    ("t,y1\n0.0,1\n0.5,1\n\n1,inf\n", r"trace\.csv:5: non-finite value"),
    # a segment of one sample between gaps longer than 2 dt, or at either end
    ("t,y1\n0,1\n0.5,1\n1,1\n3,1\n5,1\n5.5,1\n", r"trace\.csv:5: lone sample at t=3; a segment"),
    ("t,y1\n0,1\n2,1\n2.5,1\n3,1\n", r"trace\.csv:2: lone sample at t=0;"),
    ("t,y1\n0,1\n0.5,1\n1,1\n\n3,1\n", r"trace\.csv:6: lone sample at t=3;"),
    # loads, but a segment is too short for the Nyquist rate estimate
    ("t,y1\n0,1\n0.5,2\n1,1\n1.5,2\n3.5,1\n4,2\n",
     r"segment starting at t=3\.5 has 2 samples; the Nyquist rate estimate needs at least 4"),
]


@pytest.mark.parametrize("text,message", CSV_ERRORS)
def test_load_real_csv_names_what_is_wrong(text, message, tmp_path):
    # the ``physrec nyquist`` path: load, then estimate the rate
    path = tmp_path / "trace.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        data_nyquist_rate(load_real_csv(path))


def test_write_trace_csv_golden_bytes(tmp_path):
    path = tmp_path / "trace.csv"
    tr = Trace(0.0, 0.1, np.array([[-0.0, 1e16, 1.0]]), np.array([[1e-05, 0.1 + 0.2, -2.5]]),
               ("x1", "u1"))
    harness.write_trace_csv(tr, path)
    assert path.read_bytes() == (
        b"t,x1,u1\r\n"
        b"0.0,-0.0,1e-05\r\n"
        b"0.1,1e+16,0.30000000000000004\r\n"
        b"0.2,1.0,-2.5\r\n"
    )


def reference_trace_csv(tr) -> bytes:
    """The trace CSV written one sample at a time: ``repr`` of
    ``t0 + j * dt`` and of every value, through ``csv.writer``."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["t", *tr.labels])
    for j in range(tr.k):
        values = (tr.t0 + j * tr.dt, *tr.y[:, j], *tr.u[:, j])
        writer.writerow([repr(float(v)) for v in values])
    return fh.getvalue().encode()


@pytest.mark.parametrize("system,overrides", TINY_PRESETS)
def test_dataset_round_trip_is_bit_exact(system, overrides, tmp_path):
    spec, coeffs, traces, meta = generate_benchmark_data(
        system, {**overrides, "injected_shift": 3}, seed=5
    )
    harness.save_dataset(tmp_path, spec, coeffs, traces, meta)
    for i, tr in enumerate(traces):
        assert (tmp_path / f"trace_{i:03d}.csv").read_bytes() == reference_trace_csv(tr)
    spec2, coeffs2, loaded, _ = harness.load_dataset(tmp_path)
    assert spec2 == spec and coeffs2.values.tobytes() == coeffs.values.tobytes()
    assert len(loaded) == len(traces)
    for tr, got in zip(traces, loaded):
        assert (got.t0, got.dt, got.labels) == (tr.t0, tr.dt, tr.labels)
        assert got.y.tobytes() == tr.y.tobytes() and got.u.tobytes() == tr.u.tobytes()
        assert got.y.flags.c_contiguous and got.u.flags.c_contiguous


def test_training_on_a_reloaded_dataset_is_bit_identical(tmp_path):
    # 0.1 s written as times reads back as 0.09999999999999998 s of median spacing
    spec, coeffs, traces, meta = generate_benchmark_data(
        "lotka_volterra", {"n_traces": 2, "k": 300, "injected_shift": 3}, seed=5
    )
    harness.save_dataset(tmp_path, spec, coeffs, traces, meta)
    loaded = harness.load_dataset(tmp_path)[2]
    cfg = TrainConfig(epochs=1, hidden_width=4, head_layers=(6,), shift_channels=(0,))
    results = [
        train("ltc", spec, make_batches(trs, cfg.batch_size, 50, 0.75, seed=cfg.seed), cfg, coeffs)
        for trs in (traces, loaded)
    ]
    want, got = ((r.coeffs.values, r.shifts, r.loss_history, r.rmse_y) for r in results)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert got[2:] == want[2:]


def test_load_dataset_rejects_a_spacing_that_differs_from_meta_dt(tmp_path):
    spec, coeffs, traces, meta = generate_benchmark_data("scalar", {"n_traces": 2, "k": 100}, seed=5)
    harness.save_dataset(tmp_path, spec, coeffs, traces, {**meta, "dt": meta["dt"] * 1.001})
    with pytest.raises(ConfigError, match=r"trace_000\.csv: sample spacing 0\.1 differs"):
        harness.load_dataset(tmp_path)


def test_load_dataset_rejects_a_trace_with_a_gap(tmp_path):
    spec, coeffs, traces, meta = generate_benchmark_data("scalar", {"n_traces": 2, "k": 100}, seed=5)
    harness.save_dataset(tmp_path, spec, coeffs, traces, meta)
    path = tmp_path / "trace_001.csv"
    lines = path.read_bytes().splitlines(keepends=True)
    t_before, t_after = (float(lines[i].split(b",")[0]) for i in (40, 44))
    path.write_bytes(b"".join(lines[:41] + lines[44:]))  # samples 40-42 deleted
    with pytest.raises(ConfigError) as err:
        harness.load_dataset(tmp_path)
    assert str(err.value) == (
        f"{path}: samples missing between t={t_before:.9g} and t={t_after:.9g}"
    )


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda doc: doc["traces"][0].pop("file"), "traces[0]: missing required field 'file'"),
        (lambda doc: doc.update(traces=5), "traces must be a list, got 5"),
        (lambda doc: doc["traces"][1].update(file=3), "traces[1].file must be str, got 3"),
        (lambda doc: doc["traces"][0].update(meta=[1]), "traces[0].meta must be a JSON object"),
        (lambda doc: doc["traces"][0]["meta"].update(mask=1),
         "traces[0].meta.mask must be [int, ...], got 1"),
        (lambda doc: doc.pop("dataset"), "dataset must be a JSON object, got None"),
    ],
    ids=["no-file", "traces-int", "file-int", "meta-list", "mask-int", "no-dataset"],
)
def test_load_dataset_names_the_meta_json_field(edit, message, tmp_path):
    spec, coeffs, traces, meta = generate_benchmark_data("scalar", {"n_traces": 2, "k": 50}, seed=5)
    harness.save_dataset(tmp_path, spec, coeffs, traces, meta)
    path = tmp_path / "meta.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as err:
        harness.load_dataset(tmp_path)
    assert str(err.value).startswith(f"{path}: {message}")


@pytest.mark.parametrize("mask", [[1, 1, 1], [2, 0], [0, 0]])
def test_load_dataset_checks_each_mask_against_the_system(mask, tmp_path):
    spec, coeffs, traces, meta = generate_benchmark_data(
        "lotka_volterra", {"n_traces": 2, "k": 50}, seed=5
    )
    harness.save_dataset(tmp_path, spec, coeffs, traces, meta)
    path = tmp_path / "meta.json"
    doc = json.loads(path.read_text())
    doc["traces"][1]["meta"]["mask"] = mask
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as err:
        harness.load_dataset(tmp_path)
    assert str(err.value) == (
        f"{path}: traces[1].meta.mask must be 2 entries of 0 or 1 with at least one 1, got {mask}"
    )


def test_load_dataset_checks_each_csv_against_its_mask(tmp_path):
    # a partial mask on full-state CSVs would read the hidden state as an input
    spec, coeffs, traces, meta = generate_benchmark_data(
        "lotka_volterra", {"n_traces": 2, "k": 50}, seed=5
    )
    harness.save_dataset(tmp_path, spec, coeffs, traces, meta)
    path = tmp_path / "meta.json"
    doc = json.loads(path.read_text())
    for entry in doc["traces"]:
        entry["meta"]["mask"] = [1, 0]
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as err:
        harness.load_dataset(tmp_path)
    assert str(err.value) == (
        f"{tmp_path / 'trace_000.csv'}: expected 2 columns after t "
        "(1 observed states and 1 inputs), found 3"
    )


def test_load_dataset_names_a_meta_json_that_is_not_json(tmp_path):
    spec, coeffs, traces, meta = generate_benchmark_data("scalar", {"n_traces": 1, "k": 50}, seed=5)
    harness.save_dataset(tmp_path, spec, coeffs, traces, meta)
    path = tmp_path / "meta.json"
    path.write_text(path.read_text()[:20])
    with pytest.raises(ConfigError, match=r"meta\.json: not valid JSON \(.*line 3 column"):
        harness.load_dataset(tmp_path)
