"""Command-line entry points: generate / recover / sweep / nyquist."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .dynamics import ConfigError, decode_json, from_json, load_json, write_json
from .harness import (
    EXPERIMENTS,
    ExperimentConfig,
    emit_report,
    fit_traces,
    generate_benchmark_data,
    load_dataset,
    load_real_csv,
    data_nyquist_rate,
    run_experiment,
    save_dataset,
)


def _cmd_generate(args) -> int:
    overrides = decode_json(args.overrides, "--overrides") if args.overrides else {}
    if not isinstance(overrides, dict):
        raise ConfigError(f"--overrides must be a JSON object, got {type(overrides).__name__}")
    spec, coeffs, traces, meta = generate_benchmark_data(args.system, overrides, seed=args.seed)
    save_dataset(args.out, spec, coeffs, traces, meta)
    print(f"wrote {len(traces)} traces for {spec.name} to {args.out}")
    return 0


def _cmd_recover(args) -> int:
    cfg = replace(from_json(ExperimentConfig, load_json(args.config)), arch=args.arch)
    spec, coeffs_true, traces, _ = load_dataset(args.data)
    result = fit_traces(cfg, spec, coeffs_true, traces)
    out = {
        "arch": args.arch,
        "system": spec.name,
        "coeffs_est": result.coeffs.values,
        "coeff_names": list(spec.coeff_names),
        "shifts": result.shifts,
        "rmse_y": result.rmse_y,
        "rmse_coeffs": result.rmse_coeffs,
        "loss_history": result.loss_history,
        "solve_substeps": result.solve_substeps,
    }
    write_json(out, args.out)
    print(f"rmse_y={result.rmse_y:.6g} rmse_coeffs={result.rmse_coeffs}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = replace(from_json(ExperimentConfig, load_json(args.config)),
                  experiment=args.experiment)
    rows = run_experiment(cfg)
    fmt = "json" if str(args.out).endswith(".json") else "csv"
    emit_report(rows, fmt, args.out, include_runtime=args.include_runtime)
    print(f"wrote {len(rows)} rows to {args.out}")
    failed = [r for r in rows if r.status != "ok"]
    for r in rows:
        if r.status != "ok":
            print(f"physrec: {r.point}: {r.status}", file=sys.stderr)
        elif r.diverged_windows:
            print(f"physrec: {r.point}: rmse_y inf, diverged replay windows: "
                  f"{r.diverged_windows}", file=sys.stderr)
    diverged = sum(r.diverged_windows for r in rows)
    print(f"physrec: {len(rows) - len(failed)} ok, {len(failed)} failed; "
          f"diverged replay windows: {diverged}", file=sys.stderr)
    return 1 if len(failed) == len(rows) else 0


def _cmd_nyquist(args) -> int:
    traces = load_real_csv(args.data)
    rate = data_nyquist_rate(traces)
    print(f"{rate:.6g}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="physrec",
        description="Recover control-affine model coefficients from sampled traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="simulate a benchmark dataset")
    p_gen.add_argument(
        "--system", required=True,
        help="benchmark preset: scalar | lorenz | lotka_volterra | bergman_aid | eeg_dvdp",
    )
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument(
        "--overrides",
        help="JSON dict of generation overrides; the keys each preset reads are listed in "
        "the docstring of physrec.harness.generate_benchmark_data",
    )
    p_gen.set_defaults(fn=_cmd_generate)

    p_rec = sub.add_parser("recover", help="fit coefficients to a dataset directory")
    p_rec.add_argument("--arch", required=True, choices=("ltc", "ctrnn", "node", "sindyc"))
    p_rec.add_argument("--data", required=True)
    p_rec.add_argument(
        "--config", required=True,
        help="JSON experiment config (train, k_window, split_ratio, mask, sindy_*)",
    )
    p_rec.add_argument("--out", required=True)
    p_rec.set_defaults(fn=_cmd_recover)

    p_sweep = sub.add_parser("sweep", help="run an experiment sweep")
    p_sweep.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--include-runtime", action="store_true")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_nyq = sub.add_parser("nyquist", help="estimate the Nyquist rate of a trace CSV")
    p_nyq.add_argument("--data", required=True)
    p_nyq.set_defaults(fn=_cmd_nyquist)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as e:  # diagnostics to stderr, nonzero exit
        print(f"physrec: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
