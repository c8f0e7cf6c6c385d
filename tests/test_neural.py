"""Tests for the recurrent recovery module."""

import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from physrec import neural
from physrec.dynamics import ConfigError, SensingMask, SpecError, builtin_system
from physrec.harness import apply_mask_to_traces, decimate, generate_benchmark_data
from physrec.neural import (
    ARCHS,
    CELL_LEAVES,
    AdamState,
    TrainConfig,
    TrainingError,
    _cell_forward,
    _head_forward,
    _probe_hidden_scale,
    _train_step,
    init_params,
    reconstruction_losses,
    train,
)
from physrec.odesolve import integrate_batch
from physrec.signals import Trace, make_batches, rmse_signal, shift_signed
from physrec.tape import Tape
from reftape import RefTape, grad_check


@pytest.mark.parametrize("mask", [(1,), (1, 0, 1)])
def test_window_mask_must_cover_every_state(mask):
    # a mask stored in trace metadata is checked against the system's n
    spec, coeffs = builtin_system("lotka_volterra")
    trace = Trace(0.0, 0.1, np.full((sum(mask), 20), 100.0), np.zeros((1, 20)),
                  meta={"mask": mask})
    with pytest.raises(ConfigError, match=f"has {len(mask)} entries but lotka_volterra has 2"):
        reconstruction_losses(
            spec, coeffs.values[None, :], np.zeros((1, 0)), [0], make_batches([trace], 1, 20, 1.0),
            TrainConfig(),
        )


def test_windows_without_a_mask_must_be_full_state():
    spec, coeffs = builtin_system("lotka_volterra")
    trace = Trace(0.0, 0.1, np.full((1, 20), 100.0), np.zeros((1, 20)))
    message = r"sensing mask \(1, 1\) marks 2 states but the windows hold 1 observed channels"
    with pytest.raises(SpecError, match=message):
        reconstruction_losses(
            spec, coeffs.values[None, :], np.zeros((1, 0)), [0], make_batches([trace], 1, 20, 1.0),
            TrainConfig(),
        )


def test_train_rejects_an_out_of_range_shift_channel():
    spec, _, traces, _ = generate_benchmark_data("scalar", {"n_traces": 2, "k": 40}, seed=0)
    batches = make_batches(traces, 2, 40, 0.5)
    cfg = TrainConfig(epochs=0, hidden_width=4, head_layers=(6,), shift_channels=(3,))
    with pytest.raises(SpecError, match="shift channel 3 is out of range for m=1"):
        train("ltc", spec, batches, cfg)


@pytest.mark.parametrize(
    "field,value",
    [("warmup_epochs", -1), ("dropout", 1.0), ("dropout", -0.5), ("head_layers", (0,)),
     ("fd_eps", 0.0), ("beta1", 1.0), ("beta2", 1.0), ("hidden_width", 0)],
)
def test_train_config_rejects_values_that_break_training(field, value):
    with pytest.raises(SpecError, match=rf"TrainConfig\.{field} must be .*, got"):
        TrainConfig(**{field: value})


def test_train_reports_the_replay_of_each_eval_window():
    # x2 is hidden and u1 is reported 5 samples early; the fit searches its shift
    spec, coeffs, traces, _ = generate_benchmark_data(
        "lotka_volterra", {"n_traces": 2, "k": 200, "injected_shift": 5}, seed=3
    )
    traces = apply_mask_to_traces(traces, SensingMask((1, 0)))
    batches = make_batches(traces, batch_size=3, k_window=50, split_ratio=0.5, seed=3)
    cfg = TrainConfig(
        epochs=1, hidden_width=4, head_layers=(6,), solve_substeps=2, shift_channels=(0,), seed=4,
    )
    result = train("ltc", spec, batches, cfg, coeffs_true=coeffs)
    assert len(batches.test_idx) > 1
    rmses = []
    for i in batches.test_idx:
        y, u = batches.y[i], batches.u[i].copy()
        u[0] = shift_signed(batches.u[i, 0], result.shifts[0])
        x0 = spec.resting_state()
        x0[0] = y[0, 0]
        states, diverged, _ = integrate_batch(
            spec, result.coeffs.values[None, :], x0[None, :], u[None], batches.k, batches.dt,
            result.solve_substeps,
        )
        rmses.append(float("inf") if diverged[0] else rmse_signal(states[0, :1], y))
    assert result.rmse_y == float(np.mean(rmses))


@pytest.mark.parametrize("solve_substeps", [2, 3])
@pytest.mark.parametrize(
    "system,overrides,factor,steps",
    [
        ("lotka_volterra", {"n_traces": 2, "k": 300}, 1, 1),
        ("lorenz", {"n_traces": 2, "k": 200}, 1, 1),
        ("eeg_dvdp", {"n_traces": 2, "k": 100}, 1, 1),
        # the insulin system's initial candidates are stiff at its 5 min samples
        ("bergman_aid", {"n_traces": 3, "k": 120}, 1, None),
        # one step is within 1e-6 over 10 intervals but not over 199
        ("lotka_volterra", {"n_traces": 2, "k": 800}, 4, None),
    ],
    ids=["lotka_volterra", "lorenz", "eeg_dvdp", "bergman_aid", "lotka_volterra/4"],
)
def test_train_solves_at_one_step_where_one_step_matches(
    system, overrides, factor, steps, solve_substeps
):
    spec, coeffs, traces, _ = generate_benchmark_data(system, overrides, seed=3)
    traces = [decimate(tr, factor) for tr in traces]
    k_window = min(200, *(tr.k for tr in traces))
    batches = make_batches(traces, batch_size=32, k_window=k_window, split_ratio=0.75, seed=3)
    cfg = TrainConfig(epochs=0, hidden_width=4, head_layers=(6,), solve_substeps=solve_substeps)
    result = train("ltc", spec, batches, cfg, coeffs_true=coeffs)
    assert result.solve_substeps == (steps or solve_substeps)


@pytest.mark.parametrize("solve_substeps", [1, 2])
def test_train_checks_the_step_count_once_above_one_step(solve_substeps, monkeypatch):
    spec, coeffs, traces, _ = generate_benchmark_data(
        "lotka_volterra", {"n_traces": 2, "k": 200}, seed=2
    )
    batches = make_batches(traces, batch_size=3, k_window=50, split_ratio=0.75, seed=2)
    cfg = TrainConfig(
        epochs=1, hidden_width=4, head_layers=(6,), solve_substeps=solve_substeps, seed=9,
    )
    solves = []

    def counted(*args):
        solves.append(args[4:])  # (k_out, dt, substeps)
        return integrate_batch(*args)

    monkeypatch.setattr(neural, "integrate_batch", counted)
    result = train("ltc", spec, batches, cfg, coeffs_true=coeffs)
    assert result.solve_substeps == 1
    # the check's two solves over the probe windows' first 10 intervals,
    # then one loss solve per training batch and the replay, all at one step
    check = [(11, batches.dt, 1), (11, batches.dt, 2)] if solve_substeps == 2 else []
    assert solves == check + [(50, batches.dt, 1)] * (len(batches.train_batches) + 1)


@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_resting_init_ignores_the_input_layout(layout):
    # equal input values give equal initial estimates bit for bit, whatever
    # the memory layout of each trace's u
    spec, _ = builtin_system("bergman_aid")
    rng = np.random.default_rng(0)
    traces = [
        Trace(0.0, 5.0, np.ones((3, 400)), rng.uniform(0.0, 1.0, (2, 400))) for _ in range(3)
    ]

    def relaid(u):
        if layout == "fortran":
            return np.asfortranarray(u)
        wide = np.zeros((u.shape[0], 2 * u.shape[1]))
        wide[:, ::2] = u
        return wide[:, ::2]

    other = [replace(tr, u=relaid(tr.u)) for tr in traces]
    assert not other[0].u.flags.c_contiguous
    want, got = (make_batches(trs, 4, 200, 1.0) for trs in (traces, other))
    assert np.array_equal(got.u, want.u) and got.u.flags.c_contiguous
    scales = np.ones(spec.p)
    assert np.array_equal(
        neural.resting_consistent_init(spec, got.u, scales),
        neural.resting_consistent_init(spec, want.u, scales),
    )


def test_reconstruction_losses_shared_grid_at_equilibrium():
    spec, coeffs = builtin_system("lotka_volterra")
    resting = Trace(0.0, 0.1, np.tile([[100.0], [20.0]], (1, 20)), np.zeros((1, 20)),
                    meta={"mask": (1, 1)})
    losses, _, _ = reconstruction_losses(
        spec,
        np.repeat(coeffs.values[None, :], 2, axis=0),
        np.zeros((2, 0)),
        [0, 1],
        make_batches([resting, resting], 2, 20, 1.0),
        TrainConfig(),
    )
    assert np.all(losses < 1e-20)


def _row_errors(spec, coeff, d, i, batches, cfg):
    """One candidate solved alone: its squared errors against the
    observations of window ``i`` of ``batches`` after the first, and
    whether it diverged.  ``coeff`` are its coefficients and ``d`` the
    shift fractions of the shift channels; the state starts at rest with
    the observed entries set to the window's first sample (every state
    when the batch set has no mask)."""
    seen = [j for j, flag in enumerate(batches.mask or (1,) * spec.n) if flag]
    y, k = batches.y[i], batches.k
    x0 = spec.resting_state()
    x0[seen] = y[:, 0]
    u = batches.u[i].copy()
    for frac, ch in zip(d, cfg.shift_channels):
        u[ch] = shift_signed(batches.u[i, ch], float(np.clip(frac * cfg.s_max, -(k - 1), k - 1)))
    states, diverged, _ = integrate_batch(
        spec, coeff[None, :], x0[None, :], u[None], k, batches.dt, cfg.solve_substeps
    )
    with np.errstate(all="ignore"):
        return (states[0, seen, 1:] - y[:, 1:]) ** 2, bool(diverged[0])


def _row_loss(err):
    """The mean of one row's (n_obs, k - 1) squared errors in the loss's
    declared order: one pairwise sum over the samples per channel, the
    channels added in order from channel 0, then one division."""
    total = 0.0
    for channel in err:
        total = total + np.add.reduce(channel)
    return total / err.size


def _fd_oracle(spec, coeff_rows, d_rows, idx, batches, cfg):
    """``reconstruction_losses`` one row at a time.  Per window the rows are
    the candidate, then a plus and a minus row for every coefficient (step
    ``fd_eps * max(1, |c|)``) and every shift fraction (step ``fd_eps``),
    each solved by ``_row_errors`` and scored by ``_row_loss``.  A
    gradient entry is its central difference, zero where any of the base,
    plus and minus rows diverged; each window's gradient is then scaled to
    a norm of at most ``grad_clip``.  Returns ``(losses, g_coeff, g_d,
    row_losses)``, the last (windows, rows) in the order above."""
    p = spec.p
    errors, bad, steps = [], [], []
    for c, d, i in zip(coeff_rows, d_rows, idx):
        params = np.concatenate([c, d])
        eps = [cfg.fd_eps * max(1.0, abs(v)) for v in c] + [cfg.fd_eps] * len(d)
        rows = [params]
        for j, e in enumerate(eps):
            up, down = params.copy(), params.copy()
            up[j] = params[j] + e
            down[j] = params[j] - e
            rows += [up, down]
        solved = [_row_errors(spec, row[:p], row[p:], i, batches, cfg) for row in rows]
        errors.append([err for err, _ in solved])
        bad.append([flag for _, flag in solved])
        steps.append(eps)
    with np.errstate(all="ignore"):
        row_losses = np.array([[_row_loss(err) for err in row] for row in errors])
    row_losses[np.array(bad) | ~np.isfinite(row_losses)] = neural.DIVERGED_LOSS
    grads = np.zeros((len(idx), len(steps[0])))
    for b, eps in enumerate(steps):
        for j, e in enumerate(eps):
            base, lp, lm = row_losses[b, [0, 1 + 2 * j, 2 + 2 * j]]
            if max(base, lp, lm) < neural.DIVERGED_LOSS:
                grads[b, j] = (lp - lm) / (2 * e)
        if cfg.grad_clip > 0:
            norm = np.sqrt(np.sum(grads[b, :p] ** 2) + np.sum(grads[b, p:] ** 2))
            grads[b] *= min(1.0, cfg.grad_clip / max(norm, 1e-30))
    return row_losses[:, 0], grads[:, :p], grads[:, p:], row_losses


def _fd_case(system="lotka_volterra", mask=(1, 0), shift_channel=0, spread=0.3, n_traces=2):
    """The indices of the first six 25-sample windows of ``system`` whose
    shift channel carries input and their batch set, seen through ``mask``
    (None: full state, with no mask in the traces' metadata), with
    per-window candidates within
    ``spread`` of the truth and shift fractions for that one channel
    (q = 1).  The default is Lotka-Volterra (p = 4) observing the prey
    only.  With several observed channels the oracle's per-row mean
    follows the loss's declared summation order, so every case is
    bit-exact."""
    spec, coeffs, traces, _ = generate_benchmark_data(
        system, {"n_traces": n_traces, "k": 100}, seed=1
    )
    if mask is not None:
        traces = apply_mask_to_traces(traces, SensingMask(mask))
    batches = make_batches(traces, 4, 25, 1.0, seed=1)
    idx = np.flatnonzero(batches.u[:, shift_channel].any(axis=1))[:6].tolist()
    rng = np.random.default_rng(5)
    coeff_rows = coeffs.values * rng.uniform(1 - spread, 1 + spread, (6, spec.p))
    cfg = TrainConfig(shift_channels=(shift_channel,))
    return spec, coeff_rows, rng.uniform(-0.3, 0.3, (6, 1)), idx, batches, cfg


# each case with the clip that binds on some of its windows and not on the others
FD_CASES = {
    "lv_prey": ({}, 0.4),
    "lv_full": ({"mask": None}, 0.4),
    # the meal channel is one pulse per 100 samples
    "aid_full": (
        {"system": "bergman_aid", "mask": None, "shift_channel": 1, "spread": 0.1, "n_traces": 6},
        5.0,
    ),
}


@pytest.mark.parametrize("case", FD_CASES)
@pytest.mark.parametrize("clip", [False, True], ids=["unclipped", "clipped"])
def test_fd_loss_matches_a_row_by_row_oracle(clip, case):
    kwargs, grad_clip = FD_CASES[case]
    spec, coeff_rows, d_rows, idx, batches, cfg = _fd_case(**kwargs)
    cfg = replace(cfg, grad_clip=grad_clip if clip else 0.0)
    got = reconstruction_losses(spec, coeff_rows, d_rows, idx, batches, cfg)
    want = _fd_oracle(spec, coeff_rows, d_rows, idx, batches, cfg)
    for g, w in zip(got, want[:3]):
        assert g.shape == w.shape and np.array_equal(g, w)
    losses, g_c, g_d = got
    assert np.all(losses < neural.DIVERGED_LOSS)
    assert np.all(g_c != 0.0) and np.all(g_d != 0.0)
    if clip:
        # the clip binds on some windows and leaves the others alone
        unclipped = replace(cfg, grad_clip=0.0)
        raw = np.hstack(_fd_oracle(spec, coeff_rows, d_rows, idx, batches, unclipped)[1:3])
        clipped = np.linalg.norm(raw, axis=1) > grad_clip
        assert 0 < np.count_nonzero(clipped) < len(idx)
        g = np.hstack([g_c, g_d])
        assert np.allclose(np.linalg.norm(g[clipped], axis=1), grad_clip)
        assert np.array_equal(g[~clipped], raw[~clipped])


def test_fd_loss_zeroes_diverged_pairs_and_windows():
    # fd_eps = 2 sends one row of some coefficient pairs past the
    # divergence limit.  A huge prey growth rate diverges every row of
    # window 0.  A predator cull at the centre of window 1 diverges its row
    # 0, while its shift rows move the cull out of the window and stay
    # finite, so only row 0 can zero that pair.
    spec, coeff_rows, d_rows, idx, batches, _ = _fd_case()
    coeff_rows[0, 0] = 1e3
    cull = batches.u.copy()
    cull[idx[1], 0, 10:14] -= 1e4
    batches = replace(batches, u=cull)
    d_rows[1] = 0.0
    cfg = TrainConfig(shift_channels=(0,), fd_eps=2.0, grad_clip=0.0)
    got = reconstruction_losses(spec, coeff_rows, d_rows, idx, batches, cfg)
    *want, row_losses = _fd_oracle(spec, coeff_rows, d_rows, idx, batches, cfg)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    losses, g_c, g_d = got
    diverged = row_losses == neural.DIVERGED_LOSS
    plus, minus = diverged[:, 1::2], diverged[:, 2::2]
    assert diverged[:2, 0].all() and not diverged[2:, 0].any()
    assert not plus[1, -1] and not minus[1, -1]
    assert not np.any(g_c[:2]) and not np.any(g_d[:2])
    # elsewhere a pair with a diverged row gives 0, and the other pairs of
    # the same windows keep their differences
    g, plus, minus = np.hstack([g_c, g_d])[2:], plus[2:], minus[2:]
    assert np.any(plus != minus) and np.any(~plus & ~minus)
    assert not np.any(g[plus | minus]) and np.all(g[~plus & ~minus] != 0.0)


def test_fd_loss_keeps_the_states_and_one_input_table():
    spec, coeffs, traces, _ = generate_benchmark_data(
        "lotka_volterra", {"injected_shift": 10, "n_traces": 4}, seed=0
    )
    batches = make_batches(traces, 32, 200, 1.0, seed=0)
    idx = range(32)
    rng = np.random.default_rng(6)
    coeff_rows = coeffs.values * rng.uniform(0.9, 1.1, (32, spec.p))
    d_rows = rng.uniform(-0.2, 0.2, (32, 1))
    cfg = TrainConfig(shift_channels=(0,))
    reconstruction_losses(spec, coeff_rows, d_rows, idx, batches, cfg)  # warm the rhs cache
    tracemalloc.start()
    try:
        entry, _ = tracemalloc.get_traced_memory()
        reconstruction_losses(spec, coeff_rows, d_rows, idx, batches, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 352 rows of (n, k) states and (m, k) inputs; the solver's buffers and
    # the 32 windows' gathered observations come on top (1.16 measured,
    # where copies of the inputs, of the observed states and of the squared
    # errors read 1.79)
    rows = 32 * (1 + 2 * (spec.p + 1))
    arrays = rows * (spec.n + 1) * 200 * 8
    assert peak - entry < 1.25 * arrays, (peak - entry) / arrays


def reference_final_states(arch, params, tensor, dt):
    """Per-sample numpy cell steps, one window at a time: the LTC fused
    semi-implicit update and the CT-RNN / NODE explicit Euler steps.
    Returns the final hidden states as V x B."""
    w_in, w_rec, b = params["cell.w_in"], params["cell.w_rec"], params["cell.b"]
    finals = []
    for window in tensor:
        h = np.zeros(w_rec.shape[0])
        for inp in window.T:
            z = w_in @ inp + w_rec @ h + b
            if arch == "ltc":
                f = np.logaddexp(0.0, np.tanh(z))
                tau, target = params["cell.tau"], params["cell.target"]
                h = (h + dt * f * target) / (1.0 + dt * (1.0 / tau + f))
            elif arch == "ctrnn":
                h = h + dt * (-h / params["cell.tau"] + np.tanh(z))
            else:
                h = h + dt * np.tanh(z)
        finals.append(h)
    return np.stack(finals, axis=1)


def reference_tape_cell(tape, arch, leaves, tensor, dt):
    """The cell unroll recorded primitive by primitive on a ``RefTape``:
    the LTC columns ``target dt`` and ``1 + dt/tau`` once, then per sample
    the drive ``w_in u + b`` and about ten nodes for the step;
    ``_cell_forward``'s forward values and gradients must equal this
    graph's bit for bit."""
    B, C, k = tensor.shape
    V = leaves["cell.w_rec"].value.shape[0]
    w_in, w_rec, b = leaves["cell.w_in"], leaves["cell.w_rec"], leaves["cell.b"]
    h = tape.leaf(np.zeros((V, B)))
    if arch in ("ltc", "ctrnn"):
        inv_tau = tape.div(1.0, leaves["cell.tau"])
    if arch == "ltc":
        tdel = tape.scale(leaves["cell.target"], dt)
        c = tape.add(tape.scale(inv_tau, dt), 1.0)
    for t in range(k):
        inp = np.ascontiguousarray(tensor[:, :, t].T)  # C x B
        drive = tape.addcol(tape.matmul(w_in, inp), b)
        z = tape.add(tape.matmul(w_rec, h), drive)
        if arch == "ltc":
            f = tape.softplus(tape.tanh(z))
            num = tape.add(h, tape.mulcol(f, tdel))
            den = tape.addcol(tape.scale(f, dt), c)
            h = tape.div(num, den)
        elif arch == "ctrnn":
            f = tape.tanh(z)
            h = tape.add(h, tape.scale(tape.sub(f, tape.mulcol(h, inv_tau)), dt))
        else:
            h = tape.add(h, tape.scale(tape.tanh(z), dt))
    return h


def reference_tape_head(tape, spec, leaves, h, cfg, rng, scales):
    """The dense head recorded primitive by primitive on a ``RefTape``:
    per hidden layer matmul, addcol, relu and (with ``rng``) the dropout
    mul, then the output layer, its coefficient and shift slices, the sign
    split, the scale and the sigmoid.  Returns (coeff Var p x B, shift Var
    q x B); ``_head_forward`` must equal this graph bit for bit."""
    act = h
    n_layers = len(cfg.head_layers) + 1
    for li in range(n_layers - 1):
        act = tape.relu(tape.addcol(tape.matmul(leaves[f"head.w{li}"], act), leaves[f"head.b{li}"]))
        if rng is not None and cfg.dropout > 0:
            keep = (rng.random(act.value.shape) >= cfg.dropout) / (1.0 - cfg.dropout)
            act = tape.mul(act, keep)
    out = tape.addcol(tape.matmul(leaves[f"head.w{n_layers-1}"], act), leaves[f"head.b{n_layers-1}"])
    raw = tape.vslice(out, 0, spec.p)
    signed = spec.sign_vector()
    free = (signed == 0.0).astype(float)
    coeff = tape.add(tape.mulcol(tape.relu(raw), signed), tape.mulcol(raw, free))
    coeff = tape.mulcol(coeff, scales)
    if cfg.n_shift:
        d = tape.sigmoid(tape.vslice(out, spec.p, spec.p + cfg.n_shift))
    else:
        d = tape.leaf(np.zeros((0, h.value.shape[1])))
    return coeff, d


def _cell_node(tape, arch, leaves, tensor, dt):
    """``_cell_forward`` spliced onto ``tape`` as one node over the cell
    leaves, the way a training step records it."""
    params = {key: leaf.value for key, leaf in leaves.items()}
    h, vjp = _cell_forward(arch, params, tensor, dt)
    return tape.custom_node([leaves[key] for key in CELL_LEAVES if key in leaves], h, vjp)


def _cell_case(arch, seed=3):
    spec, _ = builtin_system("lotka_volterra")
    cfg = TrainConfig(hidden_width=5)
    rng = np.random.default_rng(seed)
    dt, k = 0.1, 30
    params = init_params(arch, spec, 3, cfg, rng, dt, k)
    tensor = rng.normal(0.0, 2.0, (4, 3, k))
    return params, tensor, dt


@pytest.mark.parametrize("arch", ARCHS)
def test_cell_forward_matches_numpy_steps(arch):
    params, tensor, dt = _cell_case(arch)
    got = _cell_forward(arch, params, tensor, dt)[0]
    want = reference_final_states(arch, params, tensor, dt)
    assert got.shape == (5, 4)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    rms = np.sqrt(np.mean(want**2))
    assert abs(_probe_hidden_scale(arch, got) - max(rms, 1e-3)) <= 1e-12 * rms


def _cell_grads(cell, arch, params, tensor, dt, cot):
    """Final state and cell-leaf gradients of ``sum(h * cot)``, with the
    cell recorded on a ``RefTape`` by ``cell(tape, arch, leaves, ...)``."""
    tape = RefTape()
    leaves = {key: tape.leaf(v) for key, v in params.items()}
    h = cell(tape, arch, leaves, tensor, dt)
    table = tape.backward(tape.sum(tape.mul(h, cot)))
    return h.value, {key: table[leaves[key].idx] for key in CELL_LEAVES if key in leaves}


# width 1 and odd sizes give the backward's reductions and matmuls other
# shapes than the square, even ones
@pytest.mark.parametrize(
    "width, batch",
    [(6, 1), (6, 4), (6, 32), (1, 4), (5, 3), (7, 33)],
    ids=["1", "4", "32", "width1-4", "width5-3", "width7-33"],
)
@pytest.mark.parametrize("arch", ARCHS)
def test_fused_cell_is_bit_identical_to_tape_graph(arch, width, batch):
    spec, _ = builtin_system("lotka_volterra")
    cfg = TrainConfig(hidden_width=width)
    rng = np.random.default_rng(11)
    dt, k = 0.1, 25
    params = init_params(arch, spec, 3, cfg, rng, dt, k)
    tensor = rng.normal(0.0, 2.0, (batch, 3, k))
    cot = rng.normal(0.0, 1.0, (width, batch))

    h_ref, g_ref = _cell_grads(reference_tape_cell, arch, params, tensor, dt, cot)
    h, g = _cell_grads(_cell_node, arch, params, tensor, dt, cot)
    assert np.array_equal(h, h_ref)
    assert sorted(g) == sorted(g_ref) and len(g) == {"ltc": 5, "ctrnn": 4, "node": 3}[arch]
    for key, want in g_ref.items():
        assert np.any(want != 0.0), key
        assert np.array_equal(g[key], want), key


@pytest.mark.parametrize("arch", ARCHS)
def test_fused_cell_gradients_match_central_differences(arch):
    spec, _ = builtin_system("lotka_volterra")
    cfg = TrainConfig(hidden_width=3)
    rng = np.random.default_rng(12)
    dt, k = 0.1, 6
    params = init_params(arch, spec, 2, cfg, rng, dt, k)
    tensor = rng.normal(0.0, 2.0, (2, 2, k))
    cot = rng.normal(0.0, 1.0, (3, 2))
    for key in CELL_LEAVES:
        if key not in params:
            continue

        def loss(var, key=key):
            tape = var.tape
            leaves = {name: var if name == key else tape.leaf(v) for name, v in params.items()}
            h = _cell_node(tape, arch, leaves, tensor, dt)
            return tape.sum(tape.mul(h, cot))

        assert grad_check(loss, params[key]) < 1e-6, key


def test_probe_raises_on_diverging_hidden_state():
    params, tensor, dt = _cell_case("ctrnn")
    # dt / tau = 1000, the least tau that training's clip allows: each
    # explicit Euler step scales the state by about -999, so it overflows
    # within 120 samples
    params["cell.tau"] = np.full_like(params["cell.tau"], dt / 1000.0)
    tensor = np.concatenate([tensor] * 4, axis=2)
    with np.errstate(all="ignore"), pytest.raises(TrainingError):
        _probe_hidden_scale("ctrnn", _cell_forward("ctrnn", params, tensor, dt)[0])


def test_train_error_names_the_epoch_where_every_window_diverged():
    spec, coeffs, traces, _ = generate_benchmark_data(
        "lotka_volterra", {"n_traces": 2, "k": 200}, seed=2
    )
    batches = make_batches(traces, batch_size=3, k_window=50, split_ratio=0.75, seed=2)
    # every candidate starts a thousand times too large, so every solve
    # blows up and no gradient moves the estimates back
    cfg = TrainConfig(epochs=3, hidden_width=4, head_layers=(6,), coeff_bias_init=300.0, seed=9)
    message = (
        "every batch element diverged for an entire epoch "
        f"(epoch 1 of 3, {len(batches.train_idx)} training windows)"
    )
    with pytest.raises(TrainingError, match=f"^{re.escape(message)}$"):
        train("ltc", spec, batches, cfg, coeffs_true=coeffs)


HEAD_CASES = pytest.mark.parametrize(
    "dropout,shift_channels,head_layers",
    [(dr, sc, hl) for dr in (0.0, 0.2) for sc in ((), (0,)) for hl in ((), (6,), (6, 5))],
)


def _mixed_sign_spec():
    # every branch of the sign split: nonneg, free and nonpos outputs
    spec, _ = builtin_system("lotka_volterra")
    return replace(spec, coeff_signs=("nonneg", "free", "nonpos", "free"))


@HEAD_CASES
def test_fused_head_is_bit_identical_to_tape_graph(dropout, shift_channels, head_layers):
    spec = _mixed_sign_spec()
    cfg = TrainConfig(
        hidden_width=5, head_layers=head_layers, dropout=dropout, shift_channels=shift_channels
    )
    rng = np.random.default_rng(21)
    params = init_params("ltc", spec, 3, cfg, rng, 0.1, 30)
    for key in params:
        if key.startswith("head.b"):
            params[key] = rng.normal(0.0, 0.5, params[key].shape)
    h = rng.normal(0.0, 1.0, (5, 7))
    scales = rng.uniform(0.5, 2.0, spec.p)
    g_coeff = rng.normal(0.0, 1.0, (spec.p, 7))
    g_d = rng.normal(0.0, 1.0, (cfg.n_shift, 7))

    tape = RefTape()
    leaves = {key: tape.leaf(v) for key, v in params.items()}
    h_var = tape.leaf(h)
    coeff_ref, d_ref = reference_tape_head(
        tape, spec, leaves, h_var, cfg, np.random.default_rng(5), scales
    )
    loss = tape.custom_node([coeff_ref, d_ref], np.array(0.0), lambda cot: [g_coeff, g_d])
    table = tape.backward(loss)

    coeff, d, vjp = _head_forward(spec, params, h, cfg, np.random.default_rng(5), scales)
    grads, g_h = vjp(g_coeff, g_d)
    assert np.array_equal(coeff, coeff_ref.value) and np.array_equal(d, d_ref.value)
    assert d.shape == (cfg.n_shift, 7)
    head_keys = [key for key in params if key.startswith("head.")]
    assert sorted(grads) == sorted(head_keys)
    for key in head_keys:
        assert np.any(grads[key] != 0.0), key
        assert np.array_equal(grads[key], table[leaves[key].idx]), key
    assert np.array_equal(g_h, table[h_var.idx])


@HEAD_CASES
def test_train_step_gradients_are_bit_identical_to_primitive_graph(
    dropout, shift_channels, head_layers, monkeypatch
):
    # the whole step's gradient table against the cell and the head
    # recorded one primitive per node
    spec = _mixed_sign_spec()
    _, _, traces, _ = generate_benchmark_data("lotka_volterra", {"n_traces": 2, "k": 200}, seed=2)
    batches = make_batches(traces, batch_size=3, k_window=25, split_ratio=0.75, seed=2)
    cfg = TrainConfig(
        hidden_width=4, head_layers=head_layers, dropout=dropout, shift_channels=shift_channels,
        weight_grad_clip=0.0, seed=9,
    )
    group = batches.train_batches[0]
    dt = batches.dt
    params = init_params("ltc", spec, 3, cfg, np.random.default_rng(3), dt, batches.k)
    scales = neural.coefficient_scales(spec, batches.u[list(group)])

    tape = RefTape()
    leaves = {key: tape.leaf(v) for key, v in params.items()}
    h = reference_tape_cell(tape, "ltc", leaves, batches.tensor(group), dt)
    coeff, d = reference_tape_head(tape, spec, leaves, h, cfg, np.random.default_rng(8), scales)
    want_losses, g_c, g_d = reconstruction_losses(
        spec, coeff.value.T, d.value.T, group, batches, cfg
    )
    B = len(group)
    loss = tape.custom_node(
        [coeff, d], np.mean(want_losses), lambda cot: [cot * g_c.T / B, cot * g_d.T / B]
    )
    table = tape.backward(loss)

    seen = []
    monkeypatch.setattr(AdamState, "update", lambda self, params, grads, *a: seen.append(grads))
    losses = _train_step(
        "ltc", spec, batches, group, {k: v.copy() for k, v in params.items()},
        AdamState.fresh(params), dt, cfg, np.random.default_rng(8), scales, 1.0,
    )
    assert np.array_equal(losses, want_losses) and np.all(losses < neural.DIVERGED_LOSS)
    (grads,) = seen
    assert list(grads) == list(params)
    for key, leaf in leaves.items():
        assert np.any(grads[key] != 0.0), key
        assert np.array_equal(grads[key], table[leaf.idx]), key


@pytest.mark.parametrize("arch", ARCHS)
def test_train_is_deterministic_under_a_seed(arch):
    spec, coeffs, traces, _ = generate_benchmark_data(
        "lotka_volterra", {"n_traces": 2, "k": 200}, seed=2
    )
    batches = make_batches(traces, batch_size=3, k_window=50, split_ratio=0.75, seed=2)
    cfg = TrainConfig(
        epochs=2, hidden_width=4, head_layers=(6,), solve_substeps=2, shift_channels=(0,), seed=9,
    )
    first = train(arch, spec, batches, cfg, coeffs_true=coeffs)
    second = train(arch, spec, batches, cfg, coeffs_true=coeffs)
    assert first.loss_history == second.loss_history and len(first.loss_history) == 2
    assert np.array_equal(first.coeffs.values, second.coeffs.values)
    assert np.array_equal(first.shifts, second.shifts)
    assert first.rmse_y == second.rmse_y


@pytest.mark.parametrize("arch", ARCHS)
def test_train_frees_each_tape_before_the_next_step(arch, monkeypatch, gc_disabled):
    spec, coeffs, traces, _ = generate_benchmark_data(
        "lotka_volterra", {"n_traces": 2, "k": 200}, seed=2
    )
    batches = make_batches(traces, batch_size=3, k_window=50, split_ratio=0.75, seed=2)
    cfg = TrainConfig(
        epochs=2, hidden_width=4, head_layers=(6,), solve_substeps=2, shift_channels=(0,), seed=9,
    )
    tapes, live_at_update = [], []

    class CountedTape(Tape):
        def __init__(self):
            super().__init__()
            tapes.append(weakref.ref(self))

    update = AdamState.update

    def counted_update(self, *args, **kwargs):
        live_at_update.append(sum(ref() is not None for ref in tapes))
        return update(self, *args, **kwargs)

    monkeypatch.setattr(neural, "Tape", CountedTape)
    monkeypatch.setattr(AdamState, "update", counted_update)
    train(arch, spec, batches, cfg, coeffs_true=coeffs)
    n_steps = cfg.epochs * len(batches.train_batches)
    assert n_steps > cfg.epochs
    assert live_at_update == [1] * n_steps
    assert len(tapes) == n_steps and not any(ref() is not None for ref in tapes)


@pytest.mark.parametrize("arch", ARCHS)
def test_train_holds_one_recording_at_each_cell_forward(arch, monkeypatch, gc_disabled):
    spec, coeffs, traces, _ = generate_benchmark_data(
        "lotka_volterra", {"n_traces": 2, "k": 200}, seed=2
    )
    batches = make_batches(traces, batch_size=3, k_window=25, split_ratio=0.75, seed=2)
    cfg = TrainConfig(
        epochs=2, hidden_width=4, head_layers=(6,), solve_substeps=2, shift_channels=(0,),
        seed=9, batch_size=3,
    )
    tapes, live_at_cell = [], []

    class CountedTape(Tape):
        def __init__(self):
            super().__init__()
            tapes.append(weakref.ref(self))

    cell = neural._cell_forward

    def counted_cell(*args, **kwargs):
        live_at_cell.append(sum(ref() is not None for ref in tapes))
        return cell(*args, **kwargs)

    monkeypatch.setattr(neural, "Tape", CountedTape)
    monkeypatch.setattr(neural, "_cell_forward", counted_cell)
    train(arch, spec, batches, cfg, coeffs_true=coeffs)
    n_eval = -(-len(batches.test_idx) // cfg.batch_size)
    n_steps = cfg.epochs * len(batches.train_batches)
    assert n_eval > 1 and n_steps > cfg.epochs
    # the initialization probe, every training step, every evaluation group:
    # only a training step records
    assert live_at_cell == [0] + [1] * n_steps + [0] * n_eval
    assert not any(ref() is not None for ref in tapes)


@pytest.mark.parametrize("arch", ARCHS)
def test_cell_keeps_one_state_per_sample(arch):
    spec, _ = builtin_system("lotka_volterra")
    cfg = TrainConfig(hidden_width=32)
    rng = np.random.default_rng(4)
    dt, k, B = 0.1, 200, 32
    params = init_params(arch, spec, 3, cfg, rng, dt, k)
    tensor = rng.normal(0.0, 1.0, (B, 3, k))
    tracemalloc.start()
    try:
        h, vjp = _cell_forward(arch, params, tensor, dt)
        _, forward_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        kept, _ = tracemalloc.get_traced_memory()
        grads = vjp(np.ones_like(h))
        _, backward_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h.shape == (32, B) and len(grads) == {"ltc": 5, "ctrnn": 4, "node": 3}[arch]
    # one (V, B) state per sample: the zero state, then the state after
    # each sample; the inputs and a few (V, B) buffers come on top (1.12-1.14
    # stacks measured)
    stack = 32 * B * 8 * (k + 1)
    assert forward_peak < 1.35 * stack, forward_peak / stack
    # the backward recomputes one step at a time into a few (V, B) buffers
    # (0.06-0.09 stacks measured)
    assert backward_peak - kept < 0.15 * stack, (backward_peak - kept) / stack


@pytest.mark.parametrize("arch", ARCHS)
def test_cell_vjp_repeats_its_bits_and_writes_no_argument(arch):
    params, tensor, dt = _cell_case(arch)
    h, vjp = _cell_forward(arch, params, tensor, dt)
    h_before = h.copy()
    cot = np.random.default_rng(5).normal(0.0, 1.0, h.shape)
    cot_before = cot.copy()
    first = vjp(cot)
    second = vjp(cot)
    assert len(first) == len(second) == {"ltc": 5, "ctrnn": 4, "node": 3}[arch]
    for a, b in zip(first, second):
        assert a is not b and np.array_equal(a, b)
    assert np.array_equal(cot, cot_before) and np.array_equal(h, h_before)
