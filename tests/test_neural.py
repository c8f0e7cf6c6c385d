"""Tests for the recurrent recovery module."""

import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from physrec import neural
from physrec.dynamics import ConfigError, SensingMask, SpecError, builtin_system
from physrec.harness import apply_mask_to_traces, generate_benchmark_data
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
    load_checkpoint,
    reconstruction_losses,
    save_checkpoint,
    train,
)
from physrec.odesolve import integrate_batch
from physrec.signals import Trace, make_batches, rmse_signal, shift_signed
from physrec.tape import Tape
from reftape import RefTape, grad_check


def _window(k=20, dt=0.1, mask=(1, 1)):
    y = np.tile(np.array([100.0, 20.0])[:, None], (1, k))[[i for i, d in enumerate(mask) if d]]
    return Trace(0.0, dt, y, np.zeros((1, k)), meta={"mask": mask})


@pytest.mark.parametrize(
    "first,odd,what",
    [
        ({"mask": (1, 0)}, {"mask": (0, 1)}, "sensing mask"),
        ({}, {"k": 21}, "k"),
        ({}, {"dt": 0.2}, "dt"),
    ],
    ids=["mask", "k", "dt"],
)
def test_reconstruction_losses_rejects_mixed_windows(first, odd, what):
    spec, coeffs = builtin_system("lotka_volterra")
    windows = [_window(**first), _window(**first), _window(**{**first, **odd})]
    with pytest.raises(SpecError) as err:
        reconstruction_losses(
            spec,
            np.repeat(coeffs.values[None, :], 3, axis=0),
            np.zeros((3, 0)),
            windows,
            TrainConfig(),
            want_grads=False,
        )
    assert f"window 2 has {what} " in str(err.value)


@pytest.mark.parametrize("mask", [(1,), (1, 0, 1)])
def test_window_mask_must_cover_every_state(mask):
    # a mask stored in trace metadata is checked against the system's n
    spec, coeffs = builtin_system("lotka_volterra")
    window = Trace(0.0, 0.1, np.full((sum(mask), 20), 100.0), np.zeros((1, 20)),
                   meta={"mask": mask})
    with pytest.raises(ConfigError, match=f"has {len(mask)} entries but lotka_volterra has 2"):
        reconstruction_losses(
            spec, coeffs.values[None, :], np.zeros((1, 0)), [window], TrainConfig(),
            want_grads=False,
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
        epochs=1, hidden_width=4, head_layers=(6,), unfold_substeps=2, solve_substeps=2,
        shift_channels=(0,), seed=4,
    )
    result = train("ltc", spec, batches, cfg, coeffs_true=coeffs)
    windows = [batches.windows[i] for i in batches.test_idx]
    assert len(result.reconstructions) == len(windows) > 1
    rmses = []
    for w, recon in zip(windows, result.reconstructions):
        u = w.u.copy()
        u[0] = shift_signed(w.u[0], result.shifts[0])
        x0 = spec.resting_state()
        x0[0] = w.y[0, 0]
        states, diverged, _ = integrate_batch(
            spec, result.coeffs.values[None, :], x0[None, :], u[None], w.k, w.dt,
            cfg.solve_substeps,
        )
        assert np.array_equal(recon.y, states[0, :1]) and np.array_equal(recon.u, u)
        rmses.append(float("inf") if diverged[0] else rmse_signal(states[0, :1], w.y))
    assert result.rmse_y == float(np.mean(rmses))


@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_resting_init_ignores_the_input_layout(layout):
    # equal input values give equal initial estimates bit for bit, whatever
    # the memory layout of each window's u
    spec, _ = builtin_system("bergman_aid")
    rng = np.random.default_rng(0)
    windows = [
        Trace(0.0, 5.0, np.ones((3, 200)), rng.uniform(0.0, 1.0, (2, 200))) for _ in range(6)
    ]

    def relaid(u):
        if layout == "fortran":
            return np.asfortranarray(u)
        wide = np.zeros((u.shape[0], 2 * u.shape[1]))
        wide[:, ::2] = u
        return wide[:, ::2]

    other = [replace(w, u=relaid(w.u)) for w in windows]
    assert not other[0].u.flags.c_contiguous
    scales = np.ones(spec.p)
    assert np.array_equal(
        neural.resting_consistent_init(spec, other, scales),
        neural.resting_consistent_init(spec, windows, scales),
    )


def test_reconstruction_losses_shared_grid_at_equilibrium():
    spec, coeffs = builtin_system("lotka_volterra")
    losses, _, _ = reconstruction_losses(
        spec,
        np.repeat(coeffs.values[None, :], 2, axis=0),
        np.zeros((2, 0)),
        [_window(), _window()],
        TrainConfig(),
        want_grads=False,
    )
    assert np.all(losses < 1e-20)


def reference_final_states(arch, params, tensor, dt, substeps):
    """Per-sample numpy cell steps, one window at a time: the LTC fused
    semi-implicit update and the CT-RNN / NODE explicit Euler steps.
    Returns the final hidden states as V x B."""
    w_in, w_rec, b = params["cell.w_in"], params["cell.w_rec"], params["cell.b"]
    delta = dt / substeps
    finals = []
    for window in tensor:
        h = np.zeros(w_rec.shape[0])
        for inp in window.T:
            for _ in range(substeps):
                z = w_in @ inp + w_rec @ h + b
                if arch == "ltc":
                    f = np.logaddexp(0.0, np.tanh(z))
                    tau, target = params["cell.tau"], params["cell.target"]
                    h = (h + delta * f * target) / (1.0 + delta * (1.0 / tau + f))
                elif arch == "ctrnn":
                    h = h + delta * (-h / params["cell.tau"] + np.tanh(z))
                else:
                    h = h + delta * np.tanh(z)
        finals.append(h)
    return np.stack(finals, axis=1)


def reference_tape_cell(tape, arch, leaves, tensor, dt, cfg):
    """The cell unroll recorded primitive by primitive on a ``RefTape``,
    about a dozen nodes per substep; ``_cell_forward``'s forward values and
    gradients must equal this graph's bit for bit."""
    B, C, k = tensor.shape
    V = leaves["cell.w_rec"].value.shape[0]
    w_in, w_rec, b = leaves["cell.w_in"], leaves["cell.w_rec"], leaves["cell.b"]
    delta = dt / cfg.unfold_substeps
    h = tape.leaf(np.zeros((V, B)))
    if arch in ("ltc", "ctrnn"):
        inv_tau = tape.div(1.0, leaves["cell.tau"])
    for t in range(k):
        inp = np.ascontiguousarray(tensor[:, :, t].T)  # C x B
        drive = tape.matmul(w_in, inp)
        for _ in range(cfg.unfold_substeps):
            z = tape.addcol(tape.add(drive, tape.matmul(w_rec, h)), b)
            if arch == "ltc":
                f = tape.softplus(tape.tanh(z))
                num = tape.add(h, tape.scale(tape.mulcol(f, leaves["cell.target"]), delta))
                den = tape.add(
                    tape.addcol(tape.scale(f, delta), tape.scale(inv_tau, delta)), 1.0
                )
                h = tape.div(num, den)
            elif arch == "ctrnn":
                f = tape.tanh(z)
                h = tape.add(h, tape.scale(tape.sub(f, tape.mulcol(h, inv_tau)), delta))
            else:
                h = tape.add(h, tape.scale(tape.tanh(z), delta))
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


def _cell_node(tape, arch, leaves, tensor, dt, cfg):
    """``_cell_forward`` spliced onto ``tape`` as one node over the cell
    leaves, the way a training step records it."""
    params = {key: leaf.value for key, leaf in leaves.items()}
    h, vjp = _cell_forward(arch, params, tensor, dt, cfg)
    return tape.custom_node([leaves[key] for key in CELL_LEAVES if key in leaves], h, vjp)


def _cell_case(arch, seed=3):
    spec, _ = builtin_system("lotka_volterra")
    cfg = TrainConfig(hidden_width=5, unfold_substeps=3)
    rng = np.random.default_rng(seed)
    dt, k = 0.1, 30
    params = init_params(arch, spec, 3, cfg, rng, dt, k)
    tensor = rng.normal(0.0, 2.0, (4, 3, k))
    return params, tensor, dt, cfg


@pytest.mark.parametrize("arch", ARCHS)
def test_cell_forward_matches_numpy_steps(arch):
    params, tensor, dt, cfg = _cell_case(arch)
    got = _cell_forward(arch, params, tensor, dt, cfg)[0]
    want = reference_final_states(arch, params, tensor, dt, cfg.unfold_substeps)
    assert got.shape == (5, 4)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    rms = np.sqrt(np.mean(want**2))
    assert abs(_probe_hidden_scale(arch, params, tensor, dt, cfg) - max(rms, 1e-3)) <= 1e-12 * rms


def _cell_grads(cell, arch, params, tensor, dt, cfg, cot):
    """Final state and cell-leaf gradients of ``sum(h * cot)``, with the
    cell recorded on a ``RefTape`` by ``cell(tape, arch, leaves, ...)``."""
    tape = RefTape()
    leaves = {key: tape.leaf(v) for key, v in params.items()}
    h = cell(tape, arch, leaves, tensor, dt, cfg)
    table = tape.backward(tape.sum(tape.mul(h, cot)))
    return h.value, {key: table[leaves[key].idx] for key in CELL_LEAVES if key in leaves}


# width 1 makes a per-sample stack's substep axis contiguous, where a
# reduction over it would sum pairwise instead of in the tape's order
@pytest.mark.parametrize(
    "width, n_sub, batch",
    [(6, 3, 1), (6, 3, 4), (6, 3, 32), (1, 9, 4)],
    ids=["1", "4", "32", "width1-9sub-4"],
)
@pytest.mark.parametrize("arch", ARCHS)
def test_fused_cell_is_bit_identical_to_tape_graph(arch, width, n_sub, batch):
    spec, _ = builtin_system("lotka_volterra")
    cfg = TrainConfig(hidden_width=width, unfold_substeps=n_sub)
    rng = np.random.default_rng(11)
    dt, k = 0.1, 25
    params = init_params(arch, spec, 3, cfg, rng, dt, k)
    tensor = rng.normal(0.0, 2.0, (batch, 3, k))
    cot = rng.normal(0.0, 1.0, (width, batch))

    h_ref, g_ref = _cell_grads(reference_tape_cell, arch, params, tensor, dt, cfg, cot)
    h, g = _cell_grads(_cell_node, arch, params, tensor, dt, cfg, cot)
    assert np.array_equal(h, h_ref)
    assert sorted(g) == sorted(g_ref) and len(g) == {"ltc": 5, "ctrnn": 4, "node": 3}[arch]
    for key, want in g_ref.items():
        assert np.any(want != 0.0), key
        assert np.array_equal(g[key], want), key


@pytest.mark.parametrize("arch", ARCHS)
def test_fused_cell_gradients_match_central_differences(arch):
    spec, _ = builtin_system("lotka_volterra")
    cfg = TrainConfig(hidden_width=3, unfold_substeps=2)
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
            h = _cell_node(tape, arch, leaves, tensor, dt, cfg)
            return tape.sum(tape.mul(h, cot))

        assert grad_check(loss, params[key]) < 1e-6, key


def test_probe_raises_on_diverging_hidden_state():
    params, tensor, dt, cfg = _cell_case("ctrnn")
    # delta / tau = 1000: the explicit Euler step overflows within the window
    params["cell.tau"] = np.full_like(params["cell.tau"], dt / cfg.unfold_substeps / 1000.0)
    with np.errstate(all="ignore"), pytest.raises(TrainingError):
        _probe_hidden_scale("ctrnn", params, tensor, dt, cfg)


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
        unfold_substeps=2, weight_grad_clip=0.0, seed=9,
    )
    group = batches.train_batches[0]
    windows = [batches.windows[i] for i in group]
    dt = windows[0].dt
    params = init_params("ltc", spec, 3, cfg, np.random.default_rng(3), dt, batches.k)
    scales = neural.coefficient_scales(spec, windows)

    tape = RefTape()
    leaves = {key: tape.leaf(v) for key, v in params.items()}
    h = reference_tape_cell(tape, "ltc", leaves, batches.tensor(group), dt, cfg)
    coeff, d = reference_tape_head(tape, spec, leaves, h, cfg, np.random.default_rng(8), scales)
    want_losses, g_c, g_d = reconstruction_losses(spec, coeff.value.T, d.value.T, windows, cfg)
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


@pytest.mark.parametrize(
    "arch,change,match",
    [
        ("ctrnn", {}, "checkpoint was trained as 'ltc', not 'ctrnn'"),
        ("ltc", {"hidden_width": 8}, "TrainConfig: hidden_width"),
        ("ltc", {"shift_channels": ()}, "TrainConfig: shift_channels"),
        ("ltc", {"epochs": 0}, "epochs=0 is below the checkpoint's 1"),
    ],
    ids=["arch", "hidden_width", "shift_channels", "epochs"],
)
def test_resume_rejects_a_checkpoint_that_does_not_match(arch, change, match):
    spec, coeffs, traces, _ = generate_benchmark_data(
        "lotka_volterra", {"n_traces": 2, "k": 200}, seed=1
    )
    batches = make_batches(traces, batch_size=3, k_window=50, split_ratio=0.75, seed=1)
    cfg = TrainConfig(
        epochs=1, hidden_width=4, head_layers=(6,), unfold_substeps=2, shift_channels=(0,),
        seed=5,
    )
    first = train("ltc", spec, batches, cfg, coeffs_true=coeffs)
    with pytest.raises(ConfigError, match=match):
        train(arch, spec, batches, replace(cfg, **{"epochs": 3, **change}), state=first.state)


@pytest.mark.parametrize("arch", ARCHS)
def test_checkpoint_resume_is_bit_identical(arch, tmp_path):
    spec, coeffs, traces, _ = generate_benchmark_data(
        "lotka_volterra", {"n_traces": 2, "k": 200}, seed=1
    )
    batches = make_batches(traces, batch_size=3, k_window=50, split_ratio=0.75, seed=1)
    cfg = TrainConfig(
        epochs=3, hidden_width=4, head_layers=(6,), unfold_substeps=2, solve_substeps=2,
        shift_channels=(0,), seed=5,
    )
    whole = train(arch, spec, batches, cfg, coeffs_true=coeffs)

    first = train(arch, spec, batches, replace(cfg, epochs=1), coeffs_true=coeffs)
    path = tmp_path / "ckpt.json"
    save_checkpoint(first.state, path)
    loaded = load_checkpoint(path)
    assert loaded.cfg == replace(cfg, epochs=1)
    resumed = train(arch, spec, batches, cfg, coeffs_true=coeffs, state=loaded)

    assert resumed.loss_history == whole.loss_history[1:]
    assert np.array_equal(resumed.coeffs.values, whole.coeffs.values)
    assert np.array_equal(resumed.shifts, whole.shifts)
    assert sorted(resumed.state.params) == sorted(whole.state.params)
    for key, value in whole.state.params.items():
        assert np.array_equal(resumed.state.params[key], value), key


@pytest.mark.parametrize("arch", ARCHS)
def test_train_is_deterministic_under_a_seed(arch):
    spec, coeffs, traces, _ = generate_benchmark_data(
        "lotka_volterra", {"n_traces": 2, "k": 200}, seed=2
    )
    batches = make_batches(traces, batch_size=3, k_window=50, split_ratio=0.75, seed=2)
    cfg = TrainConfig(
        epochs=2, hidden_width=4, head_layers=(6,), unfold_substeps=2, solve_substeps=2,
        shift_channels=(0,), seed=9,
    )
    first = train(arch, spec, batches, cfg, coeffs_true=coeffs)
    second = train(arch, spec, batches, cfg, coeffs_true=coeffs)
    assert first.loss_history == second.loss_history and len(first.loss_history) == 2
    assert np.array_equal(first.coeffs.values, second.coeffs.values)
    assert np.array_equal(first.shifts, second.shifts)
    assert first.rmse_y == second.rmse_y
    assert sorted(first.state.params) == sorted(second.state.params)
    for key, value in first.state.params.items():
        assert np.array_equal(second.state.params[key], value), key


@pytest.mark.parametrize("arch", ARCHS)
def test_train_frees_each_tape_before_the_next_step(arch, monkeypatch, gc_disabled):
    spec, coeffs, traces, _ = generate_benchmark_data(
        "lotka_volterra", {"n_traces": 2, "k": 200}, seed=2
    )
    batches = make_batches(traces, batch_size=3, k_window=50, split_ratio=0.75, seed=2)
    cfg = TrainConfig(
        epochs=2, hidden_width=4, head_layers=(6,), unfold_substeps=2, solve_substeps=2,
        shift_channels=(0,), seed=9,
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
        epochs=2, hidden_width=4, head_layers=(6,), unfold_substeps=2, solve_substeps=2,
        shift_channels=(0,), seed=9, batch_size=3,
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


def test_ltc_cell_saves_three_arrays_per_substep():
    spec, _ = builtin_system("lotka_volterra")
    cfg = TrainConfig(hidden_width=32, unfold_substeps=6)
    rng = np.random.default_rng(4)
    dt, k, B = 0.1, 200, 32
    params = init_params("ltc", spec, 3, cfg, rng, dt, k)
    tensor = rng.normal(0.0, 1.0, (B, 3, k))
    tracemalloc.start()
    try:
        h, vjp = _cell_forward("ltc", params, tensor, dt, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h.shape == (32, B)
    # the state each substep starts from, tanh(z) and f: three (V, B)
    # arrays, plus the per-sample inputs and bookkeeping
    saved = 32 * B * 8 * k * cfg.unfold_substeps
    assert peak < 3.2 * saved, peak / saved
