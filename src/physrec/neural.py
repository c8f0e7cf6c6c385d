"""Recurrent recovery architectures with an ODE-solver reconstruction loss.

A recurrent cell (liquid-time-constant, CT-RNN or plain neural-ODE style)
reads each (observed + input)-channel window; a dense head maps the final
hidden state to coefficient estimates and per-channel input-shift
fractions; the loss reconstructs the observed trace by integrating the
candidate model from the window's first observation and penalizes the
mean-square mismatch.  Cell and head run on plain arrays, each with a
hand-written backward: the cell's whole window unroll backpropagates
through time in one closure, the head's layers in another.  Sensitivities
through the solver are obtained by central finite differences over the
(coefficients, shifts) head outputs.  A training step splices the three
as nodes on a ``Tape`` and calls its ``backward`` once.

Each cell has one implementation, ``_cell_forward``, and the head one,
``_head_forward``; they serve training, evaluation and the
initialization probe alike.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .dynamics import Coefficients, ConfigError, SensingMask, SpecError, SystemSpec
from .odesolve import integrate_batch
from .signals import BatchSet, Trace, rmse_signal, shift_signed
from .tape import Tape

ARCHS = ("ltc", "ctrnn", "node")

# recurrent-cell parameters, in the order of the cell's tape node parents
CELL_LEAVES = ("cell.w_in", "cell.w_rec", "cell.b", "cell.tau", "cell.target")

DIVERGED_LOSS = 1e6


class TrainingError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# head output scaling


def coefficient_scales(spec: SystemSpec, windows: list[Trace]) -> np.ndarray:
    """Characteristic magnitude of every coefficient, from declared resting
    levels and the input channels' RMS.

    A term ``w * c * prod(x_v^p) * u_j`` on equation i has characteristic
    coefficient size ``sigma_i / (prod sigma_v^p * sigma_u_j)``; where a
    coefficient appears in several terms the geometric mean is used.
    Bounded trig factors count as unit scale.  This is the usual
    column-normalization idea carried over to the term library.
    """
    sigma_x = np.maximum(1.0, np.abs(spec.resting_state()))
    m = spec.m
    if m and windows:
        rms = np.sqrt(np.mean(np.stack([w.u**2 for w in windows]), axis=(0, 2)))
        sigma_u = np.maximum(1.0, rms)
    else:
        sigma_u = np.ones(m)
    per_coeff: dict[str, list[float]] = {name: [] for name in spec.coeff_names}
    for term in (*spec.f_terms, *spec.g_terms):
        if term.coeff is None:
            continue
        s = sigma_x[term.state]
        for fac in term.factors:
            if fac.func == "identity":
                s /= sigma_x[fac.var] ** fac.power
        if term.input is not None:
            s /= sigma_u[term.input]
        per_coeff[term.coeff].append(s)
    return np.array(
        [float(np.exp(np.mean(np.log(per_coeff[name])))) for name in spec.coeff_names]
    )


# ---------------------------------------------------------------------------
# training configuration


def reject_unknown_keys(cls, doc: dict) -> None:
    """ConfigError naming every key of ``doc`` that is not a field of the
    dataclass ``cls``."""
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 32
    unfold_substeps: int = 6
    solve_substeps: int = 2
    s_max: float = 25.0
    shift_channels: tuple[int, ...] = ()
    seed: int = 0
    hidden_width: int = 32
    head_layers: tuple[int, ...] = (64,)
    dropout: float = 0.2
    fd_eps: float = 1e-4
    grad_clip: float = 1e3
    weight_grad_clip: float = 10.0
    head_init_scale: float = 0.05
    coeff_bias_init: float = 0.3
    warmup_epochs: int = 20

    def __post_init__(self):
        rules = (
            ("epochs", self.epochs >= 0, ">= 0"),
            ("lr", self.lr > 0, "> 0"),
            ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
            ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("unfold_substeps", self.unfold_substeps >= 1, ">= 1"),
            ("solve_substeps", self.solve_substeps >= 1, ">= 1"),
            ("s_max", self.s_max >= 0, ">= 0"),
            ("hidden_width", self.hidden_width >= 1, ">= 1"),
            ("head_layers", all(w >= 1 for w in self.head_layers), "widths >= 1"),
            ("dropout", 0 <= self.dropout < 1, "in [0, 1)"),
            ("fd_eps", self.fd_eps > 0, "> 0"),
            ("warmup_epochs", self.warmup_epochs >= 0, ">= 0"),
        )
        for name, ok, want in rules:
            if not ok:
                raise SpecError(f"TrainConfig.{name} must be {want}, got {getattr(self, name)!r}")

    @classmethod
    def from_json(cls, doc: dict) -> TrainConfig:
        """Config from a decoded JSON object; JSON arrays become the tuple
        fields.  Used for config files and checkpoints alike; a key that
        names no field is a ConfigError."""
        reject_unknown_keys(cls, doc)
        kwargs = dict(doc)
        for key in ("shift_channels", "head_layers"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)

    @property
    def n_shift(self) -> int:
        return len(self.shift_channels)

    def shift_samples(self, d: np.ndarray) -> np.ndarray:
        return np.asarray(d, dtype=float) * self.s_max


# ---------------------------------------------------------------------------
# window replay and the reconstruction loss


def _window_mask(spec: SystemSpec, trace: Trace) -> SensingMask:
    meta_mask = trace.meta.get("mask")
    if meta_mask is not None:
        if len(meta_mask) != spec.n:
            raise ConfigError(
                f"sensing mask {tuple(meta_mask)} has {len(meta_mask)} entries "
                f"but {spec.name} has {spec.n} states"
            )
        return SensingMask(tuple(int(v) for v in meta_mask))
    if trace.y.shape[0] == spec.n:
        return SensingMask((1,) * spec.n)
    raise SpecError(
        "window does not declare a sensing mask and is not full-state; "
        "set trace.meta['mask']"
    )


def _initial_state(spec: SystemSpec, trace: Trace, mask: SensingMask) -> np.ndarray:
    x0 = spec.resting_state()
    x0[list(mask.observed)] = trace.y[:, 0]
    return x0


def common_grid(spec: SystemSpec, windows: list[Trace]) -> tuple[SensingMask, int, float]:
    """Sensing mask, sample count and spacing shared by all ``windows``;
    raises SpecError naming the first window whose mask, ``k`` or ``dt``
    (beyond a 1e-9 relative tolerance) differs from window 0's."""
    mask, k, dt = _window_mask(spec, windows[0]), windows[0].k, windows[0].dt
    for i, w in enumerate(windows[1:], start=1):
        w_mask = _window_mask(spec, w)
        if w_mask != mask:
            diff = ("sensing mask", w_mask.diag, mask.diag)
        elif w.k != k:
            diff = ("k", w.k, k)
        elif abs(w.dt - dt) > 1e-9 * dt:
            diff = ("dt", w.dt, dt)
        else:
            continue
        what, mine, first = diff
        raise SpecError(f"window {i} has {what} {mine} but window 0 has {first}")
    return mask, k, dt


def rmse_coeffs(est: Coefficients | np.ndarray, truth: Coefficients | np.ndarray) -> float:
    """Root-mean-square error over the coefficient vector."""
    e = est.values if isinstance(est, Coefficients) else np.asarray(est, dtype=float)
    t = truth.values if isinstance(truth, Coefficients) else np.asarray(truth, dtype=float)
    if e.shape != t.shape:
        raise SpecError(f"coefficient vectors differ in length: {e.shape} vs {t.shape}")
    return float(np.sqrt(np.mean((e - t) ** 2)))


def replay(
    spec: SystemSpec, coeff_rows: np.ndarray, u_blocks: list, windows: list[Trace], substeps: int
):
    """Solve candidate rows from their windows' first observations.

    ``u_blocks`` holds one (r, m, k) input block per window and
    ``coeff_rows`` the matching (len(windows) * r, p) coefficients, window
    by window.  Every row starts from the resting state with the observed
    entries set to its window's ``y[:, 0]``; all rows go through one
    ``integrate_batch`` call on the windows' common grid (SpecError when
    they do not share one).  Returns ``(y_est, diverged, rmses)``: the
    observed channels of every row (rows, n_obs, k), the rows' divergence
    flags, and per window the ``rmse_signal`` of its first row against its
    ``y``, inf where that row diverged.
    """
    mask, k, dt = common_grid(spec, windows)
    r = len(u_blocks[0])
    x0 = np.repeat(np.stack([_initial_state(spec, w, mask) for w in windows]), r, axis=0)
    states, diverged, _ = integrate_batch(
        spec, coeff_rows, x0, np.concatenate(u_blocks), k, dt, substeps
    )
    y_est = states[:, list(mask.observed), :]
    rmses = [
        float("inf") if diverged[b * r] else rmse_signal(y_est[b * r], w.y)
        for b, w in enumerate(windows)
    ]
    return y_est, diverged, np.array(rmses)


def _shift_inputs(u: np.ndarray, shifts: np.ndarray, channels) -> np.ndarray:
    out = u.copy()
    k = u.shape[1]
    for s, ch in zip(shifts, channels):
        s = float(np.clip(s, -(k - 1), k - 1))
        out[ch] = shift_signed(u[ch], s)
    return out


def reconstruction_losses(
    spec: SystemSpec,
    coeff_rows: np.ndarray,
    d_rows: np.ndarray,
    windows: list[Trace],
    cfg: TrainConfig,
    want_grads: bool = True,
):
    """Losses (and FD gradients) for a batch of per-window candidates.

    ``coeff_rows`` is (B, p) and ``d_rows`` is (B, q).  All windows must
    share their grid and sensing mask (SpecError otherwise).  Returns
    ``(losses, g_coeff, g_d)`` with gradient arrays zero when
    ``want_grads`` is false or a variant diverged.
    """
    B = len(windows)
    p, q = spec.p, cfg.n_shift

    nvar = 1 + (2 * p + 2 * q if want_grads else 0)
    coeff_all = np.repeat(coeff_rows, nvar, axis=0)
    u_blocks = []
    eps_c = cfg.fd_eps * np.maximum(1.0, np.abs(coeff_rows))
    eps_d = np.full((B, q), cfg.fd_eps)

    for b, w in enumerate(windows):
        base = b * nvar
        u_shifted = _shift_inputs(w.u, cfg.shift_samples(d_rows[b]), cfg.shift_channels)
        block = np.repeat(u_shifted[None], nvar, axis=0)
        u_blocks.append(block)
        if want_grads:
            for j in range(p):
                coeff_all[base + 1 + 2 * j, j] += eps_c[b, j]
                coeff_all[base + 2 + 2 * j, j] -= eps_c[b, j]
            for i in range(q):
                for sgn, off in ((+1, 1 + 2 * p + 2 * i), (-1, 2 + 2 * p + 2 * i)):
                    d_bump = d_rows[b].copy()
                    d_bump[i] += sgn * eps_d[b, i]
                    block[off] = _shift_inputs(w.u, cfg.shift_samples(d_bump), cfg.shift_channels)

    y_est, diverged, _ = replay(spec, coeff_all, u_blocks, windows, cfg.solve_substeps)

    n_obs, k = y_est.shape[1:]
    est = y_est[:, :, 1:].reshape(B, nvar, n_obs, k - 1)
    target = np.stack([w.y[:, 1:] for w in windows])[:, None, :, :]
    with np.errstate(all="ignore"):
        losses = np.mean((est - target) ** 2, axis=(2, 3))
    losses = np.where(
        diverged.reshape(B, nvar) | ~np.isfinite(losses), DIVERGED_LOSS, losses
    )

    base_loss = losses[:, 0]
    g_coeff = np.zeros((B, p))
    g_d = np.zeros((B, q))
    if want_grads:
        ok = base_loss < DIVERGED_LOSS
        for j in range(p):
            lp, lm = losses[:, 1 + 2 * j], losses[:, 2 + 2 * j]
            good = ok & (lp < DIVERGED_LOSS) & (lm < DIVERGED_LOSS)
            g_coeff[:, j] = np.where(good, (lp - lm) / (2 * eps_c[:, j]), 0.0)
        for i in range(q):
            lp, lm = losses[:, 1 + 2 * p + 2 * i], losses[:, 2 + 2 * p + 2 * i]
            good = ok & (lp < DIVERGED_LOSS) & (lm < DIVERGED_LOSS)
            g_d[:, i] = np.where(good, (lp - lm) / (2 * eps_d[:, i]), 0.0)
        if cfg.grad_clip > 0:
            # near-divergent candidates produce astronomic slopes that
            # would poison the optimizer's second moments; keep the
            # direction, cap the magnitude
            norms = np.sqrt(np.sum(g_coeff**2, axis=1) + np.sum(g_d**2, axis=1))
            factor = np.minimum(1.0, cfg.grad_clip / np.maximum(norms, 1e-30))
            g_coeff *= factor[:, None]
            g_d *= factor[:, None]
    return base_loss, g_coeff, g_d


# ---------------------------------------------------------------------------
# parameter initialization and the forward passes


def resting_consistent_init(
    spec: SystemSpec,
    windows: list[Trace],
    scales: np.ndarray,
    prior: float = 0.3,
    lam: float = 0.1,
) -> np.ndarray:
    """Initial scaled coefficient estimates that keep the resting state
    stationary under the average input.

    Solves a small regularized least squares: the right-hand side is
    affine in the coefficients, so zeroing it at the declared resting
    point is a linear condition; the regularizer pulls every scaled
    coefficient toward a common characteristic magnitude.  Starting here
    keeps the first reconstruction solves bounded.
    """
    x0 = spec.resting_state()
    u_mean = (
        # summed in C order whatever the windows' layout, so equal data
        # gives equal bits
        np.mean(np.ascontiguousarray(np.stack([w.u for w in windows])), axis=(0, 2))
        if spec.m
        else np.zeros(0)
    )

    def term_value(term):
        v = term.weight
        for fac in term.factors:
            col = x0[fac.var]
            if fac.func == "sin":
                col = np.sin(col)
            elif fac.func == "cos":
                col = np.cos(col)
            v *= col**fac.power
        if term.input is not None:
            v *= u_mean[term.input]
        return v

    M = np.zeros((spec.n, spec.p))
    r = np.zeros(spec.n)
    for term in (*spec.f_terms, *spec.g_terms):
        v = term_value(term)
        if term.coeff is None:
            r[term.state] -= v
        else:
            M[term.state, spec.coeff_index(term.coeff)] += v
    M_scaled = M * scales[None, :]
    lhs = M_scaled.T @ M_scaled + lam * np.eye(spec.p)
    rhs = M_scaled.T @ r + lam * prior
    theta = np.linalg.solve(lhs, rhs)
    return np.clip(theta, 0.01, None)


def init_params(
    arch: str,
    spec: SystemSpec,
    n_channels: int,
    cfg: TrainConfig,
    rng: np.random.Generator,
    dt: float,
    k: int,
) -> dict[str, np.ndarray]:
    if arch not in ARCHS:
        raise SpecError(f"unknown architecture {arch!r}; supported: {ARCHS}")
    V = cfg.hidden_width
    # the integrator cell has no restoring term, so its hidden magnitude
    # grows with the window duration; shrink its drive at init to keep the
    # starting state O(1)
    drive_scale = 1.0 / max(1.0, dt * k) if arch == "node" else 1.0
    params = {
        "cell.w_in": drive_scale * rng.normal(0.0, 1.0, (V, n_channels)) / np.sqrt(n_channels),
        "cell.w_rec": drive_scale * rng.normal(0.0, 1.0, (V, V)) / np.sqrt(V),
        "cell.b": np.zeros(V),
    }
    if arch in ("ltc", "ctrnn"):
        # time constants log-uniform across the window's timescales
        span = max(k / 8.0, 2.0)
        params["cell.tau"] = dt * np.exp(rng.uniform(0.0, np.log(span), V))
    if arch == "ltc":
        params["cell.target"] = rng.normal(0.0, 0.5, V)
    sizes = [V, *cfg.head_layers, spec.p + cfg.n_shift]
    for li in range(len(sizes) - 1):
        fan_in, fan_out = sizes[li], sizes[li + 1]
        params[f"head.w{li}"] = rng.normal(0.0, 1.0, (fan_out, fan_in)) / np.sqrt(fan_in)
        params[f"head.b{li}"] = np.zeros(fan_out)
    # concentrate the initial estimates: a wide initial spread would throw
    # most candidates far off the stability manifold and clamp their
    # losses before learning starts; the per-coefficient bias is filled in
    # by the caller from the resting-consistency solve
    last = len(sizes) - 2
    params[f"head.w{last}"] *= cfg.head_init_scale
    params[f"head.b{last}"][: spec.p] = cfg.coeff_bias_init
    return params


def _probe_hidden_scale(arch, params, tensor, dt, cfg) -> float:
    """RMS of the final hidden state over a probe batch of windows.

    Used once at initialization to normalize the head's first layer:
    explicit-Euler cells carry hidden magnitudes that scale with the
    sample interval, and an unnormalized head would scatter the initial
    coefficient proposals far off the stability manifold.  Raises
    TrainingError when the hidden state diverges.
    """
    h = _cell_forward(arch, params, tensor, dt, cfg)[0]
    rms = float(np.sqrt(np.mean(np.square(h))))
    if not np.isfinite(rms):
        raise TrainingError(f"{arch} hidden state diverged in the initialization probe")
    return max(rms, 1e-3)


def _add_in_reverse(total, parts):
    """``total`` plus each of ``parts`` from the last to the first, one add
    at a time; a ``None`` total starts from the last part, as the tape
    does."""
    for part in parts[::-1]:
        total = part if total is None else total + part
    return total


def _cell_forward(
    arch: str,
    params: dict[str, np.ndarray],
    window_tensor: np.ndarray,  # B x C x k
    dt: float,
    cfg: TrainConfig,
):
    """Unroll the recurrent cell over the window from a zero state, holding
    each sample's input for ``cfg.unfold_substeps`` steps of ``dt /
    unfold_substeps``.  Returns ``(h, vjp)``: the final hidden state (V x
    B) and a closure mapping its cotangent to the gradients of the cell
    parameters present in ``params``, as a list in ``CELL_LEAVES`` order.

    LTC: ``hdot = -h/tau + f (target - h)`` with ``f = softplus(tanh(z))``,
    advanced by the fused semi-implicit step of Hasani et al. (AAAI 2021),
    ``h <- (h + delta f target) / (1 + delta (1/tau + f))``.  CT-RNN:
    explicit Euler on ``hdot = -h/tau + tanh(z)``.  NODE: explicit Euler on
    ``hdot = tanh(z)``.  Here ``z = w_in u + w_rec h + b``.

    The unroll runs in plain numpy, with its column and scalar operands
    broadcast to full (V, B) arrays once.  For its backward-through-time
    it keeps the window's inputs and, per substep, the state it started
    from and ``tanh(z)``, in preallocated (substep, V, B) stacks; LTC
    also keeps ``f``, since recomputing ``logaddexp`` would double its
    backward.  The backward visits the samples last to first.  For each
    it computes the factors that do not depend on the cotangent in one
    operation over the sample's substeps (LTC rebuilds the step's
    numerator and denominator from the saved arrays with the forward's
    own expressions, so it sees the same values bit for bit); only the
    cotangent's chain stays in the per-substep loop, which writes the
    parts that feed parameter gradients into per-sample stacks.

    Both passes are bit-identical to recording every substep on a tape,
    one primitive per node: the forward repeats their numpy operations in
    their order, and the backward applies each primitive's backward
    expression and adds every fan-out and every per-substep weight
    contribution in ``Tape.backward``'s order (reverse recording order,
    first contribution first).  Per sample, each parameter's parts come
    from one operation over the stack (a B-axis ``np.add.reduce``, which
    sums each row alone as a per-substep ``np.sum`` does, or one stacked
    matmul) and are added to the running total by ``_add_in_reverse``, one
    add at a time from the last substep back: a reduction over the
    substep axis could sum pairwise instead.
    """
    names = [key for key in CELL_LEAVES if key in params]
    w_in, w_rec, b = (params[key] for key in CELL_LEAVES[:3])
    B, _, k = window_tensor.shape
    V = w_rec.shape[0]
    n_sub = cfg.unfold_substeps
    n_steps = k * n_sub
    delta = dt / n_sub

    def wide(operand):  # a scalar or a (V, 1) column as a full (V, B) array
        return np.array(np.broadcast_to(operand, (V, B)))

    delta_f, b_f = wide(delta), wide(b[:, None])
    if arch in ("ltc", "ctrnn"):
        tau = params["cell.tau"]
        inv_tau = 1.0 / tau
    if arch == "ltc":
        target_col = params["cell.target"][:, None]
        leak_col = (inv_tau * delta)[:, None]
        zero_f, one_f = wide(0.0), wide(1.0)
        target_f, leak_f = wide(target_col), wide(leak_col)
    elif arch == "ctrnn":
        inv_f = wide(inv_tau[:, None])
    inputs = np.ascontiguousarray(np.transpose(window_tensor, (2, 1, 0)))  # k x C x B
    states = np.empty((n_steps + 1, V, B))  # the state each substep starts from, then h
    states[0] = 0.0
    tanhs = np.empty((n_steps, V, B))
    fs = np.empty((n_steps, V, B)) if arch == "ltc" else None
    for t in range(k):
        drive = w_in @ inputs[t]
        for i in range(t * n_sub, (t + 1) * n_sub):
            h = states[i]
            th = np.tanh(drive + w_rec @ h + b_f, out=tanhs[i])
            if arch == "ltc":
                f = np.logaddexp(zero_f, th, out=fs[i])
                num = h + f * target_f * delta_f
                den = f * delta_f + leak_f + one_f
                np.divide(num, den, out=states[i + 1])
            elif arch == "ctrnn":
                np.add(h, (th - h * inv_f) * delta_f, out=states[i + 1])
            else:
                np.add(h, th * delta_f, out=states[i + 1])

    n_vec = {"ltc": 3, "ctrnn": 2, "node": 1}[arch]  # b, then inv_tau, then target

    def vjp(g):
        w_rec_t = w_rec.T
        g_w_in = g_w_rec = g_vec = None
        g_z_sub = np.empty((n_sub, V, B))
        if arch in ("ltc", "ctrnn"):
            g_sub = np.empty((n_sub, V, B))  # LTC: g_den; CT-RNN: g_leak
        if arch == "ltc":
            g_ftf_sub = np.empty((n_sub, V, B))
        for t in reversed(range(k)):
            steps = slice(t * n_sub, (t + 1) * n_sub)
            h_prev, th = states[steps], tanhs[steps]
            d_tanh = 1.0 - th * th
            vec_parts = np.empty((n_sub, n_vec, V))  # fresh: g_vec may start as a view of it
            if arch == "ltc":
                f = fs[steps]
                num = h_prev + f * target_col * delta
                den = f * delta + leak_col + 1.0
                den2 = den * den
                sig_den = 1.0 + np.exp(-th)
                for s in reversed(range(n_sub)):
                    g_num = g / den[s]
                    g_den = np.divide(-g * num[s], den2[s], out=g_sub[s])
                    g_ft = g_num * delta_f
                    np.multiply(g_ft, f[s], out=g_ftf_sub[s])
                    g_f = g_den * delta_f + g_ft * target_f
                    g_z = np.multiply(g_f / sig_den[s], d_tanh[s], out=g_z_sub[s])
                    g = g_num + w_rec_t @ g_z
                np.multiply(np.add.reduce(g_sub, axis=2), delta, out=vec_parts[:, 1])
                np.add.reduce(g_ftf_sub, axis=2, out=vec_parts[:, 2])
            elif arch == "ctrnn":
                for s in reversed(range(n_sub)):
                    g_d = g * delta_f
                    g_leak = np.negative(g_d, out=g_sub[s])
                    g_z = np.multiply(g_d, d_tanh[s], out=g_z_sub[s])
                    g = g + g_leak * inv_f + w_rec_t @ g_z
                np.add.reduce(g_sub * h_prev, axis=2, out=vec_parts[:, 1])
            else:
                for s in reversed(range(n_sub)):
                    g_z = np.multiply(g * delta_f, d_tanh[s], out=g_z_sub[s])
                    g = g + w_rec_t @ g_z
            np.add.reduce(g_z_sub, axis=2, out=vec_parts[:, 0])
            g_vec = _add_in_reverse(g_vec, vec_parts)
            g_w_rec = _add_in_reverse(g_w_rec, g_z_sub @ h_prev.transpose(0, 2, 1))
            g_drive = _add_in_reverse(None, g_z_sub)
            g_w_in = _add_in_reverse(g_w_in, [g_drive @ inputs[t].T])
        grads = {"cell.w_in": g_w_in, "cell.w_rec": g_w_rec, "cell.b": g_vec[0]}
        if arch in ("ltc", "ctrnn"):
            grads["cell.tau"] = -g_vec[1] / (tau * tau)
        if arch == "ltc":
            grads["cell.target"] = g_vec[2]
        return [grads[key] for key in names]

    return states[-1].copy(), vjp


def _head_forward(spec: SystemSpec, params, h, cfg: TrainConfig, rng, scales):
    """The dense head on the final hidden state ``h`` (V x B).

    A ReLU MLP, with dropout drawn from ``rng`` when one is given (training)
    and none otherwise.  A coefficient output with a declared sign is a
    ReLU magnitude times that sign; a free coefficient passes through
    linearly.  Both are then multiplied by ``scales`` (see
    :func:`coefficient_scales`), so the network works with O(1)
    quantities.  Shift outputs go through a sigmoid into (0, 1).

    Returns ``(coeff, d, vjp)``: coefficients p x B, shift fractions q x B
    and a closure mapping ``(g_coeff, g_d)`` to ``(grads, g_h)``, the
    head-parameter gradients by name and the cotangent of ``h``.  Forward
    and backward are bit-identical to recording the head on a tape, one
    primitive per node (matmul, addcol, relu, dropout mul, the output's two
    slices, the sign split, the scale and the sigmoid): they repeat the
    primitives' numpy expressions and add fan-outs in ``Tape.backward``'s
    order.
    """
    n_layers = len(cfg.head_layers) + 1
    p, q = spec.p, cfg.n_shift
    acts, pres, keeps = [h], [], []
    for li in range(n_layers - 1):
        pres.append(params[f"head.w{li}"] @ acts[-1] + params[f"head.b{li}"][:, None])
        act = np.maximum(pres[-1], 0.0)
        if rng is not None and cfg.dropout > 0:
            keeps.append((rng.random(act.shape) >= cfg.dropout) / (1.0 - cfg.dropout))
            act = act * keeps[-1]
        acts.append(act)
    last = n_layers - 1
    out = params[f"head.w{last}"] @ acts[-1] + params[f"head.b{last}"][:, None]
    raw = out[:p]
    signed = spec.sign_vector()
    signed_col = signed[:, None]
    free_col = (signed == 0.0).astype(float)[:, None]
    scale_col = scales[:, None]
    coeff = (np.maximum(raw, 0.0) * signed_col + raw * free_col) * scale_col
    d = 1.0 / (1.0 + np.exp(-out[p:])) if q else np.zeros((0, h.shape[1]))

    def vjp(g_coeff, g_d):
        g_sum = g_coeff * scale_col
        # the free path reaches ``raw`` before the ReLU path
        g_raw = g_sum * free_col
        g_raw = g_raw + g_sum * signed_col * (raw > 0.0)
        g = g_raw
        if q:
            # the two slices' zero-padded cotangents, the shift slice's first
            g_dd = g_d * d * (1.0 - d)
            g = np.vstack((np.zeros_like(g_raw), g_dd)) + np.vstack((g_raw, np.zeros_like(g_dd)))
        grads = {}
        for li in reversed(range(n_layers)):
            grads[f"head.b{li}"] = np.sum(g, axis=1)
            grads[f"head.w{li}"] = g @ acts[li].T
            g = params[f"head.w{li}"].T @ g
            if li:
                if keeps:
                    g = g * keeps[li - 1]
                g = g * (pres[li - 1] > 0.0)
        return grads, g

    return coeff, d, vjp


# ---------------------------------------------------------------------------
# optimizer and training state


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def fresh(cls, params):
        return cls(
            m={k: np.zeros_like(v) for k, v in params.items()},
            v={k: np.zeros_like(v) for k, v in params.items()},
        )

    def update(self, params, grads, cfg: TrainConfig, lr_scale: float = 1.0):
        self.t += 1
        b1, b2 = cfg.beta1, cfg.beta2
        corr1 = 1.0 - b1**self.t
        corr2 = 1.0 - b2**self.t
        lr = cfg.lr * lr_scale
        for key in sorted(params):
            g = grads[key]
            self.m[key] = b1 * self.m[key] + (1 - b1) * g
            self.v[key] = b2 * self.v[key] + (1 - b2) * g * g
            step = lr * (self.m[key] / corr1) / (np.sqrt(self.v[key] / corr2) + cfg.adam_eps)
            params[key] = params[key] - step


@dataclass
class TrainState:
    """Everything needed to continue training bit-identically."""

    arch: str
    params: dict[str, np.ndarray]
    adam: AdamState
    rng_state: dict
    epoch: int
    cfg: TrainConfig


@dataclass
class RecoveryResult:
    coeffs: Coefficients
    shifts: np.ndarray
    loss_history: list[float]
    rmse_y: float
    reconstructions: list[Trace]
    rmse_coeffs: float | None = None
    state: TrainState | None = None
    diverged_windows: int = 0  # replayed windows behind an inf rmse_y


def _project_signs(spec: SystemSpec, values: np.ndarray) -> np.ndarray:
    out = values.copy()
    for i, s in enumerate(spec.coeff_signs):
        if s == "nonneg":
            out[i] = max(out[i], 0.0)
        elif s == "nonpos":
            out[i] = min(out[i], 0.0)
    return out


def _train_step(arch, spec, batches, group, params, adam, dt, cfg, rng, scales, lr_scale):
    """One optimizer step on the training windows ``group``: forward, FD
    solver loss, backward, clipped Adam update of ``params`` in place.
    Returns the per-window losses.

    The tape records three nodes on the parameter leaves: the cell, the
    head (its value is the coefficients stacked over the shift fractions)
    and the mean loss.  The tape, the cell's saved arrays and the head's
    are locals here and die on return."""
    windows = [batches.windows[i] for i in group]
    tape = Tape()
    leaves = {key: tape.leaf(v) for key, v in params.items()}
    cell_keys = [key for key in CELL_LEAVES if key in params]
    head_keys = [key for key in params if key not in cell_keys]
    h, cell_vjp = _cell_forward(arch, params, batches.tensor(group), dt, cfg)
    h_var = tape.custom_node([leaves[key] for key in cell_keys], h, cell_vjp)
    coeff, d, head_vjp = _head_forward(spec, params, h, cfg, rng, scales)
    p = spec.p

    def head_back(g):
        grads, g_h = head_vjp(g[:p], g[p:])
        return [g_h, *(grads[key] for key in head_keys)]

    out_var = tape.custom_node(
        [h_var, *(leaves[key] for key in head_keys)], np.vstack((coeff, d)), head_back
    )
    losses, g_c, g_d = reconstruction_losses(spec, coeff.T, d.T, windows, cfg, want_grads=True)
    B = len(group)
    g_out = np.vstack((g_c.T, g_d.T))
    loss_var = tape.custom_node([out_var], np.mean(losses), lambda cot: [cot * g_out / B])
    grads_table = tape.backward(loss_var)
    grads = {key: grads_table[leaf.idx] for key, leaf in leaves.items()}
    if cfg.weight_grad_clip > 0:
        total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        if total > cfg.weight_grad_clip:
            factor = cfg.weight_grad_clip / total
            grads = {key: g * factor for key, g in grads.items()}
    adam.update(params, grads, cfg, lr_scale)
    if "cell.tau" in params:
        np.clip(params["cell.tau"], 1e-3 * dt, None, out=params["cell.tau"])
    return losses


def train(
    arch: str,
    spec: SystemSpec,
    batches: BatchSet,
    cfg: TrainConfig,
    coeffs_true: Coefficients | None = None,
    state: TrainState | None = None,
) -> RecoveryResult:
    """Train a recovery network and aggregate the final estimates.

    The per-epoch loss history is the mean training-batch loss; the final
    coefficient and shift estimates are the means of the per-window head
    outputs over the test split (train split when no test windows exist),
    evaluated without dropout.  Deterministic for a given seed.

    Each training step records on its own tape inside ``_train_step``,
    and only arrays leave it: one recording, with the cell's saved
    per-substep arrays, is alive at a time.  The initialization probe and
    the evaluation groups record nothing and drop the backward closures.

    Resuming from ``state`` needs the same ``arch`` and a ``cfg`` that
    differs from the checkpoint's only in ``epochs``, and no fewer epochs
    than it has done; ConfigError otherwise.
    """
    if arch not in ARCHS:
        raise SpecError(f"unknown architecture {arch!r}")
    if not batches.windows:
        raise SpecError("empty batch set")
    for ch in cfg.shift_channels:
        if not 0 <= ch < spec.m:
            raise SpecError(f"shift channel {ch} is out of range for m={spec.m} inputs")
    k = batches.k
    dt = batches.windows[0].dt
    n_channels = batches.windows[0].y.shape[0] + batches.windows[0].u.shape[0]

    scales = coefficient_scales(spec, list(batches.windows))
    if state is None:
        rng = np.random.default_rng(cfg.seed)
        params = init_params(arch, spec, n_channels, cfg, rng, dt, k)
        probe = batches.tensor(batches.train_idx[: min(8, len(batches.train_idx))])
        params["head.w0"] /= _probe_hidden_scale(arch, params, probe, dt, cfg)
        n_layers = len(cfg.head_layers) + 1
        params[f"head.b{n_layers - 1}"][: spec.p] = resting_consistent_init(
            spec, list(batches.windows), scales, prior=cfg.coeff_bias_init
        )
        adam = AdamState.fresh(params)
        start_epoch = 0
    else:
        if state.arch != arch:
            raise ConfigError(f"checkpoint was trained as {state.arch!r}, not {arch!r}")
        changed = [
            f.name for f in fields(cfg)
            if f.name != "epochs" and getattr(cfg, f.name) != getattr(state.cfg, f.name)
        ]
        if changed:
            raise ConfigError(f"resume changes the checkpoint's TrainConfig: {', '.join(changed)}")
        if cfg.epochs < state.epoch:
            raise ConfigError(f"epochs={cfg.epochs} is below the checkpoint's {state.epoch}")
        rng = np.random.default_rng()
        rng.bit_generator.state = state.rng_state
        params = {key: v.copy() for key, v in state.params.items()}
        adam = AdamState(
            m={key: v.copy() for key, v in state.adam.m.items()},
            v={key: v.copy() for key, v in state.adam.v.items()},
            t=state.adam.t,
        )
        start_epoch = state.epoch

    train_groups = batches.train_batches
    loss_history: list[float] = []

    for _epoch in range(start_epoch, cfg.epochs):
        lr_scale = min(1.0, (_epoch + 1) / cfg.warmup_epochs) if cfg.warmup_epochs else 1.0
        epoch_losses = []
        any_alive = False
        for group in train_groups:
            losses = _train_step(
                arch, spec, batches, group, params, adam, dt, cfg, rng, scales, lr_scale
            )
            epoch_losses.append(float(np.mean(losses)))
            if np.any(losses < DIVERGED_LOSS):
                any_alive = True
        if not any_alive:
            raise TrainingError("every batch element diverged for an entire epoch")
        loss_history.append(float(np.mean(epoch_losses)))

    # final estimates on the held-out windows, dropout off
    eval_idx = batches.test_idx if batches.test_idx else batches.train_idx
    coeff_cols, d_cols = [], []
    for start in range(0, len(eval_idx), cfg.batch_size):
        tensor = batches.tensor(eval_idx[start : start + cfg.batch_size])
        h = _cell_forward(arch, params, tensor, dt, cfg)[0]
        coeff_col, d_col = _head_forward(spec, params, h, cfg, None, scales)[:2]
        coeff_cols.append(coeff_col)
        d_cols.append(d_col)
    coeff_mat = np.hstack(coeff_cols)
    d_mat = np.hstack(d_cols)
    coeff_est = _project_signs(spec, np.mean(coeff_mat, axis=1))
    d_mean = np.mean(d_mat, axis=1) if cfg.n_shift else np.zeros(0)
    shifts = cfg.shift_samples(d_mean) if cfg.n_shift else np.zeros(0)
    coeffs = Coefficients(coeff_est)

    # every eval window replayed in one batch; rows are independent
    windows = [batches.windows[i] for i in eval_idx]
    u_blocks = [_shift_inputs(w.u, shifts, cfg.shift_channels)[None] for w in windows]
    y_est, diverged, rmses = replay(
        spec, np.repeat(coeffs.values[None, :], len(windows), axis=0), u_blocks, windows,
        cfg.solve_substeps,
    )
    recons = [
        Trace(w.t0, w.dt, y, u[0], w.labels, dict(w.meta))
        for w, y, u in zip(windows, y_est, u_blocks)
    ]
    rmse_c = None if coeffs_true is None else rmse_coeffs(coeffs, coeffs_true)

    final_state = TrainState(
        arch=arch,
        params=params,
        adam=adam,
        rng_state=rng.bit_generator.state,
        epoch=cfg.epochs,
        cfg=cfg,
    )
    return RecoveryResult(
        coeffs=coeffs,
        shifts=shifts,
        loss_history=loss_history,
        rmse_y=float(np.mean(rmses)),
        reconstructions=recons,
        rmse_coeffs=rmse_c,
        state=final_state,
        diverged_windows=int(np.count_nonzero(diverged)),
    )


def recover(
    traces: list[Trace],
    spec: SystemSpec,
    arch: str,
    cfg: TrainConfig,
    k_window: int = 200,
    split_ratio: float = 0.75,
    coeffs_true: Coefficients | None = None,
) -> RecoveryResult:
    """Window the traces, train, and report the aggregated estimates."""
    from .signals import make_batches

    batches = make_batches(traces, cfg.batch_size, k_window, split_ratio, seed=cfg.seed)
    return train(arch, spec, batches, cfg, coeffs_true=coeffs_true)


# ---------------------------------------------------------------------------
# checkpointing


def _arrays_to_lists(d):
    return {k: np.asarray(v).tolist() for k, v in d.items()}


def _lists_to_arrays(d):
    return {k: np.array(v, dtype=float) for k, v in d.items()}


def save_checkpoint(state: TrainState, path) -> None:
    """Write a JSON checkpoint; reloading reproduces subsequent training
    bit-identically (python float repr round-trips exactly)."""
    doc = {
        "arch": state.arch,
        "epoch": state.epoch,
        "params": _arrays_to_lists(state.params),
        "adam_m": _arrays_to_lists(state.adam.m),
        "adam_v": _arrays_to_lists(state.adam.v),
        "adam_t": state.adam.t,
        "rng_state": state.rng_state,
        "cfg": asdict(state.cfg),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_checkpoint(path) -> TrainState:
    with open(path) as fh:
        doc = json.load(fh)
    rng_state = doc["rng_state"]
    # JSON turns ints into arbitrary precision fine, but nested state dicts
    # need their integer leaves restored as python ints
    return TrainState(
        arch=doc["arch"],
        params=_lists_to_arrays(doc["params"]),
        adam=AdamState(
            m=_lists_to_arrays(doc["adam_m"]),
            v=_lists_to_arrays(doc["adam_v"]),
            t=int(doc["adam_t"]),
        ),
        rng_state=rng_state,
        epoch=int(doc["epoch"]),
        cfg=TrainConfig.from_json(doc["cfg"]),
    )
