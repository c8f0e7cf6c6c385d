"""Recurrent recovery architectures with an ODE-solver reconstruction loss.

A recurrent cell (liquid-time-constant, CT-RNN or plain neural-ODE style)
reads each (observed + input)-channel window, one step per sample; a dense
head maps the final hidden state to coefficient estimates and per-channel
input-shift fractions; the loss reconstructs the observed trace by
integrating the candidate model from the window's first observation and
penalizes the mean-square mismatch.  Cell and head run on plain arrays,
each with a hand-written backward: the cell's whole window unroll
backpropagates through time in one closure, the head's layers in another.
Sensitivities through the solver are obtained by central finite
differences over the (coefficients, shifts) head outputs.  A training
step splices the three as nodes on a ``Tape`` and calls its ``backward``
once.

Each cell has one implementation, ``_cell_forward``, and the head one,
``_head_forward``; they serve training, evaluation and the
initialization probe alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Coefficients, ConfigError, SensingMask, SpecError, SystemSpec
from .odesolve import integrate_batch
from .signals import BatchSet, rmse_signal, shift_signed
from .tape import Tape

ARCHS = ("ltc", "ctrnn", "node")

# recurrent-cell parameters, in the order of the cell's tape node parents
CELL_LEAVES = ("cell.w_in", "cell.w_rec", "cell.b", "cell.tau", "cell.target")

DIVERGED_LOSS = 1e6


class TrainingError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# head output scaling


def coefficient_scales(spec: SystemSpec, u: np.ndarray) -> np.ndarray:
    """Characteristic magnitude of every coefficient, from declared resting
    levels and the RMS of the input windows ``u`` (windows, m, k).

    A term ``w * c * prod(x_v^p) * u_j`` on equation i has characteristic
    coefficient size ``sigma_i / (prod sigma_v^p * sigma_u_j)``; where a
    coefficient appears in several terms the geometric mean is used.
    Bounded trig factors count as unit scale.  This is the usual
    column-normalization idea carried over to the term library.
    """
    sigma_x = np.maximum(1.0, np.abs(spec.resting_state()))
    m = spec.m
    if m and len(u):
        sigma_u = np.maximum(1.0, np.sqrt(np.mean(u**2, axis=(0, 2))))
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


@dataclass(frozen=True)
class TrainConfig:
    """Training settings.  The cell takes one step per sample and has no
    step count of its own; ``solve_substeps`` is the number of RK4 steps
    per sample of the loss's candidate solves."""

    epochs: int = 200
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 32
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
            ("lr", 0 < self.lr < np.inf, "finite and > 0"),
            ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
            ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"),
            ("adam_eps", 0 < self.adam_eps < np.inf, "finite and > 0"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("solve_substeps", self.solve_substeps >= 1, ">= 1"),
            ("s_max", 0 <= self.s_max < np.inf, "finite and >= 0"),
            ("shift_channels", len({*self.shift_channels}) == self.n_shift, "free of repeats"),
            ("hidden_width", self.hidden_width >= 1, ">= 1"),
            ("head_layers", all(w >= 1 for w in self.head_layers), "widths >= 1"),
            ("dropout", 0 <= self.dropout < 1, "in [0, 1)"),
            ("fd_eps", 0 < self.fd_eps < np.inf, "finite and > 0"),
            # 0 switches a clip off
            ("grad_clip", 0 <= self.grad_clip < np.inf, "finite and >= 0"),
            ("weight_grad_clip", 0 <= self.weight_grad_clip < np.inf, "finite and >= 0"),
            ("warmup_epochs", self.warmup_epochs >= 0, ">= 0"),
        )
        for name, ok, want in rules:
            if not ok:
                raise SpecError(f"TrainConfig.{name} must be {want}, got {getattr(self, name)!r}")

    @property
    def n_shift(self) -> int:
        return len(self.shift_channels)

    def shift_samples(self, d: np.ndarray) -> np.ndarray:
        return np.asarray(d, dtype=float) * self.s_max


# ---------------------------------------------------------------------------
# window replay and the reconstruction loss


def observed_states(spec: SystemSpec, batches: BatchSet) -> list[int]:
    """The states behind ``batches.y``'s channels: those its sensing mask
    marks, or all of them when it has none.  A mask whose length is not
    ``spec.n`` is a ConfigError; one that marks other than ``y``'s channel
    count is a SpecError."""
    mask = batches.mask or (1,) * spec.n
    if len(mask) != spec.n:
        raise ConfigError(
            f"sensing mask {mask} has {len(mask)} entries but {spec.name} has {spec.n} states"
        )
    observed = list(SensingMask(mask).observed)
    if len(observed) != batches.y.shape[1]:
        raise SpecError(
            f"sensing mask {mask} marks {len(observed)} states but the windows hold "
            f"{batches.y.shape[1]} observed channels; set trace.meta['mask']"
        )
    return observed


def rmse_coeffs(est: Coefficients | np.ndarray, truth: Coefficients | np.ndarray) -> float:
    """Root-mean-square error over the coefficient vector."""
    e = est.values if isinstance(est, Coefficients) else np.asarray(est, dtype=float)
    t = truth.values if isinstance(truth, Coefficients) else np.asarray(truth, dtype=float)
    if e.shape != t.shape:
        raise SpecError(f"coefficient vectors differ in length: {e.shape} vs {t.shape}")
    return float(np.sqrt(np.mean((e - t) ** 2)))


def replay(spec: SystemSpec, coeff_rows, u_table, y, observed, dt: float, substeps: int):
    """Solve candidate rows from their windows' first observations.

    ``y`` (windows, n_obs, k) holds the windows' observations of the
    states ``observed`` on a grid of spacing ``dt``.  ``u_table`` (rows, m,
    k) and ``coeff_rows`` (rows, p) hold an equal run of rows per window,
    window by window.  Each row starts from rest with the observed entries
    set to its window's ``y[:, :, 0]``; all go through one
    ``integrate_batch``.  Returns ``(y_est, diverged, rmses)``: every row's
    observed channels (rows, n_obs, k), which are the solver's ``states``
    when all are observed, the divergence flags, and per window its first
    row's ``rmse_signal``, inf if it diverged.
    """
    W, _, k = y.shape
    r = len(u_table) // W
    x0 = np.tile(spec.resting_state(), (len(u_table), 1))
    x0[:, observed] = np.repeat(y[:, :, 0], r, axis=0)
    y_est, diverged, _ = integrate_batch(spec, coeff_rows, x0, u_table, k, dt, substeps)
    if len(observed) < spec.n:
        y_est = y_est[:, observed, :]
    rmses = [
        float("inf") if diverged[b * r] else rmse_signal(y_est[b * r], y[b]) for b in range(W)
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
    idx,
    batches: BatchSet,
    cfg: TrainConfig,
):
    """Losses and central-difference gradients for the candidates of the
    windows ``idx`` of ``batches``.

    ``coeff_rows`` is (B, p) and ``d_rows`` is (B, q), a row per index in
    ``idx``.  Each window's parameters are its coefficients followed by
    its shift fractions, and it solves one table of 1 + 2(p + q) rows: row
    0 is the candidate, and rows 1 + 2i and 2 + 2i add and subtract
    ``eps`` on parameter i (``fd_eps * max(1, |c|)`` on a coefficient,
    ``fd_eps`` on a shift fraction).  Their inputs fill one table, and all
    rows go through one ``replay``.  A row's loss, its mean squared error over the observed
    channels and the samples after the first, is formed in place in the
    states and summed pairwise per channel, the channels added in order.
    Returns ``(losses, g_coeff, g_d)``: row 0's losses and the gradient
    split into its (B, p) and (B, q) parts, both views of one array.  An
    entry is zero where its plus or minus row or row 0 diverged.
    """
    observed = observed_states(spec, batches)  # before the table is filled
    idx = list(idx)
    y = batches.y[idx]
    B, n_obs, k = y.shape
    p, nrow = spec.p, 1 + 2 * (spec.p + cfg.n_shift)

    eps = cfg.fd_eps * np.hstack([np.maximum(1.0, np.abs(coeff_rows)), np.ones_like(d_rows)])
    rows = np.repeat(np.hstack([coeff_rows, d_rows])[:, None, :], nrow, axis=1)
    i = np.arange(eps.shape[1])
    rows[:, 1 + 2 * i, i] += eps
    rows[:, 2 + 2 * i, i] -= eps

    # rows 0 to 2p share the candidate's inputs; only the shift rows move them
    n_same = 1 + 2 * p
    u_table = np.empty((B * nrow, batches.u.shape[1], k))
    for i, table, u in zip(idx, rows, u_table.reshape(B, nrow, -1, k)):
        for j in (0, *range(n_same, nrow)):
            u[j] = _shift_inputs(batches.u[i], cfg.shift_samples(table[j, p:]), cfg.shift_channels)
        u[1:n_same] = u[0]

    y_est, diverged, _ = replay(
        spec, rows[:, :, :p].reshape(B * nrow, p), u_table, y, observed, batches.dt,
        cfg.solve_substeps,
    )

    err = y_est.reshape(B, nrow, n_obs, k)[..., 1:]
    with np.errstate(all="ignore"):
        err -= y[:, None, :, 1:]
        np.square(err, out=err)
        losses = sum(np.moveaxis(np.add.reduce(err, axis=3), 2, 0)) / (n_obs * (k - 1))
    losses = np.where(diverged.reshape(B, nrow) | ~np.isfinite(losses), DIVERGED_LOSS, losses)

    plus, minus = losses[:, 1::2], losses[:, 2::2]
    good = (losses[:, :1] < DIVERGED_LOSS) & (plus < DIVERGED_LOSS) & (minus < DIVERGED_LOSS)
    grads = np.where(good, (plus - minus) / (2 * eps), 0.0)
    g_coeff, g_d = grads[:, :p], grads[:, p:]
    if cfg.grad_clip > 0:
        # near-divergent candidates produce astronomic slopes that would
        # poison the optimizer's second moments; keep the direction, cap
        # the magnitude
        norms = np.sqrt(np.sum(g_coeff**2, axis=1) + np.sum(g_d**2, axis=1))
        grads *= np.minimum(1.0, cfg.grad_clip / np.maximum(norms, 1e-30))[:, None]
    return losses[:, 0], g_coeff, g_d


# ---------------------------------------------------------------------------
# parameter initialization and the forward passes


def resting_consistent_init(
    spec: SystemSpec,
    u: np.ndarray,
    scales: np.ndarray,
    prior: float = 0.3,
    lam: float = 0.1,
) -> np.ndarray:
    """Initial scaled coefficient estimates that keep the resting state
    stationary under the mean of the input windows ``u`` (windows, m, k).

    Solves a small regularized least squares: the right-hand side is
    affine in the coefficients, so zeroing it at the declared resting
    point is a linear condition; the regularizer pulls every scaled
    coefficient toward a common characteristic magnitude.  Starting here
    keeps the first reconstruction solves bounded.
    """
    x0 = spec.resting_state()
    u_mean = np.mean(u, axis=(0, 2)) if spec.m else np.zeros(0)

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
    # losses before learning starts
    params[f"head.w{len(sizes) - 2}"] *= cfg.head_init_scale
    return params


def _probe_hidden_scale(arch, params, tensor, dt) -> float:
    """RMS of the final hidden state over a probe batch of windows.

    Used once at initialization to normalize the head's first layer:
    explicit-Euler cells carry hidden magnitudes that scale with the
    sample interval, and an unnormalized head would scatter the initial
    coefficient proposals far off the stability manifold.  Raises
    TrainingError when the hidden state diverges.
    """
    h = _cell_forward(arch, params, tensor, dt)[0]
    rms = float(np.sqrt(np.mean(np.square(h))))
    if not np.isfinite(rms):
        raise TrainingError(f"{arch} hidden state diverged in the initialization probe")
    return max(rms, 1e-3)


def _cell_forward(
    arch: str,
    params: dict[str, np.ndarray],
    window_tensor: np.ndarray,  # B x C x k
    dt: float,
):
    """Unroll the recurrent cell over the window from a zero state, one
    fused step of ``dt`` per sample.  Returns ``(h, vjp)``: the final
    hidden state (V x B) and a closure mapping its cotangent to the
    gradients of the cell parameters present in ``params``, as a list in
    ``CELL_LEAVES`` order.

    LTC: ``hdot = -h/tau + f (target - h)`` with ``f = softplus(tanh(z))``,
    advanced by the fused semi-implicit step of Hasani et al. (AAAI 2021),
    ``h <- (h + f target dt) / (f dt + 1 + dt/tau)``.  CT-RNN: explicit
    Euler on ``hdot = -h/tau + tanh(z)``.  NODE: explicit Euler on ``hdot =
    tanh(z)``.  Here ``z = w_rec h + drive`` with the per-sample ``drive =
    w_in u + b``.  The softplus is ``log1p(exp(tanh(z)))``: its input lies
    in (-1, 1), so ``exp`` cannot overflow.  One step per sample kept
    every arch's coefficient error within its seeds' spread at the LTC
    paper's six unfolds per sample, in under half the time (CHANGES.md).

    The constants are folded once per call: the LTC columns ``target dt``
    and ``1 + dt/tau``, broadcast with the other column and scalar
    operands to full (V, B) arrays.  Each arch's step is one closure,
    ``step``, that writes ``tanh(z)`` (and LTC's ``f``, numerator and
    denominator, or a CT-RNN/NODE temporary) into the work buffers it is
    given and the next state into ``nxt``, so an LTC step is matmul, add,
    tanh, exp, log1p and five arithmetic ops, all in place.  Each sample's
    drive goes into one (V, B) buffer.

    The forward writes each step straight into a (k + 1, V, B) stack: the
    zero state, then the state after each sample, the last being ``h``.
    The backward visits the samples last to first and recomputes each
    step's work from its saved starting state: the same ``step`` on the
    same operands, now into the backward's own (V, B) buffers and without
    the state update, whose result is the saved next state.  The
    recomputation gives the forward's bits because both passes make the
    same numpy calls on equal operands of the same shape and layout
    (contiguous (V, B) arrays); only their addresses differ.  Every buffer
    of the backward is made once per call, every ufunc writes through a
    positional output, and the cotangent's chain alternates two buffers,
    so the caller's cotangent is never written.

    Both passes are bit-identical to recording the cell on a tape, one
    primitive per node, as the tests' ``reference_tape_cell`` does:
    ``1/tau``, ``scale(target, dt)`` and ``1 + scale(1/tau, dt)`` once,
    then per sample ``addcol(w_in u, b)``, ``add(w_rec h, drive)`` and
    tanh, then for LTC softplus and ``div(add(h, mulcol(f, target dt)),
    addcol(scale(f, dt), 1 + dt/tau))``.  The forward repeats their numpy
    operations in their order, and the backward applies each primitive's
    backward expression and adds every fan-out in ``Tape.backward``'s
    order (reverse recording order, first contribution first): each
    parameter's per-sample part (a B-axis ``np.add.reduce`` or a matmul)
    starts its total at the last sample and is added into it at every
    earlier one.
    """
    names = [key for key in CELL_LEAVES if key in params]
    w_in, w_rec, b = (params[key] for key in CELL_LEAVES[:3])
    B, _, k = window_tensor.shape
    V = w_rec.shape[0]

    def wide(operand):  # a scalar or a (V, 1) column as a full (V, B) array
        return np.array(np.broadcast_to(operand, (V, B)))

    dt_f, b_col = wide(dt), b[:, None]
    if arch in ("ltc", "ctrnn"):
        tau = params["cell.tau"]
        inv_tau = 1.0 / tau

    def tanh_z(h, drive, th):  # th <- tanh(w_rec h + drive)
        np.matmul(w_rec, h, th)
        np.add(th, drive, th)
        np.tanh(th, th)

    if arch == "ltc":
        tdel_col = (params["cell.target"] * dt)[:, None]
        c_col = (inv_tau * dt + 1.0)[:, None]
        tdel_f, c_f = wide(tdel_col), wide(c_col)

        def step(drive, h, nxt, th, f, num, den):
            tanh_z(h, drive, th)
            np.log1p(np.exp(th, f), f)
            np.multiply(f, tdel_f, num)
            np.add(num, h, num)
            np.multiply(f, dt_f, den)
            np.add(den, c_f, den)
            if nxt is not None:
                np.divide(num, den, nxt)

    elif arch == "ctrnn":
        inv_f = wide(inv_tau[:, None])

        def step(drive, h, nxt, th, tmp):
            tanh_z(h, drive, th)
            if nxt is not None:
                np.multiply(h, inv_f, tmp)
                np.subtract(th, tmp, tmp)
                np.multiply(tmp, dt_f, tmp)
                np.add(h, tmp, nxt)

    else:

        def step(drive, h, nxt, th, tmp):
            tanh_z(h, drive, th)
            if nxt is not None:
                np.multiply(th, dt_f, tmp)
                np.add(h, tmp, nxt)

    n_work = 4 if arch == "ltc" else 2  # the arrays after ``nxt`` in ``step``
    inputs = np.ascontiguousarray(np.transpose(window_tensor, (2, 1, 0)))  # k x C x B
    drive = np.empty((V, B))

    def drive_of(t):  # drive <- w_in u_t + b
        np.matmul(w_in, inputs[t], drive)
        np.add(drive, b_col, drive)

    states = np.empty((k + 1, V, B))  # the zero state, then the state after each sample
    states[0] = 0.0
    work = tuple(np.empty((n_work, V, B)))
    for t in range(k):
        drive_of(t)
        step(drive, states[t], states[t + 1], *work)

    def vjp(g):
        w_rec_t = w_rec.T
        kept = tuple(np.empty((n_work, V, B)))  # the recomputed step's work
        th = kept[0]  # tanh(z), then its derivative 1 - tanh(z)^2
        chain = tuple(np.empty((2, V, B)))  # the cotangent, alternating
        tmp, g_z = np.empty((V, B)), np.empty((V, B))
        n_vec = {"ltc": 2, "ctrnn": 1, "node": 0}[arch]
        # each parameter's (total, per-sample part); LTC's columns are 1 +
        # dt/tau and target dt, CT-RNN's is 1/tau
        g_vec, vec_part = np.empty((2, n_vec, V))
        g_w_rec, w_rec_part = np.empty((2, V, V))
        g_b, b_part = np.empty((2, V))
        g_w_in, w_in_part = np.empty((2, *w_in.shape))
        totals = ((g_vec, vec_part), (g_w_rec, w_rec_part), (g_b, b_part), (g_w_in, w_in_part))
        if arch == "ltc":
            _, f, num, den = kept
            sig_den, den2, g_num, g_den, g_f = np.empty((5, V, B))
        else:
            g_leak = np.empty((V, B))
        for t in reversed(range(k)):
            fresh, g_new = t == k - 1, chain[t % 2]
            h = states[t]
            drive_of(t)
            step(drive, h, None, *kept)
            if arch == "ltc":
                np.negative(th, sig_den)
                np.exp(sig_den, sig_den)
                np.add(1.0, sig_den, sig_den)
                np.multiply(den, den, den2)
                np.negative(num, num)
            np.multiply(th, th, th)
            np.subtract(1.0, th, th)
            if arch == "ltc":
                np.divide(g, den, g_num)
                np.multiply(g, num, g_den)
                np.divide(g_den, den2, g_den)
                np.multiply(g_den, dt_f, g_f)
                np.multiply(g_num, tdel_f, tmp)
                np.add(g_f, tmp, g_f)
                np.divide(g_f, sig_den, g_z)
                np.multiply(g_z, th, g_z)
                np.matmul(w_rec_t, g_z, g_new)
                np.add(g_new, g_num, g_new)
                np.add.reduce(g_den, axis=1, out=vec_part[0])
                np.multiply(g_num, f, g_num)
                np.add.reduce(g_num, axis=1, out=vec_part[1])
            elif arch == "ctrnn":
                np.multiply(g, dt_f, tmp)
                np.negative(tmp, g_leak)
                np.multiply(tmp, th, g_z)
                np.multiply(g_leak, inv_f, tmp)
                np.add(g, tmp, g_new)
                np.matmul(w_rec_t, g_z, tmp)
                np.add(g_new, tmp, g_new)
                np.multiply(g_leak, h, g_leak)
                np.add.reduce(g_leak, axis=1, out=vec_part[0])
            else:
                np.multiply(g, dt_f, g_z)
                np.multiply(g_z, th, g_z)
                np.matmul(w_rec_t, g_z, tmp)
                np.add(g, tmp, g_new)
            g = g_new
            np.matmul(g_z, h.T, w_rec_part)
            np.add.reduce(g_z, axis=1, out=b_part)
            np.matmul(g_z, inputs[t].T, w_in_part)
            for total, part in totals:
                if fresh:
                    np.copyto(total, part)
                else:
                    np.add(total, part, total)
        grads = {"cell.w_in": g_w_in, "cell.w_rec": g_w_rec, "cell.b": g_b}
        if arch == "ltc":
            grads["cell.tau"] = -(g_vec[0] * dt) / (tau * tau)
            grads["cell.target"] = g_vec[1] * dt
        elif arch == "ctrnn":
            grads["cell.tau"] = -g_vec[0] / (tau * tau)
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
# optimizer and training


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
class RecoveryResult:
    coeffs: Coefficients
    shifts: np.ndarray
    loss_history: list[float]
    rmse_y: float
    rmse_coeffs: float | None = None
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
    and the mean loss.  The tape, the cell's saved per-sample states and the
    head's saved arrays are locals here and die on return."""
    tape = Tape()
    leaves = {key: tape.leaf(v) for key, v in params.items()}
    cell_keys = [key for key in CELL_LEAVES if key in params]
    head_keys = [key for key in params if key not in cell_keys]
    h, cell_vjp = _cell_forward(arch, params, batches.tensor(group), dt)
    h_var = tape.custom_node([leaves[key] for key in cell_keys], h, cell_vjp)
    coeff, d, head_vjp = _head_forward(spec, params, h, cfg, rng, scales)
    p = spec.p

    def head_back(g):
        grads, g_h = head_vjp(g[:p], g[p:])
        return [g_h, *(grads[key] for key in head_keys)]

    out_var = tape.custom_node(
        [h_var, *(leaves[key] for key in head_keys)], np.vstack((coeff, d)), head_back
    )
    losses, g_c, g_d = reconstruction_losses(spec, coeff.T, d.T, group, batches, cfg)
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
) -> RecoveryResult:
    """Train a recovery network and aggregate the final estimates.

    The per-epoch loss history is the mean training-batch loss; the final
    coefficient and shift estimates are the means of the per-window head
    outputs over the test split (train split when no test windows exist),
    evaluated without dropout; ``rmse_y`` is their mean ``replay`` RMSE
    under those estimates.  Deterministic for a given seed.

    Each training step records on its own tape inside ``_train_step``,
    and only arrays leave it: one recording, with the cell's (k + 1, V,
    B) stack of per-sample states, is alive at a time.  The
    initialization probe and the evaluation groups record nothing and
    drop the backward closures.
    """
    if arch not in ARCHS:
        raise SpecError(f"unknown architecture {arch!r}")
    if not len(batches.y):
        raise SpecError("empty batch set")
    for ch in cfg.shift_channels:
        if not 0 <= ch < spec.m:
            raise SpecError(f"shift channel {ch} is out of range for m={spec.m} inputs")
    k, dt = batches.k, batches.dt
    n_channels = batches.y.shape[1] + batches.u.shape[1]

    scales = coefficient_scales(spec, batches.u)
    rng = np.random.default_rng(cfg.seed)
    params = init_params(arch, spec, n_channels, cfg, rng, dt, k)
    probe = batches.tensor(batches.train_idx[: min(8, len(batches.train_idx))])
    params["head.w0"] /= _probe_hidden_scale(arch, params, probe, dt)
    n_layers = len(cfg.head_layers) + 1
    params[f"head.b{n_layers - 1}"][: spec.p] = resting_consistent_init(
        spec, batches.u, scales, prior=cfg.coeff_bias_init
    )
    adam = AdamState.fresh(params)

    train_groups = batches.train_batches
    loss_history: list[float] = []

    for epoch in range(cfg.epochs):
        lr_scale = min(1.0, (epoch + 1) / cfg.warmup_epochs) if cfg.warmup_epochs else 1.0
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
            raise TrainingError(
                f"every batch element diverged for an entire epoch (epoch {epoch + 1} of "
                f"{cfg.epochs}, {len(batches.train_idx)} training windows)"
            )
        loss_history.append(float(np.mean(epoch_losses)))

    # final estimates on the held-out windows, dropout off
    eval_idx = batches.test_idx if batches.test_idx else batches.train_idx
    coeff_cols, d_cols = [], []
    for start in range(0, len(eval_idx), cfg.batch_size):
        tensor = batches.tensor(eval_idx[start : start + cfg.batch_size])
        h = _cell_forward(arch, params, tensor, dt)[0]
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
    idx = list(eval_idx)
    u_table = np.stack([_shift_inputs(u, shifts, cfg.shift_channels) for u in batches.u[idx]])
    _, diverged, rmses = replay(
        spec, np.tile(coeffs.values, (len(idx), 1)), u_table, batches.y[idx],
        observed_states(spec, batches), dt, cfg.solve_substeps,
    )
    rmse_c = None if coeffs_true is None else rmse_coeffs(coeffs, coeffs_true)

    return RecoveryResult(
        coeffs=coeffs,
        shifts=shifts,
        loss_history=loss_history,
        rmse_y=float(np.mean(rmses)),
        rmse_coeffs=rmse_c,
        diverged_windows=int(np.count_nonzero(diverged)),
    )
