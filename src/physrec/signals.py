"""Trace data model, shifting, decimation, spectra, windowing.

Traces are uniformly sampled observation/input series.  A differentiable
fractional shift moves input samples in time to model reporting /
synchronization errors; ``rmse_signal`` scores a reconstructed trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import SpecError


@dataclass(frozen=True)
class Trace:
    """Uniformly sampled observed states ``y`` and inputs ``u``.

    ``labels`` lists the y-channel names followed by the u-channel names.
    ``meta`` carries generation-time ground truth (event times,
    coefficient values) and the sensing mask.  Of it, only ``meta["mask"]``
    is read: ``load_dataset`` checks it against the system and splits a
    CSV's columns into ``y`` and ``u`` by it, and ``make_batches`` carries
    it, shared by every trace, to ``BatchSet.mask``, from which the neural
    loss takes the observed states.
    """

    t0: float
    dt: float
    y: np.ndarray  # n_obs x k
    u: np.ndarray  # m x k
    labels: tuple[str, ...] = ()
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        y = np.atleast_2d(np.asarray(self.y, dtype=float))
        u = np.asarray(self.u, dtype=float)
        u = u.reshape(0, y.shape[1]) if u.size == 0 and u.ndim < 2 else np.atleast_2d(u)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "u", u)
        if not self.dt > 0:
            raise SpecError("dt must be positive")
        if y.shape[1] < 2:
            raise SpecError("a trace needs at least two samples")
        if u.shape[1] != y.shape[1]:
            raise SpecError("y and u must share the sample count")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(u))):
            raise SpecError("trace contains non-finite values")
        if self.labels and len(self.labels) != y.shape[0] + u.shape[0]:
            raise SpecError("labels must cover y channels then u channels")

    @property
    def k(self) -> int:
        return self.y.shape[1]

    @property
    def m(self) -> int:
        return self.u.shape[0]

    @property
    def y_labels(self) -> tuple[str, ...]:
        return self.labels[: self.y.shape[0]] if self.labels else ()

    @property
    def u_labels(self) -> tuple[str, ...]:
        return self.labels[self.y.shape[0] :] if self.labels else ()


def shift_signed(row: np.ndarray, s: float) -> np.ndarray:
    """Shift a sample row by a signed, fractional number of samples.

    Each impulse at index j is redistributed to ``j + floor(s)`` and
    ``j + floor(s) + 1`` with linear-interpolation weights; mass shifted
    past either end of the row is dropped.  The map is continuous and
    piecewise linear in ``s``, which keeps losses built on it
    differentiable almost everywhere.
    """
    row = np.asarray(row, dtype=float)
    k = row.shape[0]
    if not -k < s < k:
        raise SpecError(f"shift s={s} outside (-{k}, {k})")
    s = float(s)
    out = np.zeros(k)
    fl = int(np.floor(s))
    fr = s - fl
    lo, hi = fl, fl + 1
    # weight (1 - fr) onto index j + lo, weight fr onto index j + hi
    if -k < lo < k:
        if lo >= 0:
            out[lo:] += (1.0 - fr) * row[: k - lo]
        else:
            out[: k + lo] += (1.0 - fr) * row[-lo:]
    if fr > 0 and -k < hi < k:
        if hi >= 0:
            out[hi:] += fr * row[: k - hi]
        else:
            out[: k + hi] += fr * row[-hi:]
    return out


def rmse_signal(est: np.ndarray, true: np.ndarray) -> float:
    """Mean over channels of the per-channel RMSE between two (n, k) arrays."""
    e = np.atleast_2d(np.asarray(est, dtype=float))
    t = np.atleast_2d(np.asarray(true, dtype=float))
    if e.shape != t.shape:
        raise SpecError(f"signal shapes differ: {e.shape} vs {t.shape}")
    return float(np.mean(np.sqrt(np.mean((e - t) ** 2, axis=1))))


def decimate(tr: Trace, factor: int) -> Trace:
    """Keep every ``factor``-th sample (no anti-alias filtering)."""
    if factor < 1:
        raise SpecError("decimation factor must be >= 1")
    if factor == 1:
        return tr
    k_new = (tr.k - 1) // factor + 1
    if k_new < 2:
        raise SpecError(f"decimating k={tr.k} by {factor} leaves fewer than 2 samples")
    sel = slice(None, None, factor)
    meta = dict(tr.meta)
    meta["decimation"] = meta.get("decimation", 1) * factor
    return Trace(tr.t0, tr.dt * factor, tr.y[:, sel], tr.u[:, sel], tr.labels, meta)


def periodogram(x: np.ndarray, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """One-sided periodogram normalized so total power equals mean square.

    Returns ``(freqs, power)`` with frequencies from 0 to fs/2.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 4:
        raise SpecError("periodogram needs a 1-D signal with k >= 4")
    k = x.size
    spec = np.fft.rfft(x)
    power = np.abs(spec) ** 2 / k**2
    # double the bins that fold (all but DC and, for even k, the Nyquist bin)
    if k % 2 == 0:
        power[1:-1] *= 2.0
    else:
        power[1:] *= 2.0
    freqs = np.fft.rfftfreq(k, d=1.0 / fs)
    return freqs, power


def nyquist_rate(x: np.ndarray, fs: float) -> float:
    """Twice the frequency where cumulative (non-DC) power reaches 90%.

    The DC bin is excluded so constant offsets do not dominate; a signal
    with no non-DC power reports 0.  The result is floored at one bin
    width.
    """
    freqs, power = periodogram(x, fs)
    tail = power[1:]
    total = float(np.sum(tail))
    if total <= 0 or total < 1e-15 * float(np.sum(power)):
        return 0.0
    cum = np.cumsum(tail)
    # tolerate exact-ratio cases that land on the threshold within roundoff
    hit = np.nonzero(cum + 1e-9 * total >= 0.9 * total)[0]
    f90 = freqs[1 + hit[0]]
    f90 = max(f90, freqs[1] - freqs[0])
    return 2.0 * float(f90)


@dataclass(frozen=True)
class BatchSet:
    """Fixed-length windows stacked for batch training.

    ``y`` (windows, observed channels, k) and ``u`` (windows, inputs, k)
    hold every window, C-ordered, on one grid of spacing ``dt``; ``mask``
    is the traces' shared ``meta["mask"]``, or None when they carry none.
    ``train_idx`` / ``test_idx`` give the deterministic split.  ``tensor``
    stacks y rows over u rows into the (windows, channels, k) layout
    consumed by the recurrent cells.
    """

    y: np.ndarray
    u: np.ndarray
    dt: float
    mask: tuple[int, ...] | None
    train_idx: tuple[int, ...]
    test_idx: tuple[int, ...]
    batch_size: int

    def __post_init__(self):
        if self.batch_size < 1:
            raise SpecError("batch size must be >= 1")

    @property
    def k(self) -> int:
        return self.y.shape[2]

    def tensor(self, idx) -> np.ndarray:
        return np.concatenate((self.y[list(idx)], self.u[list(idx)]), axis=1)

    @property
    def train_batches(self) -> list[tuple[int, ...]]:
        idx, size = self.train_idx, self.batch_size
        return [tuple(idx[i : i + size]) for i in range(0, len(idx), size)]


def make_batches(
    traces: list[Trace],
    batch_size: int,
    k_window: int,
    split_ratio: float,
    seed: int = 0,
) -> BatchSet:
    """Window traces to length ``k_window`` and split train/test by ratio.

    Windows are consecutive non-overlapping segments of each trace,
    stacked in trace order; the shuffle and split are deterministic under
    ``seed``.  Every trace must share trace 0's sensing mask (or its
    absence), observed-channel and input counts and ``dt`` (within 1e-9
    relative); SpecError names the first trace that does not.
    """
    if not traces:
        raise SpecError("no traces supplied")
    if not 0 < split_ratio <= 1:
        raise SpecError("split_ratio must be in (0, 1]")
    first = traces[0]
    masks = [None if "mask" not in tr.meta else tuple(tr.meta["mask"]) for tr in traces]
    ys, us = [], []
    for ti, tr in enumerate(traces):
        if masks[ti] != masks[0]:
            diff = ("sensing mask", masks[ti], masks[0])
        elif tr.y.shape[0] != first.y.shape[0]:
            diff = ("observed channels", tr.y.shape[0], first.y.shape[0])
        elif tr.m != first.m:
            diff = ("inputs", tr.m, first.m)
        elif abs(tr.dt - first.dt) > 1e-9 * first.dt:
            diff = ("dt", tr.dt, first.dt)
        else:
            diff = None
        if diff:
            what, mine, theirs = diff
            raise SpecError(f"trace {ti} has {what} {mine} but trace 0 has {theirs}")
        if tr.k < k_window:
            raise SpecError(
                f"trace {ti} has k={tr.k} < window {k_window}: "
                f"need at least one window per trace"
            )
        for start in range(0, tr.k - k_window + 1, k_window):
            ys.append(tr.y[:, start : start + k_window])
            us.append(tr.u[:, start : start + k_window])
    order = np.random.default_rng(seed).permutation(len(ys))
    n_train = int(round(len(ys) * split_ratio))
    if n_train == 0:
        raise SpecError(
            f"{len(ys)} window(s) at split_ratio={split_ratio} leave no training window"
        )
    return BatchSet(
        # np.array, unlike np.stack, gives C order whatever the traces'
        # layout, and the sums over the stacks follow their memory order
        y=np.array(ys),
        u=np.array(us),
        dt=first.dt,
        mask=masks[0],
        train_idx=tuple(int(i) for i in order[:n_train]),
        test_idx=tuple(int(i) for i in order[n_train:]),
        batch_size=batch_size,
    )
