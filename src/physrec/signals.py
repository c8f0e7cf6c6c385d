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
    is read: the neural loss takes the observed channels from it, and
    ``load_dataset`` splits a CSV's columns into ``y`` and ``u`` by it.
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

    ``windows`` hold one Trace per instance; ``train_idx`` / ``test_idx``
    give the deterministic split.  ``tensor`` stacks y rows over u rows
    into the (instances, channels, k) layout consumed by the recurrent
    cells.
    """

    windows: tuple[Trace, ...]
    train_idx: tuple[int, ...]
    test_idx: tuple[int, ...]
    batch_size: int

    def __post_init__(self):
        if self.batch_size < 1:
            raise SpecError("batch size must be >= 1")
        ks = {w.k for w in self.windows}
        if len(ks) > 1:
            raise SpecError("all windows in a batch set must share k")

    @property
    def k(self) -> int:
        return self.windows[0].k

    def tensor(self, idx) -> np.ndarray:
        return np.stack([np.vstack([self.windows[i].y, self.windows[i].u]) for i in idx])

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

    Windows are consecutive non-overlapping segments of each trace; the
    shuffle and split are deterministic under ``seed``.
    """
    if not traces:
        raise SpecError("no traces supplied")
    if not 0 < split_ratio <= 1:
        raise SpecError("split_ratio must be in (0, 1]")
    windows: list[Trace] = []
    for ti, tr in enumerate(traces):
        if tr.k < k_window:
            raise SpecError(
                f"trace {ti} has k={tr.k} < window {k_window}: "
                f"need at least one window per trace"
            )
        for start in range(0, tr.k - k_window + 1, k_window):
            sl = slice(start, start + k_window)
            meta = dict(tr.meta)
            meta["window_of"] = (ti, start)
            windows.append(
                Trace(
                    tr.t0 + start * tr.dt,
                    tr.dt,
                    tr.y[:, sl],
                    tr.u[:, sl],
                    tr.labels,
                    meta,
                )
            )
    order = np.random.default_rng(seed).permutation(len(windows))
    n_train = int(round(len(windows) * split_ratio))
    if n_train == 0:
        raise SpecError(
            f"{len(windows)} window(s) at split_ratio={split_ratio} leave no training window"
        )
    return BatchSet(
        windows=tuple(windows),
        train_idx=tuple(int(i) for i in order[:n_train]),
        test_idx=tuple(int(i) for i in order[n_train:]),
        batch_size=batch_size,
    )
