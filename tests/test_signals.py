"""Tests for traces, shifting, decimation, and spectra."""

import re
from dataclasses import replace

import numpy as np
import pytest

from physrec.dynamics import SpecError
from physrec.signals import (
    Trace,
    decimate,
    make_batches,
    nyquist_rate,
    periodogram,
    shift_signed,
)


def make_trace(y, u=None, dt=0.1):
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if u is None:
        u = np.zeros((1, y.shape[1]))
    return Trace(0.0, dt, y, u)


class TestFractionalShift:
    def test_zero_shift_is_identity(self):
        row = np.array([1.0, 0.0, 2.0, 0.0])
        assert np.array_equal(shift_signed(row, 0.0), row)

    def test_integer_shift_moves_impulse(self):
        row = np.array([0.0, 5.0, 0.0, 0.0, 0.0])
        assert np.array_equal(shift_signed(row, 1.0), [0, 0, 5, 0, 0])

    def test_half_shift_splits_mass(self):
        row = np.array([4.0, 0.0, 0.0])
        assert np.allclose(shift_signed(row, 0.5), [2.0, 2.0, 0.0])

    def test_out_of_range_rejected(self):
        with pytest.raises(SpecError):
            shift_signed(np.zeros(4), -4.0)
        with pytest.raises(SpecError):
            shift_signed(np.zeros(4), 4.0)

    def test_mass_conserved_without_spill(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            row = np.zeros(30)
            row[rng.integers(0, 10)] = rng.normal()
            s = rng.uniform(0, 15)
            assert abs(shift_signed(row, s).sum() - row.sum()) < 1e-12

    def test_lipschitz_continuity_in_shift(self):
        # the map is piecewise linear in s; the L1 modulus of continuity is
        # 2 eps |x|_1 (tight for a single impulse straddling two bins)
        rng = np.random.default_rng(1)
        for _ in range(50):
            row = rng.normal(size=20)
            s = rng.uniform(0, 10)
            eps = rng.uniform(0.0, min(1.0, 19 - s))
            d = np.abs(shift_signed(row, s + eps) - shift_signed(row, s)).sum()
            assert d <= 2.0 * eps * np.abs(row).sum() + 1e-12

    def test_negative_shift_moves_mass_back(self):
        row = np.array([0.0, 1.0, 2.0, 0.0, 0.0])
        assert np.array_equal(shift_signed(row, -1.0), [1.0, 2.0, 0.0, 0.0, 0.0])
        # spill drops at the front; the fraction splits between neighbours
        assert np.allclose(shift_signed(row, -1.5), [1.5, 1.0, 0.0, 0.0, 0.0])

    def test_integer_shifts_move_impulses(self):
        k, impulses = 12, {2: 3.0, 8: -1.0}
        base = np.zeros(k)
        base[list(impulses)] = list(impulses.values())
        for s in (1, 3, 4):
            moved = np.zeros(k)
            for idx, mag in impulses.items():
                if idx + s < k:  # mass shifted past the end is dropped
                    moved[idx + s] = mag
            assert np.array_equal(shift_signed(base, float(s)), moved)


class TestDecimate:
    def test_factor_one_is_identity(self):
        tr = make_trace(np.arange(10.0))
        assert decimate(tr, 1) is tr

    def test_indices_and_dt(self):
        tr = make_trace(np.arange(5.0), dt=0.001)
        out = decimate(tr, 2)
        assert out.k == 3 and out.dt == pytest.approx(0.002)
        assert np.array_equal(out.y[0], [0.0, 2.0, 4.0])

    def test_composition(self):
        tr = make_trace(np.arange(100.0))
        once = decimate(decimate(tr, 2), 3)
        direct = decimate(tr, 6)
        assert np.array_equal(once.y, direct.y)
        assert once.dt == pytest.approx(direct.dt)

    def test_too_short_rejected(self):
        tr = make_trace(np.arange(4.0))
        with pytest.raises(SpecError):
            decimate(tr, 4)


class TestPeriodogram:
    def test_parseval(self):
        rng = np.random.default_rng(3)
        for k in (256, 999, 1000):
            x = rng.normal(size=k)
            _, p = periodogram(x, 10.0)
            ms = np.mean(x**2)
            assert abs(p.sum() - ms) <= 1e-9 * ms

    def test_pure_tone_concentration(self):
        t = np.arange(1000) / 100.0
        x = np.sin(2 * np.pi * 5.0 * t)
        f, p = periodogram(x, 100.0)
        bin5 = np.argmin(np.abs(f - 5.0))
        assert p[bin5] / p[1:].sum() > 0.99

    def test_constant_signal_is_dc_only(self):
        f, p = periodogram(np.full(64, 3.3), 8.0)
        assert p[0] > 0 and np.all(p[1:] < 1e-20)

    def test_two_tones_two_bins(self):
        t = np.arange(1000) / 100.0
        x = np.sin(2 * np.pi * 4.0 * t) + 0.5 * np.sin(2 * np.pi * 17.0 * t)
        f, p = periodogram(x, 100.0)
        top = np.argsort(p[1:])[-2:] + 1
        assert sorted(np.round(f[top], 6)) == [4.0, 17.0]


class TestNyquistRate:
    def test_pure_tone(self):
        t = np.arange(1000) / 100.0
        x = np.sin(2 * np.pi * 5.0 * t)
        assert abs(nyquist_rate(x, 100.0) - 10.0) <= 0.1 + 1e-12

    def test_dc_signal(self):
        assert nyquist_rate(np.full(128, 2.0), 100.0) == 0.0

    def test_two_tone_90_percent(self):
        t = np.arange(1000) / 100.0
        x = 3.0 * np.sin(2 * np.pi * 2.0 * t) + 1.0 * np.sin(2 * np.pi * 40.0 * t)
        assert abs(nyquist_rate(x, 100.0) - 4.0) <= 2 * 0.1 + 1e-12


class TestBatches:
    def _traces(self, n, k=200, n_y=2, m=1):
        rng = np.random.default_rng(5)
        return [
            Trace(0.0, 0.1, rng.normal(size=(n_y, k)), rng.normal(size=(m, k)))
            for _ in range(n)
        ]

    def test_paper_style_split(self):
        bs = make_batches(self._traces(64), 32, 200, 0.75, seed=0)
        assert len(bs.train_idx) == 48 and len(bs.test_idx) == 16

    def test_batch_tensor_shape(self):
        bs = make_batches(self._traces(64), 32, 200, 0.75, seed=0)
        groups = bs.train_batches
        assert bs.tensor(groups[0]).shape == (32, 3, 200)
        assert bs.tensor(groups[-1]).shape[0] == 16  # remainder batch

    def test_short_trace_rejected(self):
        traces = self._traces(3) + self._traces(1, k=100)
        with pytest.raises(SpecError) as err:
            make_batches(traces, 8, 200, 0.75)
        assert "100" in str(err.value) or "window" in str(err.value)

    def test_no_training_window_rejected(self):
        # one 200-sample window rounds to 0 training windows at ratio 0.4
        with pytest.raises(SpecError, match=r"1 window\(s\) at split_ratio=0.4 leave no training"):
            make_batches(self._traces(1), 32, 200, 0.4)

    def test_deterministic_split(self):
        a = make_batches(self._traces(16), 4, 100, 0.5, seed=9)
        b = make_batches(self._traces(16), 4, 100, 0.5, seed=9)
        assert a.train_idx == b.train_idx and a.test_idx == b.test_idx

    def test_windowing_covers_trace(self):
        traces = self._traces(2, k=450)
        bs = make_batches(traces, 4, 200, 1.0, seed=0)
        # two windows per 450-sample trace, in trace order
        slices = [(tr, start) for tr in traces for start in (0, 200)]
        assert bs.y.shape == (4, 2, 200) and bs.u.shape == (4, 1, 200)
        for y, u, (tr, start) in zip(bs.y, bs.u, slices):
            assert np.array_equal(y, tr.y[:, start : start + 200])
            assert np.array_equal(u, tr.u[:, start : start + 200])

    def test_mask_read_from_json_matches_a_tuple(self):
        # load_dataset reads masks as tuples; a list of the same entries is the same mask
        first, second = self._traces(2, n_y=1)
        traces = [replace(first, meta={"mask": (1, 0)}), replace(second, meta={"mask": [1, 0]})]
        assert make_batches(traces, 4, 200, 1.0).mask == (1, 0)

    @pytest.mark.parametrize(
        "odd,message",
        [
            ({"meta": {"mask": (0, 1)}}, "sensing mask (0, 1) but trace 0 has (1, 0)"),
            ({"meta": {}}, "sensing mask None but trace 0 has (1, 0)"),
            ({"y": np.zeros((2, 200))}, "observed channels 2 but trace 0 has 1"),
            ({"u": np.zeros((2, 200))}, "inputs 2 but trace 0 has 1"),
            ({"dt": 0.2}, "dt 0.2 but trace 0 has 0.1"),
        ],
        ids=["mask", "no-mask", "observed", "inputs", "dt"],
    )
    def test_mixed_traces_rejected(self, odd, message):
        first = replace(self._traces(1, n_y=1)[0], meta={"mask": (1, 0)})
        with pytest.raises(SpecError, match=f"^trace 2 has {re.escape(message)}$"):
            make_batches([first, first, replace(first, **odd)], 4, 200, 1.0)


class TestTraceValidation:
    def test_dt_positive(self):
        with pytest.raises(SpecError):
            Trace(0.0, 0.0, np.zeros((1, 4)), np.zeros((1, 4)))

    def test_minimum_length(self):
        with pytest.raises(SpecError):
            Trace(0.0, 0.1, np.zeros((1, 1)), np.zeros((1, 1)))

    def test_finite(self):
        y = np.zeros((1, 4))
        y[0, 2] = np.nan
        with pytest.raises(SpecError):
            Trace(0.0, 0.1, y, np.zeros((1, 4)))

    def test_label_split(self):
        tr = Trace(0.0, 0.1, np.zeros((2, 4)), np.zeros((1, 4)), ("a", "b", "u"))
        assert tr.y_labels == ("a", "b") and tr.u_labels == ("u",)
