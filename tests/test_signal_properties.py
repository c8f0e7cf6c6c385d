"""Property tests of the signal helpers: shift mass and decimation."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from physrec.signals import Trace, decimate, shift_signed

FAST = settings(max_examples=60, deadline=None)


@FAST
@given(
    values=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=40),
    frac=st.floats(0.0, 1.0, exclude_max=True),
)
def test_shift_signed_conserves_mass_without_spill(values, frac):
    row = np.array(values)
    k = row.size
    s = frac * (k - 1)
    # zero every sample whose ceil(s) target would fall past the end
    row[k - math.ceil(s) :] = 0.0
    out = shift_signed(row, s)
    scale = max(1.0, float(np.sum(np.abs(row))))
    assert abs(np.sum(out) - np.sum(row)) <= 1e-12 * scale


@FAST
@given(
    a=st.integers(1, 6),
    b=st.integers(1, 6),
    extra=st.integers(0, 30),
    dt=st.floats(1e-3, 10.0),
)
def test_decimate_composes(a, b, extra, dt):
    k = a * b + 1 + extra
    rng = np.random.default_rng(k)
    tr = Trace(0.0, dt, rng.normal(size=(2, k)), rng.normal(size=(1, k)))
    twice = decimate(decimate(tr, a), b)
    once = decimate(tr, a * b)
    assert np.array_equal(twice.y, once.y)
    assert np.array_equal(twice.u, once.u)
    assert twice.meta.get("decimation", 1) == once.meta.get("decimation", 1)
    assert abs(twice.dt - once.dt) <= 1e-12 * once.dt
