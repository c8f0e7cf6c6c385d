"""Shared fixtures."""

import gc

import pytest


@pytest.fixture
def gc_disabled():
    """Run the test with the cyclic garbage collector off, so that only
    reference counting frees objects."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture
def sindyc_fit(monkeypatch):
    """``fit(spec, coeffs, traces, cfg) -> (xi, columns, result)``: the
    pooled ``harness.fit_sindyc``, with the library coefficients and column
    table it fits caught where the fit maps them onto the spec's
    coefficients."""
    from physrec import harness

    caught = []
    real = harness.map_to_coefficients

    def spy(xi, columns, spec):
        caught.append((xi, columns))
        return real(xi, columns, spec)

    monkeypatch.setattr(harness, "map_to_coefficients", spy)

    def fit(spec, coeffs, traces, cfg):
        result = harness.fit_sindyc(spec, coeffs, traces, cfg)
        return (*caught.pop(), result)

    return fit
