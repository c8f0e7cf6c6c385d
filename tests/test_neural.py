"""Tests for the recurrent recovery module."""

import numpy as np
import pytest

from physrec.dynamics import SpecError, builtin_system
from physrec.neural import TrainConfig, reconstruction_losses
from physrec.signals import Trace


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
