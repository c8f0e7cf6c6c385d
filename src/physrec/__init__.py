"""physrec: coefficient recovery for control-affine ODE models.

The package is organized as a small numpy library:

- ``dynamics``   control-affine systems as sparse term libraries
- ``odesolve``   ``integrate_batch``, the one solver: batched fixed-step
                 RK4 (the reconstruction "SOLVE" box)
- ``signals``    traces, shifting, spectral rate estimation, batching
- ``tape``       reverse-mode recording of fused nodes over dense arrays
- ``neural``     LTC / CT-RNN / NODE recovery architectures and training
- ``sindy``      sparse-regression baseline (column-key library + STRidge)
- ``harness``    benchmark data generation, experiment sweeps, reports
"""

from .dynamics import (
    Coefficients,
    SensingMask,
    SystemSpec,
    builtin_system,
    load_system_config,
)
from .signals import Trace, decimate, make_batches, nyquist_rate, periodogram, rmse_signal
from .neural import RecoveryResult, TrainConfig, rmse_coeffs, train
from .sindy import build_library, library_columns, stridge
from .harness import ExperimentConfig, generate_benchmark_data, run_experiment

__version__ = "0.1.0"
