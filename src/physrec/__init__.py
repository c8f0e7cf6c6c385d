"""physrec: coefficient recovery for control-affine ODE models.

The package is organized as a small numpy library:

- ``dynamics``   control-affine systems as sparse term libraries
- ``odesolve``   ``integrate_batch``, the one solver: batched fixed-step
                 RK4 (the reconstruction "SOLVE" box)
- ``signals``    traces, events, spectral rate estimation, batching
- ``tape``       minimal reverse-mode autodiff over dense arrays
- ``neural``     LTC / CT-RNN / NODE recovery architectures and training
- ``sindy``      sparse-regression baseline (library + STRidge)
- ``harness``    metrics, benchmark data generation, experiment sweeps
"""

from .dynamics import (
    Coefficients,
    SensingMask,
    SystemSpec,
    builtin_system,
    eval_rhs,
    load_system_config,
)
from .signals import (
    EventList,
    Trace,
    decimate,
    encode_events,
    make_batches,
    nyquist_rate,
    periodogram,
)
from .neural import RecoveryResult, TrainConfig, recover, train
from .sindy import FunctionLibrary, SparseModel, stridge
from .harness import (
    ExperimentConfig,
    generate_benchmark_data,
    rmse_coeffs,
    rmse_signal,
    run_experiment,
)

__version__ = "0.1.0"
