"""condrift: condensation dynamics of a nonlinear drift equation in 1-D.

Finite-volume entropy solvers for the drift-free equation
rho_t - (x rho^(1+gamma))_x = 0, global-in-time measure solutions with a
growing concentrated mass at the origin, pseudo-inverse diagnostics, and
closed-form reference solutions.
"""

from .frames import (
    GammaConfig,
    time_driftfree_to_original,
    x_of_xi,
    xi_of_x,
)
from .datum import (
    DisconnectedSupport,
    InitialDatum,
    block_datum,
    example_block_datum,
    piecewise_constant,
    piecewise_linear,
)
from .characteristics import (
    CharacteristicState,
    NotSmoothRegime,
    ZeroDatum,
    advance,
    blow_up_time,
    evaluate_smooth_grid,
    first_shock_time,
)
from .conslaw import (
    CflViolation,
    HalfLineGrid,
    HalfLineState,
    SupportOverflow,
    init_from_datum,
    Snapshot,
    make_grid,
    run_until,
    step,
)
from .measure import (
    MeasureState,
    assemble,
    check_entropy_measure,
    original_frame_series,
    pseudo_inverse,
    trace_onset_time,
    wasserstein_to_dirac,
    z_grid,
)
from .oracle import (
    X_explicit,
    mass_explicit,
    u_explicit,
)

__version__ = "0.1.0"
