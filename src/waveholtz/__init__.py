"""Matrix-free time-harmonic solves through filtered time-domain wave runs.

The package turns a Helmholtz problem into repeated wave-equation solves:
each outer application evolves the wave equation with harmonic forcing over a
fixed window and applies a tuned time filter, yielding an affine fixed-point
map whose linear part is symmetric under leapfrog.  Plain fixed-point iteration,
GMRES/CG acceleration, multi-frequency extraction and tunable filter design
sit on top of the same operator.
"""

from .core import (
    DIRICHLET,
    IMPEDANCE,
    NEUMANN,
    BoundarySpec,
    GridMismatchError,
    HelmholtzProblem,
    ScalarField,
    UniformGrid,
    WaveState,
    apply_discrete_laplacian,
    inner_product,
    norm2,
)
from .filters import (
    FilterSpec,
    TimeGrid,
    TunableFilterResult,
    beta_by_quadrature,
    beta_continuous,
    filter_weights,
    fixed_point_rate_bound,
    modified_frequency,
    optimize_tunable_filter,
    shifted_eigenvalue,
)
from .iteration import (
    MultiFrequencyResult,
    WaveHoltzConfig,
    as_affine_system,
    fixed_point_solve,
    multifreq_solve,
    solve,
)
from .krylov import (
    IndefiniteOperatorError,
    IterationReport,
    KrylovConfig,
    LinearOperator,
    cg_solve,
    gmres_solve,
)
from .oracle import (
    ResonanceError,
    SpectralDecomposition,
    TrapezoidReference,
    UnsupportedProblemError,
    assemble_operator,
    direct_helmholtz_solve,
    direct_rk4_solve,
    dirichlet_box_spectrum,
    helmholtz_residual,
    pi_apply_spectral,
    sine_transform,
    inverse_sine_transform,
    trapezoid_reference,
)
from .wavesolver import (
    ForcingSchedule,
    InstabilityError,
    evolve_and_filter,
    first_order_rhs,
)

__version__ = "0.1.0"
