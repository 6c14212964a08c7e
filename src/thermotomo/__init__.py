"""2-D time-reversal tomography laboratory for piecewise sound speeds."""

from .errors import (
    CompatibilityError,
    ConfigurationError,
    ConvergenceError,
    CriticalAngleError,
    DegenerateInputError,
    DomainError,
    FormatError,
    InstabilityError,
    TangencyError,
    ThermotomoError,
)
from .grid_field import (
    Grid,
    Region,
    ScalarField,
    WaveState,
    dirichlet_energy,
    energy,
    harmonic_extension,
    hd_norm,
    l2_norm,
    make_phantom,
    project_HD,
)
from .medium import (
    InterfaceDescriptor,
    Medium,
    build_medium,
    critical_angle,
    interface_gamma,
    speed_at,
    uniform_medium,
)
from .rays import (
    RayBranchGraph,
    amplitude_coeffs,
    check_visibility,
    energy_split,
    normal_phase_derivatives,
    reflect,
    snell_transmit,
    trace_branches,
)
from .recon import (
    ReconConfig,
    ReconReport,
    apply_error_operator,
    energy_decay_ratio,
    estimate_contraction,
    neumann_series,
    pseudo_inverse_step,
    time_reverse,
)
from .wave_solver import (
    BoundaryTrace,
    SolverConfig,
    cfl_dt,
    evolve,
    exterior_neumann,
    forward,
    solve_backward,
)

__version__ = "0.1.0"
