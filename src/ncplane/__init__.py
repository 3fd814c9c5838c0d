"""Numerics for classical and quantum mechanics on the noncommutative plane.

Position coordinates carry a constant deformation theta: {x, y} = theta,
with canonical q-p pairs untouched.  The package covers the deformed
bracket and its Galilei algebra, classical flows against closed forms,
bilinear conserved quantities, the oscillator spectrum and eigenfunctions
in momentum-type representations, Wigner functions, and the thermodynamics
of a solid of such oscillators.
"""

from .params import CheckFailure, NCParams
from .duals import Dual, value
from .phasespace import (
    PhasePoint,
    ScalarField,
    bracket_field,
    galilei_generators,
    verify_algebra,
    sample_points,
    FieldEvaluationError,
)
from .dynamics import (
    Trajectory,
    DivergenceError,
    hamiltonian_flow,
    oscillator_hamiltonian,
    oscillator_solution,
    oscillator_path,
    noether_charges,
    charge_drift,
)
from .symmetries import (
    BilinearForm,
    SymmetryBasis,
    conserved_bilinears,
    membership_check,
    structure_constants,
    hamiltonian_form,
    angular_momentum_form,
    su2_standard_forms,
)
from .grids import GridError, GridFunction, uniform_axis, trapezoid_weights
from .spectra import (
    AliasingError,
    SpectrumEntry,
    TruncationError,
    energy,
    spectrum,
    eigenfunction,
    eigen_residuals,
    momentum_grid,
    apply_hamiltonian,
    apply_angular_momentum,
    transform,
)
from .wigner import (
    WignerError,
    WignerTable,
    QuadratureWigner,
    wigner_ground_state,
    wigner_table,
    evolve_liouville,
)
from .thermo import (
    ThermoParams,
    ThermoPoint,
    partition_single_direct,
    entropy_sweep,
    thermo_point,
)
from .selftest import CheckResult, run_all

__version__ = "0.1.0"
