"""Numerics for classical and quantum mechanics on the noncommutative plane.

Position coordinates carry a constant deformation theta: {x, y} = theta,
with canonical q-p pairs untouched.  The package covers the deformed
bracket and its Galilei algebra, classical flows against closed forms,
bilinear conserved quantities, the oscillator spectrum and eigenfunctions
in momentum-type representations, Wigner functions, and the thermodynamics
of a solid of such oscillators.
"""

import importlib

# module -> the public names it exports.  The first read of any of them
# imports all ten modules at once, so code that then looks the modules up
# in sys.modules finds every one; `import ncplane.cli` alone loads only
# what a command runs
_EXPORTS = {
    "params": ("CheckFailure", "NCParams"),
    "duals": ("Dual", "value"),
    "phasespace": ("PhasePoint", "ScalarField", "bracket_field",
                   "galilei_generators", "verify_algebra", "sample_points",
                   "FieldEvaluationError"),
    "dynamics": ("Trajectory", "DivergenceError", "hamiltonian_flow",
                 "oscillator_hamiltonian", "oscillator_solution",
                 "oscillator_path", "noether_charges", "charge_drift"),
    "symmetries": ("BilinearForm", "SymmetryBasis", "conserved_bilinears",
                   "membership_check", "structure_constants",
                   "hamiltonian_form", "angular_momentum_form",
                   "su2_standard_forms"),
    "grids": ("GridError", "GridFunction", "uniform_axis",
              "trapezoid_weights"),
    "spectra": ("AliasingError", "SpectrumEntry", "TruncationError",
                "energy", "spectrum", "eigenfunction", "eigen_residuals",
                "momentum_grid", "apply_hamiltonian",
                "apply_angular_momentum", "transform"),
    "wigner": ("WignerError", "QuadratureWigner", "wigner_ground_state",
               "wigner_table", "table_sums", "evolve_liouville"),
    "thermo": ("ThermoPoint", "partition_single_direct", "entropy_sweep",
               "thermo_point"),
    "selftest": ("CheckResult", "run_all"),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for mod, names in _EXPORTS.items():
        m = importlib.import_module(f"{__name__}.{mod}")
        globals().update((n, getattr(m, n)) for n in names)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
