"""What a process loads: each README command imports only the modules it
runs, and the first read of a public name loads the whole namespace.

One fresh interpreter per command, with cheap arguments; each prints its
sorted `ncplane.*` modules as its last stdout line.  The selftest process
runs beside the others, so the file costs about one selftest of wall time.
"""

import ast
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import ncplane

ALL = {"params", "duals", "phasespace", "dynamics", "symmetries", "grids",
       "spectra", "wigner", "thermo", "selftest"}
# command line -> the ncplane modules loaded besides ncplane and ncplane.cli
FOOTPRINT = {
    (): {"params"},
    ("algebra-check", "--samples", "5"): {"params", "duals", "phasespace"},
    ("classical", "simulate", "--t1", "0.1"):
        {"params", "duals", "phasespace", "dynamics"},
    ("classical", "symmetries"):
        {"params", "duals", "phasespace", "symmetries"},
    ("spectrum", "--n-max", "1"): {"params", "grids", "spectra"},
    ("eigenfunction", "--nodes", "64"): {"params", "grids", "spectra"},
    ("wigner", "--nodes", "64"):
        {"params", "duals", "phasespace", "dynamics", "grids", "spectra",
         "wigner"},
    ("thermo", "sweep", "--grid", "2x2"): {"params", "duals", "thermo"},
    ("selftest",): ALL,
}
_PROBE = """\
import sys
from ncplane import cli
if sys.argv[1:]:
    cli.main(sys.argv[1:])  # its exit code is not the point here
print(" ".join(sorted(m for m in sys.modules if m.startswith("ncplane."))))
"""


def _loaded(argv, out_dir) -> set:
    """The ncplane modules a fresh interpreter holds after running argv."""
    args = [*argv, "--out-dir", str(out_dir)] if argv else []
    proc = subprocess.run([sys.executable, "-c", _PROBE, *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout, proc.stderr
    names = set(proc.stdout.splitlines()[-1].split())
    assert "ncplane.cli" in names, proc.stdout
    return {m.removeprefix("ncplane.") for m in names} - {"cli"}


def test_each_command_loads_only_what_it_runs(tmp_path):
    # selftest first: the short commands share the other two slots
    order = sorted(FOOTPRINT, key=lambda argv: argv != ("selftest",))
    with ThreadPoolExecutor(3) as pool:
        seen = pool.map(lambda a: _loaded(a, tmp_path / "-".join(a)), order)
        assert dict(zip(order, seen)) == FOOTPRINT


def test_public_name_loads_the_whole_namespace():
    code = ("import sys, ncplane\nncplane.NCParams\n"
            "print(sorted(m for m in sys.modules if m.startswith('ncplane')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert ast.literal_eval(out) == ["ncplane", *sorted(
        f"ncplane.{m}" for m in ALL)]


def test_namespace_is_the_parents_55_names():
    names = ["AliasingError", "BilinearForm", "CheckFailure", "CheckResult",
             "DivergenceError", "Dual", "FieldEvaluationError", "GridError",
             "GridFunction", "NCParams", "PhasePoint", "QuadratureWigner",
             "ScalarField", "SpectrumEntry", "SymmetryBasis", "ThermoPoint",
             "Trajectory", "TruncationError", "WignerError",
             "angular_momentum_form", "apply_angular_momentum",
             "apply_hamiltonian", "bracket_field", "charge_drift",
             "conserved_bilinears", "eigen_residuals", "eigenfunction",
             "energy", "entropy_sweep", "evolve_liouville",
             "galilei_generators", "hamiltonian_flow", "hamiltonian_form",
             "membership_check", "momentum_grid", "noether_charges",
             "oscillator_hamiltonian", "oscillator_path",
             "oscillator_solution", "partition_single_direct", "run_all",
             "sample_points", "spectrum", "structure_constants",
             "su2_standard_forms", "table_sums", "thermo_point", "transform",
             "trapezoid_weights", "uniform_axis", "value", "verify_algebra",
             "wigner_ground_state", "wigner_table"]
    assert sorted(ncplane.__all__) == names
    # every name resolves, and dir() lists it
    assert all(getattr(ncplane, name) is not None for name in names)
    assert set(names) <= set(dir(ncplane))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ncplane.no_such_name
