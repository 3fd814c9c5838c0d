"""Mutation check: the paper's signs and factors, each pinned by a test.

MUTANTS is a table of single-text mutants (name, file, old text, new
text); each old text occurs exactly once in its file, which
`tests/test_mutants.py` checks in tier-1.  The runner

    python3 tests/mutants.py

copies the tree into a temporary directory once per mutant, applies the
mutant there, runs the tier-1 suite with -x and reports whether it
failed.  It prints the survivors and exits 1 if any mutant survived.  The
copies skip the anchor test, which every mutant breaks by design.  pytest
does not collect this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ANCHOR_TEST = "tests/test_mutants.py::test_every_anchor_occurs_once"

_PS = "src/ncplane/phasespace.py"
_DYN = "src/ncplane/dynamics.py"
_SYM = "src/ncplane/symmetries.py"
_PAR = "src/ncplane/params.py"
_SPE = "src/ncplane/spectra.py"
_WIG = "src/ncplane/wigner.py"
_THE = "src/ncplane/thermo.py"

MUTANTS = [
    # the bracket tensor and the Galilei algebra
    ("bracket-theta-sign", _PS, "+ th * (fx * gy - fy * gx)",
     "- th * (fx * gy - fy * gx)"),
    ("rk4-theta-sign", _DYN, "g2 + th * hy,", "g2 - th * hy,"),
    ("symplectic-theta-sign", _SYM, "J[0, 1], J[1, 0] = theta, -theta",
     "J[0, 1], J[1, 0] = -theta, theta"),
    ("J-tail-sign", _PS, "x * py - y * px + 0.5 * th *",
     "x * py - y * px - 0.5 * th *"),
    ("boost-tail-sign", _PS, "m * x - px * t + m * th * py",
     "m * x - px * t - m * th * py"),
    ("central-charge-sign", _PS, "[(K1, K2, -m * m * th, None)]",
     "[(K1, K2, m * m * th, None)]"),
    # oscillator flow and spectrum
    ("closed-form-lambda-sign", _DYN,
     "vx0, vy0 = px0 / m + lam * y0, py0 / m - lam * x0",
     "vx0, vy0 = px0 / m - lam * y0, py0 / m + lam * x0"),
    ("a-drops-1+u", _PAR,
     "return self.hbar * self.omega * math.sqrt(1.0 + self.u)",
     "return self.hbar * self.omega"),
    ("lambda-L-sign", _SPE, "- 0.5j * p.hbar * p.lam * L)",
     "+ 0.5j * p.hbar * p.lam * L)"),
    ("level-b-sign", _SPE, "return p.a * (n + 1) - p.b * two_j",
     "return p.a * (n + 1) + p.b * two_j"),
    ("params-b-sign", _PAR, "return self.hbar * self.lam / 2.0",
     "return -self.hbar * self.lam / 2.0"),
    ("hermite-argument-width-squared", _SPE,
     "Px = np.asarray(pxa, dtype=float) / p.width",
     "Px = np.asarray(pxa, dtype=float) / p.width ** 2"),
    # the shear y -> y - theta p_x and the Wigner normalization
    ("quadrature-guard-shear-sign", _WIG,
     "u, hbar = y - self.params.theta * px",
     "u, hbar = y + self.params.theta * px"),
    ("ground-state-shear-sign", _WIG, "(y - 0.5 * p.theta * px) ** 2",
     "(y + 0.5 * p.theta * px) ** 2"),
    ("xpy-shear-sign", _SPE, '"xpy": (0, 1.0)', '"xpy": (0, -1.0)'),
    ("ground-state-omega-for-w_eff", _WIG,
     "self._k = params.m * params.w_eff / params.hbar",
     "self._k = params.m * params.omega / params.hbar"),
    ("quadrature-prefactor-pi2-hbar", _WIG,
     "psi.step2 / (math.pi * params.hbar) ** 2",
     "psi.step2 / (math.pi ** 2 * params.hbar)"),
    # the two-mode thermodynamics kernel
    ("thermo-U-quantum-a", _THE, "U = U + N * e * r", "U = U + N * a * r"),
    ("thermo-S-ln_d-sign", _THE, "(x2 * r - ln_d)", "(x2 * r + ln_d)"),
    ("thermo-chi-to-omega", _THE, "(p.hbar * p.phi, p.hbar * p.chi)",
     "(p.hbar * p.phi, p.hbar * p.omega)"),
    ("thermo-ln_d-log1p-of-d", _THE, "else duals.log(d)",
     "else duals.log1p(-d)"),
    ("thermo-Cv-drops-1/d", _THE, "(x2 * (x2 * r) / d)", "(x2 * (x2 * r))"),
    ("thermo-log1p-always", _THE, "if value(q) < 0.5 else",
     "if value(q) < 2.0 else"),
    # the symmetry layer
    ("bracket-matrix-operands-swapped", _SYM,
     "return M1 @ J @ M2 - M2 @ J @ M1", "return M2 @ J @ M1 - M1 @ J @ M2"),
    ("span-basis-absolute-pivot", _SYM,
     "k = np.argmax(norms >= 0.5 * norms.max())",
     "k = np.argmax(norms > SVD_THRESHOLD)"),
    ("structure-constants-projection", _SYM,
     "c = np.linalg.lstsq(G, B, rcond=None)[0]", "c = G.T @ B"),
]

_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                               "_runs", "*.egg-info")


def killed(name, file, old, new) -> bool:
    """Whether tier-1 fails on a fresh copy of the tree with the mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_SKIP)
        path = tree / file
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit(f"{name}: old text is not unique in {file}")
        path.write_text(text.replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tree / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", "--continue-on-collection-errors",
             "--deselect", ANCHOR_TEST],
            cwd=tree, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        return run.returncode != 0


def main() -> int:
    survivors = []
    for mutant in MUTANTS:
        start = time.perf_counter()
        ok = killed(*mutant)
        print(f"{'killed' if ok else 'SURVIVED':8s} {mutant[0]} "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
        if not ok:
            survivors.append(mutant[0])
    print(f"survivors: {', '.join(survivors) or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
