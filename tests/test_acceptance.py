"""Acceptance gate: the seven advertised guarantees, each with its budget.

Every test runs the same deterministic check the CLI selftest uses,
asserts it passed at the stated tolerances, enforces the runtime budget,
and prints one summary line (bypassing capture so the line is always
visible in the run log).  A last test bounds the suite's peak Python
heap, so a table-sized array on any check's path fails here.
"""

import json
import subprocess
import sys
import time
import tracemalloc

import pytest

from ncplane import selftest


def _announce(capsys, num, result, budget):
    line = f"criterion {num}: {result.line()} [budget {budget:g}s]"
    with capsys.disabled():
        print(line, flush=True)


def test_criterion_1_galilei_algebra(capsys):
    r = selftest.check_algebra(seed=42)
    _announce(capsys, 1, r, 1.0)
    assert r.passed, r.detail
    assert r.seconds < 1.0, f"runtime {r.seconds:.2f}s exceeds 1s"


def test_criterion_2_classical_oscillator(capsys):
    r = selftest.check_oscillator(seed=42)
    _announce(capsys, 2, r, 2.0)
    assert r.passed, r.detail
    assert r.seconds < 2.0, f"runtime {r.seconds:.2f}s exceeds 2s"


def test_criterion_3_symmetry_collapse(capsys):
    r = selftest.check_symmetries(seed=42)
    _announce(capsys, 3, r, 1.0)
    assert r.passed, r.detail
    assert r.seconds < 1.0, f"runtime {r.seconds:.2f}s exceeds 1s"


def test_criterion_4_quantum_spectrum(capsys):
    r = selftest.check_spectrum(seed=42)
    _announce(capsys, 4, r, 20.0)
    assert r.passed, r.detail
    assert r.seconds < 20.0, f"runtime {r.seconds:.2f}s exceeds 20s"


def test_criterion_5_wigner(capsys):
    r = selftest.check_wigner(seed=42)
    _announce(capsys, 5, r, 20.0)
    assert r.passed, r.detail
    assert r.seconds < 20.0, f"runtime {r.seconds:.2f}s exceeds 20s"


def test_criterion_6_thermodynamics(capsys):
    r = selftest.check_thermo(seed=42)
    _announce(capsys, 6, r, 5.0)
    assert r.passed, r.detail
    assert r.seconds < 5.0, f"runtime {r.seconds:.2f}s exceeds 5s"


def test_criterion_7_cli_selftest(tmp_path, capsys):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ncplane.cli", "selftest",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    line = (f"criterion 7: [{'PASS' if proc.returncode == 0 else 'FAIL'}] "
            f"cli-selftest: exit {proc.returncode}, wall {wall:.1f}s "
            f"[budget 60s]")
    with capsys.disabled():
        print(line, flush=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert wall < 60.0, f"wall time {wall:.1f}s exceeds 60s"
    report = json.loads((tmp_path / "selftest.json").read_text())
    assert report["ok"] is True and report["seed"] == 42
    assert len(report["checks"]) == 6
    assert proc.stdout.count("[PASS]") == 6


def test_selftest_peak_memory_stays_below_24_mib():
    # Python-heap bytes, not RSS, so the bound holds on any machine: no
    # table-sized array (the Wigner check's would be 54 MiB) is allocated
    tracemalloc.start()
    try:
        results = selftest.run_all(seed=42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results)
    assert peak < 24 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
