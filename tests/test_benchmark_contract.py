"""What the benchmark in perfbench/ needs from the package.

The harness wraps package functions by name and reads their arguments by
name, and its ensemble workload calls the package in-process.  These
tests read perfbench/ without changing it: a rename or deletion in the
package that would break the benchmark fails here, in tier-1.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

import ncplane

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# counter or span namer of tracing.TARGETS -> the arguments it reads
READS = {"_size": ("x", "y", "px", "py"), "_steps": ("t0", "t1", "dt"),
         "_rows": ("temps", "thetas"), "_cells": ("axes",),
         "_samples": ("samples",), "_transform_name": ("psi", "to_basis")}


@pytest.fixture(scope="module")
def bench():
    """perfbench's tracing, worker and checks modules, imported as its
    scripts import them: with perfbench/ on sys.path."""
    ncplane.NCParams  # the tracer looks every module up in sys.modules
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield {name: importlib.import_module(name)
               for name in ("tracing", "worker", "checks")}


def _target(mod, cls, attr):
    owner = sys.modules[f"ncplane.{mod}"]
    return getattr(getattr(owner, cls) if cls else owner, attr)


def test_tracer_installs_and_uninstalls(bench):
    targets = bench["tracing"].TARGETS
    before = [_target(mod, cls, attr) for mod, cls, attr, *_ in targets]
    tracer = bench["tracing"].Tracer()
    try:
        tracer.install()
        wrapped = [_target(mod, cls, attr) for mod, cls, attr, *_ in targets]
    finally:
        tracer.uninstall()
    assert all(w is not b for w, b in zip(wrapped, before))
    assert [_target(mod, cls, attr) for mod, cls, attr, *_ in targets] \
        == before


def test_every_counted_argument_is_in_its_targets_signature(bench):
    seen = set()
    for mod, cls, attr, counters, namer in bench["tracing"].TARGETS:
        params = inspect.signature(_target(mod, cls, attr)).parameters
        for fn in [*counters.values(), *([namer] if namer else [])]:
            if fn.__name__ == "<lambda>":
                continue            # a constant count reads no argument
            seen.add(fn.__name__)
            missing = set(READS[fn.__name__]) - set(params)
            name = ".".join(n for n in (mod, cls, attr) if n)
            assert not missing, f"{name} lacks {sorted(missing)}"
    assert seen == set(READS)


def test_one_ensemble_round_passes_the_benchmark_checks(bench):
    seed = 1
    op_s, out = bench["worker"].Ensemble(seed).round()
    assert len(op_s) == len(out["z_end"])
    bench["checks"].check_ensemble_round(out, seed)
