"""The program-side process of the benchmark.

    python3 perfbench/worker.py MODE --workload W --seed N --run-dir D --out F

MODE is one of
  setup     import ncplane and build the workload's inputs, then exit;
            the harness times this from launch to exit
  ensemble  run whole ensemble rounds until --seconds have passed
  trace     run one round of the workload in-process without spans, then
            one with spans, and write the spans to D/trace.json

The result goes to F as JSON.  ncplane must be importable (the harness
puts the checkout's src/ on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import time

import workloads as wl


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Ensemble:
    """One operation flows one point, attaches its charges and evaluates
    the evolved Wigner function at the end point; a round ends with one
    algebra check over the whole batch."""

    def __init__(self, seed: int):
        from ncplane import NCParams, PhasePoint, dynamics, phasespace, wigner
        self.dynamics, self.phasespace, self.wigner = dynamics, phasespace, wigner
        self.p = NCParams(**wl.ENSEMBLE_PARAMS)
        self.H = dynamics.oscillator_hamiltonian(self.p)
        self.W0 = wigner.wigner_ground_state(self.p, center=wl.ENSEMBLE_CENTER)
        self.points = [PhasePoint(*z) for z in wl.ensemble_points(seed)]

    def op(self, z0):
        d = self.dynamics
        traj = d.hamiltonian_flow(self.H, z0, 0.0, wl.ENSEMBLE_T,
                                  wl.ENSEMBLE_DT, self.p)
        traj = d.noether_charges(traj, self.p, hamiltonian=self.H)
        Wt = self.wigner.evolve_liouville(self.W0, self.p, wl.ENSEMBLE_T)
        z = traj.points[-1]
        return (z.tolist(), float(traj.charges["H"][0]),
                float(traj.charges["H"][-1]), float(Wt.at(*z)))

    def round(self):
        op_s, res = [], []
        for z0 in self.points:
            t0 = time.perf_counter()
            res.append(self.op(z0))
            op_s.append(time.perf_counter() - t0)
        rep = self.phasespace.verify_algebra(self.p, samples=self.points)
        z_end, h0, h1, w = zip(*res)
        out = {"z_end": list(z_end), "H_start": list(h0), "H_end": list(h1),
               "W_end": list(w), "algebra_residual": rep.max_residual()}
        return op_s, out


def _no_span(name):
    return contextlib.nullcontext()


def cli_round(seed: int, run_dir: str, tag: str, span=_no_span):
    """One pass over the README commands through `cli.main`, in-process."""
    from ncplane import cli
    ops = []
    for k, (name, argv) in enumerate(wl.cli_pass(seed)):
        out_dir = os.path.join(run_dir, f"{tag}-{k}-{name}")
        rc = err = None
        try:
            with span(f"cli.cmd_{name}"):
                rc = cli.main(argv + ["--out-dir", out_dir])
        except Exception as exc:  # noqa: BLE001 - a crash is a failed op
            err = f"{type(exc).__name__}: {exc}"
        ops.append({"name": name, "rc": rc, "error": err, "out_dir": out_dir})
    return ops


def selftest_round(seed: int, span=_no_span):
    """`selftest.run_all` in-process, with a span around each check."""
    from ncplane import selftest
    checks = selftest.ALL_CHECKS

    def spanned(check):
        def run(seed=42):
            with span(f"selftest.{check.__name__}"):
                return check(seed=seed)
        run.__name__ = check.__name__
        return run

    selftest.ALL_CHECKS = tuple(spanned(c) for c in checks)
    try:
        results = selftest.run_all(seed=wl.program_seed(seed))
    finally:
        selftest.ALL_CHECKS = checks
    return [{"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results]


def run_round(workload: str, seed: int, run_dir: str, tag: str,
              span=_no_span):
    if workload == "selftest":
        return {"selftest": selftest_round(seed, span)}
    if workload == "cli":
        return {"cli": cli_round(seed, run_dir, tag, span)}
    op_s, out = Ensemble(seed).round()
    return {"ensemble": out, "ops": len(op_s)}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "ensemble", "trace"))
    ap.add_argument("--workload", required=True,
                    choices=("selftest", "cli", "ensemble"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import ncplane.cli  # noqa: F401 - every workload needs the whole package
    import_s = time.perf_counter() - t0
    result = {"import_s": import_s}

    if args.mode == "setup":
        if args.workload == "ensemble":
            Ensemble(args.seed)
        elif args.workload == "cli":
            wl.cli_pass(args.seed)
        else:
            wl.selftest_argv(args.seed)
    elif args.mode == "ensemble":
        ens = Ensemble(args.seed)
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            c0, w0 = _cpu(), time.perf_counter()
            op_s, out = ens.round()
            rounds.append({"wall_s": time.perf_counter() - w0,
                           "cpu_s": _cpu() - c0, "op_s": op_s, "out": out})
        result["rounds"] = rounds
    else:
        from tracing import Tracer
        w0 = time.perf_counter()
        run_round(args.workload, args.seed, args.run_dir, "untraced")
        result["untraced_wall_s"] = time.perf_counter() - w0
        tracer = Tracer()
        tracer.install()
        try:
            w0 = time.perf_counter()
            result["round"] = run_round(args.workload, args.seed,
                                        args.run_dir, "traced", tracer.span)
            result["traced_wall_s"] = time.perf_counter() - w0
        finally:
            tracer.uninstall()
        result["self_s"] = tracer.self_times()
        result["total_s"] = tracer.totals()
        result["counts"] = dict(tracer.counts)
        with open(os.path.join(args.run_dir, "trace.json"), "w") as fh:
            json.dump({"spans": tracer.spans}, fh)

    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
