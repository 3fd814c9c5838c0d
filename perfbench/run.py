"""Benchmark of ncplane: one command per workload, outputs checked.

    python3 perfbench/run.py --workload {selftest,cli,ensemble} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is taken from its src/.
With --trace 0 the harness repeats whole rounds of the workload for S
seconds, one program process at a time, and prints the end-to-end
metrics; with --trace 1 it runs one round in-process with spans around
ncplane's public functions and prints the per-layer metrics.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Only the standard library and numpy are used.  OpenBLAS threads are
left as the environment sets them, and recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import checks
import tracing
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "_runs")

WORKLOADS = ("selftest", "cli", "ensemble")
SETUP_PROBES = 9
RUN_LIMIT_S = 170.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MiB"))

PER_LAYER = tuple(
    [(f"{span}.self_s", "s") for span, _ in tracing.spans()]
    + [(f"{span}.{c}", "count") for span, cs in tracing.spans() for c in cs]
    + [(key, "count") for key in tracing.counted()]
    + [(f"selftest.check_{c}.s", "s") for c in wl.SELFTEST_CHECKS]
    + [(f"cli.cmd_{c}.s", "s") for c in wl.CLI_COMMANDS]
    + [("cli.output_bytes", "bytes"), ("process.import_s", "s"),
       ("trace.wall_s", "s"), ("trace.overhead_s", "s")])


def op_percentiles(op_s) -> dict:
    """Median seconds per operation, and the 90th percentile once at least
    ten samples lie beyond it (100 operations)."""
    out = {"op_s.p50": {"value": statistics.median(op_s), "unit": "s"}}
    if len(op_s) >= 100:
        out["op_s.p90"] = {"value": float(np.percentile(op_s, 90)),
                           "unit": "s"}
    return out


class Harness:
    """Runs program processes one at a time inside a per-run directory."""

    def __init__(self, workload: str, seed: int, run_dir: str):
        self.workload, self.seed, self.run_dir = workload, seed, run_dir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("NCPLANE_SEED", "PYTHONPATH")}
        self.env["PYTHONPATH"] = SRC
        # nothing is written under src/, and every run compiles alike
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.correct = True

    def child(self, argv, log: str):
        """Run one process to its end: (exit code, wall s, cpu s, peak KiB)."""
        with open(log, "w") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT,
                                    env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT)
            limit = max(1.0, self.deadline - time.monotonic())
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss

    def worker(self, mode: str, tag: str, seconds: float = 0.0):
        out = os.path.join(self.run_dir, f"{tag}.json")
        rc, wall, cpu, rss = self.child(
            [os.path.join(HERE, "worker.py"), mode, "--workload",
             self.workload, "--seed", str(self.seed), "--seconds",
             str(seconds), "--run-dir", self.run_dir, "--out", out],
            os.path.join(self.run_dir, f"{tag}.log"))
        if rc != 0:
            raise SystemExit(f"worker {mode} exited {rc}; see "
                             f"{os.path.join(self.run_dir, tag + '.log')}")
        with open(out) as fh:
            return json.load(fh), wall, cpu, rss

    def setup_s(self) -> float:
        """Median launch-to-exit time of a process that imports ncplane and
        builds the workload's inputs; one unmeasured probe fills caches."""
        times = [self.worker("setup", f"setup{k}")[1]
                 for k in range(SETUP_PROBES + 1)]
        return statistics.median(times[1:])

    def check(self, what: str, fn, *args):
        try:
            fn(*args)
        except (checks.CheckError, OSError, ValueError, KeyError) as exc:
            self.correct = False
            print(f"check failed: {what}: {exc!r}", file=sys.stderr)

    def cli_op(self, argv, tag: str):
        out_dir = os.path.join(self.run_dir, tag)
        log = out_dir + ".log"
        rc, wall, cpu, rss = self.child(
            ["-m", "ncplane.cli", *argv, "--out-dir", out_dir], log)
        return rc, wall, cpu, rss, out_dir, log

    # --- untraced rounds ---------------------------------------------------

    def selftest_round(self, k: int):
        rc, wall, cpu, rss, out_dir, log = self.cli_op(
            wl.selftest_argv(self.seed), f"r{k}-selftest")
        failed = int(rc != 0)
        if not failed:
            with open(log) as fh:
                self.check("selftest", checks.check_selftest_output,
                           fh.read(), out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        return {"wall_s": wall, "cpu_s": cpu, "rss": rss, "ops": 1,
                "failed": failed}

    def cli_round(self, k: int):
        wall = cpu = 0.0
        rss = failed = 0
        for j, (name, argv) in enumerate(wl.cli_pass(self.seed)):
            rc, w, c, r, out_dir, log = self.cli_op(argv, f"r{k}-{j}-{name}")
            wall, cpu, rss = wall + w, cpu + c, max(rss, r)
            if rc == 0:
                self.check(name, checks.check_cli_command, name, out_dir,
                           self.seed)
            else:
                failed += 1
                with open(log) as fh:
                    tail = fh.read().strip().splitlines()[-1:]
                print(f"failed: {name} exited {rc}: {' '.join(tail)}",
                      file=sys.stderr)
            shutil.rmtree(out_dir, ignore_errors=True)
        return {"wall_s": wall, "cpu_s": cpu, "rss": rss,
                "ops": len(wl.CLI_COMMANDS), "failed": failed}

    def measure(self, seconds: float):
        """End-to-end metrics over whole rounds lasting `seconds` in all."""
        setup = self.setup_s()
        detail = {}
        if self.workload == "ensemble":
            res, _, _, rss = self.worker("ensemble", "ensemble", seconds)
            rounds = res["rounds"]
            for r in rounds:
                self.check("ensemble", checks.check_ensemble_round, r["out"],
                           self.seed)
            op_s = [t for r in rounds for t in r["op_s"]]
            attempted, failed = len(op_s), 0
            detail.update(op_percentiles(op_s))
        else:
            step = self.selftest_round if self.workload == "selftest" \
                else self.cli_round
            rounds, start = [], time.perf_counter()
            while not rounds or time.perf_counter() - start < seconds:
                rounds.append(step(len(rounds)))
            rss = max(r["rss"] for r in rounds)
            attempted = sum(r["ops"] for r in rounds)
            failed = sum(r["failed"] for r in rounds)
        detail["round_wall_s"] = [r["wall_s"] for r in rounds]
        detail["operations"] = attempted
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "setup_s": setup,
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "peak_rss_mb": rss / 1024.0,
        }
        return attempted, failed, metrics, detail

    # --- traced round --------------------------------------------------------

    def trace(self):
        res, _, _, _ = self.worker("trace", "trace")
        rnd = res["round"]
        if self.workload == "selftest":
            attempted = 1
            failed = int(not all(r["passed"] for r in rnd["selftest"]))
            self.check("selftest", checks.require,
                       len(rnd["selftest"]) == len(wl.SELFTEST_CHECKS),
                       "selftest did not run six checks")
        elif self.workload == "cli":
            attempted, failed = len(rnd["cli"]), 0
            for op in rnd["cli"]:
                if op["rc"] == 0:
                    self.check(op["name"], checks.check_cli_command,
                               op["name"], op["out_dir"], self.seed)
                else:
                    failed += 1
                    print(f"failed: {op['name']}: {op['error']}",
                          file=sys.stderr)
        else:
            attempted, failed = rnd["ops"], 0
            self.check("ensemble", checks.check_ensemble_round,
                       rnd["ensemble"], self.seed)
        out_bytes = 0
        for op in rnd.get("cli", ()):
            for dirpath, _, files in os.walk(op["out_dir"]):
                out_bytes += sum(os.path.getsize(os.path.join(dirpath, f))
                                 for f in files)
        metrics = {}
        for name, unit in PER_LAYER:
            base, _, suffix = name.rpartition(".")
            if suffix == "self_s":
                metrics[name] = res["self_s"].get(base, 0.0)
            elif unit == "count":
                metrics[name] = res["counts"].get(name, 0)
            elif suffix == "s":
                metrics[name] = res["total_s"].get(base, 0.0)
        metrics.update({
            "cli.output_bytes": out_bytes,
            "process.import_s": res["import_s"],
            "trace.wall_s": res["traced_wall_s"],
            "trace.overhead_s": res["traced_wall_s"] - res["untraced_wall_s"],
        })
        detail = {"untraced_in_process_wall_s": res["untraced_wall_s"],
                  "spans": os.path.join(self.run_dir, "trace.json")}
        return attempted, failed, metrics, detail


def environment() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"].get("openblas configuration", deps["blas"]["name"])
    except (TypeError, KeyError):       # numpy < 1.26 has no dict mode
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas,
            "nproc": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ncplane", "__init__.py")):
        print(f"no ncplane sources under {SRC}", file=sys.stderr)
        return 2
    run_dir = os.path.join(RUNS, f"{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    h = Harness(args.workload, args.seed, run_dir)
    if args.trace:
        attempted, failed, values, detail = h.trace()
        units = dict(PER_LAYER)
    else:
        attempted, failed, values, detail = h.measure(args.seconds)
        units = dict(END_TO_END)
    for name in os.listdir(run_dir):
        path = os.path.join(run_dir, name)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
    detail["environment"] = environment()
    result = {"correct": h.correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in values.items()}}
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump({"detail": detail, **result}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
