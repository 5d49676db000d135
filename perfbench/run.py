"""nullctrl benchmark: time to a verified null control on preset workloads.

    python3 perfbench/run.py --workload heat-ah --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload

Run from the root of a checkout; the program is imported from `src/`.  Each
sample is one `nullctrl.cli.run` call (config, assembly, solve, extraction,
forward verification, CSV/VTK artifacts) in its own child process, with a
fresh output directory under `.perfbench_tmp/` that is removed afterwards.
Samples run one after another (closed loop, one client) until the next one
would end after `--seconds`.

With `--trace 0` the end-to-end metrics are reported; with `--trace 1`
traced and untraced samples alternate and the per-layer metrics of the
traced ones are reported.  Every value is the median over the run's samples.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".perfbench_tmp")

MIN_SETUPS = 5          # set-up samples per run, for a steady setup_s median
CHILD_TIMEOUT = 150.0   # seconds; a sample that takes longer has failed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "verify_ratio": "ratio"}
PER_LAYER = {
    "saddle.solve_s": "s", "saddle.iterations": "count",
    "saddle.iters_per_s": "1/s", "saddle.bytes_per_iter": "B",
    "saddle.converged_share": "ratio", "saddle.factorizations": "count",
    "saddle.factor_share": "ratio", "saddle.factor_reuse": "ratio",
    "forms.assemble_s": "s", "forms.assemble_calls": "count",
    "forms.dofs": "count", "forms.nnz": "count",
    "weights.coeff_share": "ratio",
    "forward.verify_s": "s", "forward.steps": "count",
    "forward.factorizations": "count", "forward.factor_s": "s",
    "forward.control_eval_s": "s",
    "fem.eval_s": "s", "fem.eval_calls": "count", "fem.eval_points": "count",
    "mesh.locate_s": "s", "mesh.locate_calls": "count",
    "weights.inv_weight_s": "s", "weights.inv_weight_calls": "count",
    "fem.l2_norm_share": "ratio", "pipeline.outer_iterations": "count",
    "pipeline.self_s": "s", "mesh.build_s": "s", "config.validate_s": "s",
    "vtkout.write_s": "s", "vtkout.bytes": "B", "cli.self_s": "s",
    "trace.run_s": "s", "trace.overhead_s": "s",
}


def summarize(values):
    """Median, sample count, extremes, and the highest of p50/p75/p90/p99
    that has at least ten samples beyond it (None when there are too few)."""
    vals = sorted(values)
    n = len(vals)
    out = {"median": statistics.median(vals), "n": n,
           "min": vals[0], "max": vals[-1], "pct": None}
    for q in (99, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(vals, n=100, method="inclusive")
            out["pct"] = (q, cut[q - 1])
            break
    return out


def thread_caps():
    n = str(len(os.sched_getaffinity(0)))
    return {var: n for var in THREAD_VARS}


def _child_env():
    env = dict(os.environ)
    env.update(thread_caps())
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


class Sample:
    """One child process: its set-up time and, unless set-up only, one run."""

    def __init__(self, workload, seed, trace=False, setup_only=False,
                 run_id=0):
        self.setup_s = None
        self.result = None
        self.outputs = None
        self.problems = []
        workdir = tempfile.mkdtemp(dir=TMP)
        out = os.path.join(workdir, "out")
        spec = {"src": SRC, "preset": workload.preset,
                "settings": workload.settings_for(seed),
                "argv": workload.argv(seed, out), "trace": trace,
                "setup_only": setup_only, "run_id": run_id}
        try:
            self._run(spec, workdir)
            if not setup_only and not self.problems:
                self.outputs = workloads.read_outputs(out)
                self.problems = workloads.check(workload, seed, self.outputs)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.problems.append(f"{type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def _run(self, spec, workdir):
        errpath = os.path.join(workdir, "stderr.txt")
        with open(errpath, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"),
                 json.dumps(spec)],
                stdout=subprocess.PIPE, stderr=err, text=True,
                env=_child_env(), cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
            timer.start()
            try:
                if proc.stdout.readline().strip() == "READY":
                    self.setup_s = time.perf_counter() - t0
                rest = proc.stdout.read()
            finally:
                timer.cancel()
                proc.stdout.close()
                proc.wait()
        for line in rest.splitlines():
            if line.startswith("RESULT "):
                self.result = json.loads(line[len("RESULT "):])
        if proc.returncode != 0 or self.setup_s is None or (
                not spec["setup_only"] and self.result is None):
            with open(errpath) as fh:
                tail = fh.read()[-2000:]
            self.problems.append(f"child exited with {proc.returncode}: "
                                 f"{tail.strip()}")
        elif self.result is not None and self.result["rc"] != 0:
            self.problems.append(f"nullctrl run returned {self.result['rc']}")

    @property
    def ok(self):
        return not self.problems


def measure(workload, seed, seconds, trace):
    """Closed-loop samples for `seconds`, plus set-up-only samples."""
    Sample(workload, seed, setup_only=True)   # warm bytecode and file caches
    deadline = time.perf_counter() + seconds
    samples, walls = [], []
    min_samples = 2 if trace else 1
    while True:
        t0 = time.perf_counter()
        samples.append(Sample(workload, seed, trace=trace and
                              len(samples) % 2 == 1, run_id=len(samples)))
        walls.append(time.perf_counter() - t0)
        if (len(samples) >= min_samples and time.perf_counter()
                + statistics.median(walls) > deadline):
            break
    setups = [s.setup_s for s in samples if s.setup_s is not None]
    while len(setups) < MIN_SETUPS:
        extra = Sample(workload, seed, setup_only=True)
        if extra.setup_s is None:
            break
        setups.append(extra.setup_s)
    return samples, setups


def end_to_end(samples, setups):
    good = [s for s in samples if s.ok]
    return {
        "run_s": summarize([s.result["run_s"] for s in good]),
        "setup_s": summarize(setups),
        "peak_rss_mb": summarize([s.result["peak_rss_mb"] for s in good]),
        "verify_ratio": summarize([s.outputs["verify_ratio"] for s in good]),
    }


def per_layer(samples):
    traced = [s for s in samples if s.ok and "layers" in s.result]
    plain = [s for s in samples if s.ok and "layers" not in s.result]
    stats = {name: summarize([s.result["layers"][name] for s in traced])
             for name in traced[0].result["layers"]}
    stats["trace.run_s"] = summarize([s.result["run_s"] for s in traced])
    overhead = (stats["trace.run_s"]["median"]
                - statistics.median(s.result["run_s"] for s in plain))
    stats["trace.overhead_s"] = {"median": overhead, "n": len(traced),
                                 "min": overhead, "max": overhead,
                                 "pct": None}
    layers = {}
    for s in traced:
        for layer, v in s.result["self_s"].items():
            layers.setdefault(layer, []).append(v)
    unattributed = statistics.median(
        s.result["run_s"] - sum(s.result["self_s"].values()) for s in traced)
    return stats, {k: statistics.median(v) for k, v in layers.items()}, \
        unattributed


def _fmt(value):
    return f"{value:.6g}"


def report(workload, seed, seconds, trace):
    """Measure one workload, print its metrics, return the JSON result."""
    samples, setups = measure(workload, seed, seconds, trace)
    failed = [s for s in samples if not s.ok]
    print(f"== workload {workload.name}  seed {seed}  "
          f"({workload.seed_key} = {workload.seed_value(seed)})  "
          f"trace {int(trace)}")
    print("   nullctrl " + " ".join(workload.argv(seed, "<tmp>")))
    print("   thread caps: " + " ".join(
        f"{k}={v}" for k, v in thread_caps().items()))
    for s in failed:
        print(f"   FAILED run: {'; '.join(s.problems)}")
    print(f"   fail_rate    {len(failed) / len(samples):.6g} ratio  "
          f"({len(failed)} of {len(samples)} runs failed)")
    kinds = {"layers" in s.result for s in samples if s.ok}
    if kinds != ({True, False} if trace else {False}):
        print("error: no successful run to measure", file=sys.stderr)
        return None
    if trace:
        stats, layers, unattributed = per_layer(samples)
        units = PER_LAYER
    else:
        stats, units = end_to_end(samples, setups), END_TO_END
    for name, unit in units.items():
        st = stats[name]
        pct = (f", p{st['pct'][0]} {_fmt(st['pct'][1])}" if st["pct"]
               else f", max {_fmt(st['max'])}")
        print(f"   {name:26s} {_fmt(st['median']):>12s} {unit:6s} "
              f"(median of {st['n']}, min {_fmt(st['min'])}{pct})")
    if trace:
        run_s = stats["trace.run_s"]["median"]
        print("   layer self time (median of traced runs):")
        for layer, v in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"     {layer:20s} {v:9.4f} s  {100 * v / run_s:5.1f} %")
        print(f"     {'(unattributed)':20s} {unattributed:9.4f} s   "
              f"traced run_s {run_s:.4f} s, overhead "
              f"{stats['trace.overhead_s']['median']:.4f} s")
    print(f"   correctness: {'PASS' if not failed else 'FAIL'}")
    return {"correct": not failed, "attempted": len(samples),
            "failed": len(failed),
            "metrics": {name: {"value": stats[name]["median"], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nullctrl", "cli.py")):
        print(f"error: no nullctrl sources under {SRC}", file=sys.stderr)
        return 2
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    os.makedirs(TMP, exist_ok=True)
    try:
        results = {}
        for name in names:
            res = report(workloads.WORKLOADS[name], args.seed, args.seconds,
                         bool(args.trace))
            if res is None:
                return 1
            results[name] = res
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    bad = [n for n, r in results.items()
           for m in r["metrics"].values() if not math.isfinite(m["value"])]
    if bad:
        print(f"error: non-finite metric in {bad}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
