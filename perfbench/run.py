"""Benchmark of the varmatern CLI: three pipelines timed end to end, layers traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Every repetition runs one ``varmatern`` CLI command, with the checkout's
``src/`` on PYTHONPATH, in a fresh child process started from this one
(OpenBLAS and OpenMP pinned to one thread). Repetitions continue while the
next one is expected to finish within ``--seconds`` (at least one; two
without tracing). Every repetition must write outputs with the same digest
as the first, whose outputs are checked (verify.py).

``--trace 0`` reports the end-to-end metrics, medians over repetitions:
``wall_s`` (resolved config to the last output and manifest.json),
``setup_s`` (fresh interpreter to the first compute call; also measured by
three extra children that stop there) and ``peak_rss_mb`` (``ru_maxrss`` of
the child). The two times are scaled to a reference host speed: the
untraced child times a fixed kernel every 0.1 s (speed.py), and each time,
less those probes, is divided by the mean probe time over the same interval
relative to its reference, which takes most of the host's drift out of the
times; the unscaled medians and the speed factors are printed too.
``--trace 1`` alternates untraced and traced repetitions and reports
per-layer metrics from the traced ones (spans.py) plus the tracing
overhead, traced over untraced unscaled wall time of each back-to-back pair
(traced children run no probes). Metric names and units are those of
BENCHMARK.json. The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
exit code is 1 when any output check or child failed, 2 when the checkout
holds no program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import scipy

import spans
import verify
from speed import scaled_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"
RUN_LIMIT_S = 170.0  # one invocation must end within 180 s
SETUP_PROBES = 3
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Fixed CLI arguments; kappa, mu and the radii are spelled out so that a
# change of the program's defaults cannot change a workload. BENCHMARK.json
# says why each workload was chosen. Not workloads: the full-scale
# reproduction (converge at levels 9/8/7, m = 1000) takes about 105 s per
# run, too long for the number of runs a benchmark pass makes, and
# converge-const-l8 runs the same code one level down; kernel-check and
# matern finish in under 0.1 s, below the noise of starting a process, and
# exercise only the checks and reference modules.
_COMMON = ["--kappa", "2.5", "--mu", "1", "--domain.r_int", "3", "--domain.r_ext", "4"]
WORKLOADS = {
    "sample-bump-l6": (
        ["sample", "--profile", "gaussian_bump", "--s-lower", "0.35", "--s-upper", "0.85",
         "--level", "6", "--m", "1000", *_COMMON],
        partial(verify.check_sample, n_nodes=385, m=1000, r_int=3.0),
    ),
    "converge-const-l8": (
        ["converge", "--profile", "constant", "--s", "0.5", "--levels", "8,7,6",
         "--m", "1000", *_COMMON],
        partial(verify.check_converge, levels=[8, 7, 6], m=1000),
    ),
    "covariance-step-l8": (
        ["covariance", "--profile", "step", "--s-lower", "0.35", "--s-upper", "0.85",
         "--level", "8", "--outputs.formats", '["csv","vwm1"]', *_COMMON],
        partial(verify.check_covariance, n_nodes=1537, r_int=3.0, slices=[-1.5, 0.0, 1.5]),
    ),
}


class Rep:
    """One child process: exit code, timings, resource usage, spans, check results."""

    def __init__(self, mode, rc, result, usage):
        self.mode = mode
        self.rc = rc
        self.rss_mb = usage.ru_maxrss / 1024.0 if usage else None
        self.cpu_s = usage.ru_utime + usage.ru_stime if usage else None
        self.spans = result.get("spans")
        self.missing_targets = result.get("missing_targets", [])
        ok = rc == 0 and "t_done" in result
        self.setup_raw_s = self.setup_factor = self.wall_raw_s = self.wall_factor = None
        probes = result.get("probes", [])
        if "t_config" in result:
            self.setup_raw_s, self.setup_factor = scaled_time(
                probes, result["t_spawn"], result["t_config"])
        if ok:
            self.wall_raw_s, self.wall_factor = scaled_time(
                probes, result["t_config"], result["t_done"])
        self.setup_s = _scaled(self.setup_raw_s, self.setup_factor)
        self.wall_s = _scaled(self.wall_raw_s, self.wall_factor)
        self.window = (result["t_config"], result["t_done"]) if ok else None
        self.failures = [] if ok else [f"child exited with code {rc}"]


def _scaled(raw, factor):
    return raw / factor if raw is not None and factor else None


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env():
    env = dict(os.environ, **THREAD_PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return env


def _wait(proc, deadline):
    """Reap the child; returns its resource usage (None if killed at the deadline)."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.perf_counter() > deadline:
            proc.kill()
            _, status, _ = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return None
        time.sleep(0.01)


def run_child(mode, cli_argv, work_dir, deadline):
    result_path = work_dir / "child.json"
    result_path.unlink(missing_ok=True)
    with open(work_dir / "child.log", "w") as log:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(result_path), repr(t_spawn), mode,
             "--", *cli_argv],
            cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=log,
            stderr=subprocess.STDOUT,
        )
        try:
            usage = _wait(proc, deadline)
        finally:
            if proc.returncode is None:  # interrupted while waiting
                proc.kill()
                os.wait4(proc.pid, 0)
    result = json.loads(result_path.read_text()) if result_path.exists() else {}
    return Rep(mode, proc.returncode, result, usage)


def load_pinned(name, seed):
    pinned = json.loads((HERE / "pinned.json").read_text())["workloads"].get(name, {})
    return pinned.get("any", pinned.get("seeds", {}).get(str(seed)))


def run_workload(name, seed, seconds, trace):
    """All repetitions of one invocation; returns the list of Reps."""
    argv, check = WORKLOADS[name]
    work_dir = OUT_ROOT / name
    out = work_dir / "out"
    work_dir.mkdir(parents=True, exist_ok=True)
    cli_argv = [*argv, "--seed", str(seed), "--out", str(out)]
    pinned = load_pinned(name, seed)
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    reps = []
    if not trace:
        for _ in range(SETUP_PROBES):
            reps.append(run_child("setup", cli_argv, work_dir, deadline))
    cycle = ["plain", "traced"] if trace else ["plain"]
    min_cycles = 1 if trace else 2
    checked = {}  # output digest -> check failures of those outputs
    cycles = 0
    while True:
        t_cycle = time.perf_counter()
        for mode in cycle:
            shutil.rmtree(out, ignore_errors=True)
            rep = run_child(mode, cli_argv, work_dir, deadline)
            if rep.rc == 0:
                digest = verify.output_digest(out)
                if digest not in checked:
                    checked[digest] = check(out, seed, pinned)[0]
                    if len(checked) > 1:
                        rep.failures.append(f"{mode} run outputs differ from the first run's")
                rep.failures += checked[digest]
            reps.append(rep)
        cycles += 1
        now = time.perf_counter()
        expected_end = now + (now - t_cycle)
        if expected_end > deadline or (cycles >= min_cycles and expected_end - start > seconds):
            break
    shutil.rmtree(out, ignore_errors=True)
    return reps


def _stats(values):
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def end_to_end_metrics(reps):
    plain = [r for r in reps if r.mode == "plain" and r.wall_s is not None]
    samples = {
        "wall_s": [r.wall_s for r in plain],
        "setup_s": [r.setup_s for r in reps if r.setup_s is not None],
        "peak_rss_mb": [r.rss_mb for r in plain if r.rss_mb is not None],
    }
    return {k: v for k, v in samples.items() if v}


def unscaled_times(reps):
    """Measured times before scaling, and the speed factors, for the printed lines."""
    plain = [r for r in reps if r.mode == "plain" and r.wall_s is not None]
    setup = [r for r in reps if r.setup_s is not None]
    samples = {
        "wall_s unscaled": [r.wall_raw_s for r in plain],
        "wall_s speed factor": [r.wall_factor for r in plain],
        "setup_s unscaled": [r.setup_raw_s for r in setup],
        "setup_s speed factor": [r.setup_factor for r in setup],
    }
    return {k: v for k, v in samples.items() if v}


def per_layer_metrics(reps):
    """Per-layer samples from (untraced, traced) pairs of repetitions run back to back."""
    pairs = [(p, t) for p, t in zip(reps[0::2], reps[1::2]) if p.wall_raw_s and t.wall_raw_s]
    if not pairs:
        return {}
    per_rep = [spans.layer_metrics(t.spans) for _, t in pairs]
    samples = {k: [m[k] for m in per_rep] for k in per_rep[0]}
    samples["trace.coverage_frac"] = [spans.coverage(t.spans, *t.window) for _, t in pairs]
    samples["trace.overhead_frac"] = [t.wall_raw_s / p.wall_raw_s - 1.0 for p, t in pairs]
    return samples


COMPUTED = {
    "assembly.pairs", "assembly.pairs_identical", "assembly.pairs_vertex_sharing",
    "assembly.pairs_disjoint", "assembly.pairs_per_s", "quadrature.order",
    "kernel.bessel_points_per_quad_point", "linalg.flops", "convergence.error_norm_bytes",
}


def report(name, seed, trace, reps, spec):
    """Print the human-readable lines and return the contract's result object."""
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    samples = per_layer_metrics(reps) if trace else end_to_end_metrics(reps)
    failed = [r for r in reps if r.failures]
    workload_reps = [r for r in reps if r.mode != "setup"]
    print(f"# {name} seed={seed} trace={trace}: {len(workload_reps)} workload runs, "
          f"{len(reps) - len(workload_reps)} setup probes, {len(failed)} failed "
          f"(fail_frac {len(failed) / len(reps):.3f})")
    for rep in failed:
        for msg in rep.failures:
            print(f"# FAILED ({rep.mode}): {msg}")
    missing = sorted({t for r in reps for t in r.missing_targets})
    if missing:
        print(f"# trace targets not found: {', '.join(missing)}")
    metrics = {}
    for key, values in samples.items():
        med, q1, q3 = _stats(values)
        metrics[key] = {"value": med, "unit": units[key]}
        label = " [computed]" if key in COMPUTED else ""
        print(f"# {key:38s} {med:14.6g} {units[key]:6s} median of {len(values)}; "
              f"q1 {q1:.6g}, q3 {q3:.6g}{label}")
    if not trace:
        for key, values in unscaled_times(reps).items():
            med, q1, q3 = _stats(values)
            print(f"# {key:38s} {med:14.6g} {'':6s} median of {len(values)}; "
                  f"q1 {q1:.6g}, q3 {q3:.6g}")
    if set(metrics) != set(units):
        print(f"# metrics without a sample: {', '.join(sorted(set(units) - set(metrics)))}")
    if trace:
        traced = [r for r in reps if r.mode == "traced" and r.spans]
        if traced:
            print(f"# quadrature order per level: {spans.orders_per_level(traced[0].spans)}")
    return {
        "correct": not failed and set(metrics) == set(units),
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": metrics,
    }


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() or None


def _openblas(show_config):
    try:
        return show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):
        return None


def environment(seed):
    return {
        "git_commit": git_commit(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _openblas(np.show_config),
        "openblas_scipy": _openblas(scipy.show_config),
        "blas_thread_pin": THREAD_PIN,
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "varmatern" / "cli.py").is_file():
        print(f"no varmatern sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # verify.check_covariance reads with varmatern.fileio
    spec = benchmark_spec()
    env = environment(args.seed)
    print("# env " + json.dumps(env, sort_keys=True))
    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    results = {}
    for name, trace in runs:
        reps = run_workload(name, args.seed, args.seconds, trace)
        result = report(name, args.seed, trace, reps, spec)
        results[(name, trace)] = result
        OUT_ROOT.mkdir(exist_ok=True)
        record = {"workload": name, "trace": trace, "env": env, "result": result,
                  "runs": [{"mode": r.mode, "rc": r.rc, "setup_s": r.setup_s,
                            "setup_raw_s": r.setup_raw_s, "setup_factor": r.setup_factor,
                            "wall_s": r.wall_s, "wall_raw_s": r.wall_raw_s,
                            "wall_factor": r.wall_factor, "cpu_s": r.cpu_s,
                            "peak_rss_mb": r.rss_mb, "failures": r.failures} for r in reps]}
        (OUT_ROOT / f"{name}-seed{args.seed}-trace{trace}.json").write_text(
            json.dumps(record, indent=1))
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}:trace{t}": r["metrics"] for (n, t), r in results.items()},
        }
    else:
        final = results[(args.workload, args.trace)]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
