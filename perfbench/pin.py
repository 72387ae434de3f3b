"""Record the output values that verify.py pins, from the current checkout.

Usage (from the repository root):

    python3 perfbench/pin.py SEED [SEED ...]

Runs the sample and converge workloads once per seed and the covariance
workload once (its outputs do not depend on the seed), and rewrites
perfbench/pinned.json. Pins are meant to be taken once, at the commit that
defined the benchmark; later commits are checked against them.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run

SEED_FREE = {"covariance-step-l8"}


def summary(name, seed):
    argv, check = run.WORKLOADS[name]
    work_dir = run.OUT_ROOT / "pin"
    out = work_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    work_dir.mkdir(parents=True, exist_ok=True)
    cli_argv = [*argv, "--seed", str(seed), "--out", str(out)]
    rep = run.run_child("plain", cli_argv, work_dir, time.perf_counter() + 600)
    failures, values = check(out, seed, None) if rep.rc == 0 else (rep.failures, None)
    if failures:
        raise SystemExit(f"{name} seed {seed}: {failures}")
    shutil.rmtree(out)
    return values


def main(seeds):
    sys.path.insert(0, str(run.ROOT / "src"))
    pinned = {"pinned_at": run.git_commit(), "workloads": {}}
    for name in run.WORKLOADS:
        if name in SEED_FREE:
            pinned["workloads"][name] = {"any": summary(name, seeds[0])}
        else:
            pinned["workloads"][name] = {"seeds": {str(s): summary(name, s) for s in seeds}}
        print(f"pinned {name}", flush=True)
    (run.HERE / "pinned.json").write_text(json.dumps(pinned, indent=1) + "\n")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]] or [20240901])
