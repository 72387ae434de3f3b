"""Self-tests of the benchmark (about a minute on two cores).

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import run
import verify

DEFAULT_SEED = 20240901  # the program's default seed, pinned in pinned.json
WORK = run.OUT_ROOT / "selftest"

sys.path.insert(0, str(run.ROOT / "src"))  # check_covariance reads with varmatern.fileio


def _outputs(name, mode):
    """Run one child of a workload at the default seed; returns (outputs, Rep).

    The outputs directory depends only on the workload, because the config
    echo inside the outputs names it.
    """
    argv, _ = run.WORKLOADS[name]
    work_dir = WORK / name
    out = work_dir / "out"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    cli_argv = [*argv, "--seed", str(DEFAULT_SEED), "--out", str(out)]
    rep = run.run_child(mode, cli_argv, work_dir, time.perf_counter() + 300)
    assert rep.rc == 0, (work_dir / "child.log").read_text()
    return out, rep


@pytest.fixture(scope="module")
def plain_outputs():
    """Untraced outputs per workload, copied aside, with their digest."""
    outputs = {}
    for name in ("sample-bump-l6", "converge-const-l8"):
        out, _ = _outputs(name, "plain")
        kept = WORK / f"{name}-plain"
        shutil.rmtree(kept, ignore_errors=True)
        shutil.copytree(out, kept)
        outputs[name] = (kept, verify.output_digest(out))
    return outputs


def _check(name, out, pinned):
    return run.WORKLOADS[name][1](out, DEFAULT_SEED, pinned)


def _bench(*args, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, kind):
    rc, lines = _bench("--workload", "sample-bump-l6", "--seed", str(DEFAULT_SEED),
                       "--seconds", "1", "--trace", str(trace))
    result = json.loads(lines[-1])
    assert rc == 0 and result["correct"] and result["failed"] == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = run.benchmark_spec()
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[kind]
    }
    if trace:
        assert result["metrics"]["trace.coverage_frac"]["value"] >= 0.9


def test_pinned_outputs_pass(plain_outputs):
    for name, (out, _) in plain_outputs.items():
        pinned = run.load_pinned(name, DEFAULT_SEED)
        assert pinned is not None
        assert _check(name, out, pinned) == ([], _check(name, out, None)[1])


@pytest.mark.parametrize("use_pins", [True, False])
def test_shifted_r_hat_fails(plain_outputs, use_pins):
    name = "converge-const-l8"
    bad = WORK / "bad-r-hat"
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(plain_outputs[name][0], bad)
    report = json.loads((bad / "rate_report.json").read_text())
    report["r_hat"] += 1e-3
    (bad / "rate_report.json").write_text(json.dumps(report))
    pinned = run.load_pinned(name, DEFAULT_SEED) if use_pins else None
    failures, _ = _check(name, bad, pinned)
    assert failures


@pytest.mark.parametrize("use_pins", [True, False])
def test_zeroed_sample_column_fails(plain_outputs, use_pins):
    name = "sample-bump-l6"
    bad = WORK / "bad-sample"
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(plain_outputs[name][0], bad)
    path = bad / "samples.csv"
    lines = path.read_text().splitlines()
    rows = [lines[0]] + [
        ",".join(v if k != 7 else "0" for k, v in enumerate(line.split(",")))
        for line in lines[1:]
    ]
    path.write_text("\n".join(rows) + "\n")
    pinned = run.load_pinned(name, DEFAULT_SEED) if use_pins else None
    failures, _ = _check(name, bad, pinned)
    assert failures


def test_perturbed_pinned_value_fails(plain_outputs):
    name = "converge-const-l8"
    pinned = dict(run.load_pinned(name, DEFAULT_SEED))
    pinned["error_fine"] *= 1.0 + 1e-6
    failures, _ = _check(name, plain_outputs[name][0], pinned)
    assert failures == ["error_fine differs from the pinned value (normwise rtol 1e-08)"]


@pytest.mark.parametrize("name", ["sample-bump-l6", "converge-const-l8"])
def test_traced_run_writes_identical_outputs(plain_outputs, name):
    out, rep = _outputs(name, "traced")
    assert rep.spans and not rep.missing_targets
    assert verify.output_digest(out) == plain_outputs[name][1]


def test_exits_nonzero_without_program():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines = _bench("--workload", "sample-bump-l6", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=bare)
    assert rc != 0
    assert not any(line.startswith("{") for line in lines)


def test_scaled_time_removes_probes_and_scales_by_them():
    from speed import REF_PROBE_S as R
    from speed import scaled_time

    probes = [(0.0, 9.0 * R), (1.0, R), (2.0, 3.0 * R)]
    assert scaled_time(probes, 0.5, 2.5) == pytest.approx((2.0 - 4.0 * R, 2.0))
    assert scaled_time(probes, 0.9, 1.1) == pytest.approx((0.2 - R, 1.0))
    assert scaled_time(probes, 0.2, 0.3) == pytest.approx((0.1, 9.0))  # nearest probe
    assert scaled_time([], 0.0, 1.0) == (1.0, None)


def test_pair_counts_match_brute_force():
    from varmatern.mesh import build_uniform

    from spans import pair_counts

    mesh = build_uniform(3.0, 4.0, 2)
    interior = np.asarray(mesh.element_interior)
    n_el = mesh.n_elements
    want = {"identical": 0, "vertex_sharing": 0, "disjoint": 0}
    for e1 in range(n_el):
        for e2 in range(e1, n_el):
            if interior[e1] or interior[e2]:
                gap = e2 - e1
                want[{0: "identical", 1: "vertex_sharing"}.get(gap, "disjoint")] += 1
    assert pair_counts(mesh) == want
