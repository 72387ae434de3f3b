"""Output checks for the benchmark workloads.

Every check returns ``(failures, summary)``: a list of failure messages
(empty when the outputs are correct) and the numbers that ``pinned.json``
pins. Invariants that hold for any seed are always checked; the summary is
compared against the pinned values when ``pinned`` is given (a seed that
pin.py recorded, or a seed-free output). ``PIN_RTOL`` is normwise: a 1e-6
relative perturbation of the stiffness matrix moves every pinned quantity
by about 1e-6 and fails, while a Bessel routine agreeing to 1e-12 moves
them by less than 1e-10 and passes (see CHANGES.md for the measurement).
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

__all__ = [
    "PIN_RTOL",
    "R_HAT_WINDOW",
    "check_sample",
    "check_converge",
    "check_covariance",
    "compare_pinned",
    "output_digest",
]

PIN_RTOL = 1e-8
R_HAT_WINDOW = (0.36, 0.66)  # acceptance criterion 7
_EXACT = 1e-12  # values the program derives from one another in float64


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _check_manifest(out, command, seed, failures):
    path = out / "manifest.json"
    if not path.exists():
        failures.append("manifest.json missing")
        return {}
    man = json.loads(path.read_text())
    if man.get("command") != command:
        failures.append(f"manifest command {man.get('command')!r}, expected {command!r}")
    if man.get("seed") != seed:
        failures.append(f"manifest seed {man.get('seed')!r}, expected {seed}")
    return man


def _check_table(path, header, shape, failures):
    """Read a CSV and check its header, shape and finiteness; None if unusable."""
    if not path.exists():
        failures.append(f"{path.name} missing")
        return None
    got_header, data = _read_csv(path)
    if got_header != header:
        failures.append(f"{path.name}: unexpected header {got_header[:3]}...")
    if data.shape != shape:
        failures.append(f"{path.name}: shape {data.shape}, expected {shape}")
        return None
    if not np.all(np.isfinite(data)):
        failures.append(f"{path.name}: non-finite values")
        return None
    return data


def _close(got, want, rtol=_EXACT):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.max(np.abs(got - want), initial=0.0) <= rtol * np.max(np.abs(want), initial=0.0)
    )


def compare_pinned(summary, pinned, rtol=PIN_RTOL):
    """Failure messages for summary entries that differ from the pinned ones."""
    return [
        f"{key} differs from the pinned value (normwise rtol {rtol:g})"
        for key, want in pinned.items()
        if key not in summary or not _close(summary[key], want, rtol)
    ]


def _finish(failures, summary, pinned):
    if pinned is not None and summary is not None:
        failures += compare_pinned(summary, pinned)
    return failures, summary


def check_sample(out, seed, pinned, *, n_nodes, m, r_int):
    """samples.csv: node coordinates, m finite nonzero columns, second moments."""
    failures = []
    _check_manifest(out, "sample", seed, failures)
    header = ["node_x"] + [f"u_{k + 1}" for k in range(m)]
    data = _check_table(out / "samples.csv", header, (n_nodes, m + 1), failures)
    if data is None:
        return failures, None
    if not _close(data[:, 0], np.linspace(-r_int, r_int, n_nodes)):
        failures.append("samples.csv: node_x is not the interior node grid")
    u = data[:, 1:]
    if not np.all(np.any(u != 0.0, axis=0)):
        failures.append("samples.csv: a sample column is identically zero")
    second_moment = np.mean(u**2, axis=1)
    summary = {
        "second_moment_every_16th_node": second_moment[::16].tolist(),
        "second_moment_mean": float(second_moment.mean()),
    }
    return _finish(failures, summary, pinned)


def check_converge(out, seed, pinned, *, levels, m):
    """rate_report.json and per_sample_errors.csv agree and show convergence."""
    failures = []
    man = _check_manifest(out, "converge", seed, failures)
    path = out / "rate_report.json"
    if not path.exists():
        failures.append("rate_report.json missing")
        return failures, None
    report = json.loads(path.read_text())
    if report.get("levels") != levels or report.get("m") != m:
        failures.append(f"rate_report: levels/m {report.get('levels')}/{report.get('m')}")
        return failures, None
    try:
        errors = [float(report["errors"][str(lev)]) for lev in levels[:2]]
        r_hat = float(report["r_hat"])
    except (KeyError, TypeError, ValueError):
        failures.append("rate_report: errors or r_hat missing")
        return failures, None
    if not all(math.isfinite(e) and e > 0 for e in errors + [r_hat]):
        failures.append(f"rate_report: non-finite or nonpositive values {errors}, {r_hat}")
        return failures, None
    if not errors[0] < errors[1]:
        failures.append(f"rate_report: errors do not shrink with the level: {errors}")
    if not R_HAT_WINDOW[0] <= r_hat <= R_HAT_WINDOW[1]:
        failures.append(f"rate_report: r_hat {r_hat} outside {list(R_HAT_WINDOW)}")
    if not _close(r_hat, math.log2(errors[1] / errors[0])):
        failures.append("rate_report: r_hat is not log2 of the error ratio")
    if man.get("r_hat") != r_hat:
        failures.append("manifest r_hat differs from rate_report r_hat")
    header = ["sample"] + [f"err_level_{lev}" for lev in levels[:2]]
    per_sample = _check_table(out / "per_sample_errors.csv", header, (m, 3), failures)
    if per_sample is not None:
        if not np.array_equal(per_sample[:, 0], np.arange(1, m + 1)):
            failures.append("per_sample_errors.csv: sample column is not 1..m")
        rms = np.sqrt(np.mean(per_sample[:, 1:] ** 2, axis=0))
        if np.any(per_sample[:, 1:] < 0) or not _close(rms, errors):
            failures.append("per_sample_errors.csv: RMS does not match the level errors")
    summary = {"r_hat": r_hat, "error_fine": errors[0], "error_mid": errors[1]}
    return _finish(failures, summary, pinned)


def _slice_tag(x0):
    return format(x0, "g").replace("-", "m").replace(".", "p")


def check_covariance(out, seed, pinned, *, n_nodes, r_int, slices):
    """Slice CSVs on the node grid, and covariance.vwm1 rows equal to them.

    The matrix is read back with the program's own reader, so the
    checkout's ``src/`` must be on ``sys.path``.
    """
    from varmatern.fileio import read_matrix

    failures = []
    _check_manifest(out, "covariance", seed, failures)
    coords = np.linspace(-r_int, r_int, n_nodes)
    rows = {}
    for x0 in slices:
        name = f"covariance_x{_slice_tag(x0)}.csv"
        data = _check_table(out / name, ["y", "C_x0_y"], (n_nodes, 2), failures)
        if data is None:
            continue
        if not _close(data[:, 0], coords):
            failures.append(f"{name}: y is not the interior node grid")
        idx = int(np.argmin(np.abs(coords - x0)))
        if not data[idx, 1] > 0:
            failures.append(f"{name}: variance at x0 is not positive")
        rows[x0] = (idx, data[:, 1])
    path = out / "covariance.vwm1"
    if not path.exists():
        failures.append("covariance.vwm1 missing")
    else:
        matrix, sidecar = read_matrix(path)
        if matrix.shape != (n_nodes, n_nodes) or sidecar is None:
            failures.append(f"covariance.vwm1: shape {matrix.shape} or sidecar missing")
        elif not np.all(np.isfinite(matrix)) or not np.array_equal(matrix, matrix.T):
            failures.append("covariance.vwm1: not finite and symmetric")
        else:
            for x0, (idx, vals) in rows.items():
                if not np.array_equal(matrix[idx], vals):
                    failures.append(f"covariance.vwm1 row at x0={x0} differs from its CSV slice")
        del matrix
    if len(rows) != len(slices):
        return failures, None
    summary = {f"slice_{x0:g}_every_16th_node": rows[x0][1][::16].tolist() for x0 in slices}
    return _finish(failures, summary, pinned)


def output_digest(out):
    """SHA-256 over every output file; the manifest without its timings."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out.iterdir() if p.is_file()):
        digest.update(path.name.encode())
        if path.name == "manifest.json":
            man = json.loads(path.read_text())
            man.pop("timings_s", None)
            digest.update(json.dumps(man, sort_keys=True).encode())
        else:
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
    return digest.hexdigest()
