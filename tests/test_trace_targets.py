"""The benchmark traces the package by replacing module attributes (its
``TARGETS``). A refactor that drops one of those lookup sites only makes the
benchmark print the missing names and its per-layer metrics read 0, so the
sites are checked here."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    # loaded from its file: the benchmark is not an installed package
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _recorded(monkeypatch, module, attr):
    """Replace module.attr by a wrapper that keeps (args, kwargs, result) per call."""
    calls = []
    func = getattr(module, attr)

    def record(*args, **kwargs):
        result = func(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(module, attr, record)
    return calls


def test_benchmark_trace_targets_resolve():
    targets = _spans().TARGETS
    assert targets
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing


def test_every_command_has_a_runner():
    from varmatern import cli

    assert set(cli._RUNNERS) == set(cli.COMMANDS)


def test_main_dispatches_through_runner_table(tmp_path, monkeypatch):
    # The benchmark times a run by replacing its entry in cli._RUNNERS; a main
    # that called the runner directly would leave the timer measuring nothing.
    from varmatern import cli
    from varmatern.config import RunConfig

    calls = []

    def stub(cfg):
        calls.append(cfg)
        return 7

    monkeypatch.setitem(cli._RUNNERS, "matern", stub)
    assert cli.main(["matern", "--level", "3", "--out", str(tmp_path / "o")]) == 7
    assert len(calls) == 1 and isinstance(calls[0], RunConfig)


def test_benchmark_work_counters_read_real_arguments(tmp_path, monkeypatch):
    # Three counters read argument names and shapes; a change there leaves the
    # benchmark running with wrong work counts, so they are fed real calls here.
    from varmatern import cli, convergence, sampler

    spans = _spans()
    assembled = _recorded(monkeypatch, cli, "assemble_stiffness")
    products = _recorded(monkeypatch, sampler, "inv_triple_product")
    norms = _recorded(monkeypatch, convergence, "level_error_samples")
    m = 5
    assert cli.main(["converge", "--profile", "step", "--s-lower", "0.35", "--s-upper", "0.85",
                     "--levels", "3,2,1", "--m", str(m), "--seed", "1",
                     "--out", str(tmp_path)]) == 0
    assert [call[2].mesh.level for call in assembled] == [3, 2, 1]
    system = assembled[0][2]
    sampler.analytic_covariance(system)
    n = system.n
    order = system.quad_meta["n_disjoint"]
    assert type(order) is int
    assert spans._system_counts(*assembled[0])["order"] == order
    assert spans._triple_product_flops(*products[0]) == {"flops": 4.0 * n**3}
    assert spans._error_norm_bytes(*norms[0]) == {"bytes": n * n * 8 * m}
