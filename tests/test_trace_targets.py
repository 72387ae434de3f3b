"""The benchmark traces the package by replacing module attributes (its
``TARGETS``). A refactor that drops one of those lookup sites only makes the
benchmark print the missing names and its per-layer metrics read 0, so the
sites are checked here."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _trace_targets():
    # loaded from its file: the benchmark is not an installed package
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_benchmark_trace_targets_resolve():
    targets = _trace_targets()
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
