"""Run one varmatern CLI command in this fresh interpreter and record when it ran.

Usage: child.py RESULT_JSON T_SPAWN MODE -- <varmatern CLI arguments>

T_SPAWN is the parent's ``time.perf_counter()`` just before it started this
process (CLOCK_MONOTONIC, shared across processes on Linux). MODE is
``plain``, ``traced`` (spans around the layers, see spans.py) or ``setup``
(stop after the configuration is resolved). The result file holds the exit
code, the moment the resolved configuration reached the command runner, the
moment the runner returned (after its last output and manifest.json), the
host speed probes of an untraced run (speed.py; started before the program
is imported) and the spans of a traced run.
"""

from __future__ import annotations

import json
import sys
import time
import uuid
from pathlib import Path


def main(argv):
    result_path, t_spawn, mode = argv[0], float(argv[1]), argv[2]
    if argv[3] != "--" or mode not in ("plain", "traced", "setup"):
        raise SystemExit(f"usage: {__doc__.splitlines()[2]}")
    cli_argv = argv[4:]

    probe = None
    if mode != "traced":
        from speed import Probe

        probe = Probe()
        probe.start()

    import varmatern.cli as cli

    tracer = None
    missing = []
    if mode == "traced":
        from spans import Tracer, install

        tracer = Tracer(uuid.uuid4().hex)
        missing = install(tracer)

    marks = {}
    command = cli_argv[0]
    runner = cli._RUNNERS[command]

    def timed_runner(cfg):
        marks["t_config"] = time.perf_counter()
        rc = 0 if mode == "setup" else runner(cfg)
        marks["t_done"] = time.perf_counter()
        return rc

    cli._RUNNERS[command] = timed_runner
    rc = cli.main(cli_argv)
    if probe:
        probe.stop()
    result = {
        "rc": rc,
        "t_spawn": t_spawn,
        **marks,
        "run_id": tracer.run_id if tracer else None,
        "spans": tracer.spans if tracer else None,
        "missing_targets": missing,
        "probes": probe.records if probe else [],
    }
    Path(result_path).write_text(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
