"""pytest plugin: time the session with perfbench/speed.py's CPU speed probe.

    PYTHONPATH=src:tools python -m pytest -q -p tier1_probe

The probe (``SpeedMeter``) runs in the pytest process itself, so it times
the core the suite runs on: right when the session starts, every
``speed.INTERVAL_S`` during it (from a SIGALRM handler on the main thread)
and right when it ends. The terminal summary ends with one line,
``PREFIX`` followed by a JSON object: the session's seconds without the
probe's own runs, those seconds scaled to the probe's reference speed, and
how many periodic probe runs they span. ``perfbench/`` is only read.
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import sys
from pathlib import Path

PREFIX = "tier1-probe: "

_stack = contextlib.ExitStack()
_timing = None
_meter = None


def load_perfbench(tree: Path, name: str):
    """The tree's perfbench/<name>.py as a module."""
    spec = importlib.util.spec_from_file_location(name, tree / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up while it runs
    spec.loader.exec_module(module)
    return module


def pytest_sessionstart(session):
    global _meter, _timing
    _meter = load_perfbench(Path(__file__).resolve().parents[1], "speed").SpeedMeter()
    _stack.enter_context(_meter.running())
    _timing = _stack.enter_context(_meter.timed())


def pytest_sessionfinish(session, exitstatus):
    _stack.close()


def pytest_terminal_summary(terminalreporter):
    record = {
        "session_s": _timing.seconds,
        "scaled_s": _timing.scaled,
        "probe_runs": len(_meter.samples),
    }
    terminalreporter.write_line(PREFIX + json.dumps(record))
