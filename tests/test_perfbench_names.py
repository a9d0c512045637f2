"""The names the benchmark takes from wsat exist: perfbench/checks.py
imports, and every target that perfbench/tracing.py wraps.  tracing.install
only logs a missing target, and its per-layer metrics then read 0."""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    """perfbench/<name>.py, loaded from its path under a name of its own."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_checks_imports_resolve():
    _load("checks")


def test_tracing_targets_resolve():
    tracing = _load("tracing")
    targets = [(mod, attr) for _, mod, attr, _ in tracing.SPANS]
    targets += [(mod, attr) for _, mod, attr in tracing.AGGREGATES]
    for mod, attr in targets:
        owner = importlib.import_module(mod)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{mod}.{attr}"
