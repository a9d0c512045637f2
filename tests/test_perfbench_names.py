"""The names the benchmark takes from wsat exist: perfbench/checks.py
imports, and every target that perfbench/tracing.py wraps.  tracing.install
only logs a missing target, and its per-layer metrics then read 0; with the
tracer installed, every span is entered and every count it reads resolves."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


# one small job per verb and per generate kind, each in its own --output
TRACED_JOBS = [
    ["generate", "template", "2", "3", "2"],
    ["generate", "cone", "--r", "2", "--s", "2", "--h", "3", "--size-a", "4",
     "--size-b", "1"],
    ["generate", "spartite", "--r", "2", "--h", "3", "--part-sizes", "3,3"],
    ["generate", "percolate", "--r", "2", "--s", "2", "--h", "3", "--l", "3",
     "--t", "3"],
    ["generate", "s1", "--pattern", "triangle+pendant", "--n", "5"],
    ["generate", "main", "--pattern", "K3", "--n", "12", "--m1", "4"],
    ["generate", "clique-extremal", "5", "3", "2"],
    ["generate", "cover", "6", "3", "2"],
    ["closure", "j6/clique_extremal.txt", "K3"],
    ["closure", "j1/cone.txt", "--template", "3", "2"],
    ["verify", "j6/clique_extremal.txt", "K3", "j8/closure.cert"],
    ["wsat", "5", "K3", "--exact"],
    ["wsat", "6", "K3", "--upper"],
    ["wsat", "0", "K3", "--table", "3..5"],
]

TRACED_SCRIPT = """\
import importlib.util, json, sys
import wsat.cli
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.install()
from wsat import cli, percolation, templates
codes = [cli.main([*argv, "--output", f"j{i}"])
         for i, argv in enumerate(json.loads(sys.argv[2]))]
k3 = cli.parse_pattern_token("K3")
percolation.verify_certificate(
    cli.load_graph("j6/clique_extremal.txt"), k3,
    percolation.certificate_from_text(open("j8/closure.cert").read()))
templates.template_cert_to_pattern_cert(
    percolation.certificate_from_text(open("j9/closure.cert").read()), k3)
entered = {span[0] for span in tracer.spans}
print(json.dumps({"codes": codes, "missing": tracer.missing,
                  "unentered": sorted({s[0] for s in tracing.SPANS} - entered)}))
"""


def test_tracer_reads_every_result_it_counts(tmp_path):
    """With the tracer installed in a fresh interpreter, every span is entered
    and every count it takes from a result reads: a renamed result field
    would otherwise show only in a traced benchmark record."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", TRACED_SCRIPT, str(PERFBENCH / "tracing.py"),
         json.dumps(TRACED_JOBS)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report == {"codes": [0] * len(TRACED_JOBS), "missing": [],
                      "unentered": []}
