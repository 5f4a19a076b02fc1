"""A smoke test of the benchmark's trace harness: ``bench/tracing.py`` wraps
functions and methods of orbsemi by name, so renaming or deleting one that it
wraps must fail here, not only in a traced benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: installs the tracer on a freshly imported orbsemi, runs two CLI commands
#: and prints their exit codes and the traced counts
_SMOKE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import tracing
import orbsemi, orbsemi.cli, orbsemi.tableio

tracer = tracing.Tracer()
tracing.install(orbsemi, tracer)
tracer.reset()
codes = []
for argv in (["embed", "--ground", "a", "--cases", "20"],
             ["check-axioms", "--ground", "a", "--only", "A1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(orbsemi.cli.main(argv))
print(json.dumps({"codes": codes, "counts": tracing.layer_metrics(tracer)}))
"""


def test_trace_harness_installs_and_counts():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", _SMOKE, str(ROOT / "bench")], env=env,
                         check=True, capture_output=True, text=True).stdout
    got = json.loads(out)
    assert got["codes"] == [0, 0]
    counts = got["counts"]
    for name in ("representation.alpha.calls", "representation.kappa.calls",
                 "labeling.labeling_call.calls"):
        assert counts.get(name, 0) > 0, name
