"""The benchmark's traced run wraps functions by name; every name it expects
must still resolve, so a refactor that moves one fails here first."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, sys
sys.path[:0] = ["src", "perfbench"]
import quivertilt.cli
import tracer, workloads
recorder = tracer.install()
wanted = {name for jobs in workloads.WORKLOADS.values() for job in jobs for name in job.calls}
wanted |= {f"{layer}.{qualname}" for layer, names in tracer.METHODS.items() for qualname in names}
wanted |= set(tracer.BUILDERS) | set(tracer.ENUMERATORS) | set(tracer.OUTCOMES)
print(json.dumps({"wanted": len(wanted), "missing": sorted(wanted - set(recorder.names))}))
"""


def test_traced_span_names_resolve():
    # A subprocess, so the wrapping does not leak into this test session.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["wanted"] > 20
    assert report["missing"] == []
