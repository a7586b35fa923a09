"""The benchmark's traced run wraps functions by name; every name it expects
must still resolve, and every function a job lists must still be called, so a
refactor that moves or bypasses one fails here first.  The tests only read
perfbench/."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


# The jobs whose `calls` name functions beyond the shared build and verify
# lists: a refactor that stops reaching one of them must fail here, not only
# in a traced benchmark run.
GUARDED_JOBS = (
    "verify-theorem --nakayama 8,3 --context stable -n 2",
    "search-nakayama 4 3 --ct-size 2 --ct-degree 3 --generator-samples 5",
    "verify-theorem --nakayama 5,3 --context mod -n 1",
)


@pytest.mark.parametrize("key", GUARDED_JOBS)
def test_traced_job_calls_every_listed_function(key, tmp_path):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import tracer
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    job = next(job for jobs in workloads.WORKLOADS.values() for job in jobs if job.key == key)
    report, spans = tmp_path / "report.json", tmp_path / "spans.npz"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/job.py", str(report), "--spans", str(spans), "--",
         *job.args, "--format", "structured", "--seed", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert workloads.judge(job, 0, proc.returncode, proc.stdout) == [], proc.stderr
    with np.load(spans) as recorded:
        figures = tracer.summarize(recorded)
    assert [name for name in job.calls if not figures.get(f"{name}.calls")] == []
