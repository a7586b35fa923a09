"""The cheap benchmark jobs that carry a digest, run in-process: the digest
of each `result` block must equal the one in perfbench/reference.json.  The
test only reads perfbench/."""

import hashlib
import json
from pathlib import Path

import pytest

from quivertilt import cli

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())

JOBS = (
    "objects --algebra perfbench/data/e6.alg",
    "objects --nakayama 10,4 --context stable",
    "verify-theorem --nakayama 8,3 --context stable -n 2",
    "verify-theorem --nakayama 5,3 --context stable -n 1",
    "verify-theorem --nakayama 5,3 --context mod -n 1",
    "verify-theorem --nakayama 4,3 --context mod -n 2 --field 3",
    "verify-theorem --algebra perfbench/data/a9_rad2.alg -n 1",
)


@pytest.mark.parametrize("job", JOBS)
def test_result_matches_reference_digest(job, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # the digest keys name the data files relative to the root
    assert cli.main([*job.split(), "--format", "structured"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    digest = hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()
    assert digest == REFERENCE[job]
