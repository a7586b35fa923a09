import json
from pathlib import Path

import pytest

from quivertilt import cli
from quivertilt.decompose import DecompositionError

DATA = Path(__file__).resolve().parent / "data"


def _run(argv, capsys):
    status = cli.main(argv)
    out, err = capsys.readouterr()
    return status, out, err


def test_stable_context_of_non_self_injective_algebra_exits_2(capsys):
    status, out, err = _run(["objects", "--algebra", str(DATA / "a2.alg"), "--context", "stable"], capsys)
    assert status == 2
    assert out == ""
    assert err.startswith("error: ") and "self-injective" in err
    assert "Traceback" not in err


def test_decomposition_error_exits_2(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise DecompositionError("no certificate")

    monkeypatch.setattr(cli, "build_exact_context", fail)
    status, _, err = _run(["objects", "--algebra", str(DATA / "a2.alg")], capsys)
    assert status == 2
    assert err == "error: no certificate\n"


@pytest.fixture
def f3_spec(tmp_path):
    path = tmp_path / "a2_f3.alg"
    path.write_text((DATA / "a2.alg").read_text().replace("field 2", "field 3"))
    return str(path)


def test_field_defaults_to_the_spec(f3_spec, capsys):
    status, out, _ = _run(["objects", "--algebra", f3_spec, "--format", "structured"], capsys)
    assert status == 0
    assert json.loads(out)["config"]["field_char"] == 3
    status, out, _ = _run(["objects", "--algebra", f3_spec, "--field", "3", "--format", "structured"], capsys)
    assert status == 0
    assert json.loads(out)["config"]["field_char"] == 3


def test_field_differing_from_the_spec_exits_2(capsys):
    status, out, err = _run(["objects", "--algebra", str(DATA / "a2.alg"), "--field", "5"], capsys)
    assert status == 2
    assert out == ""
    assert err.startswith("error: --field 5")


def test_nakayama_field_defaults_to_2(capsys):
    status, out, _ = _run(["objects", "--nakayama", "2,2", "--format", "structured"], capsys)
    assert status == 0
    assert json.loads(out)["config"]["field_char"] == 2
