import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quivertilt import cli, search
from quivertilt.decompose import DecompositionError
from conftest import EXCEPTIONAL

DATA = Path(__file__).resolve().parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_runtime_error_exits_2(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("projective cover construction failed to be surjective")

    monkeypatch.setattr(cli, "build_exact_context", fail)
    status, out, err = _run(["objects", "--algebra", str(DATA / "a2.alg")], capsys)
    assert status == 2
    assert out == ""
    assert err == "error: projective cover construction failed to be surjective\n"


def test_structured_output_does_not_depend_on_the_hash_seed():
    argv = [sys.executable, "-m", "quivertilt.cli", "verify-theorem", "--nakayama", "3,2",
            "--context", "mod", "-n", "2", "--format", "structured"]
    outputs = []
    for hash_seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    result = json.loads(outputs[0])["result"]
    assert result["sets_equal"] is True and len(result["cotorsion_diagonal"]) == 3
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


@pytest.mark.parametrize("command", [
    ["objects", "--nakayama", "4,3", "--context", "stable"],
    ["verify-theorem", "--nakayama", "4,3", "-n", "2", "--field", "3"],
    ["verify-theorem", "--nakayama", "1,4", "--field", "3", "-n", "1"],
    ["ext-table", "--nakayama", "4,3", "--kmax", "2"],
])
def test_no_answer_depends_on_the_seed(command):
    """The seed feeds only the splitting hunt's random candidates (and
    search-nakayama's sampling, left out here), so the result block is the
    same for every seed; each run is a fresh interpreter, with no cache
    shared between seeds."""
    results = []
    for seed in ("0", "1", "7"):
        argv = [sys.executable, "-m", "quivertilt.cli", *command, "--seed", seed, "--format", "structured"]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["config"]["seed"] == int(seed)
        results.append(doc["result"])
    assert results[1] == results[0] and results[2] == results[0]


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


def test_field_too_large_for_int64_exits_2(capsys):
    status, out, err = _run(["objects", "--nakayama", "3,2", "--field", "3037000493"], capsys)
    assert status == 2
    assert out == ""
    assert err.startswith("error: field characteristic 3037000493 exceeds 2965821")


def test_field_65521_still_runs(tmp_path, capsys):
    spec = tmp_path / "semisimple.alg"
    spec.write_text("field 65521\nvertices 1 2\n")
    status, out, _ = _run(["objects", "--algebra", str(spec), "--format", "structured"], capsys)
    assert status == 0
    doc = json.loads(out)
    assert doc["config"]["field_char"] == 65521 and len(doc["result"]["objects"]) == 2


def test_cli_import_does_not_load_sympy():
    code = "import sys, quivertilt.cli; print('sympy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_one_class_per_line_at_large_p(capsys):
    """Knitting realizes one class per line of Ext^1(tau^- M, M), so a large
    field no longer exhausts the class bound."""
    status, out, err = _run(["objects", "--nakayama", "3,2", "--field", "65521", "--format", "structured"], capsys)
    assert status == 0, err
    assert len(json.loads(out)["result"]["objects"]) == 6


# sha256 of the structured stdout as the all-pairs Ext^1 closure printed it,
# before enumeration knitted the Auslander-Reiten quiver, with the lines of the
# keys no longer part of the echoed config taken out: `les_depth`, and
# `exhaustion_bound`, `exhaustive` and `max_multiplicity`.
ALL_PAIRS_DIGESTS = {
    "2": "f3b5b0cfefe69ef978e2c11f5b2e373fc2e1301c01cc813c277f1b155a7de053",
    "3": "3e7c73ab5d38c2c7c8f306f23ef4839a18aa579187813b6b5959186b583f4101",
    "5": "bdcc78cc6ff1c1f05dfb41e99f041409808561f06dee33720feee6986c2ea980",
}


@pytest.mark.parametrize("field", sorted(ALL_PAIRS_DIGESTS))
def test_knitted_listing_matches_the_all_pairs_closure(field, capsys):
    status, out, _ = _run(["objects", "--nakayama", "3,2", "--field", field, "--format", "structured"], capsys)
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ALL_PAIRS_DIGESTS[field]


def test_enumeration_budget_names_its_flag(tmp_path, capsys):
    spec = tmp_path / "kronecker.alg"
    spec.write_text("field 2\nvertices 1 2\narrow a1: 1 -> 2\narrow a2: 1 -> 2\n")
    status, out, err = _run(["objects", "--algebra", str(spec), "--budget", "10"], capsys)
    assert status == 2
    assert out == ""
    assert err.startswith("error: enumeration budget exceeded: 10 objects") and "--budget" in err


def test_subset_budget_names_its_flag(capsys):
    status, out, err = _run(["verify-theorem", "--nakayama", "3,2", "-n", "1", "--subset-budget", "1"], capsys)
    assert status == 2
    assert out == ""
    assert err == ("error: cotorsion enumeration visited 2 candidate subsets, "
                   "more than the subset budget 1; raise --subset-budget\n")


def test_a_budget_error_in_the_search_cross_check_skips_the_candidate(capsys):
    """At --subset-budget 20 the full stable nak(4,3) has its hits, but the
    cotorsion enumeration of its verify_theorem cross-check overruns: the
    candidate is skipped with the reason, as an overrun of the search's own
    cluster-tilting enumeration is at 10, and the search still exits 0."""
    reasons = {}
    for budget in ("20", "10"):
        status, out, err = _run(["search-nakayama", "4", "3", "--ct-size", "2", "--ct-degree", "3",
                                 "--generator-samples", "5", "--subset-budget", budget,
                                 "--format", "structured"], capsys)
        assert status == 0, err
        result = json.loads(out)["result"]
        assert result["hit_count"] == 0
        reasons[budget] = [s["reason"] for s in result["candidates_skipped"] if s["subset_size"] == 8]
    assert reasons == {
        "20": ["cotorsion enumeration visited 21 candidate subsets, more than the subset budget 20; "
               "raise --subset-budget"],
        "10": ["cluster-tilting enumeration visited 11 candidate subsets, more than the subset budget 10; "
               "raise --subset-budget"],
    }


@pytest.mark.parametrize("argv", [
    ["verify-theorem", "--nakayama", "3,2", "-n", "1", "--subset-budget", "0"],
    ["verify-theorem", "--nakayama", "3,2", "-n", "1", "--subset-budget", "-5"],
    ["search-nakayama", "4", "3", "--ct-size", "2", "--ct-degree", "3", "--subset-budget", "0"],
    ["search-nakayama", "4", "3", "--ct-size", "2", "--ct-degree", "3", "--subset-budget", "-5"],
])
def test_a_subset_budget_below_one_exits_2(argv, capsys):
    status, out, err = _run(argv, capsys)
    assert status == 2
    assert out == ""
    assert err == "error: --subset-budget must be >= 1\n"


def test_an_enumeration_budget_below_one_exits_2(capsys):
    status, out, err = _run(["objects", "--nakayama", "3,2", "--budget", "0"], capsys)
    assert status == 2
    assert out == ""
    assert err == "error: --budget must be >= 1\n"


@pytest.mark.parametrize("kmax", ["0", "-1"])
def test_ext_table_degree_below_one_exits_2(kmax, capsys):
    status, out, err = _run(["ext-table", "--nakayama", "3,2", "--kmax", kmax], capsys)
    assert status == 2
    assert out == ""
    assert err == "error: extension degree must be >= 1\n"


@pytest.mark.parametrize("flags,message", [
    (["--ct-size", "2", "--ct-degree", "0"], "cluster-tilting degree must be >= 2"),
    (["--ct-size", "2", "--ct-degree", "1"], "cluster-tilting degree must be >= 2"),
    (["--ct-size", "0", "--ct-degree", "3"], "cluster-tilting size must be >= 1"),
    (["--ct-size", "2", "--ct-degree", "3", "--generator-samples", "-1"], "generator samples must be >= 0"),
    (["--ct-size", "2", "--ct-degree", "3", "--max-candidates", "-1"], "max candidates must be >= 0"),
])
def test_invalid_search_arguments_exit_2(flags, message, capsys, monkeypatch):
    """Each is refused before the parent context is built, not skipped per
    candidate or read as an empty search."""
    monkeypatch.setattr(search, "build_stable_context", None)
    status, out, err = _run(["search-nakayama", "4", "3", *flags, "--format", "structured"], capsys)
    assert status == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_search_on_a_one_object_parent(capsys):
    """Stable nak(1,2) has one object: a generator set is drawn from it alone
    rather than sampled past the population."""
    status, out, err = _run(["search-nakayama", "1", "2", "--ct-size", "1", "--ct-degree", "2",
                             "--format", "structured"], capsys)
    assert status == 0, err
    assert json.loads(out)["result"]["parent_objects"] == 1


def test_e6_verify_theorem_completes(capsys):
    """A projective and an injective of E6 already conflict, so both sides
    find no set; the subset walk refused this run (2^24 subsets)."""
    e6 = str(Path(__file__).resolve().parent.parent / "perfbench" / "data" / "e6.alg")
    status, out, _ = _run(["verify-theorem", "--algebra", e6, "-n", "1", "--format", "structured"], capsys)
    assert status == 0
    result = json.loads(out)["result"]
    assert result["sets_equal"] is True
    assert result["cluster_tilting"] == result["cotorsion_diagonal"] == []


# sha256 of the sorted-key JSON of the `result` block, as in
# perfbench/reference.json, recorded while `Context.enough` still named
# Omega C from syzygies instead of reading it off the E table.
E8_THEOREM_N2 = "9367028103260bc355993784291c1a09d37abb8cb0d406f6fb64bffaced179a5"


def test_e8_verify_theorem_result_is_pinned(tmp_path, capsys):
    """E8 at n = 2 runs `Context.enough` on 120 objects, a rung that no
    benchmark job holds; its `result` block keeps its recorded digest."""
    spec = tmp_path / "e8.alg"
    spec.write_text(EXCEPTIONAL["E8"][0])
    status, out, err = _run(["verify-theorem", "--algebra", str(spec), "-n", "2", "--format", "structured",
                             "--seed", "0"], capsys)
    assert status == 0, err
    result = json.loads(out)["result"]
    assert hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest() == E8_THEOREM_N2


@pytest.mark.parametrize("argv", [
    ["--nakayama", "2,3", "--x", "S2,P2,P1", "--y", "S2,m3,P2,P1", "-n", "1"],
    ["--nakayama", "3,3", "--context", "stable", "--x", "S3", "--y", "S3,S2,m3,m4", "-n", "1"],
])
def test_off_diagonal_cotorsion_pairs_pass(argv, capsys):
    """Two 1-cotorsion pairs that the canonical approximation failed: its
    cocone kept surplus summands outside the resolving class."""
    status, out, err = _run(["check", *argv, "--mode", "cotorsion", "--format", "structured"], capsys)
    assert status == 0, err
    assert json.loads(out)["result"]["verdict"]["pass"] is True


def test_undecided_cotorsion_verdict_exits_2(capsys):
    """Y = {S2, m4} is not 1-rigid, so at n = 2 a canonical chain that is too
    long proves no failure."""
    status, out, err = _run(["check", "--nakayama", "3,3", "--context", "stable", "--x", "S3",
                             "--y", "S2,m4", "-n", "2", "--mode", "cotorsion"], capsys)
    assert status == 2
    assert out == ""
    assert err.startswith("error: cotorsion verdict undecided: ")


def test_a_rigid_resolving_class_decides_the_verdict(capsys):
    """Y = {S2} is 1-rigid, so at n = 2 the minimal approximation decides:
    the pair fails with a witness."""
    status, out, err = _run(["check", "--nakayama", "3,3", "--context", "stable", "--x", "S3",
                             "--y", "S2", "-n", "2", "--mode", "cotorsion", "--format", "structured"], capsys)
    assert status == 1, err
    clauses = json.loads(out)["result"]["verdict"]["clauses"]
    failed = [c for c in clauses if not c["passed"]]
    assert failed and {c["mode"] for c in failed} == {"tested"}
    assert failed[0]["witness"]["conflation"] == "m3"


def test_a_failing_approximation_clause_names_the_plain_cocone(capsys):
    """X = {S1, P1, P2} holds the projectives, which are the injectives, so
    the canonical approximation of S2 by add X is already a deflation (and
    its left one an inflation): the witness names its cocone (cone) with no
    projective cover (injective hull) summand, as m2 (m3), not m2+P2
    (m3+P2)."""
    status, out, err = _run(["check", "--nakayama", "2,3", "--x", "S1,P1,P2", "-n", "1", "--mode", "cotorsion",
                             "--format", "structured"], capsys)
    assert status == 1, err
    clauses = {c["clause"]: c for c in json.loads(out)["result"]["verdict"]["clauses"]}
    for clause, end in (("left.approximation-conflations", "m2"), ("right.coapproximation-conflations", "m3")):
        assert clauses[clause]["witness"] == {"witness_object": "S2", "conflation": end,
                                              "resolution_dim": "EXCEEDS"}, clause


def test_y_outside_cotorsion_mode_exits_2(capsys):
    status, out, err = _run(["check", "--nakayama", "2,3", "--x", "all", "--y", "S1", "-n", "2",
                             "--mode", "ct"], capsys)
    assert status == 2
    assert out == ""
    assert err == "error: --y applies only to --mode cotorsion\n"


def test_objects_outside_a_sub_context_exits_2(capsys):
    status, out, err = _run(["objects", "--nakayama", "2,3", "--objects", "S1"], capsys)
    assert status == 2
    assert out == ""
    assert err == "error: --objects applies only to --context sub\n"


def test_parent_outside_a_sub_context_exits_2(capsys):
    status, out, err = _run(["objects", "--nakayama", "2,3", "--parent", "stable"], capsys)
    assert status == 2
    assert out == ""
    assert err == "error: --parent applies only to --context sub\n"
    # under --context sub a missing --parent still means mod
    status, out, err = _run(["objects", "--nakayama", "2,3", "--context", "sub", "--objects", "P1",
                             "--format", "structured"], capsys)
    assert status == 0, err
    assert [o["label"] for o in json.loads(out)["result"]["objects"]] == ["P1"]


def test_algebra_given_with_nakayama_exits_2(capsys):
    status, out, err = _run(["objects", "--nakayama", "3,2", "--algebra", str(DATA / "a2.alg")], capsys)
    assert status == 2
    assert out == ""
    assert err == "error: --algebra and --nakayama exclude each other\n"


@pytest.mark.parametrize("flag, value", [("--nakayama", "5,2"), ("--algebra", str(DATA / "a2.alg"))])
def test_search_nakayama_refuses_an_algebra_flag(flag, value, capsys):
    """search-nakayama builds nak(vertices, nilpotency) itself, so a flag
    naming another algebra is refused rather than ignored."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["search-nakayama", "3", "3", "--ct-size", "1", "--ct-degree", "2", flag, value])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert err.splitlines()[-1] == f"quivertilt: error: unrecognized arguments: {flag} {value}"
