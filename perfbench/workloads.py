"""The benchmark's workloads: CLI jobs, their oracles and their references.

Every job runs `quivertilt <args> --format structured --seed <seed>` and is
judged by `judge`, which returns the list of problems found (empty when the
job passed).  A job fails on a wrong exit status, on any oracle not met, or
when the digest of its `result` block differs from `reference.json`, recorded
at the commit that introduced the benchmark.  Why each workload exists is in
README.md.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())


@dataclass(frozen=True)
class Job:
    args: tuple[str, ...]
    oracle: Callable[[dict], list[str]]
    # Size of the first context the job builds, checked on traced runs.
    objects: int
    # Functions (tracer span names) the job must call at least once.
    calls: tuple[str, ...] = ()
    exit_status: int = 0
    # False where the result may depend on the seed; then only oracles apply.
    digest: bool = True

    @property
    def key(self) -> str:
        return " ".join(self.args)


def result_digest(result) -> str:
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()


def _objects(count: int, projective: int, injective: int):
    def oracle(result: dict) -> list[str]:
        objs = result["objects"]
        got = (len(objs), sum(o["projective"] for o in objs), sum(o["injective"] for o in objs))
        want = (count, projective, injective)
        return [] if got == want else [f"(objects, projective, injective) = {got}, expected {want}"]
    return oracle


def _theorem(min_sets: int):
    def oracle(result: dict) -> list[str]:
        problems = []
        if result["sets_equal"] is not True:
            problems.append("sets_equal is not true")
        if len(result["cluster_tilting"]) < min_sets:
            problems.append(f"fewer than {min_sets} cluster-tilting sets")
        return problems
    return oracle


def _search(result: dict) -> list[str]:
    hits = result["hits"]
    problems = []
    if not hits or result["hit_count"] != len(hits):
        problems.append(f"hit_count {result['hit_count']} with {len(hits)} hits listed")
    if not all(hit.get("theorem_concurs") is True for hit in hits):
        problems.append("a hit without theorem_concurs")
    return problems


# Jobs run from the root of the checkout.
E6 = "perfbench/data/e6.alg"
A9_RAD2 = "perfbench/data/a9_rad2.alg"

BUILD_CALLS = ("linalg.rref", "linalg.matmul", "linalg.nullspace", "linalg.solve",
               "modules.hom_basis", "modules.kernel", "modules.cokernel", "modules.direct_sum",
               "homology.ext_dim", "homology.projective_cover", "decompose.summand_split",
               "decompose.indecomposable_isomorphic", "decompose.fingerprint")
VERIFY_CALLS = ("contexts.Context.identify_sum", "checkers.check_n_cotorsion", "checkers.check_cluster_tilting",
                "checkers.enumerate_cluster_tilting", "checkers.enumerate_cotorsion_diagonal")

# Stable nak(n, r) has n(r-1) indecomposables, mod nak(n, r) has n*r, and
# mod kA_m/rad^2 has 2m-1.  E6 has 36 (Gabriel), 6 of them projective and 6
# injective.  kA_m/rad^2 has a d-cluster-tilting subcategory iff d divides
# m-1 (Vaso 2019), so A9/rad^2 has a 2-cluster-tilting one.
WORKLOADS: dict[str, list[Job]] = {
    "build": [
        Job(("objects", "--nakayama", "10,4", "--context", "stable"),
            _objects(30, 0, 0), objects=30,
            calls=BUILD_CALLS + ("contexts.build_stable_context", "algebra.nakayama_cyclic")),
        Job(("objects", "--algebra", E6),
            _objects(36, 6, 6), objects=36,
            calls=BUILD_CALLS + ("contexts.build_exact_context", "algebra.parse_algebra")),
    ],
    "verify-stable": [
        Job(("verify-theorem", "--nakayama", "8,3", "--context", "stable", "-n", "2"),
            _theorem(1), objects=16,
            calls=VERIFY_CALLS + ("stable.cone", "stable.strip_projectives")),
        Job(("verify-theorem", "--nakayama", "5,3", "--context", "stable", "-n", "1"),
            _theorem(1), objects=10, calls=VERIFY_CALLS),
        Job(("search-nakayama", "4", "3", "--ct-size", "2", "--ct-degree", "3",
             "--generator-samples", "5"),
            _search, objects=8, digest=False,
            calls=("search.search_nakayama_stable", "search.close_under_operations",
                   "contexts.Context.realize", "contexts.StableExtSpace.realize",
                   "contexts.build_sub_context")),
    ],
    "verify-exact": [
        Job(("verify-theorem", "--nakayama", "5,3", "--context", "mod", "-n", "1"),
            _theorem(1), objects=15,
            calls=VERIFY_CALLS + ("contexts.ExactExtSpace.realize",)),
        Job(("verify-theorem", "--nakayama", "4,3", "--context", "mod", "-n", "2",
             "--field", "3"),
            _theorem(1), objects=12, calls=VERIFY_CALLS),
        Job(("verify-theorem", "--algebra", A9_RAD2, "-n", "1"),
            _theorem(1), objects=17, calls=VERIFY_CALLS),
    ],
}


def judge(job: Job, seed: int, exit_status: int | None, stdout: str) -> list[str]:
    """Problems with one finished job; an empty list means it passed."""
    problems = []
    if exit_status != job.exit_status:
        problems.append(f"exit status {exit_status}, expected {job.exit_status}")
    try:
        doc = json.loads(stdout)
        result = doc["result"]
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable output: {exc!r}"]
    if doc.get("config", {}).get("seed") != seed:
        problems.append("the report does not echo the seed")
    try:
        problems += job.oracle(result)
    except (KeyError, TypeError) as exc:
        problems.append(f"result lacks an expected field: {exc!r}")
    if job.digest and result_digest(result) != REFERENCE.get(job.key):
        problems.append("result differs from the reference")
    return problems
