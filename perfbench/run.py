"""quivertilt benchmark: one closed-loop client running CLI jobs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Jobs of the workload (perfbench/workloads.py)
run one after another, each in a fresh interpreter (perfbench/job.py), so
every cache hanging off the program's objects starts empty, as it does for a
CLI user.  Every job is checked against its oracles.

--trace 0 runs the workload's jobs in rounds while another round should
still end within S seconds (at least one round), then starts PROBES bare
cold-start processes, and reports the end-to-end metrics.  --trace 1 runs one untraced round and one traced round
and reports the per-layer metrics.  The last line of stdout is the result
as one JSON object; README.md defines every metric.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer
from workloads import WORKLOADS, Job, judge, result_digest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src" / "quivertilt"
RUN_DIR = ROOT / ".perfbench_run"
PROBES = 5
# No job is started after this many seconds, and a job still running then is
# killed, so that a run ends well inside three minutes.
RUN_LIMIT_S = 150.0


@dataclass
class JobRun:
    job: Job
    wall_s: float
    peak_rss_mb: float
    report: dict = field(default_factory=dict)
    stdout: str = ""
    problems: list[str] = field(default_factory=list)
    digest: str | None = None

    @property
    def setup_s(self) -> float | None:
        return self.report["imported"] - self.report["spawned"] if "imported" in self.report else None

    @property
    def solve_s(self) -> float:
        return self.report.get("main_end", 0.0) - self.report.get("main_start", 0.0)


class Runner:
    def __init__(self, seed: int, deadline: float):
        self.seed = seed
        self.deadline = deadline

    def spawn(self, job_args: list[str], spans: Path | None = None) -> tuple[int | None, float, float, dict, str]:
        """Start job.py, wait for it, and return (exit status, wall seconds,
        max RSS in MB, its report, its stdout)."""
        report_path = RUN_DIR / "report.json"
        out_path = RUN_DIR / "stdout"
        report_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "job.py"), str(report_path)]
        if spans is not None:
            spans.unlink(missing_ok=True)
            cmd += ["--spans", str(spans)]
        cmd += ["--", *job_args]
        with open(out_path, "wb") as out, open(RUN_DIR / "stderr", "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
            pidfd = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(pidfd, select.POLLIN)
                if not poller.poll(max(0.0, self.deadline - spawned) * 1000):
                    os.kill(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                ended = time.monotonic()
            except BaseException:
                # Interrupted or terminated: leave no job running behind.
                proc.kill()
                proc.wait()
                raise
            finally:
                os.close(pidfd)
        proc.returncode = exit_status = os.waitstatus_to_exitcode(status)
        try:
            report = json.loads(report_path.read_text())
        except (OSError, ValueError):
            report = {}
        report["spawned"] = spawned
        stdout = out_path.read_text(errors="replace")
        return exit_status, ended - spawned, usage.ru_maxrss / 1024, report, stdout

    def run(self, job: Job, spans: Path | None = None) -> JobRun:
        args = [*job.args, "--format", "structured", "--seed", str(self.seed)]
        status, wall, rss, report, stdout = self.spawn(args, spans)
        run = JobRun(job, wall, rss, report, stdout)
        run.problems = judge(job, self.seed, status, stdout)
        if "main_end" not in report:
            run.problems.append("no timing report")
        elif not report["module"].startswith(str(SRC)):
            run.problems.append(f"imported {report['module']}, not the checkout's source")
        try:
            run.digest = result_digest(json.loads(stdout)["result"])
        except (ValueError, KeyError, TypeError):
            pass
        return run

    def probe(self) -> float | None:
        status, _, _, report, _ = self.spawn([])
        return report["imported"] - report["spawned"] if status == 0 and "imported" in report else None


def self_check(seed: int, runs: list[JobRun]) -> list[str]:
    """Show on a passing job that a tampered result, a wrong exit status and a
    truncated output each count as a failure instead of raising or passing."""
    run = next((r for r in runs if not r.problems), None)
    if run is None:
        return []
    job, ok = run.job, run.job.exit_status
    doc = json.loads(run.stdout)
    doc["result"]["tampered"] = True
    cases = {
        "a tampered result": (ok, json.dumps(doc)),
        "a wrong exit status": (ok + 1, run.stdout),
        "a truncated output": (ok, run.stdout[: len(run.stdout) // 2]),
    }
    return [f"self-check: {name} passed" for name, (status, stdout) in cases.items()
            if not judge(job, seed, status, stdout)]


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def end_to_end(rounds: list[list[JobRun]], probes: list[float | None]) -> dict:
    """Each time is a sum over the workload's jobs of that job's median over
    the rounds; setup_s uses the median cold start of all processes."""
    per_job = list(zip(*rounds))
    cold = [r.setup_s for rnd in rounds for r in rnd] + probes
    return {
        "wall_s": (sum(statistics.median(r.wall_s for r in runs) for runs in per_job), "s"),
        "setup_s": (len(per_job) * _median([c for c in cold if c is not None]), "s"),
        "solve_s": (sum(statistics.median(r.solve_s for r in runs) for runs in per_job), "s"),
        "peak_rss_mb": (max(r.peak_rss_mb for rnd in rounds for r in rnd), "MB"),
    }


def _median(values: list[float]) -> float:
    # Only a run whose every process failed has no values; it is not correct.
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(raw: Counter, counters: Counter, overhead_s: float) -> dict:
    """The per-layer metrics from the figures summed over a traced round.
    A figure is missing (zero) only when no traced job wrote spans, and the
    run is then not correct."""

    def calls(name: str) -> int:
        return raw[f"{name}.calls"]

    out = {f"{layer}.self_s": (raw[f"{layer}.self_s"], "s") for layer in tracer.LAYERS}
    for name in ("linalg.rref", "linalg.matmul", "linalg.nullspace", "linalg.solve",
                 "modules.hom_basis", "modules.kernel", "modules.cokernel", "modules.direct_sum",
                 "homology.ext_dim", "homology.projective_cover", "decompose.summand_split",
                 "decompose.indecomposable_isomorphic", "decompose.fingerprint", "stable.cone",
                 "stable.strip_projectives", "checkers.check_n_cotorsion",
                 "checkers.check_cluster_tilting", "search.close_under_operations"):
        out[f"{name}.calls"] = (calls(name), "count")
    for name in ("modules.hom_basis", "homology.ext_dim", "decompose.summand_split",
                 "stable.strip_projectives"):
        out[f"{name}.s"] = (raw[f"{name}.s"], "s")
    iso = "decompose.indecomposable_isomorphic"
    out["decompose.iso_true_ratio"] = (_ratio(raw[f"{iso}.true"], calls(iso)), "share")
    out["contexts.build.s"] = (raw["contexts.build.s"], "s")
    out["contexts.identify_sum.calls"] = (calls("contexts.Context.identify_sum"), "count")
    out["contexts.identify_sum.s"] = (raw["contexts.Context.identify_sum.s"], "s")
    realize = calls("contexts.Context.realize")
    out["contexts.realize.calls"] = (realize, "count")
    out["contexts.realize.hit_ratio"] = (_ratio(realize - raw["contexts.realize.fresh"], realize), "share")
    out["checkers.subsets"] = (counters["checkers.subsets"], "count")
    cot = "checkers.check_n_cotorsion"
    out[f"{cot}.pass_ratio"] = (_ratio(raw[f"{cot}.true"], calls(cot)), "share")
    out["checkers.enumerate.s"] = (raw["checkers.enumerate.s"], "s")
    out["search.s"] = (raw["search.search_nakayama_stable.s"], "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def traced_round(runner: Runner, jobs: list[Job], plain: list[JobRun]) -> tuple[list[JobRun], Counter, Counter]:
    """Run every job traced; check it against its untraced run; sum the figures."""
    spans_path = RUN_DIR / "spans.npz"
    runs, raw, counters = [], Counter(), Counter()
    for job, untraced in zip(jobs, plain):
        run = runner.run(job, spans_path)
        runs.append(run)
        if run.digest != untraced.digest:
            run.problems.append("traced result differs from the untraced one")
        if not spans_path.exists():
            run.problems.append("no spans written")
            continue
        with np.load(spans_path) as spans:
            figures = tracer.summarize(spans)
        missing = [name for name in job.calls if not figures.get(f"{name}.calls")]
        if missing:
            run.problems.append(f"wrapped functions never called: {', '.join(missing)}")
        sizes = run.report.get("context_sizes", [])
        if sizes[:1] != [job.objects]:
            run.problems.append(f"first context has {sizes[:1]} objects, expected {job.objects}")
        raw.update(figures)
        counters.update(run.report.get("counters", {}))
    return runs, raw, counters


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cli.py").is_file():
        print(f"error: {SRC} not found; run from the root of a quivertilt checkout",
              file=sys.stderr)
        return 2

    # SIGTERM unwinds like Ctrl-C, so the running job is stopped and waited for.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    start = time.monotonic()
    runner = Runner(args.seed, start + RUN_LIMIT_S)
    jobs = WORKLOADS[args.workload]
    RUN_DIR.mkdir(exist_ok=True)
    try:
        # Unmeasured: lets the interpreter write the bytecode cache once, as an
        # installed package has it.
        runner.probe()
        rounds = []
        window_end = time.monotonic() + args.seconds
        while True:
            round_start = time.monotonic()
            rounds.append([runner.run(job) for job in jobs])
            # Another round only if it should end inside the window.
            now = time.monotonic()
            if args.trace or now + (now - round_start) > min(window_end, runner.deadline):
                break
        checks = self_check(args.seed, rounds[0])
        if args.trace:
            traced, raw, counters = traced_round(runner, jobs, rounds[0])
            overhead = sum(r.solve_s for r in traced) - sum(r.solve_s for r in rounds[0])
            metrics = per_layer(raw, counters, overhead)
            rounds.append(traced)
        else:
            probes = [runner.probe() for _ in range(PROBES)]
            checks += ["a cold-start probe failed"] * probes.count(None)
            metrics = end_to_end(rounds, probes)
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)

    runs = [r for rnd in rounds for r in rnd]
    failed = sum(1 for r in runs if r.problems)
    for r in runs:
        for problem in r.problems:
            print(f"FAILED {r.job.key}: {problem}", file=sys.stderr)
    for problem in checks:
        print(f"FAILED {problem}", file=sys.stderr)

    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "jobs_per_round": len(jobs),
        "python": platform.python_version(), "numpy": version("numpy"),
        "sympy": version("sympy"), "nproc": os.cpu_count(), "src_lines": src_lines(),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:>14.6g} {unit}")
    print(f"{'failed_ratio':44s} {failed / len(runs):>14.6g} share ({failed} of {len(runs)} jobs)")
    print(json.dumps({
        "correct": failed == 0 and not checks,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
