"""One quivertilt CLI job in a fresh interpreter, as a user runs it.

    python3 perfbench/job.py REPORT [--spans SPANS] [-- CLI_ARGS...]

Imports `quivertilt.cli` from the checkout's `src/`, runs `main(CLI_ARGS)`
with the CLI's own stdout, and writes REPORT, a JSON object with the
CLOCK_MONOTONIC times at which the import finished and `main` began and
returned.  The benchmark process reads the same clock, so the spawn-to-import
time is the cold start this job paid.  Without CLI_ARGS the job stops after
the import: a cold-start probe.  With `--spans` the layers are traced
(perfbench/tracer.py) and the spans are written to SPANS at the end.
"""

import json
import os
import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    report_path = argv.pop(0)
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path = argv[1]
        argv = argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import quivertilt.cli

    report = {"imported": time.monotonic(), "module": quivertilt.cli.__file__}
    if not argv:
        rc = 0
    else:
        recorder = None
        if spans_path:
            import tracer

            recorder = tracer.install()
        report["main_start"] = time.monotonic()
        rc = quivertilt.cli.main(argv)
        sys.stdout.flush()
        report["main_end"] = time.monotonic()
        if recorder is not None:
            recorder.dump(spans_path)
            report["counters"] = dict(recorder.counters)
            report["context_sizes"] = recorder.context_sizes
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
