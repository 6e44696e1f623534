"""Per-file line-coverage gate for the unit-test suite.

Two modes:

* **JSON mode** (CI): consume a ``coverage.json`` produced by
  ``pytest tests/ --cov=repro --cov-report=json:coverage.json`` and
  fail if any target file is below the threshold::

      python tools/check_coverage.py --json coverage.json --min 80 \\
          src/repro/stats.py src/repro/index.py src/repro/engine.py \\
          src/repro/core.py src/repro/geometry.py \\
          src/repro/budget.py src/repro/kernels.py \\
          src/repro/fingerprint.py src/repro/datasets.py \\
          src/repro/baselines.py src/repro/forest.py src/repro/viz.py

* **Trace mode** (local, stdlib only — this repo's container has no
  ``coverage`` package): run the unit suite under :mod:`trace`,
  compare executed lines against the files' executable lines (from
  their compiled code objects), and apply the same gate::

      python tools/check_coverage.py --trace --min 80 \\
          src/repro/stats.py src/repro/index.py src/repro/engine.py \\
          src/repro/budget.py

Trace mode undercounts slightly (``trace.Trace.runfunc`` follows only
the calling thread, so lines run only on other threads — the engine's
chunk pool, the HTTP server's handlers — are invisible to it), so
treat it as a local sanity check; the JSON mode number is
authoritative.
"""

from __future__ import annotations

import argparse
import json
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def executable_lines(path: Path) -> set:
    """Line numbers holding executable code, from the compiled module.

    Walks the module's code object and every nested one (functions,
    classes, comprehensions), mirroring what tracers can ever report.
    """
    code = compile(path.read_text(), str(path), "exec")
    lines: set = set()
    stack = [code]
    while stack:
        c = stack.pop()
        lines.update(
            line for _, _, line in c.co_lines() if line is not None
        )
        stack.extend(
            const for const in c.co_consts
            if isinstance(const, types.CodeType)
        )
    return lines


def coverage_from_json(report_path: Path, targets: list) -> dict:
    """Per-target percent covered out of a coverage.py JSON report."""
    report = json.loads(report_path.read_text())
    out = {}
    for target in targets:
        norm = str(target).replace("\\", "/")
        for fname, entry in report["files"].items():
            if fname.replace("\\", "/").endswith(norm):
                out[target] = float(entry["summary"]["percent_covered"])
                break
        else:
            raise SystemExit(
                f"{target}: not present in {report_path} — did the "
                "test run import it?"
            )
    return out


def coverage_from_trace(targets: list) -> dict:
    """Run ``pytest tests/ -q`` under stdlib trace and measure the
    targets' executed-line fraction."""
    import trace

    import pytest

    tracer = trace.Trace(count=1, trace=0)
    rc = tracer.runfunc(
        pytest.main, ["tests/", "-q", "-p", "no:cacheprovider"]
    )
    if rc != 0:
        raise SystemExit(f"unit suite failed (pytest exit {rc})")
    counts = tracer.results().counts

    executed_by_file: dict = {}
    for (fname, line), _ in counts.items():
        executed_by_file.setdefault(Path(fname).resolve(), set()).add(line)

    out = {}
    for target in targets:
        path = (ROOT / target).resolve()
        want = executable_lines(path)
        got = executed_by_file.get(path, set()) & want
        out[target] = 100.0 * len(got) / max(len(want), 1)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Fail if per-file unit-test line coverage is "
        "below a threshold."
    )
    parser.add_argument("targets", nargs="+", help="files to gate on")
    parser.add_argument("--min", type=float, default=80.0,
                        dest="threshold")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--json", type=Path, metavar="REPORT",
                      help="coverage.py JSON report to read")
    mode.add_argument("--trace", action="store_true",
                      help="measure via stdlib trace (no deps)")
    args = parser.parse_args()

    if args.json:
        percents = coverage_from_json(args.json, args.targets)
    else:
        percents = coverage_from_trace(args.targets)

    failed = False
    for target, pct in percents.items():
        verdict = "ok" if pct >= args.threshold else "FAIL"
        print(f"{target}: {pct:.1f}% ({verdict}, need "
              f">= {args.threshold:g}%)")
        failed = failed or pct < args.threshold
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
