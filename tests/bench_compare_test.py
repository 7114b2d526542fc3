#!/usr/bin/env python3
"""Runs scripts/bench_compare.py on the synthetic fixture sets under
tests/bench_compare/ and checks its verdicts and exit codes.

    python3 tests/bench_compare_test.py
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_compare.py"
FIXTURES = ROOT / "tests" / "bench_compare"


def run(change, parent="parent"):
    got = subprocess.run([sys.executable, str(SCRIPT), str(FIXTURES / parent),
                          str(FIXTURES / change)], capture_output=True, text=True)
    return got.returncode, got.stdout + got.stderr


def main():
    failures = []

    def expect(what, cond, output):
        if not cond:
            failures.append(f"{what}\n{output}")

    code, out = run("pass")
    expect("within-noise change must pass", code == 0 and "REGRESSION" not in out, out)
    expect("per-layer metric is reported, not gated", "comm.crc32_MBps" in out, out)

    # The parent's runs are tight run to run but wide inside each run
    # (p10-p90 spans 0.5x-2x): a +50 % round time still regresses.
    code, out = run("regress")
    expect("regressed change must fail with status 1", code == 1, out)
    expect("round time regression is named",
           "round_cpu_s.p50" in out and "2 regression(s)" in out, out)

    # Runs at 0.12/0.20/0.28 s: 3 x IQR/median = 120 % covers the +50 %
    # round time; bytes_per_round, equal in every run, still gates at 5 %.
    code, out = run("regress", parent="noisy_parent")
    expect("run-to-run noise widens the allowance", code == 1 and
           "1 regression(s): cohort-mlp-faulty/bytes_per_round" in out, out)
    expect("a value past the bound but within the noise is unresolved",
           any("round_cpu_s.p50" in line and line.endswith("unresolved")
               for line in out.splitlines()), out)

    # One parent run: the bound alone (+30 % > 25 %).
    code, out = run("regress", parent="pass")
    expect("a single parent run gates on the bound alone",
           code == 1 and "2 regression(s)" in out, out)

    code, out = run("other_host")
    expect("another host's records are reported, not gated",
           code == 0 and "different hosts" in out and "REGRESSION" not in out, out)

    code, out = run("pass", parent="missing")
    expect("a missing directory is bad input (status 2)", code == 2, out)

    for f in failures:
        print("FAIL:", f)
    print("bench_compare_test:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
