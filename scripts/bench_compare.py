#!/usr/bin/env python3
"""Compare two sets of roundbench provenance records and gate regressions.

    python3 scripts/bench_compare.py PARENT_DIR CHANGE_DIR

Each directory holds roundbench provenance JSONL (the
.bench_build/out/*.jsonl files of a run; copy the files of several runs
into one directory, under distinct names, to pool them). Records are
matched on (case, metric, trace). A record's compared number is its
`value` (the metric as roundbench reports it: for round_cpu_s.p90 the
90th percentile, not the median of the same samples). Each record is one
run; a directory's runs of one key are pooled by the median of their
values.

Only the end-to-end metrics of the repo's BENCHMARK.json carry a bound,
so only they gate. A metric regresses when, on the same host, the
change's value is worse than the parent's by more than

    max(bound, 3 * (parent Q3 - parent Q1) / parent median)

as a fraction of the parent's value, where Q1, Q3 and the median are
taken over the parent's per-run values: the noise term is the parent's
run-to-run spread, not the spread of the samples inside one run. With a
single parent run the bound alone applies. A value worse than the bound
but within the parent's noise is reported as unresolved, not as ok, and
does not fail the gate. Per-layer metrics are reported without gating.
Records from different hosts are reported and never gate. BENCHMARK.json
is only read.

Exit status: 0 no regression (or different hosts), 1 a regression,
2 bad input (no matching records, unreadable files).
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_records(directory):
    """{(case, metric, trace): [record, ...]} over every *.jsonl file."""
    records = {}
    files = sorted(Path(directory).glob("*.jsonl"))
    if not files:
        raise ValueError(f"no *.jsonl files in {directory}")
    for path in files:
        for line_no, line in enumerate(path.read_text().splitlines(), 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                key = (rec["case"], rec["metric"], int(rec.get("trace", 0)))
                float(rec["median"])
            except (ValueError, KeyError, TypeError) as e:
                raise ValueError(f"{path}:{line_no}: not a provenance record ({e})")
            records.setdefault(key, []).append(rec)
    return records


def run_values(recs):
    """Per-run values and the set of hosts of one key's records."""
    values = [float(r.get("value", r["median"])) for r in recs]
    return values, {r.get("host", "?") for r in recs}


def run_to_run_noise(values):
    """3 x the interquartile range of per-run values over their median;
    0 for a single run or a zero median."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return 3.0 * (q3 - q1) / abs(med)


def worse_fraction(parent, change, better):
    """How much worse `change` is than `parent`, as a fraction of |parent|
    (negative = better). A zero parent makes any worsening infinite."""
    delta = change - parent if better == "lower" else parent - change
    if parent == 0:
        return 0.0 if delta <= 0 else float("inf")
    return delta / abs(parent)


def compare(parent_dir, change_dir):
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m for m in spec.get("end_to_end", [])}
    better = {m["name"]: m["better"] for m in spec.get("per_layer", [])}
    better.update({name: m["better"] for name, m in bounds.items()})

    parent = load_records(parent_dir)
    change = load_records(change_dir)
    keys = sorted(k for k in parent if k in change and k[1] in better)
    if not keys:
        print("bench_compare: no (case, metric, trace) in common", file=sys.stderr)
        return 2

    regressions = []
    cross_host = False
    print(f"{'case':<20} {'metric':<34} {'tr':>2} {'parent':>12} {'change':>12} "
          f"{'worse':>8} {'allowed':>8}  verdict")
    for case, metric, trace in keys:
        p_runs, p_hosts = run_values(parent[(case, metric, trace)])
        c_runs, c_hosts = run_values(change[(case, metric, trace)])
        p_val = statistics.median(p_runs)
        c_val = statistics.median(c_runs)
        same_host = len(p_hosts) == 1 and p_hosts == c_hosts
        cross_host |= not same_host
        worse = worse_fraction(p_val, c_val, better[metric])
        allowed = None
        if metric in bounds:
            allowed = max(float(bounds[metric]["bound"]), run_to_run_noise(p_runs))
        if allowed is None:
            verdict = "info"
        elif not same_host:
            verdict = "other-host"
        elif worse > allowed:
            verdict = "REGRESSION"
            regressions.append((case, metric, trace))
        elif worse > float(bounds[metric]["bound"]):
            verdict = "unresolved"  # worse than the bound, within the noise
        else:
            verdict = "ok"
        allowed_text = f"{allowed:8.1%}" if allowed is not None else f"{'-':>8}"
        print(f"{case:<20} {metric:<34} {trace:>2} {p_val:12.6g} {c_val:12.6g} "
              f"{worse:8.1%} {allowed_text}  {verdict}")

    if cross_host:
        print("bench_compare: records come from different hosts; reported, not gated")
    if regressions:
        print(f"bench_compare: {len(regressions)} regression(s): " +
              ", ".join(f"{c}/{m}" for c, m, _ in regressions))
        return 1
    print("bench_compare: no regression")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="directory of the parent's provenance JSONL")
    parser.add_argument("change", help="directory of the change's provenance JSONL")
    args = parser.parse_args()
    try:
        return compare(args.parent, args.change)
    except (OSError, ValueError) as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
