#!/usr/bin/env python3
"""Negative tests for tools/bench-diff.py, the BENCH_trend.json gate.

Builds small perseas-bench/1 documents in a temp directory and runs the
real script over pairs of them: identical documents must pass; a moved
row metric, a metric key added or removed, a moved counter, gauge or
histogram value, nanoseconds moved between two ledger phases with the
total unchanged, and a moved ledger row must each fail.  Guards the gate
against reporting green because it stopped looking at part of the
document.

Exit status: 0 all pass, 1 failures.  Stdlib only.
"""

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

DIFF = Path(__file__).resolve().parent / "bench-diff.py"

BASE = {
    "schema": "perseas-bench/1",
    "bench": "bench_trend",
    "rows": [{"kind": "trend", "year": 1997, "mean_us": 11.846}],
    "metrics": {
        "counters": {'perseas_txns_total{db="t",outcome="committed"}': 5},
        "gauges": {'perseas_mirrors{db="t"}': 1},
        "histograms": {"perseas_txn_us": {"count": 5, "sum": 60.0, "p50": 11.8}},
    },
    "ledger": {
        "rows": [
            {"txn": 1, "phase": "local_undo", "layer": "core", "channel": "local",
             "ns": 500, "bytes": 0},
            {"txn": 1, "phase": "flag_set", "layer": "core", "channel": "flag",
             "ns": 2500, "bytes": 16},
        ],
        "by_phase": [{"phase": "local_undo", "ns": 500}, {"phase": "flag_set", "ns": 2500}],
        "total_ns": 3000,
        "total_bytes": 16,
    },
}

FAILURES = []


def run(tmp, name, cand):
    base_path, cand_path = Path(tmp) / "base.json", Path(tmp) / f"{name}.json"
    base_path.write_text(json.dumps(BASE))
    cand_path.write_text(json.dumps(cand))
    proc = subprocess.run([sys.executable, str(DIFF), str(base_path), str(cand_path)],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def check(tmp, name, cand, want_rc, want_text):
    rc, out = run(tmp, name, cand)
    if rc == want_rc and want_text in out:
        print(f"bench-diff-test: PASSED: {name}")
    else:
        FAILURES.append(name)
        print(f"bench-diff-test: FAILED: {name}: exit {rc} (want {want_rc}), "
              f"want {want_text!r} in:\n{out}", file=sys.stderr)


def main():
    with tempfile.TemporaryDirectory(prefix="bench-diff-test.") as tmp:
        check(tmp, "identical", BASE, 0, "0 change(s)")

        moved = copy.deepcopy(BASE)
        moved["rows"][0]["mean_us"] = 12.0
        check(tmp, "row-metric-moved", moved, 1, "REGRESSION")

        added = copy.deepcopy(BASE)
        added["metrics"]["counters"]['perseas_cc_waits_total{db="t"}'] = 0
        check(tmp, "counter-key-added", added, 1,
              'counters key added with no baseline: perseas_cc_waits_total{db="t"}')

        removed = copy.deepcopy(BASE)
        del removed["metrics"]["gauges"]['perseas_mirrors{db="t"}']
        check(tmp, "gauge-key-removed", removed, 1,
              'gauges key removed: perseas_mirrors{db="t"}')

        no_metrics = copy.deepcopy(BASE)
        del no_metrics["metrics"]
        check(tmp, "metrics-section-dropped", no_metrics, 1, "3 metric key(s)")

        counter = copy.deepcopy(BASE)
        counter["metrics"]["counters"]['perseas_txns_total{db="t",outcome="committed"}'] = 6
        check(tmp, "counter-value-moved", counter, 1,
              'VALUE: counters perseas_txns_total{db="t",outcome="committed"}: 5 -> 6')

        gauge = copy.deepcopy(BASE)
        gauge["metrics"]["gauges"]['perseas_mirrors{db="t"}'] = 2
        check(tmp, "gauge-value-moved", gauge, 1,
              'VALUE: gauges perseas_mirrors{db="t"}: 1 -> 2')

        histogram = copy.deepcopy(BASE)
        histogram["metrics"]["histograms"]["perseas_txn_us"]["sum"] = 61.0
        check(tmp, "histogram-value-moved", histogram, 1,
              "VALUE: histograms perseas_txn_us.sum: 60.0 -> 61.0")

        # 100 ns move from local_undo to flag_set: total_ns is unchanged.
        shifted = copy.deepcopy(BASE)
        shifted["ledger"]["by_phase"] = [{"phase": "local_undo", "ns": 400},
                                         {"phase": "flag_set", "ns": 2600}]
        check(tmp, "phase-ns-moved-same-total", shifted, 1,
              "LEDGER: ledger by_phase local_undo: 500 -> 400")

        row = copy.deepcopy(BASE)
        row["ledger"]["rows"][1]["bytes"] = 32
        check(tmp, "ledger-row-moved", row, 1,
              "LEDGER: ledger row txn=1 phase=flag_set layer=core channel=flag.bytes: 16 -> 32")

    if FAILURES:
        print(f"bench-diff-test: FAIL ({len(FAILURES)} case(s))", file=sys.stderr)
        return 1
    print("bench-diff-test: OK (all cases pass)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
