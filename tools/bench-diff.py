#!/usr/bin/env python3
"""Compare two perseas-bench/1 trend documents and attribute latency drift.

Usage:
    bench-diff.py [--tolerance-pct=P] <baseline.json> <candidate.json>

Pairs up the rows of the two documents by identity (the row's "kind" plus
its identifying fields: year / txn_bytes / engine / coalesce), reports every
numeric delta, and — when the documents carry the per-transaction cost
ledger — attributes the overall simulated-time delta to ledger phases, so a
latency regression arrives pre-diagnosed ("+4.1% total, +92% of it in
remote_undo") instead of as a bare number.  It also checks that the
"metrics" sections (counters / gauges / histograms) name the same keys: a
key added or removed relative to the baseline means the snapshot is stale
or an export was lost, and fails the gate.

Exit status:
    0  no metric moved beyond the tolerance (default 0%: the simulation is
       deterministic, so the committed snapshot must match bit-for-bit)
    1  at least one unexplained regression, a metric key added or removed,
       or invalid inputs

Stdlib only: runs on any CI python3 without installs.
"""

import json
import sys

import ci_json

# Fields that identify a row rather than measure it.
ID_FIELDS = ("kind", "year", "txn_bytes", "engine", "coalesce")
# Metrics where a *decrease* is the regression direction.
HIGHER_IS_BETTER = {"txns_per_second", "perseas_tps", "rvm_disk_tps",
                    "remote_wal_tps", "speedup"}
# Sections of the "metrics" document whose key sets must match.
METRIC_SECTIONS = ("counters", "gauges", "histograms")


def fail(msg):
    ci_json.fail("bench-diff", msg)


def load(path):
    text = ci_json.read_text("bench-diff", path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        fail(f"{path}: invalid JSON: {e}")
    if doc.get("schema") != "perseas-bench/1":
        fail(f"{path}: schema is {doc.get('schema')!r}, expected 'perseas-bench/1'")
    return doc


def row_key(row):
    return tuple((k, row[k]) for k in ID_FIELDS if k in row)


def index_rows(doc, path):
    out = {}
    for row in doc.get("rows", []):
        key = row_key(row)
        if key in out:
            fail(f"{path}: duplicate row identity {key}")
        out[key] = row
    if not out:
        fail(f"{path}: no rows")
    return out


def fmt_key(key):
    return " ".join(f"{k}={v}" for k, v in key)


def pct(old, new):
    if old == 0:
        return float("inf") if new != 0 else 0.0
    return (new - old) / old * 100.0


def diff_metric_keys(base, cand):
    """Returns one line per metric key present in only one document."""
    mb, mc = base.get("metrics") or {}, cand.get("metrics") or {}
    lines = []
    for section in METRIC_SECTIONS:
        kb, kc = set(mb.get(section) or {}), set(mc.get(section) or {})
        lines += [f"{section} key removed: {k}" for k in sorted(kb - kc)]
        lines += [f"{section} key added with no baseline: {k}" for k in sorted(kc - kb)]
    return lines


def diff_ledgers(base, cand):
    """Returns ledger phase attribution lines, or [] when absent."""
    lb, lc = base.get("ledger"), cand.get("ledger")
    if not (isinstance(lb, dict) and isinstance(lc, dict)):
        return []
    phases_b = {p["phase"]: p["ns"] for p in lb.get("by_phase", [])}
    phases_c = {p["phase"]: p["ns"] for p in lc.get("by_phase", [])}
    total_delta = lc.get("total_ns", 0) - lb.get("total_ns", 0)
    lines = [f"  ledger total: {lb.get('total_ns', 0)} -> {lc.get('total_ns', 0)} ns "
             f"({total_delta:+d} ns)"]
    deltas = []
    for phase in sorted(set(phases_b) | set(phases_c)):
        d = phases_c.get(phase, 0) - phases_b.get(phase, 0)
        if d != 0:
            deltas.append((abs(d), d, phase))
    for _, d, phase in sorted(deltas, reverse=True):
        share = (d / total_delta * 100.0) if total_delta else float("inf")
        lines.append(f"    {phase:>14}: {d:+d} ns ({share:.0f}% of the total delta)")
    if len(lines) == 1:
        lines.append("    (no phase moved)")
    return lines


def main():
    args = sys.argv[1:]
    tolerance = 0.0
    while args and args[0].startswith("--"):
        if args[0].startswith("--tolerance-pct="):
            try:
                tolerance = float(args[0].split("=", 1)[1])
            except ValueError:
                fail(f"bad tolerance {args[0]!r}")
        else:
            print(__doc__, file=sys.stderr)
            sys.exit(2)
        args = args[1:]
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)

    base_doc, cand_doc = load(args[0]), load(args[1])
    base, cand = index_rows(base_doc, args[0]), index_rows(cand_doc, args[1])

    regressions = []
    changes = 0
    for key in sorted(set(base) | set(cand), key=str):
        if key not in cand:
            regressions.append(f"row disappeared: {fmt_key(key)}")
            continue
        if key not in base:
            regressions.append(f"new row with no baseline: {fmt_key(key)}")
            continue
        b, c = base[key], cand[key]
        for field in sorted(set(b) | set(c)):
            if field in ID_FIELDS:
                continue
            vb, vc = b.get(field), c.get(field)
            if not all(isinstance(v, (int, float)) for v in (vb, vc)):
                continue
            if vb == vc:
                continue
            changes += 1
            p = pct(vb, vc)
            regressed = (p < -tolerance) if field in HIGHER_IS_BETTER \
                else (p > tolerance)
            marker = "REGRESSION" if regressed else "change"
            line = (f"{marker}: {fmt_key(key)} {field}: "
                    f"{vb} -> {vc} ({p:+.2f}%)")
            print(f"bench-diff: {line}")
            if regressed:
                regressions.append(line)

    for line in diff_ledgers(base_doc, cand_doc):
        print(f"bench-diff:{line}")

    key_changes = diff_metric_keys(base_doc, cand_doc)
    for line in key_changes:
        print(f"bench-diff: KEY: {line}")

    if regressions:
        print(f"bench-diff: FAIL: {len(regressions)} unexplained regression(s) "
              f"beyond the {tolerance:g}% tolerance", file=sys.stderr)
        sys.exit(1)
    if key_changes:
        print(f"bench-diff: FAIL: {len(key_changes)} metric key(s) added or removed "
              f"relative to the baseline (regenerate it with tools/bench-trend.sh)",
              file=sys.stderr)
        sys.exit(1)
    print(f"bench-diff: OK: {len(base)} rows compared, {changes} change(s), "
          f"none beyond the {tolerance:g}% tolerance")


if __name__ == "__main__":
    main()
