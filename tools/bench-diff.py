#!/usr/bin/env python3
"""Compare two perseas-bench/1 trend documents and attribute latency drift.

Usage:
    bench-diff.py [--tolerance-pct=P] <baseline.json> <candidate.json>

Pairs up the rows of the two documents by identity (the row's "kind" plus
its identifying fields: year / txn_bytes / engine / coalesce), reports every
numeric delta, and — when the documents carry the per-transaction cost
ledger — attributes the overall simulated-time delta to ledger phases, so a
latency regression arrives pre-diagnosed ("+4.1% total, +92% of it in
remote_undo") instead of as a bare number.

The "metrics" sections (counters / gauges / histograms) and the ledger
(its by_phase aggregation, its per-transaction rows and its totals) are
accounts, not scores: they have no better direction, so any value that
moves beyond the tolerance either way fails the gate, and so does a key or
row present in only one document (a stale snapshot or a lost export).
Moving nanoseconds from one phase to another fails even when the total
stays put.

Exit status:
    0  nothing moved beyond the tolerance (default 0%: the simulation is
       deterministic, so the committed snapshot must match bit-for-bit)
    1  at least one unexplained regression, a metric or ledger value moved,
       a metric key or ledger row added or removed, or invalid inputs

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
# Sections of the "metrics" document whose key sets and values must match.
METRIC_SECTIONS = ("counters", "gauges", "histograms")
# Fields that identify a ledger row.
LEDGER_ROW_ID = ("txn", "phase", "layer", "channel")
# Moved-value lines printed per section before the rest are summarized.
MAX_LINES = 20


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


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def moved(vb, vc, tolerance):
    """Whether vb -> vc moved beyond `tolerance` percent, either way."""
    if is_number(vb) and is_number(vc):
        return vb != vc and abs(pct(vb, vc)) > tolerance
    return vb != vc


def fmt_move(vb, vc):
    if is_number(vb) and is_number(vc):
        return f"{vb} -> {vc} ({pct(vb, vc):+.2f}%)"
    return f"{vb!r} -> {vc!r}"


def diff_values(label, base, cand, tolerance):
    """One line per value of `base` whose counterpart in `cand` moved.
    Histogram values are objects, compared field by field."""
    lines = []
    for key in sorted(set(base) & set(cand)):
        vb, vc = base[key], cand[key]
        if isinstance(vb, dict) and isinstance(vc, dict):
            for field in sorted(set(vb) | set(vc)):
                if moved(vb.get(field), vc.get(field), tolerance):
                    lines.append(f"{label} {key}.{field}: "
                                 f"{fmt_move(vb.get(field), vc.get(field))}")
        elif moved(vb, vc, tolerance):
            lines.append(f"{label} {key}: {fmt_move(vb, vc)}")
    return lines


def diff_metric_values(base, cand, tolerance):
    """Returns one line per counter, gauge or histogram value that moved."""
    mb, mc = base.get("metrics") or {}, cand.get("metrics") or {}
    lines = []
    for section in METRIC_SECTIONS:
        lines += diff_values(section, mb.get(section) or {}, mc.get(section) or {},
                             tolerance)
    return lines


def diff_ledger_values(base, cand, tolerance):
    """Returns one line per ledger value that moved: by_phase ns, row ns
    and bytes, the scalar totals, and phases or rows present on one side
    only."""
    lb, lc = base.get("ledger"), cand.get("ledger")
    if lb is None and lc is None:
        return []
    if not (isinstance(lb, dict) and isinstance(lc, dict)):
        return [f"ledger section {'added' if lb is None else 'removed'}"]
    lines = []
    scalars_b = {k: v for k, v in lb.items() if is_number(v)}
    scalars_c = {k: v for k, v in lc.items() if is_number(v)}
    lines += diff_values("ledger", scalars_b, scalars_c, tolerance)

    phases_b = {p["phase"]: p["ns"] for p in lb.get("by_phase", [])}
    phases_c = {p["phase"]: p["ns"] for p in lc.get("by_phase", [])}
    lines += [f"ledger phase removed: {p}" for p in sorted(set(phases_b) - set(phases_c))]
    lines += [f"ledger phase added: {p}" for p in sorted(set(phases_c) - set(phases_b))]
    lines += diff_values("ledger by_phase", phases_b, phases_c, tolerance)

    def rows(ledger):
        return {" ".join(f"{k}={r.get(k)}" for k in LEDGER_ROW_ID):
                {"ns": r.get("ns"), "bytes": r.get("bytes")}
                for r in ledger.get("rows", [])}
    rows_b, rows_c = rows(lb), rows(lc)
    lines += [f"ledger row removed: {k}" for k in sorted(set(rows_b) - set(rows_c))]
    lines += [f"ledger row added: {k}" for k in sorted(set(rows_c) - set(rows_b))]
    lines += diff_values("ledger row", rows_b, rows_c, tolerance)
    return lines


def print_capped(tag, lines):
    for line in lines[:MAX_LINES]:
        print(f"bench-diff: {tag}: {line}")
    if len(lines) > MAX_LINES:
        print(f"bench-diff: {tag}: ... and {len(lines) - MAX_LINES} more")


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
    value_moves = diff_metric_values(base_doc, cand_doc, tolerance)
    print_capped("VALUE", value_moves)
    ledger_moves = diff_ledger_values(base_doc, cand_doc, tolerance)
    print_capped("LEDGER", ledger_moves)

    if regressions:
        print(f"bench-diff: FAIL: {len(regressions)} unexplained regression(s) "
              f"beyond the {tolerance:g}% tolerance", file=sys.stderr)
        sys.exit(1)
    if key_changes:
        print(f"bench-diff: FAIL: {len(key_changes)} metric key(s) added or removed "
              f"relative to the baseline (regenerate it with tools/bench-trend.sh)",
              file=sys.stderr)
        sys.exit(1)
    if value_moves or ledger_moves:
        print(f"bench-diff: FAIL: {len(value_moves)} metric value(s) and "
              f"{len(ledger_moves)} ledger value(s) moved beyond the {tolerance:g}% "
              f"tolerance (regenerate the baseline with tools/bench-trend.sh if "
              f"the move is intended)", file=sys.stderr)
        sys.exit(1)
    print(f"bench-diff: OK: {len(base)} rows compared, {changes} change(s), "
          f"none beyond the {tolerance:g}% tolerance")


if __name__ == "__main__":
    main()
