#!/usr/bin/env python3
"""Compare the benchmark runs of two commits.

    python3 perfbench/compare.py BASE_DIR [NEW_DIR]

Each directory holds the result records run.py writes (perfbench/results/
of a checkout, copied aside).  For every workload and end-to-end metric the
command prints each side's median and quartiles, the bound from
BENCHMARK.json and a verdict:

  improved    the new median is lower by more than the base's own spread
              (Q3 - Q1) and every new quartile lies below the base's Q1
  no worse    the new median is within the bound of the base median
  regressed   the new median is worse than the base median by more than
              the bound
  unresolved  either side's spread (Q3 - Q1, as a share of its median) is
              wider than the bound, so the two cannot be told apart; only
              a change whose every run beats every base run still counts
              as improved

It then applies the exact-count guard: every deterministic work counter
(untraced counters, and the per-layer metrics counted in units of
"count" or "bytes") must be identical across the runs of one side, and any
difference between the sides is printed.  With one directory it prints
that side's figures and the guard alone.  Exit status: 0, or 1 when a
metric regressed or a side's counters disagree between its own runs.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "**", "*.json"), recursive=True)):
        with open(path) as f:
            try:
                rec = json.load(f)
            except json.JSONDecodeError:
                continue
        if isinstance(rec, dict) and "workload" in rec and "metrics" in rec:
            runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def counters_of(rec, counted):
    c = {k: v for k, v in rec.get("counters", {}).items()}
    if rec["trace"]:
        c.update({k: m["value"] for k, m in rec["metrics"].items() if k in counted})
    return c


def guard(runs, counted, label):
    """Counters agreed on by every run of one side, or None."""
    ok = True
    agreed = {}
    for (wl, trace), recs in sorted(runs.items()):
        sets = [counters_of(r, counted) for r in recs if r["correct"]]
        if not sets:
            continue
        first = sets[0]
        for other in sets[1:]:
            diff = sorted(k for k in set(first) | set(other) if first.get(k) != other.get(k))
            if diff:
                ok = False
                print("  %s: %s trace=%d counters differ between runs: %s"
                      % (label, wl, trace, ", ".join("%s %s/%s" % (k, first.get(k), other.get(k)) for k in diff)))
                break
        agreed[(wl, trace)] = first
    return agreed if ok else None


def verdict(base, new, bound, better):
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (nmed - bmed) / bmed if bmed else 0.0
    spread = max((bq3 - bq1) / bmed if bmed else 0.0, (nq3 - nq1) / nmed if nmed else 0.0)
    beats_all = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
    if spread > bound:
        return "improved" if beats_all else "unresolved"
    if change > bound:
        return "regressed"
    separated = (nq3 < bq1) if better == "lower" else (nq1 > bq3)
    if change < 0 and separated and abs(nmed - bmed) > (bq3 - bq1):
        return "improved"
    return "no worse"


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    counted = {m["name"] for m in bench["per_layer"] if m["unit"] in ("count", "bytes")}
    sides = [("base", load(sys.argv[1]))]
    if len(sys.argv) == 3:
        sides.append(("new", load(sys.argv[2])))
    status = 0

    workloads = sorted({wl for _, runs in sides for (wl, t) in runs if t == 0})
    for wl in workloads:
        print("== %s" % wl)
        for m in bench["end_to_end"]:
            cols = []
            values = []
            for label, runs in sides:
                vals = [r["metrics"][m["name"]]["value"] for r in runs.get((wl, 0), [])
                        if r["correct"] and m["name"] in r["metrics"]]
                values.append(vals)
                if vals:
                    q1, med, q3 = quartiles(vals)
                    cols.append("%s %.4g [%.4g, %.4g] n=%d" % (label, med, q1, q3, len(vals)))
                else:
                    cols.append("%s -" % label)
            line = "  %-12s %-6s bound %.2f  %s" % (m["name"], m["unit"], m["bound"], "  ".join(cols))
            if len(values) == 2 and values[0] and values[1]:
                v = verdict(values[0], values[1], m["bound"], m["better"])
                if v == "regressed":
                    status = 1
                line += "  -> " + v
            print(line)
        for label, runs in sides:
            bad = sum(1 for r in runs.get((wl, 0), []) + runs.get((wl, 1), []) if not r["correct"])
            if bad:
                print("  %s: %d run(s) not correct (known-answer mismatch or failure)" % (label, bad))

    print("== exact-count guard")
    agreed = []
    for label, runs in sides:
        a = guard(runs, counted, label)
        if a is None:
            status = 1
        else:
            print("  %s: counters identical across runs (%d workload/trace groups)" % (label, len(a)))
        agreed.append(a)
    if len(agreed) == 2 and agreed[0] is not None and agreed[1] is not None:
        for key in sorted(set(agreed[0]) & set(agreed[1])):
            b, n = agreed[0][key], agreed[1][key]
            diff = sorted(k for k in set(b) | set(n) if b.get(k) != n.get(k))
            for k in diff:
                print("  %s trace=%d %s: %s -> %s" % (key[0], key[1], k, b.get(k), n.get(k)))
    return status


if __name__ == "__main__":
    sys.exit(main())
