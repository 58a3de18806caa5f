#!/usr/bin/env python3
"""Reconcile the benchmark's campaign and certify figures with the CLI.

    python3 perfbench/reconcile.py

Run from the repository root after perfbench/run.py has built the
binaries.  On one CPU, one after the other, it runs for each style
`verify --stats --negative --jobs 1` next to the benchmark's campaign
part, then `verify --certify --jobs 1` next to its traced certify part,
and prints the figures side by side.  The same comparison, run once, is
recorded in perfbench/NOTES.md.
"""

import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "_build", "default")
VERIFY = os.path.join(BUILD, "bin", "verify.exe")
PROVE = os.path.join(BUILD, "perfbench", "pb_prove.exe")


def timed(cmd):
    t = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True).stdout
    return out, time.monotonic() - t


def field(pattern, text, cast=float):
    m = re.search(pattern, text)
    return cast(m.group(1)) if m else None


def part(*args):
    out, elapsed = timed([PROVE, *args, "--t0", repr(time.time())])
    line = [l for l in out.splitlines() if l.startswith("RESULT ")][-1]
    return json.loads(line[len("RESULT "):]), elapsed


def row(label, cli, bench, note=""):
    fmt = lambda v: "-" if v is None else ("%.3f" % v if isinstance(v, float) else str(v))
    print("  %-38s %12s %12s  %s" % (label, fmt(cli), fmt(bench), note))


def main():
    for exe in (VERIFY, PROVE):
        if not os.path.exists(exe):
            print("missing %s: run perfbench/run.py first" % exe, file=sys.stderr)
            return 2
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print("  %-38s %12s %12s" % ("", "CLI", "benchmark"))
    for style in ("original", "variant"):
        cli, cli_elapsed = timed([VERIFY, "--stats", "--negative", "--jobs", "1"]
                                 + (["--variant"] if style == "variant" else []))
        res, bench_elapsed = part("campaign", "--style", style, "--seed", "1")
        positives = [ms for (name, _), ms in zip(res["verdicts"], res["ops_ms"])
                     if not name.startswith("prop")]
        print("campaign, %s" % style)
        row("process, start to exit (s)", cli_elapsed, bench_elapsed)
        row("18 invariants, wall (s)", field(r"wall-clock: ([\d.]+)s", cli), sum(positives) / 1e3,
            "benchmark: sum of per-proof latencies")
        row("18 invariants + prop2'/prop3' (s)", None, res["wall_s"], "benchmark wall_s share")
        row("rewrite steps, 18 invariants", field(r"rewrite steps: (\d+)", cli, int), None)
        row("rewrite steps, with negatives", None, res["counters"]["rewrite.steps"])
    cli, cli_elapsed = timed([VERIFY, "--certify", "--jobs", "1"])
    res, bench_elapsed = part("certify", "--trace")
    layers = res["layers"]
    produced = sum(layers[k] for k in ("certgen.obligations_s", "termination.lpo_s",
                                       "confluence.certs_s", "certgen.joins_s"))
    print("certify, original")
    row("process, start to exit (s)", cli_elapsed, bench_elapsed)
    row("traced campaign, wall (s)", field(r"wall-clock: ([\d.]+)s", cli), layers["certify.traced_campaign_s"])
    row("produced (s)", field(r"produced in ([\d.]+)s", cli), produced,
        "obligations + LPO + confluence + joins")
    row("serialize (s)", None, layers["cert.serialize_s"], "the CLI prints no timer for it")
    row("parse (s)", None, layers["cert.parse_s"], "the CLI checks the in-memory certificate")
    row("checked (s)", field(r"checked in ([\d.]+)s", cli), layers["certify.check_s"])
    row("certificate bytes", field(r"(\d+) bytes", cli, int), res["counters"]["cert.bytes"])
    row("obligations", field(r"certify: (\d+) obligations", cli, int), res["counters"]["cert.obligations"])
    row("steps replayed", field(r"(\d+) steps replayed", cli, int), res["counters"]["cert.steps_replayed"],
        "benchmark replays the parsed certificate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
