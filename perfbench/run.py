#!/usr/bin/env python3
"""The benchmark of the five user paths: campaign, certify, lint, mc, serve.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  It builds the measuring executables
(perfbench/pb_*.ml) and verifyd with dune, then runs rounds of the
workload, each part of a round in a fresh process, until the next round
would overrun --seconds (at least one round).  Every verdict is checked
against perfbench/known_answers.json, and every deterministic work counter
must agree exactly between the rounds of a run.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1 (a traced run makes one untraced and one
traced round; the difference is the tracing overhead).  Human-readable
progress goes to stderr, and the full record of the run (seed included) to
perfbench/results/, which perfbench/compare.py reads.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "_build", "default")
EXES = ("pb_prove", "pb_lint", "pb_mc", "pb_serve")
VERIFYD = os.path.join(BUILD, "bin", "verifyd.exe")
RUN_DIR = os.path.join("perfbench", ".run")  # relative: socket paths stay short
RESULTS = os.path.join(HERE, "results")

# A run must end within 180 s of its start (build excluded); no new part is
# started once this much of it is gone.
RUN_BUDGET_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Failure(Exception):
    """A part that crashed, timed out or printed no result."""


# --------------------------------------------------------------------------
# Build


def build():
    missing = [p for p in ("dune-project", "lib", "bin") if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        log("perfbench: not a source checkout (missing %s)" % ", ".join(missing))
        sys.exit(2)
    dune = shutil.which("dune")
    if dune is None:
        log("perfbench: dune not found on PATH")
        sys.exit(2)
    t = time.monotonic()
    proc = subprocess.run(
        [dune, "build", "--root", ROOT, "./bin/verifyd.exe"]
        + ["./perfbench/%s.exe" % e for e in EXES],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        timeout=850,
    )
    if proc.returncode != 0:
        log(proc.stdout.decode(errors="replace")[-4000:])
        log("perfbench: build failed")
        sys.exit(2)
    log("perfbench: built in %.1fs" % (time.monotonic() - t))


# --------------------------------------------------------------------------
# Parts


class Runner:
    def __init__(self, seed, deadline):
        self.base_seed = seed
        self.seed = seed
        self.deadline = deadline

    def start_round(self, index):
        """Round [index] of a run draws its inputs from its own seed, a
        function of the run's seed alone."""
        self.seed = self.base_seed * 1000 + index

    def part(self, exe, *args, trace=False, setup_only=False):
        """Run one part of executable [exe] in a fresh process and return
        its RESULT record."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 1:
            raise Failure("run budget exhausted before %s" % " ".join(args))
        cmd = [os.path.join(BUILD, "perfbench", exe + ".exe"), *args, "--t0", repr(time.time())]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        # its own process group, so a timeout also takes down a spawned verifyd
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True
        )
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise Failure("%s timed out" % " ".join(args))
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        lines = [l for l in out.decode(errors="replace").splitlines() if l.startswith("RESULT ")]
        if proc.returncode != 0 or not lines:
            log(err.decode(errors="replace")[-2000:])
            raise Failure("%s exited %d" % (" ".join(args), proc.returncode))
        return json.loads(lines[-1][len("RESULT "):])


# --------------------------------------------------------------------------
# Known answers


def load_answers():
    with open(os.path.join(HERE, "known_answers.json")) as f:
        return json.load(f)


def proof_answers(ka):
    d = {n: "proved" for n in ka["proofs"]["proved"]}
    d.update({n: "refuted" for n in ka["proofs"]["refuted"]})
    return d


RESULT_RE = re.compile(r"^\s*result: (.*?)(?: \(\d+ rewrites?\))?$")


def eval_results(text):
    if text.startswith("error:") or text == "unexpected":
        return None
    return [m.group(1) for m in (RESULT_RE.match(l) for l in text.splitlines()) if m]


def serve_expected(ka, key, answer):
    """Whether one serve answer matches the known answer for its request."""
    kind, _, rest = key.partition(":")
    if kind == "verify":
        _, _, name = rest.partition(":")
        proofs = proof_answers(ka)
        if name.endswith("+negatives"):
            base = name[: -len("+negatives")]
            names = [base] + ka["proofs"]["refuted"]
        else:
            names = [name]
        if any(n not in proofs for n in names):
            return False
        return answer == ",".join("%s=%s" % (n, proofs[n]) for n in names)
    if kind == "secrecy":
        return answer == ka["secrecy"]
    if kind == "eval":
        return rest in ka["eval"] and eval_results(answer) == ka["eval"][rest]
    return False


class Checker:
    """Counts operations and known-answer mismatches."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, what, got, expected_map, required=()):
        seen = set()
        for key, value in got:
            self.attempted += 1
            seen.add(key)
            if key not in expected_map or expected_map[key] != value:
                self.failed += 1
                self.messages.append("%s: %s = %r, expected %r" % (what, key, value, expected_map.get(key)))
        for key in required:
            if key not in seen:
                self.attempted += 1
                self.failed += 1
                self.messages.append("%s: no answer for %s" % (what, key))

    def fail(self, msg):
        self.attempted += 1
        self.failed += 1
        self.messages.append(msg)


# --------------------------------------------------------------------------
# Workloads
#
# A workload is a cycle of groups (campaign: the two protocol styles; mc:
# the reduced and the unreduced arm; the others: one group).  A round runs
# one group's part in a fresh process, plus a few set-up-only processes.
# Rounds cycle through the groups until the next round would overrun
# --seconds, each group at least once.  A time is the sum over the groups
# of the group's median, so every group counts once however many rounds
# it had.


def check_serve(ka, chk, verdicts):
    for key, answer in verdicts:
        chk.attempted += 1
        if not serve_expected(ka, key, answer):
            chk.failed += 1
            chk.messages.append("serve: %s = %r" % (key, answer[:200]))


def round_campaign(r, ka, chk, trace, style):
    args = ("pb_prove", "campaign", "--style", style, "--seed", str(r.seed))
    setups = [r.part(*args, setup_only=True)["setup_s"] for _ in range(3)]
    res = r.part(*args, trace=trace)
    expected = proof_answers(ka)
    chk.check("campaign/" + style, res["verdicts"], expected, required=expected)
    return res, setups


def round_certify(r, ka, chk, trace, _):
    setups = [r.part("pb_prove", "certify", setup_only=True)["setup_s"] for _ in range(8)]
    res = r.part("pb_prove", "certify", trace=trace)
    expected = {n: "proved" for n in ka["proofs"]["proved"]}
    expected.update(ka["certificate"])
    chk.check("certify", res["verdicts"], expected, required=expected)
    return res, setups


def round_lint(r, ka, chk, trace, _):
    setups = [r.part("pb_lint", "lint", setup_only=True)["setup_s"] for _ in range(4)]
    res = r.part("pb_lint", "lint", trace=trace)
    chk.check("lint", res["verdicts"], ka["lint"], required=ka["lint"])
    return res, setups


def round_mc(r, ka, chk, trace, arm):
    res = r.part("pb_mc", "mc", "--arm", arm, trace=trace)
    chk.check("mc/" + arm, res["verdicts"], ka["mc"][arm], required=ka["mc"][arm])
    # set-up is what [attack] pays before its first search, the reduction's
    # analyses included; repeating it would cost a second search's worth
    return res, ([res["setup_s"]] if arm == "reduced" else [])


def round_serve(r, ka, chk, trace, _):
    os.makedirs(os.path.join(ROOT, RUN_DIR), exist_ok=True)
    sock = os.path.join(RUN_DIR, "verifyd-%d.sock" % os.getpid())
    args = ("pb_serve", "serve", "--verifyd", VERIFYD, "--socket", sock, "--seed", str(r.seed))
    try:
        setups = [r.part(*args, setup_only=True)["setup_s"] for _ in range(3)]
        res = r.part(*args, trace=trace)
    finally:
        if os.path.exists(os.path.join(ROOT, sock)):
            os.unlink(os.path.join(ROOT, sock))
    check_serve(ka, chk, res["verdicts"])
    return res, setups + [res["setup_s"]]


# workload -> (round function, groups)
WORKLOADS = {
    "campaign": (round_campaign, ("original", "variant")),
    "certify": (round_certify, (None,)),
    "lint": (round_lint, (None,)),
    "mc": (round_mc, ("reduced", "unreduced")),
    "serve": (round_serve, (None,)),
}


def mean(xs):
    return sum(xs) / len(xs)


def run_round(runner, ka, chk, workload, index, trace):
    fn, groups = WORKLOADS[workload]
    group = groups[index % len(groups)]
    runner.start_round(index)
    res, setups = fn(runner, ka, chk, trace, group)
    return {
        "group": group,
        "seed": runner.seed,
        "setups": setups,
        "wall_s": res["wall_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "ops_ms": res["ops_ms"],
        "counters": res["counters"],
        "layers": res["layers"],
    }


def by_group(rounds):
    groups = {}
    for rd in rounds:
        groups.setdefault(rd["group"], []).append(rd)
    return groups


def end_to_end(rounds):
    groups = by_group(rounds)
    return {
        "setup_s": statistics.median(s for rd in rounds for s in rd["setups"]),
        "wall_s": sum(statistics.median(rd["wall_s"] for rd in g) for g in groups.values()),
        # a mean: the order of work drawn from a round's seed moves one
        # process's peak by up to a third, and a run has only a few rounds
        "peak_rss_mb": statistics.mean(rd["peak_rss_mb"] for rd in rounds),
    }


def per_layer(untraced, traced):
    """Per-layer figures of one traced round per group; counters count
    too.  Per-call figures average over the groups, the rest adds up."""
    values = {}
    for rd in traced:
        for k, v in list(rd["layers"].items()) + list(rd["counters"].items()):
            values.setdefault(k, []).append(float(v))
    merged = {k: (mean(v) if k.endswith(("_ms", "_us", "_pct")) else sum(v)) for k, v in values.items()}
    if merged.get("matching.tries"):
        merged["matching.hit_ratio"] = merged["matching.fires"] / merged["matching.tries"]
    lookups = merged.get("memo.hits", 0.0) + merged.get("memo.misses", 0.0)
    if lookups:
        merged["memo.hit_ratio"] = merged["memo.hits"] / lookups
    merged["trace_overhead_pct"] = 100.0 * (
        sum(rd["wall_s"] for rd in traced) / sum(rd["wall_s"] for rd in untraced) - 1.0)
    return merged


# --------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ka = load_answers()
    build()

    # every process of the run on one CPU: single-domain work, and a
    # closed-loop client and its daemon never run at the same time
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    start = time.monotonic()
    runner = Runner(args.seed, start + RUN_BUDGET_S)
    chk = Checker()
    ngroups = len(WORKLOADS[args.workload][1])
    rounds, traced = [], []
    try:
        if args.trace:
            # per group, an untraced and a traced round on the same inputs
            for i in range(ngroups):
                rounds.append(run_round(runner, ka, chk, args.workload, i, False))
                traced.append(run_round(runner, ka, chk, args.workload, i, True))
        else:
            while True:
                t = time.monotonic()
                rounds.append(run_round(runner, ka, chk, args.workload, len(rounds), False))
                took = time.monotonic() - t
                if len(rounds) >= ngroups and time.monotonic() - start + took > args.seconds:
                    break
    except Failure as e:
        chk.fail(str(e))

    # exact-count guard: the deterministic counters of a group agree
    # between all its rounds, traced or not
    for group, rds in by_group(rounds + traced).items():
        for rd in rds[1:]:
            if rd["counters"] != rds[0]["counters"]:
                chk.fail("%s: counters differ between rounds: %r vs %r"
                         % (group, rd["counters"], rds[0]["counters"]))

    complete = len(by_group(rounds)) == ngroups and (not args.trace or len(traced) == ngroups)
    metrics = {}
    if complete:
        if args.trace:
            values = per_layer(rounds, traced)
            for m in bench["per_layer"]:
                metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        else:
            values = end_to_end(rounds)
            for m in bench["end_to_end"]:
                metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    counters = {}
    for rds in by_group(rounds + traced).values():
        for k, v in rds[0]["counters"].items():
            counters[k] = counters.get(k, 0) + v

    for msg in chk.messages[:20]:
        log("MISMATCH " + msg)
    correct = chk.failed == 0 and complete
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": max(chk.attempted, 1),
        "failed": chk.failed,
        "error_rate": chk.failed / max(chk.attempted, 1),
        "metrics": metrics,
        "counters": counters,
        "rounds": rounds + traced,
        "mismatches": chk.messages,
    }
    os.makedirs(RESULTS, exist_ok=True)
    name = "%s-seed%d-trace%d-%d.json" % (args.workload, args.seed, args.trace, time.time_ns())
    with open(os.path.join(RESULTS, name), "w") as f:
        json.dump(record, f, indent=1)
    log("perfbench: %s seed=%d rounds=%d error_rate=%.4f %s"
        % (args.workload, args.seed, len(rounds) + len(traced), record["error_rate"],
           " ".join("%s=%.6g" % (k, v["value"]) for k, v in metrics.items() if not args.trace)))
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": chk.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
