#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/e2e.exe from source with dune, runs it, and prints its
report line enriched with the run conditions (commit, run-to-run spread
of every metric over the earlier runs in this checkout, and a check that
the deterministic counters repeat exactly for a repeated seed), then the
result line {"correct", "attempted", "failed", "metrics"} last.

Exits 0 when every output matched its reference, 1 on a mismatch or a
counter that did not repeat, 2 when the benchmark cannot be built or
run. Everything it writes stays inside the checkout: dune's _build and
perfbench/.results (run history and traced spans).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, ".results")
HISTORY = os.path.join(RESULTS, "history.jsonl")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "e2e.exe")


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def git_commit():
    """The checkout's git commit, if it is a git repository."""
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=30)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return None


def source_hash():
    """A hash of the sources the benchmark builds: it tells runs of the
    same code apart from runs of other code, committed or not."""
    h = hashlib.sha1()
    for top in ("lib", "bin", "perfbench", "dune-project"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, dirs, fs in os.walk(path)
            if ".results" not in d for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:12]


def build():
    try:
        r = subprocess.run(["dune", "build", "--root", ROOT,
                            "./perfbench/e2e.exe"],
                           cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=850)
    except (OSError, subprocess.SubprocessError) as e:
        fail("cannot build the benchmark: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("building the benchmark failed")


def load_history():
    if not os.path.exists(HISTORY):
        return []
    with open(HISTORY) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def spread(values):
    """Interquartile distance over the median, as the acceptance uses."""
    if len(values) < 3:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()

    build()
    os.makedirs(RESULTS, exist_ok=True)
    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--out-dir", RESULTS]
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=170)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish in time")
    sys.stderr.write(p.stderr)
    lines = [line for line in p.stdout.splitlines() if line.strip()]
    if p.returncode not in (0, 1) or len(lines) < 2:
        fail("the benchmark failed (exit %d)" % p.returncode)
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])

    rev = source_hash()
    report["host"]["commit"] = git_commit()
    report["host"]["source_hash"] = rev
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    entry = {"workload": a.workload, "seed": a.seed, "trace": a.trace,
             "source": rev, "metrics": metrics,
             "counters": report["counters"]}
    history = load_history()

    # deterministic counters must repeat exactly for a repeated seed;
    # both kinds of run take them from an untraced pass
    differing = set()
    for old in history:
        if (old["workload"], old["seed"], old["source"]) == \
                (a.workload, a.seed, rev):
            for k, v in report["counters"].items():
                if k in old["counters"] and old["counters"][k] != v:
                    differing.add(k)
    report["counters_repeat"] = not differing
    if differing:
        report["counters_differing"] = sorted(differing)
        print("run.py: counters differ from an earlier run of seed %d: %s"
              % (a.seed, ", ".join(sorted(differing))), file=sys.stderr)
        result["correct"] = False

    with open(HISTORY, "a") as fh:
        fh.write(json.dumps(entry) + "\n")
    same = [e for e in history + [entry]
            if (e["workload"], e["trace"], e["source"]) ==
            (a.workload, a.trace, rev)]
    report["spread"] = {
        name: {"runs": len(same),
               "iqr_over_median": spread([e["metrics"][name] for e in same
                                          if name in e["metrics"]])}
        for name in metrics}

    print(json.dumps({"report": report}))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
