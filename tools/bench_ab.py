#!/usr/bin/env python3
"""A/B the benchmark between a parent commit and the current tree.

    python3 tools/bench_ab.py --parent REV --pairs N --seconds S --label L
        [--workload W ...] [--work DIR] [--ledger FILE]

Run from anywhere inside the repository. The parent is exported with
`git archive` into a temporary directory (no worktree is registered, so an
interrupted run leaves nothing behind in .git). The change side is the
working tree; its record notes whether that had uncommitted edits to
tracked files. Each side's perfbench
is built through that side's own `perfbench/run.py`, each into its own
`CARGO_TARGET_DIR`, by a one-second warm-up run.

For every workload that BENCHMARK.json lists (or each `--workload`), it runs
N pairs on seeds 1..N, alternating which side goes first, and appends one
record per workload to the perf ledger (BENCH_core.json). For each
end-to-end metric a record holds both medians, both interquartile ranges,
the median of the per-pair relative deltas (change vs parent), how many
pairs the change won, how many gave both sides the same value, and a
verdict:

  worse    the change's median is worse than the parent's by more than the
           metric's `bound` from BENCHMARK.json;
  better   the change won at least 90% of the pairs and its median gain
           exceeds the parent's IQR (the noise rule for claiming a gain);
  same     neither.

A pair in which either side fails its output checks is recorded as failed
and left out of the statistics. Nothing under perfbench/ is modified.
"""
import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def git(root, *args):
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export(root, rev, dest):
    """Extract the committed tree of `rev` into `dest`."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(root), "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"bench_ab: git archive {rev} failed")


def run_once(side, workload, seed, seconds):
    """One perfbench run; returns its metrics dict, or None if it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=str(side["target"]))
    p = subprocess.run(cmd, cwd=side["root"], env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    lines = p.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if p.returncode != 0 or result.get("correct") is not True:
        log(p.stderr[-2000:])
        log(f"bench_ab: {side['name']} {workload} seed {seed} failed "
            f"(exit {p.returncode})")
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] - q[0]


def rel(new, old):
    if old == 0:
        return 0.0 if new == 0 else float("inf") if new > 0 else float("-inf")
    return (new - old) / abs(old)


def summarize(spec, pairs):
    """Per-metric statistics over the pairs that both sides completed."""
    out = {}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        a = [p[name] for p, _ in pairs]
        b = [c[name] for _, c in pairs]
        if not a:
            continue
        med_a, med_b = statistics.median(a), statistics.median(b)
        iqr_a = iqr(a)
        # Gain is positive when the change is better, in the metric's sense.
        sign = -1.0 if lower else 1.0
        wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        gain = sign * (med_b - med_a)
        if sign * rel(med_b, med_a) < -m["bound"]:
            verdict = "worse"
        elif wins >= 0.9 * len(a) and gain > iqr_a:
            verdict = "better"
        else:
            verdict = "same"
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent_median": med_a, "change_median": med_b,
            "parent_iqr": iqr_a, "change_iqr": iqr(b),
            "median_delta": statistics.median(rel(y, x) for x, y in zip(a, b)),
            "wins": wins, "equal_pairs": sum(1 for x, y in zip(a, b) if x == y),
            "verdict": verdict,
        }
    return out


def append_records(ledger, records):
    """Splice the records in at the end of the ledger's "runs" list, leaving
    every earlier record's text (and its float digits) untouched."""
    text = ledger.read_text()
    data = json.loads(text)
    body = ",\n".join(textwrap.indent(json.dumps(r, indent=2, sort_keys=True),
                                      "    ") for r in records)
    if data["runs"]:
        end = text.rindex("\n  ]")
        text = text[:end] + ",\n" + body + text[end:]
    else:
        data["runs"] = records
        text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    json.loads(text)
    ledger.write_text(text)


def ab(args, root, spec, workloads, ledger, work):
    """Export and build both sides, run the pairs, append the records."""
    parent = {"name": "parent", "commit": git(root, "rev-parse", args.parent),
              "root": work / "parent-src", "target": work / "parent-target"}
    change = {"name": "change", "commit": git(root, "rev-parse", "HEAD"),
              "root": root, "target": work / "change-target"}
    dirty = bool(git(root, "status", "--porcelain", "--untracked-files=no"))
    shutil.rmtree(parent["root"], ignore_errors=True)
    export(root, parent["commit"], parent["root"])

    records = []
    for workload in workloads:
        for side in (parent, change):  # build + warm up, unmeasured
            log(f"bench_ab: building {side['name']} ({workload} warm-up)")
            if run_once(side, workload, 1, 1) is None:
                raise SystemExit(f"bench_ab: {side['name']} does not run")
        pairs, failed = [], 0
        for seed in range(1, args.pairs + 1):
            order = (parent, change) if seed % 2 else (change, parent)
            got = {s["name"]: run_once(s, workload, seed, args.seconds)
                   for s in order}
            if got["parent"] is None or got["change"] is None:
                failed += 1
                continue
            pairs.append((got["parent"], got["change"]))
            log(f"bench_ab: {workload} seed {seed}: " + ", ".join(
                f"{k} {got['parent'][k]:.4g} -> {got['change'][k]:.4g}"
                for k in ("inv_per_s", "cpu_us_per_inv") if k in got["parent"]))
        record = {
            "label": args.label, "kind": "ab", "workload": workload,
            "utc": datetime.datetime.now(datetime.timezone.utc)
                   .strftime("%Y-%m-%dT%H:%M:%SZ"),
            "parent": parent["commit"], "change": change["commit"],
            "change_dirty": dirty,
            "host_threads": os.cpu_count(), "pairs": args.pairs,
            "failed_pairs": failed, "seconds": args.seconds,
            "metrics": summarize(spec, pairs),
        }
        records.append(record)
        for name, m in record["metrics"].items():
            print(f"{workload:16s} {name:16s} {m['parent_median']:12.5g} -> "
                  f"{m['change_median']:12.5g} {m['median_delta']:+8.2%} "
                  f"wins {m['wins']}/{len(pairs)} iqr {m['parent_iqr']:.4g} "
                  f"{m['verdict']}")

    append_records(ledger, records)
    log(f"bench_ab: appended {len(records)} record(s) to {ledger}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent revision")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--label", required=True, help="ledger record label")
    ap.add_argument("--workload", action="append",
                    help="restrict to this workload (repeatable)")
    ap.add_argument("--work", help="scratch directory (default: a temp dir)")
    ap.add_argument("--ledger", help="ledger file (default: BENCH_core.json)")
    args = ap.parse_args()

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ledger = Path(args.ledger) if args.ledger else root / "BENCH_core.json"
    if args.work:
        work = Path(args.work)
        work.mkdir(parents=True, exist_ok=True)
        return ab(args, root, spec, workloads, ledger, work)
    # A temporary work dir holds two full builds: remove it afterwards.
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        return ab(args, root, spec, workloads, ledger, Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
