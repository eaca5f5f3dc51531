#!/usr/bin/env python3
"""A/B the benchmark between a parent commit and the current tree.

    python3 tools/bench_ab.py --parent REV --pairs N --seconds S --label L
        [--workload W ...] [--work DIR] [--ledger FILE]
    python3 tools/bench_ab.py --compare LABEL_A LABEL_B [--ledger FILE]
    python3 tools/bench_ab.py --selftest

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

--compare reads two earlier A/B records from the ledger and writes nothing.
For every workload both labels recorded, it prints each end-to-end metric
whose change-side median moved from LABEL_A's record to LABEL_B's by more
than the wider of the two change-side IQRs, with the relative move and
whether it is better or worse in the metric's sense. --selftest checks that
comparison on two synthetic records.
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


def latest_ab(runs, label):
    """The last A/B record per workload under `label`."""
    out = {}
    for r in runs:
        if r.get("kind") == "ab" and r.get("label") == label:
            out[r["workload"]] = r
    return out


def compare(runs, label_a, label_b):
    """Moves outside the noise band between two labels' A/B records, as
    (workload, metric, a, b, relative move, "better"|"worse") tuples. The
    band is the wider of the two change-side IQRs."""
    a_recs, b_recs = latest_ab(runs, label_a), latest_ab(runs, label_b)
    for label, recs in ((label_a, a_recs), (label_b, b_recs)):
        if not recs:
            raise SystemExit(f"bench_ab: no A/B record labelled {label!r}")
    moves = []
    for workload in a_recs:
        if workload not in b_recs:
            continue
        ma, mb = a_recs[workload]["metrics"], b_recs[workload]["metrics"]
        for name in ma:
            if name not in mb:
                continue
            a, b = ma[name]["change_median"], mb[name]["change_median"]
            noise = max(ma[name]["change_iqr"], mb[name]["change_iqr"])
            if abs(b - a) <= noise:
                continue
            lower = ma[name]["better"] == "lower"
            better = (b < a) if lower else (b > a)
            moves.append((workload, name, a, b, rel(b, a),
                          "better" if better else "worse"))
    return moves


def print_compare(runs, label_a, label_b):
    moves = compare(runs, label_a, label_b)
    for workload, name, a, b, move, direction in moves:
        print(f"{workload:16s} {name:16s} {a:12.5g} -> {b:12.5g} "
              f"{move:+8.2%} {direction}")
    if not moves:
        print(f"no end-to-end metric moved outside the noise band between "
              f"{label_a!r} and {label_b!r}")
    return 0


def selftest():
    """compare() on two synthetic records: a move beyond the wider IQR is
    reported with its direction, one inside it is not, and a workload only
    one label recorded is skipped."""
    def metric(median, iqr, better="lower"):
        return {"better": better, "change_median": median, "change_iqr": iqr}

    def record(label, workload, metrics):
        return {"kind": "ab", "label": label, "workload": workload,
                "metrics": metrics}

    runs = [
        record("old", "w", {"rss": metric(20.0, 0.5),
                            "rate": metric(100.0, 2.0, "higher"),
                            "cpu": metric(5.0, 0.1),
                            "p99": metric(1.0, 0.1)}),
        record("old", "only_old", {"rss": metric(1.0, 0.0)}),
        record("stale", "w", {"rss": metric(99.0, 0.0)}),
        record("new", "w", {"rss": metric(12.0, 0.2),     # better, beyond 0.5
                            "rate": metric(96.0, 3.0, "higher"),  # worse, > 3
                            "cpu": metric(5.3, 0.4),      # inside the 0.4 band
                            "p99": metric(1.05, 0.01)}),  # inside the 0.1 band
    ]
    got = compare(runs, "old", "new")
    want = [("w", "rss", 20.0, 12.0, -0.4, "better"),
            ("w", "rate", 100.0, 96.0, -0.04, "worse")]
    ok = [(w, n, a, b, d) for w, n, a, b, _, d in got] == \
        [(w, n, a, b, d) for w, n, a, b, _, d in want] and \
        all(abs(g[4] - w[4]) < 1e-12 for g, w in zip(got, want))
    # The latest record of a label wins.
    runs.append(record("old", "w", {"rss": metric(12.0, 0.0)}))
    ok = ok and [m[1] for m in compare(runs, "old", "new")] == []
    try:
        compare(runs, "old", "missing")
        ok = False
    except SystemExit:
        pass
    print(f"bench_ab selftest: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


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
    ap.add_argument("--parent", help="parent revision")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--label", help="ledger record label")
    ap.add_argument("--compare", nargs=2, metavar=("LABEL_A", "LABEL_B"),
                    help="print the moves between two labels' records")
    ap.add_argument("--selftest", action="store_true",
                    help="check --compare on synthetic records")
    ap.add_argument("--workload", action="append",
                    help="restrict to this workload (repeatable)")
    ap.add_argument("--work", help="scratch directory (default: a temp dir)")
    ap.add_argument("--ledger", help="ledger file (default: BENCH_core.json)")
    args = ap.parse_args()
    if args.selftest:
        return selftest()

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    ledger = Path(args.ledger) if args.ledger else root / "BENCH_core.json"
    if args.compare:
        runs = json.loads(ledger.read_text())["runs"]
        return print_compare(runs, *args.compare)
    if not args.parent or not args.label:
        ap.error("--parent and --label are required to run an A/B")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    if args.work:
        work = Path(args.work)
        work.mkdir(parents=True, exist_ok=True)
        return ab(args, root, spec, workloads, ledger, work)
    # A temporary work dir holds two full builds: remove it afterwards.
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        return ab(args, root, spec, workloads, ledger, Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
