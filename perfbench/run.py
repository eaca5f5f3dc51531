#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the program from src/) into $CARGO_TARGET_DIR
(default .bench_build); later calls only check the build is current. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Any failed output check exits non-zero, with
"correct": false and no metrics. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ["live_2m", "azure_cluster", "azure_cluster_sharded", "keepalive_sweep"]
RUN_LIMIT_S = 175  # a run (after any build) must end within 180 s

# Output checks each workload must print (as "check <text> ok"), by mode.
CHECKS = {
    "live_2m": {
        0: ["submitted = completed + failed, none outstanding",
            "achieved rate >= 99% of offered",
            "generator p99 lateness <= 1 ms (median over stages)"],
        1: ["traced: submitted = completed + failed, none outstanding",
            "traced: achieved rate >= 99% of offered",
            "traced: generator p99 lateness <= 1 ms (median over stages)"],
    },
    "azure_cluster": {
        0: ["submitted = completed + failed, none outstanding",
            "report JSON identical across repetitions of the seed"],
        1: ["traced report identical to untraced",
            "report identical with the span tracer off",
            "2-shard report byte-identical to the serial replay",
            "report byte-identical to a 1-shard replay"],
    },
    "azure_cluster_sharded": {
        0: ["submitted = completed + failed, none outstanding",
            "report JSON identical across repetitions of the seed"],
        1: ["traced report identical to untraced",
            "report byte-identical to a 1-shard replay"],
    },
    "keepalive_sweep": {
        0: ["submitted = completed + failed, none outstanding",
            "every cell identical across repetitions"],
        1: ["every cell identical at 1 and 2 threads"],
    },
}
# live_2m's checks that judge the host rather than the program. On a busy
# host they fail and the run is reported invalid; a smoke accepts that.
HOST_CHECKS = ("achieved rate >= 99% of offered",
               "generator p99 lateness <= 1 ms (median over stages)")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve() / "perfbench"


def build(deadline):
    """Configure once, then build (a no-op when current). Returns the binary."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    build_log = out / "build.log"
    with open(build_log, "w") as logf:
        steps = []
        if not (out / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs])
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                                    timeout=max(1, deadline - time.time())).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                logf.flush()
                log(build_log.read_text()[-4000:])
                log(f"perfbench: build step failed: {' '.join(cmd)}")
                return None
    return out / "perfbench"


def expected_metrics(trace):
    """The metric names and units BENCHMARK.json lists for this mode, in order."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def conform(metrics, trace):
    """Put the program's metrics in BENCHMARK.json's order. A per-layer metric
    of a layer the workload never calls reads 0 (no calls, no work); a missing
    end-to-end metric, an unlisted name or a wrong unit is an error. Returns
    (metrics, errors)."""
    want = expected_metrics(trace)
    errors = [f"unlisted metric {n}" for n in metrics if n not in want]
    out = {}
    for name, unit in want.items():
        m = metrics.get(name)
        if m is None and trace:
            log(f"perfbench: layer metric {name} not exercised by this workload: 0")
            m = {"value": 0, "unit": unit}
        if m is None:
            errors.append(f"missing metric {name}")
        elif m["unit"] != unit:
            errors.append(f"metric {name} in {m['unit']}, not {unit}")
        else:
            out[name] = m
    return out, errors


def run(binary, workload, seed, seconds, trace, smoke=False):
    """Run one workload; returns (ok, result dict, stdout lines)."""
    out_dir = build_dir().parent / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--out", str(out_dir)]
    if smoke:
        cmd.append("--smoke")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {RUN_LIMIT_S} s")
        return False, None, []
    lines = p.stdout.splitlines()
    if p.stderr:
        log(p.stderr.rstrip())
    results = [l for l in lines if l.startswith("RESULT ")]
    if not results:
        log(f"perfbench: {workload} exited {p.returncode} without a result")
        return False, None, lines
    result = json.loads(results[-1][len("RESULT "):])
    ok = p.returncode == 0 and result.get("correct") is True
    result["metrics"], errors = conform(result["metrics"], trace)
    for e in errors:
        log(f"perfbench: {e} (BENCHMARK.json)")
    lines.append(f"check {'metrics are those BENCHMARK.json lists':58s} "
                 f"{'FAILED' if errors else 'ok'}")
    if any(l.startswith("check ") and not l.endswith(" ok") for l in lines):
        ok = False
    return ok, result, lines


def selftest():
    """Unit checks of the benchmark's own code, then a seconds-scale smoke of
    every workload in both modes that must run every output check."""
    binary = build(time.time() + 900)
    if binary is None:
        return 1
    failures = 0
    p = subprocess.run([str(binary), "--selftest"], stdout=subprocess.PIPE, text=True)
    print(p.stdout, end="")
    failures += p.returncode != 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            ok, result, lines = run(binary, workload, 1, 1, trace, smoke=True)
            ran = {}  # check text -> passed every time it ran
            for l in lines:
                if l.startswith("check "):
                    text, outcome = l[len("check "):].rsplit(" ", 1)
                    ran[text.strip()] = ran.get(text.strip(), True) and outcome == "ok"
            missing = [c for c in CHECKS[workload][trace]
                       if not any(name.endswith(c) for name in ran)]
            bad = [name for name, passed in ran.items()
                   if not passed and not name.endswith(HOST_CHECKS)]
            # Every ratio metric the run reports non-zero prints its base.
            bases = {l.split()[1] for l in lines if l.startswith("ratio ") and " base: " in l}
            no_base = [name for name, m in (result or {}).get("metrics", {}).items()
                       if m["unit"] == "ratio" and m["value"] != 0 and name not in bases]
            verdict = result is not None and not (missing or bad or no_base)
            failures += not verdict
            host = "" if ok else " (host checks failed: run invalid)"
            print(f"smoke {workload:22s} trace {trace}: {'ok' if verdict else 'FAILED'}"
                  f"{host if verdict else ''}"
                  f"{' missing checks ' + str(missing) if missing else ''}"
                  f"{' failed checks ' + str(bad) if bad else ''}"
                  f"{' ratios without base ' + str(no_base) if no_base else ''}")
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not (BENCH_DIR.parent / "src").is_dir():
        log(f"perfbench: no program sources next to {BENCH_DIR}")
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")

    binary = build(time.time() + 850)
    if binary is None:
        return 2
    ok, result, lines = run(binary, args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)
    if result is None:
        return 1
    if not ok:
        result = {"correct": False, "attempted": result["attempted"],
                  "failed": result["failed"], "metrics": {}}
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
