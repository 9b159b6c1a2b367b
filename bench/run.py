"""The hypermdp benchmark: one workload per call, one JSON result line.

    python3 bench/run.py --workload paper-early --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --smoke

Run from the root of a source tree; the package is imported from its
``src`` directory and nowhere else.  The benchmark drives the library's
public API in one process with one thread, as a closed loop with one
client.  Workloads, ops, expected verdicts and the published rows left
out are described in ``workloads.py``.

A call starts one child process for the workload (``child.py``) under an
address-space cap and a wall-clock limit, and reads the records the
child appended: op timings, set-up timings taken in fresh interpreters,
peak memory, gate results and, when traced, the per-layer metrics.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  Every result also goes to
``bench/out/<workload>-seed<n>-trace<t>.json``, with the spans of a
traced run beside it.  ``--smoke`` runs one ts_h0_1 op per workload,
traced and untraced, and checks the metric names against
``BENCHMARK.json``.

Time metrics are normalized seconds.  The machine this benchmark was
defined on (two shared virtual CPUs) slows down by up to 1.9x, for
fractions of a second to minutes at a time, from load outside the
benchmark: wall-time medians of one 36-second run moved by a quarter from
run to run.  The child therefore keeps to one CPU and times a fixed
reference kernel around and inside each op and around each set-up probe.
A sample's normalized seconds are its wall seconds, less the kernel runs
inside it, times REFERENCE_KERNEL_S over the median kernel time measured
with it: its duration at the kernel's reference speed.  Wall seconds are
printed and kept in the report beside them.  Per-layer times are wall
seconds and include the in-op kernel runs, about 2%.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CHILD = os.path.join(BENCH_DIR, "child.py")
RUN_CAP_S = 165  # the whole call must end within 180 s
# The reference kernel's time on an unloaded 2-core Xeon VM with CPython
# 3.11; an op's normalized seconds are its wall seconds scaled by this
# over the kernel's time measured around the op.
REFERENCE_KERNEL_S = 0.00075


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def tail_percentile(samples):
    """The highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(samples)[n - 11]}


def run_child(workdir, workload, seed, seconds, trace, op_set, deadline):
    """Start the workload child; (records, exit status or failure reason)."""
    results = os.path.join(workdir, "results.jsonl")
    spans = os.path.join(workdir, "spans.json")
    cmd = [sys.executable, CHILD, "run", ROOT, workdir, results, spans,
           workload, str(seed), str(seconds), str(int(trace)), op_set]
    with open(os.path.join(workdir, "child.err"), "w+", encoding="utf-8") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
        try:
            status = proc.wait(timeout=max(deadline - time.monotonic(), 1))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            status = "killed at the wall-clock limit"
        err.seek(0)
        stderr_tail = err.read()[-2000:]
    records = []
    if os.path.exists(results):
        with open(results, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.endswith("\n")]
    if status != 0 and not isinstance(status, str):
        status = f"child exited with {status}: {stderr_tail.strip().splitlines()[-1:]}"
    return records, status, spans


def normalized(seconds, record):
    """Seconds at the reference speed: less the in-op kernel samples, scaled
    by the kernel's time around and inside the measured interval."""
    return (seconds - record.get("sampled_s", 0.0)) * REFERENCE_KERNEL_S / record["ref_s"]


def summarize(records, status, trace, ops):
    """Attempted and failed ops, failure reasons and the end-to-end metrics."""
    op_records = [r for r in records if r["kind"] == "op"]
    fails = [r for r in records if r["kind"] == "fail"]
    done = any(r["kind"] == "done" for r in records)

    def gate_failure(r):
        return next((f["reason"] for f in fails if f["case"] == r["case"] and f["engine"] == r["engine"]
                     and f["pass"] in (None, r["pass"])), None)

    reasons = []
    failed = 0
    for r in op_records:
        reason = r["reason"] or gate_failure(r)
        if reason is not None:
            failed += 1
            reasons.append(f"pass {r['pass']} {r['case']}/{r['engine']}: {reason}")
    attempted = len(op_records)
    if not done:  # the child died or was killed: its op in flight failed
        attempted += 1
        failed += 1
        reasons.append(f"child: {status}")
    reasons += [f"gate {r['gate']} {r['case']}/{r['engine']}: {r['reason']}"
                for r in records if r["kind"] == "gate" and not r["ok"]]

    untraced = [r for r in op_records if not r["traced"] and r["ok"]]
    for r in untraced:
        r["norm_s"] = normalized(r["wall_s"], r)
    passes = {}
    for r in untraced:
        passes.setdefault(r["pass"], []).append(r)
    full = [rs for rs in passes.values() if len(rs) == len(ops)]
    per_op = {}
    for r in untraced:
        per_op.setdefault(f"{r['case']}/{r['engine']}", []).append(r)

    def pass_median(key):
        return statistics.median(sum(x[key] for x in rs) for rs in full) if full else None

    def op_geomean(key):
        if len(per_op) < len(ops):
            return None
        return math.exp(statistics.fmean(math.log(statistics.median(x[key] for x in rs)) for rs in per_op.values()))

    rss = next((r["peak_rss_mb"] for r in records if r["kind"] == "rss"), None)
    smt2 = [sum(x["smt2_bytes"] for x in rs) for rs in full]
    setup = [r for r in records if r["kind"] == "setup"]
    summary = {
        "setup_s": statistics.median(normalized(r["setup_s"], r) for r in setup) if setup else None,
        "setup_wall_s": statistics.median(r["setup_s"] for r in setup) if setup else None,
        "setup_samples": [(r["setup_s"], r["ref_s"]) for r in setup],
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
        "passes": len(full),
        "pass_tail": tail_percentile([sum(x["norm_s"] for x in rs) for rs in full]),
        "op_samples": {op: [(x["wall_s"], x["sampled_s"], x["ref_s"]) for x in rs]
                       for op, rs in sorted(per_op.items())},
        "pass_norm_s.p50": pass_median("norm_s"),
        "pass_s.p50": pass_median("wall_s"),
        "op_norm_s.geomean": op_geomean("norm_s"),
        "op_s.geomean": op_geomean("wall_s"),
        "peak_rss_mb": rss,
        "ops_failed_share": failed / attempted,
        "smt2_mb": statistics.median(smt2) / 1e6 if any(smt2) else None,
        "gates": [r for r in records if r["kind"] == "gate"],
    }
    if trace:
        summary["per_layer"] = next((r for r in records if r["kind"] == "trace"), None)
    return summary


def run_workload(workload, seed, seconds, trace, op_set="full"):
    begin = time.monotonic()
    ops = (workloads.SMOKE_OPS if op_set == "smoke" else workloads.WORKLOADS)[workload]
    workdir = os.path.join(BENCH_DIR, "work", f"{workload}-{os.getpid()}")
    outdir = os.path.join(BENCH_DIR, "out")
    os.makedirs(outdir, exist_ok=True)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        records, status, spans = run_child(workdir, workload, seed, seconds, trace, op_set,
                                           begin + RUN_CAP_S)
        summary = summarize(records, status, trace, ops)
        prefix = "smoke-" if op_set == "smoke" else ""
        stem = os.path.join(outdir, f"{prefix}{workload}-seed{seed}-trace{int(trace)}")
        if trace and os.path.exists(spans):
            shutil.move(spans, stem + "-spans.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "ops": [f"{c}/{e}" for c, e in ops], "machine": machine_info(),
              "excluded_rows": workloads.EXCLUDED_ROWS, **summary}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return report, stem + ".json"


END_TO_END_UNITS = {"pass_norm_s.p50": "s", "op_norm_s.geomean": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def result_line(report) -> dict:
    """The last stdout line: correctness, op counts and the metrics of this mode."""
    if report["trace"]:
        metrics = (report["per_layer"] or {"metrics": {}})["metrics"]
    else:
        metrics = {k: {"value": report[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    # a null per-layer metric means a hook point moved, not a wrong answer
    correct = report["failed"] == 0 and (report["trace"] or all(m["value"] is not None for m in metrics.values()))
    return {"correct": correct, "attempted": report["attempted"], "failed": report["failed"],
            "metrics": metrics}


def print_report(report, path) -> None:
    m = report["machine"]
    print(f"workload {report['workload']}  seed {report['seed']}  trace {int(report['trace'])}"
          f"  (nproc {m['nproc']}, Python {m['python']}, {m['cpu']})")
    n = report["passes"]
    tail = report["pass_tail"]
    tail_text = (f"p{tail['percentile']:.0f} {tail['value']:.4f} s" if tail
                 else "no tail percentile: fewer than 11 passes")
    lines = [
        ("pass_norm_s.p50", report["pass_norm_s.p50"], "s", f"median of {n} passes; {tail_text}"),
        ("pass_s.p50", report["pass_s.p50"], "s", "the same in wall seconds"),
        ("op_norm_s.geomean", report["op_norm_s.geomean"], "s",
         f"geometric mean over {len(report['op_samples'])} ops of each op's median"),
        ("op_s.geomean", report["op_s.geomean"], "s", "the same in wall seconds"),
        ("setup_s", report["setup_s"], "s", f"median of {len(report['setup_samples'])}, normalized"),
        ("setup_wall_s", report["setup_wall_s"], "s", "the same in wall seconds"),
        ("peak_rss_mb", report["peak_rss_mb"], "MB", "ru_maxrss of the workload child"),
        ("ops_failed_share", report["ops_failed_share"], "ratio",
         f"{report['failed']} of {report['attempted']}"),
    ]
    if report["smt2_mb"] is not None:
        lines.append(("smt2_mb", report["smt2_mb"], "MB", "SMT-LIB per pass"))
    for name, value, unit, note in lines:
        shown = "n/a" if value is None else f"{value:.4f}"
        print(f"  {name:<18} {shown:>12} {unit:<5} {note}")
    for reason in report["reasons"]:
        print(f"  FAILED {reason}")
    print(f"  report: {os.path.relpath(path, ROOT)}")


def check_tracer() -> list:
    """The tracer's own contract, on the library as it is now.

    A hook point that no longer exists gives null metrics instead of a
    crash, uninstalling restores every original function, and a recursive
    layer records only its outermost call.
    """
    from fractions import Fraction

    from child import import_hypermdp
    from tracing import HOOKS, Tracer, resolve, per_layer_metrics

    api = import_hypermdp(ROOT)
    problems = []
    hooks = tuple(replace(h, attr="no_such_function") if h.span == "analysis.until" else h for h in HOOKS)
    originals = {h: resolve(h)[2] for h in hooks if resolve(h) is not None}
    tracer = Tracer(hooks)
    tracer.install()
    try:
        one = api.Dtmc(states=("s",), trans={"s": (("s", Fraction(1)),)}, ap=(), labels={"s": frozenset()})
        api.analysis.bounded_until_probs(one, {"s": True}, {"s": False}, 0, 5)
    finally:
        tracer.uninstall()
    if any(resolve(h)[2] is not f for h, f in originals.items()):
        problems.append("uninstall left a wrapped function behind")
    metrics = per_layer_metrics(tracer, 1, {}, None)
    if metrics["analysis.until.calls"]["value"] is not None:
        problems.append("a missing hook point did not report null")
    bounded = metrics["analysis.bounded.calls"]["value"]
    if bounded != 1:
        problems.append(f"bounded until recorded {bounded} outermost calls, not 1")
    return problems


def smoke() -> int:
    """One ts_h0_1 op per workload, both modes; metric names and units must match BENCHMARK.json."""
    problems = check_tracer()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            report, path = run_workload(workload, 0, 0, trace, op_set="smoke")
            line = result_line(report)
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{workload} trace {int(trace)}: metric names or units differ from "
                                f"BENCHMARK.json: {sorted(set(got.items()) ^ set(expected[trace].items()))}")
            if not line["correct"]:
                problems.append(f"{workload} trace {int(trace)}: not correct: {report['reasons']}")
            print(f"smoke {workload} trace {int(trace)}: {len(got)} metrics, "
                  f"{line['attempted']} ops, {line['failed']} failed")
    for problem in problems:
        print("SMOKE FAILED " + problem, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hypermdp", "__init__.py")):
        print(f"error: no hypermdp sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    report, path = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report, path)
    print(json.dumps(result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
