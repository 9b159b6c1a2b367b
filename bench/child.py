"""Child processes of the benchmark; ``run.py`` starts them.

``child.py setup ROOT WORKLOAD CASEDIR`` imports hypermdp, generates the
workload's cases and writes their files, then prints the seconds that
took as JSON.  It runs in a fresh interpreter so that the import is paid.

``child.py run ROOT WORKDIR RESULTS SPANS WORKLOAD SEED SECONDS TRACE OPS``
caps its own address space, keeps to one CPU, runs whole passes until
the next one would end after SECONDS (at least one), then the gates that
no metric times, and appends one JSON record per line to RESULTS as it
goes, so that a parent which has to kill it still sees what finished.
With TRACE set, every op runs once untraced and once traced, which gives
the tracing overhead as a paired ratio.

The machine this benchmark was defined on slows down by up to half, for
fractions of a second to minutes at a time, because of load from outside
the benchmark.  The child therefore times a fixed reference kernel before
and after every op and set-up probe and, from a SIGPROF handler, every
SAMPLE_EVERY_CPU_S of CPU time inside each op, so that each sample can be
read against the machine's speed at the time.  Set-up probes are spread
over the run rather than taken back to back.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import workloads
from tracing import Tracer, per_layer_metrics

SETUP_SAMPLES = 11
SETUP_CAP_S = 30
ADDRESS_SPACE_CAP = 2 << 30  # bytes; the largest op peaks near 150 MB resident
OP_CAP_S = 60  # wall seconds one op may take before it counts as failed
SAMPLE_EVERY_CPU_S = 0.05  # the in-op kernel costs about 2% of an op


def reference_kernel():
    """Fixed exact-rational elimination plus SMT-LIB-like text building.

    The two halves mirror the check ops and the export ops: under load
    from outside, arithmetic and text building slow down by different
    factors.
    """
    n = 8
    a = [[Fraction((i * 7 + j * 3) % 11 + 1, (i + 2 * j) % 5 + 2) for j in range(n)] for i in range(n)]
    for col in range(n):
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            row_r, row_c = a[r], a[col]
            for c in range(col, n):
                row_r[c] -= factor * row_c[c]
    names = {}
    lines = []
    for i in range(150):
        name = f"p_{i % 37}_{i}"
        names[name] = (i, name)
        lines.append(f"(assert (= {name} (+ (* {i % 7}/{i % 5 + 1} x_{i}) y_{i % 11})))")
    return a[-1][-1], len("\n".join(lines)), len(names)


def reference_seconds() -> float:
    """The fastest of five timed runs of the reference kernel."""
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - start)
    return best


def timed_against_reference(measure):
    """(seconds ``measure()`` reports, reference kernel seconds around it)."""
    before = reference_seconds()
    seconds = measure()
    return seconds, (before + reference_seconds()) / 2


class SpeedSampler:
    """Times the reference kernel every SAMPLE_EVERY_CPU_S of CPU time while in use.

    The machine's speed changes within a single op, so the kernel is also
    timed inside it, from a SIGPROF handler.
    """

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self.samples = []
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_CPU_S, SAMPLE_EVERY_CPU_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op that exceeded OP_CAP_S.

    A BaseException, so that no handler in the library swallows it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout()


def import_hypermdp(root: str):
    """Import the package from ROOT/src, never from anywhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    api = importlib.import_module("hypermdp")
    if not os.path.abspath(api.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"hypermdp imported from {api.__file__}, not from {src}")
    return api


def main_setup(root: str, workload: str, casedir: str) -> None:
    start = time.perf_counter()
    import_hypermdp(root)
    cases = importlib.import_module("hypermdp.cases")
    workloads.write_cases(cases, workloads.WORKLOADS[workload], casedir)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def setup_probe(root: str, workload: str, casedir: str) -> float:
    """Seconds a fresh interpreter takes to set up the workload's cases."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "setup", root, workload, casedir],
        capture_output=True, text=True, timeout=SETUP_CAP_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Runner:
    """Runs the ops of one workload child with their gates, and records them."""

    def __init__(self, api, casedir: str, out, probe, probe_every: float):
        self.api = api
        self.sampler = SpeedSampler()
        self.casedir = casedir
        self.out = out
        self.probe = probe  # () -> seconds of one set-up in a fresh interpreter
        self.probe_every = probe_every
        self.last_probe = time.perf_counter()
        self.setup_samples = 0
        self.verdicts = {}  # (pass, case, engine) -> verdict
        self.digests = {}  # case -> sha256 of the first emitted SMT-LIB text
        self.space = {"enumcheck": 0, "smt": 0}  # summed |schedulers| ** m of traced ops
        self.oracle_done = set()
        # untraced and traced op time over the reference kernel's, for ops run
        # both ways; which way runs first alternates, so warm-up cancels out
        self.paired = [0.0, 0.0]

    def emit(self, record: dict) -> None:
        self.out.write(json.dumps(record) + "\n")
        self.out.flush()

    def timed_op(self, case, engine, tracer=None):
        """Run one op under the op cap; (wall seconds, result, failure reason)."""
        smt_path = os.path.join(self.casedir, case + ".smt2")
        gc.collect()
        if tracer is not None:
            tracer.install()
        signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
        start = time.perf_counter()
        try:
            with self.sampler:
                result = workloads.run_op(self.api, case, engine, self.casedir, smt_path)
            reason = None
        except OpTimeout:
            result, reason = None, f"timeout after {OP_CAP_S} s"
        except MemoryError:
            result, reason = None, "MemoryError"
        except Exception as exc:  # a failing op is recorded, never fatal to the run
            result, reason = None, f"{type(exc).__name__}: {exc}"
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer is not None:
                tracer.uninstall()
        return wall, result, reason

    def op(self, pass_no, case, engine, tracer):
        """Run one op and its per-op gate; (wall seconds, failure reason, SMT-LIB bytes).

        The op's result lives only in this frame, so a large constraint
        system is freed before the next op starts.
        """
        wall, result, reason = self.timed_op(case, engine, tracer)
        if reason is not None:
            return wall, reason, 0
        mdp, f, value = result
        del result
        if engine != "export":
            if tracer is not None:
                m = self.api.count_quantifiers(f)[0]
                self.space["enumcheck" if engine == "enum" else "smt"] += mdp.scheduler_space_size() ** m
            self.verdicts[(pass_no, case, engine)] = value
            return wall, workloads.verdict_problem(case, value), 0
        cs, text = value
        del value
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        del text
        size = os.path.getsize(os.path.join(self.casedir, case + ".smt2"))
        if digest != self.digests.setdefault(case, digest):
            return wall, "SMT-LIB text differs from the first pass", size
        if case in self.oracle_done:
            return wall, None, size
        self.oracle_done.add(case)
        return wall, self.encoding_oracle(case, mdp, f, cs), size

    def encoding_oracle(self, case, mdp, f, cs):
        """The exact semantics under the decoded scheduler satisfies the encoding."""
        from hypermdp.constraints import evaluate_system
        from hypermdp.smt import full_assignment

        verdict = self.api.solve_eager(mdp, f).decoded
        problem = workloads.verdict_problem(case, verdict)
        if problem:
            return "oracle: " + problem
        values, choices = full_assignment(cs, mdp, verdict.schedulers)
        if not evaluate_system(cs, values, choices):
            return "oracle: constraints violated under the decoded scheduler"
        return None

    def run_pass(self, pass_no, order, tracer):
        before = reference_seconds()
        for index, (case, engine) in enumerate(order):
            runs = [None] if tracer is None else [None, tracer] if index % 2 else [tracer, None]
            normalized = {}
            for t in runs:
                if t is not None:
                    t.op_id = f"{pass_no}:{case}:{engine}"
                wall, reason, smt2_bytes = self.op(pass_no, case, engine, t)
                inside = self.sampler.samples
                after = reference_seconds()
                ref_s = statistics.median(inside + [before, after])
                self.emit({"kind": "op", "pass": pass_no, "case": case, "engine": engine,
                           "traced": t is not None, "wall_s": wall, "sampled_s": sum(inside),
                           "ref_s": ref_s, "ok": reason is None, "reason": reason,
                           "smt2_bytes": smt2_bytes})
                normalized[t is not None] = (wall - sum(inside)) / ref_s
                before = after
                if time.perf_counter() - self.last_probe >= self.probe_every:
                    self.setup_sample()
                if reason is not None:
                    break
            if len(normalized) == 2:
                self.paired[0] += normalized[False]
                self.paired[1] += normalized[True]

    def setup_sample(self):
        self.record_setup(*timed_against_reference(self.probe))

    def record_setup(self, seconds, ref_s):
        self.emit({"kind": "setup", "setup_s": seconds, "ref_s": ref_s})
        self.setup_samples += 1
        self.last_probe = time.perf_counter()

    def cross_engine(self):
        """enum and smt-eager must agree on verdict, mode, schedulers and states."""
        for (pass_no, case, engine), verdict in sorted(self.verdicts.items()):
            if engine != "enum" or (pass_no, case, "smt-eager") not in self.verdicts:
                continue
            other = self.verdicts[(pass_no, case, "smt-eager")]
            if verdict != other:
                for eng in workloads.CHECK_ENGINES:
                    self.emit({"kind": "fail", "pass": pass_no, "case": case, "engine": eng,
                               "reason": "enum and smt-eager verdicts differ"})

    def replays(self):
        """Replay each (case, engine)'s first verdict once.

        A verdict with mode 'none' pins no quantifier, so its replay is a
        full re-evaluation identical to the enum op already gated; it is
        recorded as skipped.  Equal verdicts share one replay.
        """
        from hypermdp.enumcheck import replay

        done = {}
        for (pass_no, case, engine), verdict in sorted(self.verdicts.items()):
            if (case, engine) in done:
                continue
            record = {"kind": "gate", "gate": "replay", "case": case, "engine": engine}
            if verdict.mode == "none":
                done[(case, engine)] = True
                self.emit({**record, "ok": True, "reason": "skipped: mode none pins nothing"})
                continue
            key = (case, repr(verdict))
            if key not in done:
                mdp = self.api.load_mdp(workloads.model_path(self.casedir, case))
                with open(workloads.formula_path(self.casedir, case), encoding="utf-8") as fh:
                    f = self.api.parse_formula(fh.read())
                done[key] = replay(mdp, f, verdict) == (verdict.mode == "witness")
            done[(case, engine)] = done[key]
            ok = done[key]
            self.emit({**record, "ok": ok, "reason": None if ok else "verdict does not replay"})
            if not ok:
                self.emit({"kind": "fail", "pass": None, "case": case, "engine": engine,
                           "reason": "verdict does not replay"})


def main_run(root, workdir, results, spans_path, workload, seed, seconds, trace, op_set):
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    # one CPU for the ops, the set-up probes and the reference kernel, so
    # that the kernel sees the speed of the CPU the measured work ran on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, _on_alarm)
    casedir = os.path.join(workdir, "cases")
    first_setup = timed_against_reference(lambda: setup_probe(root, workload, casedir))
    api = import_hypermdp(root)
    ops = list((workloads.SMOKE_OPS if op_set == "smoke" else workloads.WORKLOADS)[workload])
    tracer = Tracer() if trace else None
    rng = random.Random(seed)
    with open(results, "a", encoding="utf-8") as out:
        runner = Runner(api, casedir, out,
                        lambda: setup_probe(root, workload, os.path.join(workdir, "probe")),
                        seconds / (SETUP_SAMPLES - 1))
        runner.record_setup(*first_setup)
        begin = time.perf_counter()
        pass_walls = []
        while True:
            order = rng.sample(ops, len(ops))
            start = time.perf_counter()
            runner.run_pass(len(pass_walls), order, tracer)
            pass_walls.append(time.perf_counter() - start)
            if time.perf_counter() - begin + statistics.median(pass_walls) > seconds:
                break
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        runner.emit({"kind": "rss", "peak_rss_mb": peak_kb / 1024.0})
        while runner.setup_samples < SETUP_SAMPLES:
            runner.setup_sample()
        runner.cross_engine()
        runner.replays()
        if tracer is not None:
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump(tracer.span_records(), fh)
            untraced, traced = runner.paired
            overhead = traced / untraced if untraced else None
            runner.emit({"kind": "trace", "missing": tracer.missing,
                         "metrics": per_layer_metrics(tracer, len(pass_walls), runner.space, overhead)})
        runner.emit({"kind": "done"})


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        main_setup(*sys.argv[2:5])
    else:
        root, workdir, results, spans_path, workload, seed, seconds, trace, op_set = sys.argv[2:11]
        main_run(root, workdir, results, spans_path, workload, int(seed), float(seconds),
                 trace == "1", op_set)
