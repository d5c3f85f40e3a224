"""gfmatroids benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify_gf2_minor --seed 3 --seconds 25 --trace 0

Runs from the root of a checkout.  One client drives the workload's tasks
one at a time (closed loop) in rounds of every task once, in fixed order,
until `--seconds` is used up; at least one round always runs.  With
`--trace 0` it prints the end-to-end metrics of BENCHMARK.json; with
`--trace 1` it alternates untraced and traced rounds and prints the
per-layer metrics.  The last line of stdout is the JSON result; a result
file (and, traced, a spans file) goes to perfbench/results/.
"""

from __future__ import annotations

from time import perf_counter, thread_time

# set-up time counts from here: before any import of the program
T_START, T_START_CPU = perf_counter(), thread_time()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as W  # noqa: E402
from check import Checker  # noqa: E402
from spans import Tracer, round_delta  # noqa: E402

RESULTS = W.HERE / "results"
WORK = W.HERE / "work"
# Set-up probes run before the timed phase and again after it, so that one
# run's set-up figure draws on two moments of the machine's drift.
SETUP_REPEATS = 3
IMPORT_REPEATS = 5

# Return-value predicates of the traced run; hits / calls is reported as
# `matroid.has_minor.found_frac` and `pipeline.find_short_circuit.pair_frac`.
HITS = {
    "matroid.has_minor": lambda r: r is not None,
    "pipeline.find_short_circuit": lambda r: r[1].source == "pair",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=W.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(args, lib, expected):
    wl = W.setup(args.workload, args.seed, lib, expected, WORK)
    wl.warmup.run()
    return wl


def setup_probe(args) -> int:
    """One fresh-process set-up: import, instances, files, warm-up task.
    Prints its seconds and its main thread's CPU seconds, each less the
    reference samples taken inside it, and the samples' median loop time."""
    with Sampler(timer=True) as sampler:
        lib = W.import_program()
        wl = setup(args, lib, W.load_expected())
        t1, t1_cpu = perf_counter(), thread_time()
    wl.close()
    inside = [d for t, d in sampler.samples if t < t1]
    print(json.dumps({"seconds": sampler.work(T_START, t1), "loop_s": statistics.median(inside),
                      "cpu_s": t1_cpu - T_START_CPU - sum(inside), "samples": len(inside)}))
    return 0


def measure_setup(args) -> list[dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    out = []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run(cmd, capture_output=True, text=True, cwd=W.ROOT, timeout=120)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{res.stderr}")
        out.append(json.loads(res.stdout.strip().splitlines()[-1]))
    return out


def measure_imports() -> dict:
    """Median cumulative import times of gfmatroids.cli and numpy (-X importtime)."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import gfmatroids.cli"]
    env = W.cli_env()
    pkg, numpy = [], []
    for _ in range(IMPORT_REPEATS):
        res = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=W.ROOT, timeout=60)
        if res.returncode != 0:
            raise RuntimeError(f"import failed:\n{res.stderr}")
        cum = {}
        for line in res.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, us, name = line.split("|")
            if us.strip().isdigit():
                cum.setdefault(name.strip(), int(us))
        pkg.append(cum["gfmatroids.cli"] / 1000)
        numpy.append(cum["numpy"] / 1000)
    return {"import.gfmatroids_ms": statistics.median(pkg), "import.numpy_ms": statistics.median(numpy)}


# -- the timed loop ------------------------------------------------------------------

# On a shared 2-vCPU Intel Xeon virtual machine the speed one process sees
# drifts by +-25% over seconds to minutes, and every task slows together
# (within a run the loop below switches between about 0.14 and 0.26 ms,
# pinned to one CPU or not, over tens of milliseconds to seconds).  A fixed
# pure-Python loop measures that drift: it is timed BOUNDARY_SAMPLES times
# between tasks and, in in-process rounds, every SAMPLE_EVERY seconds by an
# interval timer, so that samples also fall inside long tasks.  A task's
# loop time is the median of the samples inside it, or, with fewer than
# MIN_INSIDE such samples, of the NEAREST samples around it.  The timer
# stays off while a CLI call runs in a child process: a sample taken then
# measures this process competing with the child, not the machine.  (A
# set-up probe keeps its timer on throughout: there the CLI warm-up's child
# is a small part.)  The loop allocates tuples, lists, strings and dict
# entries like the program does, because an arithmetic-only loop tracked
# the drift less well.
#
# Every timed metric is a measured time, less the samples' own time inside
# it, rescaled to a nominal machine speed by `rescale`.  The loop slows more
# than the program when the machine slows: there, when the loop's time grew
# 1.8-fold, an in-process task's time and a set-up's CPU time grew about
# 1.8 ** COMPUTE_ALPHA times, and a CLI call's (a child process: interpreter
# start and imports) about 1.8 ** CHILD_ALPHA times.  Dividing by the loop
# time itself over-corrected, and the figures then moved against the
# machine's state.  The exponents only set how much of the machine's drift
# cancels: the loop does not depend on the program, so a change to the
# program moves a metric by exactly its own factor.  Raw seconds and loop
# times are kept in the result file.
#
# Set-up is timed in CPU seconds of the probe's main thread, not in wall
# seconds: numpy's import starts BLAS threads, and whether they preempt the
# main thread depends on how busy the other CPU is, which moved the wall
# time of a set-up by up to 30% at the same loop time.
REF_LOOPS = 300  # 0.14 to 0.3 ms
SAMPLE_EVERY = 0.005
BOUNDARY_SAMPLES = 8
MIN_INSIDE = 10
NEAREST = 2 * BOUNDARY_SAMPLES
NOMINAL_LOOP_S = 0.2e-3  # a round figure near the loop's median on that machine
COMPUTE_ALPHA = 0.8
CHILD_ALPHA = 0.6


def rescale(seconds: float, loop_s: float, alpha: float) -> float:
    """`seconds` as they would read with the loop at its nominal time."""
    return seconds * (NOMINAL_LOOP_S / loop_s) ** alpha


def reference() -> float:
    # The cyclic GC is off during the loop: a collection it triggered would
    # also walk the program's young objects, and the divisor would then
    # depend on the program's heap.
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        table: dict = {}
        for i in range(REF_LOOPS):
            key = (i % 97, i % 13)
            row = [i, i + 1, i ^ 5]
            table[key] = table.get(key, 0) + sum(row) + len(str(i))
            if i % 5 == 0:
                table.pop((i % 97, 3), None)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Reference-loop samples for one round, at task boundaries and, with
    `timer`, on SIGALRM."""

    def __init__(self, timer: bool):
        self.timer = timer
        self.samples: list[tuple[float, float]] = []  # (when, loop seconds)

    def tick(self, *_):
        self.samples.append((perf_counter(), reference()))

    def boundary(self):
        for _ in range(BOUNDARY_SAMPLES):
            self.tick()

    def __enter__(self):
        self.boundary()
        if self.timer:
            self._old = signal.signal(signal.SIGALRM, self.tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc):
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)

    def work(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1 less the samples taken in between."""
        return t1 - t0 - sum(d for t, d in self.samples if t0 < t < t1)

    def scale(self, t0: float, t1: float) -> float:
        inside = [d for t, d in self.samples if t0 < t < t1]
        if len(inside) < MIN_INSIDE:
            mid = (t0 + t1) / 2
            inside = [d for _, d in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:NEAREST]]
        return statistics.median(inside)


@dataclass
class Round:
    wall: float = 0.0  # seconds
    wall_scaled: float = 0.0  # rescaled seconds
    tasks: list = field(default_factory=list)  # (task id, seconds, rescaled seconds, output, loop time)
    refs: list = field(default_factory=list)  # reference loop times sampled
    violations: int = 0


def run_round(tasks, inproc: bool, tracer: Tracer | None = None) -> Round:
    """Every task once, with reference samples around and inside the tasks."""
    rnd = Round()
    raw = []
    # a task with an in-process form starts a child process unless run in-process
    child = tasks[0].inproc is not None and not inproc
    with Sampler(timer=not child) as sampler:
        for task in tasks:
            fn = task.inproc if inproc else task.run
            if tracer is not None:
                tracer.begin_task(task.id)
            t0 = perf_counter()
            try:
                out = fn()
            except Exception as exc:  # a failing task is counted, not fatal
                out = exc
            t1 = perf_counter()
            if tracer is not None and tracer.task_self > t1 - t0 + 1e-6:
                rnd.violations += 1
            raw.append((task.id, t0, t1, out))
            sampler.boundary()
    for tid, t0, t1, out in raw:
        secs, loop_s = sampler.work(t0, t1), sampler.scale(t0, t1)
        scaled = rescale(secs, loop_s, CHILD_ALPHA if child else COMPUTE_ALPHA)
        rnd.tasks.append((tid, secs, scaled, out, loop_s))
        rnd.wall += secs
        rnd.wall_scaled += scaled
    rnd.refs = [d for _, d in sampler.samples]
    return rnd


def timed(wl, seconds: float) -> list[Round]:
    rounds, start = [], perf_counter()
    while True:
        rounds.append(run_round(wl.tasks, inproc=False))
        typical = statistics.median(r.wall for r in rounds)
        if perf_counter() - start + typical > seconds:
            return rounds


def traced(wl, seconds: float):
    """Alternate untraced and traced rounds (in-process `cli.main` for the
    CLI workload); returns (untraced rounds, traced rounds, per-round stats)."""
    inproc = wl.name == "cli_startup"
    tracer = Tracer()
    plain, spanned, per_round = [], [], []
    start = perf_counter()
    while True:
        plain.append(run_round(wl.tasks, inproc))
        before = tracer.snapshot()
        tracer.install(HITS)
        try:
            spanned.append(run_round(wl.tasks, inproc, tracer))
        finally:
            tracer.uninstall()
        per_round.append(round_delta(before, tracer.stats))
        pair = statistics.median(a.wall + b.wall for a, b in zip(plain, spanned))
        if perf_counter() - start + pair > seconds:
            return plain, spanned, per_round, tracer


# -- metrics -------------------------------------------------------------------------


def check_rounds(checker: Checker, rounds) -> tuple[int, int, bool, list]:
    attempted = failed = 0
    unexpected = []
    for rnd in rounds:
        for tid, _, _, out, _ in rnd.tasks:
            attempted += 1
            problems = checker.check(tid, out)
            if problems:
                failed += 1
                if not checker.known_defect(tid):
                    unexpected.append({"task": tid, "problems": problems})
    return attempted, failed, not unexpected, unexpected


def task_medians(rounds, col: int) -> dict:
    """Each task's median time over the rounds: col 1 seconds, col 2 rescaled."""
    times: dict[str, list[float]] = {}
    for rnd in rounds:
        for item in rnd.tasks:
            times.setdefault(item[0], []).append(item[col])
    return {tid: statistics.median(v) for tid, v in times.items()}


def end_to_end(rounds, setup_probes, wl) -> dict:
    # Percentiles are taken over the tasks' own medians: pooling every sample
    # would let round-to-round noise reorder tasks of nearby cost.
    per_task = sorted(task_medians(rounds, 2).values())
    raw = sorted(task_medians(rounds, 1).values())
    if wl.name == "cli_startup":
        peak_kb = max(t[3]["maxrss_kb"] for r in rounds for t in r.tasks if isinstance(t[3], dict))
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(rescale(p["cpu_s"], p["loop_s"], COMPUTE_ALPHA) for p in setup_probes),
        "wall_s": statistics.median(r.wall_scaled for r in rounds),
        "task_ms_p50": statistics.median(per_task) * 1000,
        "task_ms_p90": statistics.quantiles(per_task, n=10)[-1] * 1000,
        "peak_rss_mb": peak_kb / 1024,
        # raw seconds, for the result file
        "raw_setup_s": statistics.median(p["seconds"] for p in setup_probes),
        "raw_setup_cpu_s": statistics.median(p["cpu_s"] for p in setup_probes),
        "raw_wall_s": statistics.median(r.wall for r in rounds),
        "raw_task_ms_p50": statistics.median(raw) * 1000,
        "raw_task_ms_p90": statistics.quantiles(raw, n=10)[-1] * 1000,
        "loop_ms": statistics.median(x for r in rounds for x in r.refs) * 1000,
    }


def per_layer(names, plain, spanned, per_round, imports) -> dict:
    out = dict(imports)
    untraced = statistics.median(r.wall_scaled for r in plain)
    out["trace.overhead_frac"] = (statistics.median(r.wall_scaled for r in spanned) - untraced) / untraced
    first = per_round[0]
    for name in names:
        if name in out:
            continue
        span, _, kind = name.rpartition(".")
        zero = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "errors": 0, "hits": 0}
        st = first.get(span, zero)
        if kind == "calls":
            out[name] = st["calls"]
        elif kind == "errors":
            out[name] = st["errors"]
        elif kind == "self_ms":
            out[name] = statistics.median(r.get(span, zero)["self_s"] for r in per_round) * 1000
        elif span in HITS:
            out[name] = st["hits"] / st["calls"] if st["calls"] else 0.0
        else:
            raise KeyError(f"no rule computes per-layer metric {name}")
    return out


def dominant(per_round, key: str, top: int = 8) -> list:
    """Span names ranked by their median per-round time (`self_s` or `incl_s`)."""
    names = {n for r in per_round for n in r}
    ms = {n: statistics.median(r.get(n, {}).get(key, 0.0) for r in per_round) * 1000 for n in names}
    return sorted(([n, round(v, 3)] for n, v in ms.items() if v > 0), key=lambda x: -x[1])[:top]


# Spans that enclose a whole task: the layer that dominates is below them.
ENTRY_SPANS = {"pipeline.verify_dichotomy", "cli.main", "cli.run"}


def dominant_layer(per_round, plain, imports, wl) -> dict:
    """The layer with the most inclusive time per task.  For the CLI the
    import of the package (a fresh process per call) competes with the
    in-process time of `cli.main`."""
    ranked = [x for x in dominant(per_round, "incl_s", top=len(ENTRY_SPANS) + 1) if x[0] not in ENTRY_SPANS]
    name, ms = ranked[0]
    if wl.name == "cli_startup":
        call_ms = statistics.median(sorted(task_medians(plain, 1).values())) * 1000
        if imports["import.gfmatroids_ms"] > call_ms:
            return {"layer": "import", "import.gfmatroids_ms": imports["import.gfmatroids_ms"],
                    "in_process_call_ms_p50": call_ms}
    return {"layer": name, "inclusive_ms_per_round": ms}


def machine_facts() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    bench = json.loads((W.ROOT / "BENCHMARK.json").read_text())
    lib = W.import_program()
    expected = W.load_expected()
    wl = setup(args, lib, expected)
    try:
        checker = Checker(wl, expected)
        result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "why": next(w["why"] for w in bench["workloads"]
                                                    if w["name"] == args.workload),
                  "machine": machine_facts()}
        if args.trace:
            imports = measure_imports()
            plain, spanned, per_round, tracer = traced(wl, args.seconds)
            rounds = plain + spanned
            specs = bench["per_layer"]
            values = per_layer([m["name"] for m in specs], plain, spanned, per_round, imports)
            violations = sum(r.violations for r in spanned)
            result.update({"traced_rounds": len(spanned), "untraced_rounds": len(plain),
                           "self_time_violations": violations, "spans_dropped": tracer.dropped,
                           "dominant_self_ms": dominant(per_round, "self_s"),
                           "dominant_inclusive_ms": dominant(per_round, "incl_s"),
                           "dominant_layer": dominant_layer(per_round, plain, imports, wl),
                           "per_round_stats": per_round})
            spans_file = RESULTS / f"{args.workload}_seed{args.seed}_spans.json"
        else:
            setup_probes = measure_setup(args)
            rounds = timed(wl, args.seconds)
            setup_probes += measure_setup(args)
            result["setup_probes"] = setup_probes
            specs = bench["end_to_end"]
            values = end_to_end(rounds, setup_probes, wl)
            violations = 0
            spans_file = None
        attempted, failed, correct, unexpected = check_rounds(checker, rounds)
        correct = correct and violations == 0
        counts: dict[str, int] = {}
        for rnd in rounds:
            for tid, *_ in rnd.tasks:
                counts[tid] = counts.get(tid, 0) + 1
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
        result.update({"rounds": len(rounds), "round_wall_s": [r.wall for r in rounds],
                       "round_wall_scaled_s": [r.wall_scaled for r in rounds], "all_values": values,
                       "round_loop_ms": [statistics.median(r.refs) * 1000 for r in rounds],
                       "round_tasks": [[[t[0], t[1], t[4]] for t in r.tasks] for r in rounds],
                       "task_samples": counts,
                       "task_ms_median": {k: v * 1000 for k, v in task_medians(rounds, 1).items()},
                       "task_ref_median": task_medians(rounds, 2), "attempted": attempted, "failed": failed,
                       "failed_frac": failed / attempted, "unexpected_failures": unexpected,
                       "correct": correct, "metrics": metrics})
        RESULTS.mkdir(exist_ok=True)
        out = RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
        out.write_text(json.dumps(result, indent=1, default=str) + "\n")
        if spans_file is not None:
            spans_file.write_text(json.dumps({"fields": ["name", "start", "end", "span", "parent", "task"],
                                              "dropped": tracer.dropped, "spans": tracer.spans}) + "\n")
    finally:
        wl.close()
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    for item in unexpected:
        print(f"FAILED {item['task']}: {'; '.join(item['problems'])}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
