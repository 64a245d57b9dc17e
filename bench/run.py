"""The ptableaux benchmark: one closed-loop workload per run.

    python3 bench/run.py --workload crystal --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``
there and nowhere else.  One process, one thread, one client: the next job
starts when the previous one has finished.  ``--trace 0`` measures the
end-to-end metrics: it sets up several times (fresh import, input
generation, prebuilt state) and reports the median as ``setup_s``, then
runs whole rounds of jobs until ``--seconds`` of job time and at least
``MIN_JOBS`` jobs have passed.  ``--trace 1`` runs a fixed number of rounds
with every layer wrapped (see ``tracing.py``), runs the same jobs once more
untraced for the overhead ratio, each pass on a fresh import of the
library, and reports the per-layer metrics.  It then runs the traced pass
again in a fresh process and checks that the exact counts repeat, and it
checks that every layer the workload must reach was called.  Every answer
is checked outside the timed region (``oracle.py``).  Inputs that hit a
known defect are not among the timed jobs; each run checks a fixed set of
them afterwards and reports the defects they reproduce by name.  The last
line of standard output is the JSON result, the line before it the full
report, which is also written to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import gzip
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from itertools import islice
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
MIN_JOBS = 100
# The repeat of a traced pass in a fresh process must end within this.
REPEAT_TIMEOUT_S = 100

sys.path.insert(0, str(BENCH_DIR))

from meter import Meter, normalized_call  # noqa: E402
from oracle import CheckFailed, KnownDefect  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="smallest inputs (self-test)")
    # Internal: run only the traced pass and print its exact counts.
    p.add_argument("--counts-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _tree_sha256(directory: Path) -> str:
    """Hash of the Python sources under ``directory``: names the code that
    was measured, also on an uncommitted tree or outside git."""
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(str(path.relative_to(directory)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "tiny": args.tiny,
        "git_commit": _git_commit(),
        "src_sha256": _tree_sha256(SRC),
        "bench_sha256": _tree_sha256(BENCH_DIR),
    }


# ---------------------------------------------------------------------------
# set-up


def setup(workload, seed: int, tiny: bool) -> dict:
    """Fresh import of ptableaux and ptableaux.cli, the CLI parser, the
    seeded inputs and the workload's prebuilt state, timed between two
    reference timings."""
    done, raw, seconds = normalized_call(_setup, workload, seed, tiny)
    done.update(raw_seconds=raw, seconds=seconds)
    return done


def fresh_import():
    """Import ptableaux and ptableaux.cli anew from ``src/``, so that no
    module state of an earlier import carries over."""
    for key in [k for k in sys.modules if k == "ptableaux" or k.startswith("ptableaux.")]:
        del sys.modules[key]
    cli = importlib.import_module("ptableaux.cli")
    lib = sys.modules["ptableaux"]
    if not Path(lib.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"ptableaux imported from {lib.__file__}, not {SRC}")
    return lib, cli


def input_stream(workload, seed: int, tiny: bool):
    """The workload's rounds of jobs; the same seed gives the same rounds."""
    return workload.rounds(random.Random(f"{workload.name}:{seed}"), tiny)


def _setup(workload, seed: int, tiny: bool) -> dict:
    start = perf_counter()
    lib, cli = fresh_import()
    imported = perf_counter()
    cli.build_parser()
    parsed = perf_counter()
    stream = input_stream(workload, seed, tiny)
    rounds = list(islice(stream, workload.pool_rounds))
    state = workload.prepare(lib, rounds[0])
    return {
        "lib": lib,
        "stream": stream,
        "rounds": rounds,
        "state": state,
        "import_ms": (imported - start) * 1e3,
        "build_parser_ms": (parsed - imported) * 1e3,
    }


# ---------------------------------------------------------------------------
# checking


class Checker:
    """Checks every output and keeps the failure and shared-work tallies."""

    def __init__(self, workload, lib):
        self.workload = workload
        # The library whose outputs are being checked.
        self.lib = lib
        self.memo: dict = {}
        self.attempted = 0
        self.failed = 0
        self.known = Counter()
        self.unexpected: list[str] = []
        self.unexpected_count = 0
        self.hw_seen: set = set()
        self.hw_jobs = 0
        self.hw_shared = 0
        self.oracle_s = 0.0

    def record(self, job, output, error) -> None:
        start = perf_counter()
        self.attempted += 1
        try:
            if error is not None:
                raise error
            key = self.workload.check(self.lib, job, output, self.memo)
        except KnownDefect as exc:
            self.failed += 1
            self.known[exc.defect] += 1
        except Exception as exc:  # a failed job must not stop the run
            self.failed += 1
            self.unexpected_count += 1
            if len(self.unexpected) < 5:
                kind = "check" if isinstance(exc, CheckFailed) else "error"
                self.unexpected.append(f"{kind} on {job!r}: " + "".join(
                    traceback.format_exception_only(type(exc), exc)).strip())
        else:
            if key is not None:
                self.hw_jobs += 1
                self.hw_shared += key in self.hw_seen
                self.hw_seen.add(key)
        self.oracle_s += perf_counter() - start

    @property
    def correct(self) -> bool:
        """True when every failure is one of the named known defects."""
        return self.unexpected_count == 0

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_ratio": self.failed / self.attempted if self.attempted else 0.0,
            "known_defects": dict(self.known),
            "unexpected_failures": self.unexpected_count,
            "unexpected_examples": self.unexpected,
            "shared_hw_ratio": self.hw_shared / self.hw_jobs if self.hw_jobs else 0.0,
            "shared_hw_base": self.hw_jobs,
            "oracle_s": self.oracle_s,
        }


def probe_known_defects(workload, lib, seed: int, tiny: bool) -> Checker:
    """Run and check the workload's known-defect probes, outside any timed
    region.  A probe that fails in the named way counts under its defect;
    one that fails otherwise makes the run incorrect."""
    checker = Checker(workload, lib)
    probes = getattr(workload, "defect_probes", None)
    if probes is not None:
        for job in probes(random.Random(f"{workload.name}:{seed}:probes"), tiny):
            _, output, error = timed(workload, lib, None, job)
            checker.record(job, output, error)
    return checker


def timed(workload, lib, state, job):
    """Run one job; returns (seconds, output, error)."""
    start = perf_counter()
    try:
        output = workload.run(lib, state, job)
    except Exception as exc:  # recorded as a failed job
        return perf_counter() - start, None, exc
    return perf_counter() - start, output, None


# ---------------------------------------------------------------------------
# the two kinds of run


def measure_end_to_end(args, workload, setups) -> dict:
    final = setups[-1]
    lib, state, rounds = final["lib"], final["state"], final["rounds"]
    checker = Checker(workload, lib)
    meter = Meter()
    busy = 0.0
    r = 0
    while busy < args.seconds or len(meter.raw) < MIN_JOBS:
        if r < len(rounds):
            jobs = rounds[r]
        else:
            jobs = next(final["stream"])
        # Jobs run back to back; their answers are checked after the round.
        results = []
        for job in jobs:
            seconds, output, error = timed(workload, lib, state, job)
            meter.add(seconds)
            busy += seconds
            results.append((job, output, error))
        for result in results:
            checker.record(*result)
        r += 1
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def timing_metrics(latencies, setup_seconds):
        return {
            "jobs_per_s": len(latencies) / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
            "setup_s": statistics.median(setup_seconds),
            "peak_rss_mb": rss_kb / 1024,
        }

    n = len(meter.raw)
    return {
        "metrics": timing_metrics(meter.normalized(), [s["seconds"] for s in setups]),
        "samples": {
            "jobs_per_s": n,
            "latency_p50_ms": n,
            "latency_p90_ms": n,
            "setup_s": len(setups),
            "peak_rss_mb": 1,
        },
        "checker": checker,
        "details": {
            "raw_metrics": timing_metrics(meter.raw, [s["raw_seconds"] for s in setups]),
            "reference_s": _spread(meter.refs),
            "rounds": r,
        },
    }


def _spread(values) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "min": min(values), "q1": q[0], "median": q[1], "q3": q[2], "max": max(values)}


def trace_jobs(workload, seed: int, tiny: bool) -> list:
    return [job for rnd in islice(input_stream(workload, seed, tiny), workload.trace_rounds) for job in rnd]


def _pass(workload, jobs, tracer=None):
    """Import the library afresh, build the workload's state and run
    ``jobs`` back to back; with a tracer, every layer is wrapped for the
    whole pass.  Answers are checked by the caller afterwards."""
    lib, _ = fresh_import()
    if tracer is not None:
        tracer.install()
    try:
        state = workload.prepare(lib, jobs)
        meter, results = Meter(), []
        for idx, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = idx
            seconds, output, error = timed(workload, lib, state, job)
            meter.add(seconds)
            results.append((job, output, error))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return lib, meter, results


def repeat_counts(args):
    """Exact counts of the same traced pass, run in a fresh process: any
    state the library keeps, and the process's hash seed, start anew.
    Returns (counts, None) or (None, the reason there are none)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1", "--counts-only",
    ] + (["--tiny"] if args.tiny else [])
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REPEAT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"repeat pass took over {REPEAT_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"repeat pass exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return Counter(json.loads(proc.stdout.splitlines()[-1])), None


def measure_per_layer(args, workload, setups) -> dict:
    jobs = trace_jobs(workload, args.seed, args.tiny)
    checker = Checker(workload, None)
    tracer = Tracer()
    meters = {}
    for traced in (tracer, None):
        lib, meters[traced is not None], results = _pass(workload, jobs, traced)
        checker.lib = lib
        for result in results:
            checker.record(*result)
        del results
    traced_s = sum(meters[True].normalized())
    untraced_s = sum(meters[False].normalized())
    # Self times are rescaled like job times, by the pass's overall factor.
    scale = traced_s / sum(meters[True].raw)
    self_s = Counter({name: seconds * scale for name, seconds in tracer.self_times().items()})

    c = tracer.counts
    repeat, repeat_error = repeat_counts(args)
    counts_repeat = repeat == c
    mismatched = [] if repeat is None else sorted(k for k in set(c) | set(repeat) if c[k] != repeat[k])
    silent = [layer for layer in workload.layers if not c[layer + ".calls"]]
    summary = checker.summary()
    # The first set-up is the cold one a real ptab call pays once.
    cold_factor = setups[0]["seconds"] / setups[0]["raw_seconds"]

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {
        "core.pack.calls": c["core.pack.calls"],
        "core.pack.self_s": self_s["core.pack"],
        "core.pack.per_op_call": ratio(c["core.pack.in_op"], c["operators.ptab.calls"]),
        "core.validate.calls": c["core.validate.calls"],
        "core.validate.self_s": self_s["core.validate"],
        "core.parse.calls": c["core.parse.calls"],
        "core.parse.self_s": self_s["core.parse"],
        "operators.ptab.calls": c["operators.ptab.calls"],
        "operators.ptab.self_s": self_s["operators.ptab"],
        "operators.ptab.hit_ratio": ratio(c["operators.ptab.hits"], c["operators.ptab.calls"]),
        "operators.word.calls": c["operators.word.calls"],
        "operators.word.self_s": self_s["operators.word"],
        "operators.word.hit_ratio": ratio(c["operators.word.hits"], c["operators.word.calls"]),
        "operators.hw.calls": c["operators.hw.calls"],
        "operators.hw.steps": c["operators.hw.steps"],
        "operators.hw.self_s": self_s["operators.hw"],
        "graph.nodes": c["graph.nodes"],
        "graph.edges": c["graph.edges"],
        "graph.op_calls_per_node": ratio(c["graph.op_calls"], c["graph.nodes"]),
        "graph.close.self_s": self_s["graph.component"],
        "graph.build.self_s": self_s["graph.build"],
        "graph.decompose.self_s": self_s["graph.decompose"],
        "graph.export.self_s": self_s["graph.export"],
        "graph.export.bytes": c["graph.export.bytes"],
        "tensor.calls": c["tensor.calls"],
        "tensor.self_s": self_s["tensor"],
        "tensor.hit_ratio": ratio(c["tensor.hits"], c["tensor.calls"]),
        "bijections.calls": c["bijections.calls"],
        "bijections.self_s": self_s["bijections"],
        "evacuation.calls": c["evacuation.calls"],
        "evacuation.slide_steps": c["evacuation.slide_steps"],
        "evacuation.self_s": self_s["evacuation"],
        "evacuation.push.calls": c["evacuation.push.calls"],
        "evacuation.push.states": c["evacuation.push.states"],
        "evacuation.push.self_s": self_s["evacuation.push"],
        "cli.import_ms": setups[0]["import_ms"] * cold_factor,
        "cli.build_parser_ms": setups[0]["build_parser_ms"] * cold_factor,
        "bench.jobs": len(jobs),
        "bench.oracle_s": summary["oracle_s"],
        "bench.trace_overhead_ratio": traced_s / untraced_s,
        "bench.failed_ratio": summary["failed_ratio"],
        "bench.shared_hw_ratio": summary["shared_hw_ratio"],
    }
    return {
        "metrics": metrics,
        "samples": {},
        "checker": checker,
        "tracer": tracer,
        "correct": counts_repeat and not silent,
        "details": {
            "exact_counts_repeat": counts_repeat,
            "repeat_error": repeat_error,
            "mismatched_counts": mismatched,
            "exact_counts": dict(sorted(c.items())),
            "layers_not_called": silent,
            "unresolved_layer_functions": tracer.unresolved,
        },
    }


def write_spans(path: Path, tracer: Tracer) -> None:
    names = sorted({s[0] for s in tracer.spans})
    index = {name: k for k, name in enumerate(names)}
    with gzip.open(path, "wt", compresslevel=1) as handle:
        json.dump({
            "fields": ["name", "start_s", "end_s", "parent", "job"],
            "names": names,
            "spans": [[index[n], s, e, p, j] for n, s, e, p, j in tracer.spans],
        }, handle, separators=(",", ":"))


# ---------------------------------------------------------------------------


def declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ptableaux" / "__init__.py").is_file():
        print(f"error: no ptableaux sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    if args.counts_only:
        tracer = Tracer()
        _pass(workload, trace_jobs(workload, args.seed, args.tiny), tracer)
        print(json.dumps(dict(tracer.counts)))
        return 0
    units = declared_metrics(args.trace)
    setups = [setup(workload, args.seed, args.tiny) for _ in range(SETUP_REPEATS)]
    measure = measure_per_layer if args.trace else measure_end_to_end
    measured = measure(args, workload, setups)
    probe = probe_known_defects(workload, measured["checker"].lib, args.seed, args.tiny)
    values, samples = measured["metrics"], measured["samples"]
    if args.trace:
        values["bench.known_defect_ratio"] = probe.failed / probe.attempted if probe.attempted else 0.0
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2

    summary = measured["checker"].summary()
    probed = probe.summary()
    correct = measured["checker"].correct and probe.correct and measured.get("correct", True)
    report = {
        "env": environment(args),
        "correct": correct,
        "checks": summary,
        "defect_probes": probed,
        "metrics": {
            name: {"value": values[name], "unit": units[name], "samples": samples.get(name)}
            for name in units
        },
        **measured["details"],
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    if args.trace:
        write_spans(OUT_DIR / f"{stem}-spans.json.gz", measured["tracer"])

    for name, entry in report["metrics"].items():
        n = entry["samples"]
        print(f"{name:30s} {entry['value']:14.6g} {entry['unit']:6s}" + (f" n={n}" if n else ""))
    print(f"{'failed_ratio':30s} {summary['failed_ratio']:14.6g} {'ratio':6s} n={summary['attempted']}")
    if summary["shared_hw_base"]:
        print(f"{'shared_hw_ratio':30s} {summary['shared_hw_ratio']:14.6g} {'ratio':6s} n={summary['shared_hw_base']}")
    for defect, count in summary["known_defects"].items():
        print(f"known defect ({count} jobs): {defect}")
    for defect, count in probed["known_defects"].items():
        print(f"known defect ({count} of {probed['attempted']} probes, outside the timed jobs): {defect}")
    for example in summary["unexpected_examples"] + probed["unexpected_examples"]:
        print(f"UNEXPECTED FAILURE: {example}")
    if not report.get("exact_counts_repeat", True):
        print("EXACT COUNTS DIFFER between traced passes in two processes: "
              + (report["repeat_error"] or str(report["mismatched_counts"])))
    for layer in report.get("layers_not_called", ()):
        print(f"LAYER NOT CALLED: {layer} (unresolved: {report['unresolved_layer_functions']})")
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
