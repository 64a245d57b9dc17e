"""Self-test of the benchmark, run from the root of a checkout:

    python3 bench/selftest.py

It checks ``BENCHMARK.json`` against the benchmark's contract, pins the
oracle's crystal conventions against the library on random words, checks
that the shapes of the random-word jobs come at their share of random
words, that the graph counts come from the public entry points and that a
missing layer function is reported, checks that a parsing with trailing
empty factors is reported as the known defect, that the timed round trips
avoid it and its probes reproduce it, and runs every workload at
tiny size, untraced and traced, asserting that each declared metric is
printed with its unit, that ``failed_ratio`` is computed, that the traced
exact counts repeat in a fresh process and that every expected layer was
called.
"""
from __future__ import annotations

import json
import random
import re
import subprocess
import sys
import unittest
from collections import Counter
from itertools import islice
from pathlib import Path
from unittest import mock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import ptableaux as lib  # noqa: E402
import tracing  # noqa: E402
from oracle import (  # noqa: E402
    KnownDefect,
    highest_weight_shape,
    is_lattice,
    is_partition_grid,
    partitions,
    ssyt_count,
    syt_count,
    trim,
)
from workloads import CONTENT_BOUND_DEFECT, WORKLOADS, _random_word_jobs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.splitlines()


class Contract(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(
            set(SPEC),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertEqual(set(w["name"] for w in SPEC["workloads"]), set(WORKLOADS))
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        names = []
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))

    def test_prediction_map_names_every_layer_metric(self):
        readme = (BENCH_DIR / "README.md").read_text()
        for m in SPEC["per_layer"]:
            self.assertIn(f"`{m['name']}`", readme)


class OracleConventions(unittest.TestCase):
    def test_highest_weight_of_words_and_ptableaux(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(2, 5)
            letters = tuple(rng.randint(1, n) for _ in range(rng.randint(1, 7)))
            word = lib.Word(n, letters)
            top, _ = lib.to_highest_weight(word)
            self.assertEqual(trim(lib.weight(top)), highest_weight_shape(letters))
            self.assertEqual(lib.is_highest_weight(word), is_lattice(letters))
            tab = lib.ptableau_from_word(word)
            self.assertEqual(lib.is_partition_shaped(tab), is_partition_grid(tab.grid))

    def test_lattice_tensor_condition(self):
        rng = random.Random(6)
        for _ in range(200):
            n = rng.randint(2, 4)
            mu = trim(sorted((rng.randint(0, 3) for _ in range(n)), reverse=True))
            letters = tuple(rng.randint(1, n) for _ in range(rng.randint(1, 5)))
            product = lib.tensor(
                lib.highest_weight_ptableau(mu, rows=n),
                lib.ptableau_from_word(lib.Word(n, letters)),
            )
            self.assertEqual(lib.is_partition_shaped(product), is_lattice(letters, mu))

    def test_counting_formulas(self):
        self.assertEqual(ssyt_count((2, 1), 3), 8)
        self.assertEqual(ssyt_count((3, 2, 1), 5), 280)
        self.assertEqual(syt_count((3, 2, 1)), 16)


class Traffic(unittest.TestCase):
    def test_shapes_come_at_their_share_of_random_words(self):
        n, k, rounds = 5, 6, 4000
        stream = _random_word_jobs(random.Random(3), [(n, k)])
        got = Counter(highest_weight_shape(tuple(map(int, text))) for ((_, text),) in islice(stream, rounds))
        for lam in partitions(k, n):
            expected = rounds * syt_count(lam) * ssyt_count(lam, n) / n**k
            self.assertLessEqual(abs(got[lam] - expected), 3, lam)

    def test_shapes_do_not_depend_on_the_seed(self):
        def shapes(seed):
            stream = WORKLOADS["crystal"].rounds(random.Random(seed), False)
            return sorted(highest_weight_shape(tuple(map(int, t))) for rnd in islice(stream, 17) for _, t in rnd)

        self.assertEqual(shapes(1), shapes(2))


class Tracing(unittest.TestCase):
    def test_graph_counts_come_from_the_public_entry_points(self):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            graph = lib.component(lib.Word.from_text("3121", 3))
            parts = lib.decompose(lib.words_closure(2, 3))
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.counts["graph.nodes"], len(graph.nodes) + 8)
        self.assertEqual(tracer.counts["graph.edges"], len(graph.edges) + sum(len(g.edges) for g in parts))
        self.assertEqual(tracer.counts["graph.component.calls"], 1)
        self.assertEqual(tracer.unresolved, [])

    def test_a_missing_layer_function_is_reported(self):
        layers = tracing.LAYERS + [("graph", "_gone", "graph.gone", None)]
        tracer = tracing.Tracer()
        with mock.patch.object(tracing, "LAYERS", layers):
            tracer.install()
        tracer.uninstall()
        self.assertEqual(tracer.unresolved, ["ptableaux.graph._gone"])


class KnownDefects(unittest.TestCase):
    def test_trailing_empty_factors_are_the_known_defect(self):
        queries = WORKLOADS["queries"]
        for kind in ("text", "json"):
            job = (kind, 2, "21|22||", ())
            output = queries.run(lib, None, job)
            with self.assertRaises(KnownDefect) as caught:
                queries.check(lib, job, output, {})
            self.assertEqual(caught.exception.defect, CONTENT_BOUND_DEFECT)

    def test_inner_empty_factor_round_trips(self):
        queries = WORKLOADS["queries"]
        for kind in ("text", "json"):
            job = (kind, 2, "21||22", ())
            queries.check(lib, job, queries.run(lib, None, job), {})

    def test_timed_round_trips_avoid_the_defect_and_the_probes_hit_it(self):
        queries = WORKLOADS["queries"]
        rng = random.Random(7)
        jobs = [job for rnd in islice(queries.rounds(rng, False), 200) for job in rnd]
        round_trips = [text for kind, _, text, _ in jobs if kind in ("text", "json")]
        self.assertTrue(any("||" in text or text.startswith("|") for text in round_trips))
        self.assertFalse(any(text.endswith("|") for text in round_trips))
        probes = queries.defect_probes(rng, False)
        self.assertEqual(len(probes), 2 * queries.probes_per_kind)
        for job in probes:
            with self.assertRaises(KnownDefect) as caught:
                queries.check(lib, job, queries.run(lib, None, job), {})
            self.assertEqual(caught.exception.defect, CONTENT_BOUND_DEFECT)


class TinyRuns(unittest.TestCase):
    def check_run(self, workload: str, trace: int):
        lines = run_bench(workload, trace)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
        for m in declared:
            entry = result["metrics"][m["name"]]
            self.assertEqual(entry, {"value": entry["value"], "unit": m["unit"]})
            self.assertIsInstance(entry["value"], (int, float))
            printed = [ln for ln in lines if ln.split()[:1] == [m["name"]]]
            self.assertEqual(len(printed), 1, m["name"])
            self.assertEqual(printed[0].split()[2], m["unit"])
        self.assertTrue(lines[-2].startswith("report: "))
        report = json.loads(lines[-2][len("report: "):])
        checks = report["checks"]
        self.assertEqual(checks["attempted"], result["attempted"])
        self.assertEqual(checks["failed_ratio"], result["failed"] / result["attempted"])
        self.assertTrue(any(ln.split()[:1] == ["failed_ratio"] for ln in lines))
        env = report["env"]
        for key in ("python", "cpu_model", "nproc", "seed", "git_commit", "trace"):
            self.assertIn(key, env)
        self.assertEqual(env["trace"], bool(trace))
        if trace:
            self.assertIs(report["exact_counts_repeat"], True)
            self.assertEqual(report["layers_not_called"], [])
        else:
            for name in ("jobs_per_s", "latency_p50_ms", "latency_p90_ms"):
                self.assertGreaterEqual(report["metrics"][name]["samples"], 100)

    def test_every_workload(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)


if __name__ == "__main__":
    unittest.main()
