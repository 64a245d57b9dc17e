"""The four workloads: input generation, the timed job, and its answer check.

A workload's inputs come in rounds, each a list of jobs (plain tuples).
``rounds(rng, tiny)`` yields them without end from the seeded generator.
Set-up draws ``pool_rounds`` of them and the timed loop draws further ones,
outside the timed region, when those run out, so the loop never replays a
round of random words.  (The ``lr`` rows and the few ``decompose`` sizes
repeat by design.)

``crystal`` and ``words`` jobs start from seeded random words of ranks 4-5
and lengths 5-7, one job per (rank, length) cell a round.  Under uniform
random words of length k over [n], the highest weight shape lambda has
probability f^lambda * dim_n(lambda) / n^k (RSK).  The shapes of the jobs
follow exactly that distribution, but as a fixed low-discrepancy sequence
(``_weighted_draws``) rather than independent draws, and the seed then
picks a uniformly random word of each shape.  So every shape of every cell
comes at its share of random words, and runs with different seeds close
the same components from different start nodes.  The size of a component
depends only on its shape, so the seeds do the same work; seeded shapes
put 10% of run-to-run spread on the latency percentiles through the mix
alone.

``run`` receives only ``lib`` (the imported ``ptableaux`` package), the
state ``prepare`` built, and one job.  The timed jobs are chosen so that
none hits a known defect; a workload's ``defect_probes(rng, tiny)`` gives
the inputs that do, which the runner checks once a run outside the timed
region and reports by defect.  ``check`` runs outside the timed
region; it raises ``CheckFailed`` or ``KnownDefect`` and returns a key of
the job's shared work (its highest weight node, or the ``decompose`` size)
for the shared-work record, or None for jobs without one.
"""
from __future__ import annotations

import json
import re
from bisect import bisect_right
from collections import Counter
from itertools import accumulate

from oracle import (
    CheckFailed,
    KnownDefect,
    check_crystal_edges,
    content,
    expect,
    grid_content,
    highest_weight_shape,
    is_lattice,
    is_partition_grid,
    is_semistandard_grid,
    pad,
    parse_label,
    parsing_matrix,
    parsing_text,
    partitions,
    random_lattice_word,
    random_parsing,
    random_word_of_shape,
    row_counts,
    ssyt_count,
    syt_count,
    trim,
)

# PTableau.to_text/from_text and to_json/from_json drop content_bound, so a
# parsing that ends in empty factors, such as 21|22||, comes back without
# them.  The timed text and JSON jobs of ``queries`` therefore end in a
# non-empty factor, and ``Queries.defect_probes`` carries such parsings.
CONTENT_BOUND_DEFECT = "PTableau text/JSON round trip drops content_bound"

_DOT_NODE = re.compile(r'^  n(\d+) \[label="([^"]*)"\];$', re.M)
_DOT_EDGE = re.compile(r'^  n(\d+) -> n(\d+) \[label="f(\d+)"\];$', re.M)


def _word_text(letters) -> str:
    return "".join(str(a) for a in letters)


def _stratified_round(rng, strata, make_job):
    jobs = [make_job(rng, stratum) for stratum in strata]
    rng.shuffle(jobs)
    return jobs


_GOLDEN = (5**0.5 - 1) / 2


def _weighted_draws(items, weights):
    """Endless draws of ``items`` in proportion to ``weights``: a Weyl
    sequence fed through the inverse distribution function.  After J draws
    each item has come J * p times, give or take about two, where
    independent draws would be off by sqrt(J * p)."""
    total = sum(weights)
    bounds = list(accumulate(w / total for w in weights))
    x = 0.5
    while True:
        x = (x + _GOLDEN) % 1.0
        yield items[min(bisect_right(bounds, x), len(items) - 1)]


def _random_word_jobs(rng, cells):
    """Per round, one seeded random word of each (rank, length) cell, its
    highest weight shape drawn at its share of all words of the cell."""
    draws = []
    for n, k in cells:
        shapes = list(partitions(k, n))
        draws.append((n, _weighted_draws(shapes, [syt_count(lam) * ssyt_count(lam, n) for lam in shapes])))
    while True:
        yield [(n, _word_text(random_word_of_shape(rng, n, next(shapes)))) for n, shapes in draws]


class Crystal:
    name = "crystal"
    # (rank, word length) cells: 1 to 840 nodes per component.
    cells = [(4, 5), (4, 6), (4, 7), (5, 5), (5, 6), (5, 7)]
    tiny_cells = [(3, 3), (3, 4)]
    pool_rounds = 10
    trace_rounds = 4
    # Layers every traced run of this workload must reach.
    layers = ("core.pack", "core.parse", "operators.ptab", "graph.component", "graph.build",
              "graph.export", "bijections")

    def rounds(self, rng, tiny):
        for jobs in _random_word_jobs(rng, self.tiny_cells if tiny else self.cells):
            rng.shuffle(jobs)
            yield jobs

    def prepare(self, lib, jobs):
        return None

    def run(self, lib, state, job):
        n, text = job
        graph = lib.component(lib.ptableau_from_word(lib.Word.from_text(text, n)))
        return lib.export_dot(graph), lib.export_json(graph)

    def check(self, lib, job, output, memo):
        n, text = job
        letters = tuple(int(ch) for ch in text)
        lam = highest_weight_shape(letters)
        dot, js = output
        obj = json.loads(js)
        labels = obj["nodes"]
        expect(obj["rank"] == n, "wrong rank")
        expect(trim(obj["weightLabel"]) == lam, f"weight label {obj['weightLabel']} != {lam}")
        expect(len(labels) == ssyt_count(lam, n), f"{len(labels)} nodes, expected {ssyt_count(lam, n)}")
        expect(len(set(labels)) == len(labels), "repeated node")
        grids = [parse_label(label) for label in labels]
        expect(all(len(g) == n for g in grids), "node with wrong row count")
        weights = [row_counts(g) for g in grids]
        hw = [k for k, g in enumerate(grids) if is_partition_grid(g)]
        expect(hw == [obj["highestWeight"]], f"partition-shaped nodes {hw}")
        expect(weights[hw[0]] == pad(lam, n), "highest weight node has the wrong weight")
        expect(content(letters, n) in set(weights), "seed weight missing")
        edges = [tuple(e) for e in obj["edges"]]
        check_crystal_edges(weights, edges, n, hw[0])
        expect([label for _, label in _DOT_NODE.findall(dot)] == labels, "DOT nodes differ from JSON")
        dot_edges = sorted((int(u), int(i), int(v)) for u, v, i in _DOT_EDGE.findall(dot))
        expect(dot_edges == sorted(edges), "DOT edges differ from JSON")
        return (n, labels[hw[0]])


class Words:
    name = "words"
    # The crystal cells on words, whose operators are ~30x cheaper, plus
    # one decompose(words_closure(n, k)) a round, its size taken in turn
    # from these (64 to 256 words).
    cells = Crystal.cells
    tiny_cells = Crystal.tiny_cells
    closures = [(2, 6), (2, 7), (2, 8), (3, 4), (3, 5), (4, 3), (4, 4)]
    tiny_closures = [(2, 3), (3, 2)]
    pool_rounds = 10
    trace_rounds = 12
    layers = ("core.parse", "operators.word", "graph.component", "graph.build", "graph.decompose")

    def rounds(self, rng, tiny):
        closures = self.tiny_closures if tiny else self.closures
        sizes = _weighted_draws(closures, [1] * len(closures))
        for words in _random_word_jobs(rng, self.tiny_cells if tiny else self.cells):
            jobs = [("component", n, text) for n, text in words]
            jobs.append(("decompose",) + next(sizes))
            rng.shuffle(jobs)
            yield jobs

    def prepare(self, lib, jobs):
        return None

    def run(self, lib, state, job):
        kind, n, x = job
        if kind == "component":
            return lib.component(lib.Word.from_text(x, n))
        return lib.decompose(lib.words_closure(n, x))

    def check(self, lib, job, output, memo):
        kind, n, x = job
        if kind == "decompose":
            self._check_decompose(n, x, output)
            return job
        letters = tuple(int(ch) for ch in x)
        lam = highest_weight_shape(letters)
        nodes = [u.letters for u in output.nodes]
        expect(len(nodes) == ssyt_count(lam, n), f"{len(nodes)} nodes, expected {ssyt_count(lam, n)}")
        expect(len(set(nodes)) == len(nodes), "repeated node")
        expect(letters in set(nodes), "seed missing from its component")
        expect(all(highest_weight_shape(u) == lam for u in nodes), "node from another component")
        hw = output.highest_weight_node.letters
        expect([u for u in nodes if is_lattice(u)] == [hw], "highest weight node is not the unique lattice word")
        expect(content(hw, n) == pad(lam, n), "highest weight node has the wrong weight")
        expect(trim(output.weight_label) == lam, "wrong weight label")
        index = {u: k for k, u in enumerate(nodes)}
        edges = []
        for u, i, v in output.edges:
            diff = [k for k, (a, b) in enumerate(zip(u.letters, v.letters)) if a != b]
            expect(len(diff) == 1 and u.letters[diff[0]] == i, f"f{i} edge changes more than one {i}")
            edges.append((index[u.letters], i, index[v.letters]))
        check_crystal_edges([content(u, n) for u in nodes], edges, n, index[hw])
        return (n, hw)

    @staticmethod
    def _check_decompose(n, k, comps):
        by_shape = Counter(trim(g.weight_label) for g in comps)
        expected = {lam: syt_count(lam) for lam in partitions(k, n)}
        expect(dict(by_shape) == expected, f"component counts {dict(by_shape)} != f^lambda {expected}")
        for g in comps:
            lam = trim(g.weight_label)
            expect(len(g.nodes) == ssyt_count(lam, n), f"component {lam} has {len(g.nodes)} nodes")
            hw = g.highest_weight_node.letters
            expect(is_lattice(hw) and trim(content(hw, n)) == lam, f"bad highest weight {hw}")
        expect(sum(len(g.nodes) for g in comps) == n**k, "components do not cover [n]^k")


class LR:
    name = "lr"
    rank = 4
    max_size = 4
    tiny_rank = 3
    tiny_size = 2
    pool_rounds = 6
    trace_rounds = 6
    layers = ("core.pack", "operators.ptab", "graph.component", "graph.build", "tensor")

    def rounds(self, rng, tiny):
        """One job per mu: the LR table row of mu against every nu, in a
        seeded order.  Rows repeat from round to round by design, against
        the prebuilt components; a whole row per job keeps every job large
        enough that the latency percentiles do not hinge on the few-node
        components."""
        n, top = (self.tiny_rank, self.tiny_size) if tiny else (self.rank, self.max_size)
        parts = [lam for size in range(1, top + 1) for lam in partitions(size, n)]

        def make_job(rng, mu):
            nus = list(parts)
            rng.shuffle(nus)
            return (n, mu, tuple(nus))

        while True:
            yield _stratified_round(rng, parts, make_job)

    def prepare(self, lib, jobs):
        """Each component once, before the timed loop, reused by every job."""
        n, _, nus = jobs[0]
        return {lam: lib.component(lib.highest_weight_ptableau(lam, rows=n)) for lam in nus}

    def run(self, lib, state, job):
        n, mu, nus = job
        return [lib.lr_table(state[mu], state[nu]) for nu in nus]

    def check(self, lib, job, output, memo):
        n, mu, nus = job
        for nu, table in zip(nus, output):
            if (mu, nu) not in memo:
                expected = {}
                for lam in partitions(sum(mu) + sum(nu), n):
                    if all(a >= b for a, b in zip(pad(lam, len(mu)), mu)):
                        c = len(lib.classical_lr_fillings(lam, mu, nu))
                        if c:
                            expected[lam] = c
                memo[mu, nu] = expected
            expect(table == memo[mu, nu], f"{mu} x {nu}: table {table} != classical {memo[mu, nu]}")
            total = sum(c * ssyt_count(lam, n) for lam, c in table.items())
            expect(total == ssyt_count(mu, n) * ssyt_count(nu, n), f"{mu} x {nu}: dimensions do not add up")
        expect(len(output) == len(nus), "missing tables")
        return None


class Queries:
    name = "queries"
    # One round: the request kinds a CLI user sends, one job each.
    kinds = [
        "text", "text", "json", "json", "dual", "matrix", "rsk",
        "hw", "hw", "evac", "lusztig", "commute", "commute",
    ]
    # Round trips of parsings that end in empty factors (the known defect),
    # per kind and run.
    probes_per_kind = 8
    pool_rounds = 80
    trace_rounds = 40
    layers = ("core.pack", "core.parse", "core.validate", "operators.ptab", "operators.hw",
              "bijections", "evacuation", "evacuation.push", "tensor")

    @staticmethod
    def _lengths(tiny):
        return (3, 5) if tiny else (6, 10)

    def defect_probes(self, rng, tiny):
        """Text and JSON round trips of random parsings ending in one or two
        empty factors, which lose them (CONTENT_BOUND_DEFECT)."""
        jobs = []
        for kind in ("text", "json"):
            for _ in range(self.probes_per_kind):
                n = rng.choice((3, 4))
                letters = tuple(rng.randint(1, n) for _ in range(rng.randint(*self._lengths(tiny))))
                factors = random_parsing(rng, letters, p_cut=0.3, p_empty=0.0)
                factors += [()] * rng.randint(1, 2)
                jobs.append((kind, n, parsing_text(factors), ()))
        return jobs

    def rounds(self, rng, tiny):
        lengths = self._lengths(tiny)

        def make_job(rng, kind):
            n = rng.choice((3, 4))
            k = rng.randint(*lengths)
            mu = ()
            if kind in ("evac", "lusztig"):
                letters = random_lattice_word(rng, n, k)
            elif kind == "commute":
                mu = trim(sorted((rng.randint(0, 3) for _ in range(n)), reverse=True))
                letters = random_lattice_word(rng, n, k // 2 + 1, mu)
            else:
                letters = tuple(rng.randint(1, n) for _ in range(k))
            # A trailing empty factor in a text or JSON round trip hits the
            # known defect; those parsings are the defect probes.
            factors = random_parsing(rng, letters, p_cut=0.3, p_empty=0.3,
                                     trailing=kind not in ("text", "json"))
            return (kind, n, parsing_text(factors), mu)

        while True:
            yield _stratified_round(rng, self.kinds, make_job)

    def prepare(self, lib, jobs):
        return None

    def run(self, lib, state, job):
        kind, n, text, mu = job
        pw = lib.ParsedWord.from_text(text, n)
        if kind == "rsk":
            return lib.rsk(lib.biword_from_parsed(pw))
        tab = lib.ptableau_from_word(pw)
        if kind == "text":
            back = lib.PTableau.from_text(tab.to_text())
            return tab, back, lib.word_from_ptableau(back).to_text()
        if kind == "json":
            back = lib.PTableau.from_json(tab.to_json())
            return tab, back, lib.word_from_ptableau(back).to_text()
        if kind == "dual":
            return tab, lib.dual(tab)
        if kind == "matrix":
            mat = lib.matrix_from_ptableau(tab)
            return mat, lib.parsed_from_biword(lib.biword_from_matrix(mat)).to_text()
        if kind == "hw":
            return lib.to_highest_weight(tab)
        if kind == "evac":
            return tab, lib.evacuate(tab), lib.evacuation_as_operators(tab)
        if kind == "lusztig":
            return tab, lib.lusztig_involution(tab)
        left = lib.highest_weight_ptableau(mu, rows=n)
        product = lib.tensor(left, tab)
        split = left.content_bound
        return lib.push_down(product, split), lib.push_up(product, split)

    def check(self, lib, job, output, memo):
        kind, n, text, mu = job
        factors = [tuple(int(ch) for ch in f) for f in text.split("|")]
        letters = tuple(a for f in factors for a in f)
        sizes = tuple(len(f) for f in factors)
        if kind in ("text", "json"):
            tab, back, out = output
            expect(row_counts(tab.grid) == content(letters, n), "ptableau rows disagree with the letters")
            expect(grid_content(tab.grid, tab.content_bound) == sizes, "strips disagree with the factors")
            if out != text:
                if back.grid == tab.grid and back.content_bound < tab.content_bound:
                    raise KnownDefect(CONTENT_BOUND_DEFECT, f"{text!r} came back as {out!r}")
                raise CheckFailed(f"{kind} round trip: {text!r} came back as {out!r}")
        elif kind == "dual":
            tab, dual = output
            m = [[0] * dual.rows for _ in range(dual.content_bound)]
            for r, row in enumerate(dual.grid):
                for v in row:
                    if v is not None:
                        m[v - 1][r] += 1
            transposed = tuple(zip(*parsing_matrix(factors, n)))
            expect(tuple(map(tuple, m)) == transposed, "dual matrix is not the transpose")
            expect(lib.dual(dual) == tab, "dual is not an involution")
        elif kind == "matrix":
            mat, back = output
            expect(mat.entries == parsing_matrix(factors, n), "wrong matrix")
            expect(back == text, f"matrix round trip: {text!r} came back as {back!r}")
        elif kind == "rsk":
            p, q = output.insertion.grid, output.recording.grid
            lam = highest_weight_shape(letters)
            expect(is_semistandard_grid(p) and is_semistandard_grid(q), "RSK pair not semistandard")
            expect(trim(row_counts(p)) == lam and trim(row_counts(q)) == lam, "RSK shape")
            expect(grid_content(p, n) == content(letters, n), "insertion content")
            expect(grid_content(q, len(factors)) == sizes, "recording content")
        elif kind == "hw":
            top, seq = output
            lam = highest_weight_shape(letters)
            expect(is_partition_grid(top.grid) and row_counts(top.grid) == pad(lam, n), "not the highest weight")
            # e_i moves a box from row i+1 to row i, so it is applied
            # sum_{j<=i} (lambda_j - wt_j) times.
            wt, lam_n, steps = content(letters, n), pad(lam, n), Counter(seq)
            for i in range(1, n):
                expect(steps[i] == sum(lam_n[j] - wt[j] for j in range(i)), f"number of e{i} steps")
        elif kind == "evac":
            tab, evac, ops = output
            lam = row_counts(tab.grid)
            expect(is_partition_grid(tab.grid), "lattice word gave no highest weight")
            expect(row_counts(evac.grid) == lam[::-1], "evacuation is not the lowest weight")
            expect(lib.apply_ops(tab, [("f", i) for i in ops]) == evac, "evacuation differs from its f-sequence")
        elif kind == "lusztig":
            tab, image = output
            expect(is_partition_grid(image.grid) and row_counts(image.grid) == row_counts(tab.grid), "image is not highest weight")
            expect(lib.lusztig_involution(image) == tab, "Lusztig involution applied twice is not the identity")
        else:
            down, up = output
            expect(down == up, "push_down != push_up")
            total = tuple(a + b for a, b in zip(pad(mu, n), content(letters, n)))
            expect(is_partition_grid(down.grid) and row_counts(down.grid) == total, "commutator is not highest weight")
        return None


WORKLOADS = {w.name: w for w in (Crystal(), Words(), LR(), Queries())}
