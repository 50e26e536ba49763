"""Worst-cover search, graph enumeration, theorem check, criticality, gap."""
import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from itertools import combinations
from pathlib import Path

import pytest

from flexdp import search
from flexdp.covers import CoverEnumeration, full_lists, straight_cover
from flexdp.flexibility import epsilon_star
from flexdp.graphs import Multigraph, PotentialAssignment, gen_family, mad
from flexdp.search import (BudgetExceeded, canonical_code, criticality_check,
                           enumerate_connected_multigraphs, gap_audit,
                           is_flexible, min_epsilon_over_covers, theorem_check)
from oracles import (canonical_code_by_permutations, colorings_by_brute_force,
                     connected_multigraph_classes, epsilon_every_index,
                     min_epsilon_every_index, random_connected_multigraph,
                     random_multigraph)


class TestCanonicalCode:
    def test_relabel_invariance(self):
        rng = random.Random(71)
        for _ in range(40):
            g = random_connected_multigraph(rng, max_n=5, max_mult=2)
            perm = list(range(g.n))
            rng.shuffle(perm)
            relabeled = Multigraph(g.n, [(perm[u], perm[v], m)
                                         for u, v, m in g.edge_items()])
            assert canonical_code(g) == canonical_code(relabeled)

    def test_matches_permutation_oracle(self):
        """Connected or not, edgeless, one and two vertices included."""
        rng = random.Random(75)
        for _ in range(120):
            g = random_multigraph(rng, max_n=6, max_mult=2)
            assert canonical_code(g) == canonical_code_by_permutations(g)
        for g in (Multigraph(1), Multigraph(2), Multigraph(2, [(0, 1, 3)]),
                  Multigraph(3, [(1, 2, 1)])):
            assert canonical_code(g) == canonical_code_by_permutations(g)

    # sha256 of the newline-joined codes, as the n!-permutation scan wrote them
    @pytest.mark.parametrize("max_vertices, max_mult, digest", [
        (6, 1, "bb97bf953ff758b431d2626c0d1b8b6b319e23e9adfce0d71f8d262c5fdd5006"),
        (5, 2, "4ef64eee25ebf495bb56c450c37978cfc2b099574ff95037eca4cf0e5e37bd26"),
    ])
    def test_code_sequence_pinned(self, max_vertices, max_mult, digest):
        graphs = list(enumerate_connected_multigraphs(max_vertices, max_mult))
        codes = [canonical_code(g) for g in graphs]
        assert codes == [f"{g.n}:" + ",".join(
            str(g.multiplicity(u, v)) for u, v in combinations(range(g.n), 2))
            for g in graphs]
        assert hashlib.sha256("\n".join(codes).encode()).hexdigest() == digest

    def test_counts_of_simple_connected_graphs(self):
        per_n = {}
        for g in enumerate_connected_multigraphs(5, 1):
            per_n[g.n] = per_n.get(g.n, 0) + 1
        assert per_n == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21}
        # (6,1) is OEIS A001349; the mad < 3 counts at the largest n are the
        # next-scale theorem-check inputs: 57 six-vertex and 65 five-vertex
        for (v, m), counts, sparse in [
                ((6, 1), {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112},
                 {1: 1, 2: 1, 3: 2, 4: 5, 5: 16, 6: 57}),
                ((5, 2), {1: 1, 2: 2, 3: 7, 4: 53, 5: 712},
                 {1: 1, 2: 2, 3: 5, 4: 15, 5: 65})]:
            per_n, sparse_n = {}, {}
            for g in enumerate_connected_multigraphs(v, m):
                per_n[g.n] = per_n.get(g.n, 0) + 1
                if mad(g) < 3:
                    sparse_n[g.n] = sparse_n.get(g.n, 0) + 1
            assert per_n == counts and sparse_n == sparse

    @pytest.mark.parametrize("max_vertices, max_mult", [(3, 3), (4, 2), (5, 1)])
    def test_one_graph_per_oracle_class(self, max_vertices, max_mult):
        classes = connected_multigraph_classes(max_vertices, max_mult)
        forms = [(g.n, tuple(sorted(g.edge_items()))) for g in
                 enumerate_connected_multigraphs(max_vertices, max_mult)]
        assert len(forms) == len(classes)
        assert all(sum(form in orbit for form in forms) == 1 for orbit in classes)

    @pytest.mark.parametrize("max_vertices, max_mult", [(3, 3), (4, 2), (5, 1)])
    def test_yields_own_code_in_increasing_order(self, max_vertices, max_mult):
        keys = []
        for g in enumerate_connected_multigraphs(max_vertices, max_mult):
            own = ",".join(str(g.multiplicity(u, v))
                           for u, v in combinations(range(g.n), 2))
            assert canonical_code(g) == f"{g.n}:{own}"
            keys.append((g.n, canonical_code(g)))
        assert all(a < b for a, b in zip(keys, keys[1:]))


class TestWorstCover:
    def test_k4_hits_zero(self):
        g, _ = gen_family("k4")
        report = min_epsilon_over_covers(g)
        assert report.epsilon_min == 0 and report.complete

    def test_never_above_straight_cover(self):
        rng = random.Random(72)
        for _ in range(15):
            g = random_connected_multigraph(rng, max_n=4, max_mult=2)
            report = min_epsilon_over_covers(g)
            assert report.epsilon_min <= \
                epsilon_star(g, straight_cover(g)).epsilon_star

    def test_budget_reports_incomplete(self):
        g, _ = gen_family("k4")
        report = min_epsilon_over_covers(g, budget=10)
        assert not report.complete
        assert report.classes_evaluated == 10 and report.classes_total == 216

    def test_budget_below_one_rejected(self):
        g, _ = gen_family("k4")
        with pytest.raises(ValueError):
            min_epsilon_over_covers(g, budget=0)
        with pytest.raises(ValueError):
            theorem_check(2, 2, budget=0)

    def test_witness_attains_minimum(self):
        g = Multigraph(2, [(0, 1, 2)])
        report = min_epsilon_over_covers(g)
        assert epsilon_star(g, report.witness_cover).epsilon_star == \
            report.epsilon_min == Q(1, 4)

    def test_pinned_enumeration_reaches_the_true_minimum(self):
        """Brute force over all full covers, no relabeling shortcut."""
        from oracles import all_full_covers
        cases = [Multigraph(2, [(0, 1, 2)]),
                 Multigraph(3, [(0, 1, 1), (1, 2, 2)]),
                 Multigraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])]
        for g in cases:
            brute = min(epsilon_star(g, cover).epsilon_star
                        for cover in all_full_covers(g))
            assert brute == min_epsilon_over_covers(g).epsilon_min

    def test_parallel_matches_serial(self):
        g, _ = gen_family("k4")
        serial = min_epsilon_over_covers(g, jobs=1)
        parallel = min_epsilon_over_covers(g, jobs=2)
        assert serial.epsilon_min == parallel.epsilon_min
        assert serial.witness_cover == parallel.witness_cover

    def test_pendant_family_tight_over_all_covers(self):
        # the adversarial cover attains the global minimum exactly
        g, _ = gen_family("jm", 1)
        report = min_epsilon_over_covers(g)
        assert report.epsilon_min == Q(1, 5) and report.complete

    def test_house_graph_clears_the_threshold(self):
        g, _ = gen_family("h5")
        report = min_epsilon_over_covers(g)
        assert report.epsilon_min == Q(1, 4)

    def test_ten_vertex_path_one_large_lp(self):
        """A tree has one cover class, here one LP over 3 * 2^9 = 1,536
        colorings; its optimal distribution is a probability vector on
        proper colorings with every marginal at least 1/3."""
        g = Multigraph(10, [(v, v + 1, 1) for v in range(9)])
        report = min_epsilon_over_covers(g)
        assert report.epsilon_min == Q(1, 3) and report.complete
        assert report.classes_total == 1
        flex = epsilon_star(g, report.witness_cover)
        assert flex.epsilon_star == Q(1, 3)
        proper = set(colorings_by_brute_force(g, report.witness_cover,
                                              full_lists(g.n)))
        assert len(proper) == 1536
        assert all(tuple(phi) in proper and w > 0 for phi, w in flex.distribution)
        assert sum(w for _, w in flex.distribution) == 1
        for v in range(g.n):
            for c in range(3):
                assert sum(w for phi, w in flex.distribution
                           if phi[v] == c) >= Q(1, 3)


class TestOrbitRepresentatives:
    @pytest.mark.parametrize("g, budget", [
        (Multigraph(4, [(0, 1, 2), (0, 2, 1), (1, 2, 1), (2, 3, 2)]), 10 ** 6),
        (gen_family("k4")[0], 10 ** 6),
        (gen_family("k4")[0], 10),
    ], ids=["doubled-tree-pairs", "k4", "k4-budget-10"])
    def test_per_class_matches_per_index_scan(self, g, budget):
        """One LP per orbit gives every index the value a full per-index
        scan gives it, and the same minimum and first witness."""
        enum = CoverEnumeration(g)
        evaluated = min(enum.count, budget)
        values = [epsilon_star(g, enum.at(i)).epsilon_star for i in range(evaluated)]
        report = min_epsilon_over_covers(g, budget=budget, per_class=True)
        assert report.per_class_values == tuple(
            (enum.at(i), v) for i, v in enumerate(values))
        assert report.epsilon_min == min(values)
        assert report.witness_cover == enum.at(values.index(min(values)))
        assert report.classes_evaluated == evaluated
        assert report.orbits < evaluated

    # sha256 of the TSVs written by the full per-index scan this replaced
    @pytest.mark.parametrize("max_vertices, max_mult, digest, classes, orbits", [
        (4, 2, "b24cd72fb9ef2bafa55b475c1997e9e055513c1ffcace3171bd7b42fed246edb",
         289, 76),
        (5, 1, "4dede60e0964be7ae7dc7c9660ff7876a51366bcc1f0d83a651e2ef5967546fe",
         920, 157),
    ])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_tsv_unchanged_by_the_orbit_cut(self, max_vertices, max_mult,
                                            digest, classes, orbits, jobs):
        report = theorem_check(max_vertices, max_mult, jobs=jobs)
        tsv = report.to_tsv()
        assert hashlib.sha256(tsv.encode()).hexdigest() == digest
        assert "orbits" not in tsv
        assert sum(r.classes for r in report.rows) == classes
        assert sum(r.orbits for r in report.rows) == orbits

    def test_pool_has_at_most_one_worker_per_chunk(self, monkeypatch):
        """jobs=1000 asks the pool for one worker per chunk, no more.  The
        recording executor maps in this process and starts none."""
        calls = []

        class Recorder:
            def __init__(self, max_workers):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                tasks = list(tasks)
                calls.append((self.max_workers, len(tasks)))
                return map(fn, tasks)

        serial = theorem_check(4, 2, jobs=1).to_tsv()
        monkeypatch.setattr(search, "ProcessPoolExecutor", Recorder)
        assert theorem_check(4, 2, jobs=1000).to_tsv() == serial
        assert calls == [(23, 23)]


def _skip_cases() -> list:
    """Every (4,2) and (5,1) graph with mad < 3 at its full class count,
    and seeded random multigraphs, some cut by a budget."""
    cases = [(g, CoverEnumeration(g).count)
             for max_vertices, max_mult in ((4, 2), (5, 1))
             for g in enumerate_connected_multigraphs(max_vertices, max_mult)
             if mad(g) < 3]
    rng = random.Random(74)
    for _ in range(12):
        g = random_connected_multigraph(rng, max_n=5, max_mult=2)
        cases.append((g, min(CoverEnumeration(g).count, rng.randint(1, 120))))
    return cases


class TestLpSkip:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_matches_every_index_oracle(self, jobs):
        """Skipping the LPs the uniform floor settles keeps the minimum, the
        first witness and every --per-class value of a per-index scan."""
        for g, limit in _skip_cases():
            enum = CoverEnumeration(g)
            best, first = min_epsilon_every_index(g, limit)
            values = epsilon_every_index(g, limit)
            report = min_epsilon_over_covers(g, budget=limit, jobs=jobs)
            assert (report.epsilon_min, report.witness_cover) == \
                (best, enum.at(first))
            per_class = min_epsilon_over_covers(g, budget=limit, jobs=jobs,
                                                per_class=True)
            assert (per_class.epsilon_min, per_class.witness_cover) == \
                (best, enum.at(first))
            assert per_class.per_class_values == tuple(
                (enum.at(i), v) for i, v in enumerate(values))
            assert report.queries <= per_class.queries <= report.orbits

    @pytest.mark.parametrize("max_vertices, max_mult, solves, queries",
                             [(4, 2, 25, 25), (5, 1, 81, 81)])
    def test_lp_count(self, monkeypatch, max_vertices, max_mult, solves, queries):
        """73 and 157 LPs before the skip; every query solves an LP, since a
        floor of 0 (a color no coloring uses) is settled without a query."""
        from flexdp import flexibility
        solved = []
        original = flexibility.solve

        def counting_solve(program):
            solved.append(program)
            return original(program)

        monkeypatch.setattr(flexibility, "solve", counting_solve)
        report = theorem_check(max_vertices, max_mult)
        assert len(solved) == solves
        assert sum(r.queries for r in report.rows) == queries

    @pytest.mark.parametrize("max_vertices, max_mult, orbits",
                             [(4, 2, 76), (5, 1, 157)])
    def test_one_enumeration_per_orbit(self, monkeypatch, max_vertices,
                                       max_mult, orbits):
        """A query builds its LP from the colorings its uniform floor
        enumerated: one enumeration per orbit, not one more per query."""
        from flexdp import flexibility
        calls = []
        original = flexibility.enumerate_colorings

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(flexibility, "enumerate_colorings", counting)
        report = theorem_check(max_vertices, max_mult)
        assert sum(r.orbits for r in report.rows) == orbits
        assert len(calls) == orbits


class TestTheoremCheck:
    def test_two_vertices(self):
        report = theorem_check(2, 2)
        by_code = {r.code: r for r in report.rows}
        assert by_code["2:2"].epsilon_min == Q(1, 4)
        assert not report.counterexamples

    def test_three_vertices_flags_only_the_doubled_triangle(self):
        report = theorem_check(3, 2)
        exceptions = [r for r in report.rows if r.status == "exception"]
        assert len(exceptions) == 1
        assert exceptions[0].i_subgraph == 1
        assert exceptions[0].epsilon_min == 0
        assert not report.counterexamples and not report.skipped

    def test_simple_four_vertices_all_pass(self):
        report = theorem_check(4, 1)
        assert all(r.status == "ok" for r in report.rows)
        assert all(r.epsilon_min >= Q(1, 5) for r in report.rows)

    def test_parallel_report_identical(self):
        assert theorem_check(3, 2, jobs=2) == theorem_check(3, 2, jobs=1)

    def test_budget_skips_not_passes(self):
        report = theorem_check(3, 2, budget=3)
        assert report.skipped
        assert all(r.status == "skipped" for r in report.rows
                   if r.classes > 3)

    def test_desk_cap_enforced(self):
        """7 vertices at multiplicity at most 1, 5 at multiplicity 2."""
        for max_vertices, max_mult in ((8, 1), (8, 0), (6, 2)):
            with pytest.raises(ValueError,
                               match=rf"outside 1\.\.{max_vertices - 1} "):
                theorem_check(max_vertices, max_mult)
        with pytest.raises(ValueError):
            theorem_check(3, 3)

    def test_tsv_shape(self):
        report = theorem_check(2, 2)
        lines = report.to_tsv().strip().splitlines()
        assert lines[0].startswith("code\t")
        assert len(lines) == len(report.rows) + 1


class TestCriticality:
    def test_inflexible_triangle_critical_at_one_fifth(self):
        g, pa = gen_family("im", 1)
        assert criticality_check(g, pa, Q(1, 5)) == "critical"

    def test_each_component_enumerated_once(self, monkeypatch):
        """I_1 is checked whole, minus each of its 3 edge pairs and minus
        each of its 3 vertices: 7 one-component checks, 7 enumerations."""
        from flexdp.covers import CoverEnumeration
        built = []
        original = CoverEnumeration.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(CoverEnumeration, "__init__", counting_init)
        g, pa = gen_family("im", 1)
        assert criticality_check(g, pa, Q(1, 5)) == "critical"
        assert len(built) == 7

    def test_k4_critical_at_any_positive_eps(self):
        g, pa = gen_family("k4")
        assert criticality_check(g, pa, Q(1, 100)) == "critical"

    def test_single_edge_flexible(self):
        g = Multigraph(2, [(0, 1, 1)])
        assert criticality_check(g, PotentialAssignment.uniform(2),
                                 Q(1, 5)) == "flexible"

    def test_graph_containing_critical_subgraph_not_minimal(self):
        # the doubled triangle plus a pendant vertex
        g = Multigraph(4, [(0, 1, 2), (1, 2, 1), (0, 2, 1), (2, 3, 1)])
        pa = PotentialAssignment.uniform(4)
        assert criticality_check(g, pa, Q(1, 5)) == "non-minimal"

    def test_rho_three_rejected(self):
        g = Multigraph(2, [(0, 1, 1)])
        pa = PotentialAssignment((3, 6), (0, 0))
        with pytest.raises(ValueError):
            is_flexible(g, pa, Q(1, 5))

    def test_budget_guard(self):
        g, pa = gen_family("k4")
        with pytest.raises(BudgetExceeded):
            is_flexible(g, pa, Q(1, 5), budget=10)

    def test_exceptional_doubled_edge_critical_above_one_sixth(self):
        g, pa = gen_family("c2")
        assert criticality_check(g, pa, Q(1, 6)) == "flexible"
        assert criticality_check(g, pa, Q(1, 6) + Q(1, 1000)) == "critical"
        assert criticality_check(g, pa, Q(1, 5)) == "critical"

    def test_sweep_of_three_vertex_multigraphs(self):
        """Verdicts line up with the threshold data: the doubled triangle
        is the unique minimal failure, and its supergraphs are non-minimal."""
        expected = {"3:1,1,2": "critical",
                    "3:1,2,2": "non-minimal",
                    "3:2,2,2": "non-minimal"}
        for g in enumerate_connected_multigraphs(3, 2):
            pa = PotentialAssignment.uniform(g.n)
            verdict = criticality_check(g, pa, Q(1, 5))
            assert verdict == expected.get(canonical_code(g), "flexible")


class TestGapAudit:
    def test_k4_violates_at_full_set(self):
        g, pa = gen_family("k4")
        assert gap_audit(g, pa) == [(0, 1, 2, 3)]

    def test_j1_clean(self):
        g, pa = gen_family("jm", 1)
        assert gap_audit(g, pa) == []

    def test_single_vertex_clean(self):
        assert gap_audit(Multigraph(1, []), PotentialAssignment.uniform(1)) == []

    def test_clean_audit_implies_degree_bound(self):
        rng = random.Random(73)
        for _ in range(80):
            g = random_connected_multigraph(rng, max_n=6, max_mult=2)
            pa = PotentialAssignment(
                tuple(rng.choice((3, 4, 6)) for _ in range(g.n)), (0,) * g.n)
            if gap_audit(g, pa) == []:
                assert all(g.degree(v) <= pa.rho[v] - 1 for v in range(g.n))

    def test_cap(self):
        with pytest.raises(ValueError):
            gap_audit(Multigraph(21, []), PotentialAssignment.uniform(21))


def test_import_loads_only_the_modules_search_uses():
    """The package root re-exports nothing, so importing one module does
    not load (and compile) the gadgets, the discharging rules or the CLI."""
    src = str(Path(search.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, flexdp.search; print(*sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "flexdp.search" in loaded
    assert not loaded & {"flexdp.gadgets", "flexdp.discharging", "flexdp.cli"}
