"""Worst-cover search, graph enumeration, theorem check, criticality, gap."""
import concurrent.futures
import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from itertools import combinations, islice, permutations, product
from pathlib import Path

import pytest

from flexdp import search
from flexdp.colorings import pair_bit
from flexdp.covers import (Cover, CoverEnumeration, full_lists, straight_cover,
                           trivial_list_distribution)
from flexdp.flexibility import _floor, epsilon_star, framework_feasible
from flexdp.graphs import (Multigraph, PotentialAssignment, gen_family, mad,
                           peel)
from flexdp.search import (BudgetExceeded, canonical_code, cover_hash,
                           criticality_check, enumerate_connected_multigraphs,
                           gap_audit, is_flexible, min_epsilon_over_covers,
                           theorem_check)
from oracles import (all_full_covers, canonical_code_by_permutations, carried_cover,
                     colorings_by_brute_force, connected_multigraph_classes,
                     enumerate_by_product_scan,
                     epsilon_every_index, min_epsilon_every_index,
                     random_connected_multigraph, random_cover, random_multigraph,
                     least_relabeling_by_permutations, relabeling_canonical_form,
                     exclusive_pairs_by_brute_force, k_cover_by_brute_force,
                     relabeling_getters, colorings_of_masks_oracle, cover_of_masks,
                     six_colorings_by_brute_force,
                     two_core_by_brute_force, with_pendant_trees)


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
        """Connected or not, edgeless, one and two vertices included; above
        the relabeling cap it raises before tabulating any relabeling."""
        rng = random.Random(75)
        for _ in range(120):
            g = random_multigraph(rng, max_n=6, max_mult=2)
            assert canonical_code(g) == canonical_code_by_permutations(g)
        for g in (Multigraph(1), Multigraph(2), Multigraph(2, [(0, 1, 3)]),
                  Multigraph(3, [(1, 2, 1)])):
            assert canonical_code(g) == canonical_code_by_permutations(g)
        tables = search._relabelings.cache_info().currsize
        with pytest.raises(ValueError, match="at most 8"):
            canonical_code(Multigraph(9, [(v, v + 1, 1) for v in range(8)]))
        assert search._relabelings.cache_info().currsize == tables

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

    @pytest.mark.parametrize("max_vertices, max_mult",
                             [(3, 3), (4, 2), (5, 1), (5, 2), (6, 1)])
    def test_same_sequence_as_product_scan(self, max_vertices, max_mult):
        assert list(enumerate_connected_multigraphs(max_vertices, max_mult)) == \
            list(enumerate_by_product_scan(max_vertices, max_mult))

    @pytest.mark.parametrize("n, top, count", [
        (3, 3, 40), (4, 2, 216), (5, 1, 166), (5, 2, 5589), (6, 1, 1626)])
    def test_candidates_hold_every_canonical_vector(self, n, top, count):
        """The candidates increase strictly and include every vector that
        no relabeling makes smaller, connected or not; the first-row test
        keeps exactly those."""
        candidates = list(search._orderly_candidates(n, top))
        assert len(candidates) == count
        assert all(a < b for a, b in zip(candidates, candidates[1:]))
        maps = relabeling_getters(n)
        canonical = [vec for vec in product(range(top + 1), repeat=n * (n - 1) // 2)
                     if all(m(vec) >= vec for m in maps)]
        groups = search._relabelings(n)[1]
        assert [vec for vec in candidates
                if search._is_canonical(vec, groups)] == canonical

    def test_matches_permutation_oracle_at_seven_vertices(self):
        rng = random.Random(77)
        seven = islice((g for g in enumerate_connected_multigraphs(7, 1) if g.n == 7), 12)
        for g in list(seven) + [random_multigraph(rng, max_n=7, max_mult=2)
                                for _ in range(4)]:
            perm = list(range(g.n))
            rng.shuffle(perm)
            relabeled = Multigraph(g.n, [(perm[u], perm[v], m)
                                         for u, v, m in g.edge_items()])
            assert canonical_code(relabeled) == canonical_code_by_permutations(g)

    def test_least_first_row_shared_by_several_vertices(self):
        """Several vertices tie on the least sorted row, so several first-row
        groups are searched.  In K4, C6, K3,3 and the doubled C4 every
        vertex ties; in the two 5-vertex graphs some tied vertex's group
        misses the minimum, so a search of one tied group would be wrong."""
        cycle = [(v, (v + 1) % 4, 2) for v in range(4)]
        symmetric = [gen_family("k4")[0],
                     Multigraph(6, [(v, (v + 1) % 6, 1) for v in range(6)]),
                     Multigraph(6, [(u, v, 1) for u in range(3) for v in range(3, 6)]),
                     Multigraph(4, cycle)]
        lopsided = [Multigraph(5, [(0, 4, 1), (1, 4, 1), (2, 3, 1), (3, 4, 1)]),
                    Multigraph(5, [(0, 3, 1), (0, 4, 1), (1, 2, 1), (1, 4, 1),
                                   (2, 3, 1), (3, 4, 1)])]
        rng = random.Random(78)
        for g in symmetric + lopsided:
            vec = search._own_vector(g)
            groups = search._relabelings(g.n)[1]
            rows = [sorted(row(vec)) for row, _, _ in groups]
            tied = [x for x, r in enumerate(rows) if r == min(rows)]
            assert len(tied) == (g.n if g in symmetric else 3)
            minima = {min([m(vec) for m in groups[x][1]] + [vec] * (x == 0))
                      for x in tied}
            assert len(minima) == (1 if g in symmetric else 2)
            for _ in range(5):
                perm = list(range(g.n))
                rng.shuffle(perm)
                relabeled = Multigraph(g.n, [(perm[u], perm[v], m)
                                             for u, v, m in g.edge_items()])
                assert canonical_code(relabeled) == canonical_code_by_permutations(g)

    @pytest.mark.parametrize("max_vertices, max_mult", [(3, 3), (4, 2), (5, 1)])
    def test_yields_own_code_in_increasing_order(self, max_vertices, max_mult):
        keys = []
        for g in enumerate_connected_multigraphs(max_vertices, max_mult):
            own = ",".join(str(g.multiplicity(u, v))
                           for u, v in combinations(range(g.n), 2))
            assert canonical_code(g) == f"{g.n}:{own}"
            keys.append((g.n, canonical_code(g)))
        assert all(a < b for a, b in zip(keys, keys[1:]))


class TestLeastRelabeling:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_groups_partition_the_relabelings(self, n):
        """Group x holds the relabelings p with p[0] = x, and the groups in
        vertex order hold every relabeling but the identity, once each, in
        `permutations` order.  Each getter moves the pairs as the oracle's
        getter of its p does, and each row getter reads x's row."""
        pairs, groups = search._relabelings(n)
        assert pairs == tuple(combinations(range(n), 2)) and len(groups) == n
        assert [p for _, _, perms in groups for p in perms] == \
            list(permutations(range(n)))[1:]
        labels = tuple(range(len(pairs)))
        assert [m(labels) for _, maps, _ in groups for m in maps] == \
            [m(labels) for m in relabeling_getters(n)[1:]]
        for x, (row, maps, perms) in enumerate(groups):
            assert len(maps) == len(perms) and all(p[0] == x for p in perms)
            assert row(labels) == tuple(pairs.index((min(x, v), max(x, v)))
                                        for v in range(n) if v != x)

    def test_least_and_first_permutation_match_brute_force(self):
        """On a seeded relabeling of every (5,2) and (6,1) graph, of the
        first 7-vertex (7,1) graphs and of random 7-vertex multigraphs,
        `_least` returns the least vector over all n! relabelings and the
        first permutation attaining it, which `_core_row` maps by."""
        rng = random.Random(86)
        sevens = islice((g for g in enumerate_connected_multigraphs(7, 1)
                         if g.n == 7), 12)
        graphs = (list(enumerate_connected_multigraphs(5, 2))
                  + list(enumerate_connected_multigraphs(6, 1)) + list(sevens)
                  + [random_multigraph(rng, max_n=7, max_mult=2) for _ in range(4)])
        for g in graphs:
            perm = list(range(g.n))
            rng.shuffle(perm)
            vec = search._own_vector(Multigraph(g.n, [(perm[u], perm[v], m)
                                                      for u, v, m in g.edge_items()]))
            assert search._least(g.n, vec) == least_relabeling_by_permutations(g.n, vec)


class TestSparseExtension:
    @pytest.mark.parametrize("max_vertices, max_mult",
                             [(v, m) for v in range(1, 6) for m in range(3)] + [(6, 1)])
    def test_matches_the_scans_sparse_subsequence(self, max_vertices, max_mult):
        """The same codes, edge sets, mad values and order as the orderly
        scan's graphs with mad < 3; each graph's own vector is its code."""
        def own(g):
            return f"{g.n}:" + ",".join(str(g.multiplicity(u, v))
                                        for u, v in combinations(range(g.n), 2))

        scan = [(own(g), sorted(g.edge_items()), mad(g))
                for g in enumerate_connected_multigraphs(max_vertices, max_mult)]
        grown = [(code, sorted(g.edge_items()), density) for code, g, density
                 in search.enumerate_sparse_multigraphs(max_vertices, max_mult)
                 if code == own(g)]
        assert grown == [row for row in scan if row[2] < 3]

    @pytest.mark.parametrize("max_vertices, mads, leasts", [(4, 23, 68), (5, 116, 462)])
    def test_mad_and_code_calls_pinned(self, monkeypatch, max_vertices, mads, leasts):
        """`theorem_check(n, 2)` runs `mad` once per new code that passes
        2|E| < 3n (the orderly scan ran it on 63 graphs at n = 4 and 775 at
        n = 5) and `_least` once per extension candidate and per 2-core
        lookup (13 at n = 4, 47 at n = 5)."""
        calls = {"mad": 0, "_least": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(search, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(search, name, counted)
        theorem_check(max_vertices, 2)
        assert calls == {"mad": mads, "_least": leasts}


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
         289, 42),
        (5, 1, "4dede60e0964be7ae7dc7c9660ff7876a51366bcc1f0d83a651e2ef5967546fe",
         920, 116),
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
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        assert theorem_check(4, 2, jobs=1000).to_tsv() == serial
        assert calls == [(10, 10)]


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
                             [(4, 2, 0, 0), (5, 1, 0, 0), (5, 2, 1, 1),
                              (6, 1, 2, 2)])
    def test_lp_count(self, monkeypatch, max_vertices, max_mult, solves, queries):
        """(4,2) and (5,1) took 73 and 157 LPs before the skip, 25 and 81
        before the rows with a leaf were read off their cores, 16 and 66
        (200 at (5,2), 321 at (6,1)) before the six-coloring certificate,
        10 and 4 (128 at (5,2), 6 at (6,1)) before the k-coloring cover, and
        6 and 1 (31 at (5,2), 3 at (6,1)) before the exclusive pairs;
        queries count the LPs solved."""
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
                             [(4, 2, 42), (5, 1, 116)])
    def test_one_enumeration_per_orbit(self, monkeypatch, max_vertices,
                                       max_mult, orbits):
        """A query builds its LP from the colorings its uniform floor
        enumerated: one enumeration per evaluated class, as masks, not one
        more per query, and none as tuples.  Rows with a leaf evaluate none
        here."""
        from flexdp import flexibility
        calls = {"coloring_masks": [], "enumerate_colorings": []}
        for name, found in calls.items():
            def counting(*args, original=getattr(flexibility, name), found=found):
                found.append(args)
                return original(*args)
            monkeypatch.setattr(flexibility, name, counting)
        report = theorem_check(max_vertices, max_mult)
        assert sum(r.orbits for r in report.rows) == orbits
        assert len(calls["coloring_masks"]) == orbits
        assert calls["enumerate_colorings"] == []

    @pytest.mark.parametrize("max_vertices, max_mult, kept",
                             [(4, 2, 23), (5, 1, 25)])
    def test_one_cover_enumeration_per_graph(self, monkeypatch, max_vertices,
                                             max_mult, kept):
        """Serial chunks use the caller's enumeration instead of building
        their own."""
        built = []
        original = CoverEnumeration.__init__

        def counting(self, g):
            built.append(g)
            original(self, g)

        monkeypatch.setattr(CoverEnumeration, "__init__", counting)
        report = theorem_check(max_vertices, max_mult)
        assert len(report.rows) == len(built) == kept


def _searches(monkeypatch, name, *runs):
    """(g, cover, the search's arguments after n, its answer) of every call
    to `flexibility.<name>` that the theorem checks of `runs` make; the
    cover is the one whose masks `epsilon_below` was given."""
    from flexdp import flexibility
    below, searched = search.epsilon_below, getattr(flexibility, name)
    current, seen = [], []

    def recording_below(g, masks, best):
        current[:] = [g, cover_of_masks(masks)]
        return below(g, masks, best)

    def recording(n, *args):
        found = searched(n, *args)
        seen.append((*current, *args, found))
        return found

    monkeypatch.setattr(search, "epsilon_below", recording_below)
    monkeypatch.setattr(flexibility, name, recording)
    for max_vertices, max_mult in runs:
        theorem_check(max_vertices, max_mult)
    monkeypatch.undo()
    return seen


class TestSixColorings:
    def test_certificate_matches_oracle(self, monkeypatch):
        """Every orbit that reaches the six-coloring search at (4,2) and
        (5,1): the search finds six colorings exactly when the brute-force
        oracle does, every cover either certifies has epsilon* = 1/3 by the
        LP, and so no cover below 1/3 is certified."""
        seen = _searches(monkeypatch, "_six_colorings", (4, 2), (5, 1))
        assert len(seen) == 16 + 66
        certified = 0
        for g, cover, colorings, found in seen:
            tuples = colorings_of_masks_oracle(g.n, colorings)
            assert tuples == colorings_by_brute_force(g, cover, full_lists(g.n))
            assert (found is not None) == six_colorings_by_brute_force(g.n, tuples)
            if found is not None:
                certified += 1
                assert len(found) == 6 and set(found) <= set(colorings)
                assert epsilon_star(g, cover).epsilon_star == Q(1, 3)
        assert certified == 6 + 62

    def test_random_covers_match_oracle(self):
        """On random small covers with colorings: the same answer as the
        oracle, and a certificate only where the LP gives 1/3."""
        from flexdp.flexibility import _six_colorings
        rng = random.Random(16)
        found = 0
        for _ in range(300):
            g = random_connected_multigraph(rng, max_n=4, max_mult=2)
            cover = random_cover(rng, g)
            _, colorings = _floor(g, cover.masks())
            six = _six_colorings(g.n, colorings)
            assert (six is not None) == six_colorings_by_brute_force(
                g.n, colorings_of_masks_oracle(g.n, colorings))
            if six is not None:
                found += 1
                assert epsilon_star(g, cover).epsilon_star == Q(1, 3)
        assert found > 0

    def test_failed_marginal_check_raises(self, monkeypatch):
        """Six colorings whose marginals are not all 1/3 are a bug, not a
        reason to solve the LP."""
        from flexdp import flexibility
        from flexdp.lp import LpInternalError
        g = Multigraph(2, [(0, 1, 2)])
        cover = straight_cover(g)
        monkeypatch.setattr(flexibility, "_six_colorings",
                            lambda n, colorings: [colorings[0]] * 6)
        with pytest.raises(LpInternalError):
            flexibility.epsilon_below(g, cover.masks(), Q(1, 3))


class TestKCover:
    @staticmethod
    def check(n, colorings, k, found):
        """A cover the search returns is at most k of the coloring masks
        that use every pair, and it returns one exactly when the oracle
        finds one."""
        tuples = colorings_of_masks_oracle(n, colorings)
        assert (found is not None) == k_cover_by_brute_force(n, tuples, k)
        if found is not None:
            assert len(found) <= k and set(found) <= set(colorings)
            assert {(v, c) for phi in colorings_of_masks_oracle(n, found)
                    for v, c in enumerate(phi)} == set(product(range(n), range(3)))

    def test_theorem_check_searches_match_oracle(self, monkeypatch):
        """Every search at (4,2) and (5,1): the oracle's answer, and epsilon*
        >= 1/k by the LP wherever a cover is found.  Each asks for k = 4:
        5 and 3 at best = 1/4, and 2 more at (4,2) for 4 exclusive pairs."""
        seen = _searches(monkeypatch, "_k_cover", (4, 2), (5, 1))
        assert [k for *_, k, _ in seen] == [4] * (7 + 3)
        for g, cover, colorings, k, found in seen:
            assert colorings_of_masks_oracle(g.n, colorings) == \
                colorings_by_brute_force(g, cover, full_lists(g.n))
            self.check(g.n, colorings, k, found)
            if found is not None:
                assert epsilon_star(g, cover).epsilon_star >= Q(1, k)
        assert sum(found is not None for *_, found in seen) == 6 + 3

    @pytest.mark.parametrize("k", [4, 5])
    def test_random_covers_match_oracle(self, k):
        from flexdp.flexibility import _k_cover
        rng = random.Random(27 + k)
        found = missed = 0
        for _ in range(150):
            g = random_connected_multigraph(rng, max_n=4, max_mult=2)
            _, colorings = _floor(g, random_cover(rng, g).masks())
            cover = _k_cover(g.n, colorings, k)
            self.check(g.n, colorings, k, cover)
            found += cover is not None
            missed += cover is None and bool(colorings)
        assert found and missed

    def test_cover_missing_a_pair_raises(self, monkeypatch):
        """A search that returns colorings leaving one pair unused, or more
        than k of them, is a bug, not a reason to solve the LP."""
        from flexdp import flexibility
        from flexdp.lp import LpInternalError
        k_cover = flexibility._k_cover
        g, cover, *_, k, _ = next(call for call in _searches(monkeypatch, "_k_cover",
                                                              (4, 2))
                                  if call[-1] is not None)
        assert flexibility.epsilon_below(g, cover.masks(), Q(1, k)) == (None, 0)
        mutants = [     # drop the colorings giving vertex 0 color 0
            lambda n, colorings, k: [
                m for m in k_cover(n, colorings, k) if not m & pair_bit(n, 0, 0)],
            lambda n, colorings, k: list(colorings)]
        for mutant in mutants:
            monkeypatch.setattr(flexibility, "_k_cover", mutant)
            with pytest.raises(LpInternalError):
                flexibility.epsilon_below(g, cover.masks(), Q(1, k))

    def test_never_none_at_a_third(self, monkeypatch):
        """At best = 1/3, `_eps_chunk`'s start and `--per-class`'s value, no
        earlier index holds best, so every cover with a floor in (0, 1/3)
        gets its epsilon*, and the cover search is asked only for as many
        colorings as `_exclusive_pairs` found pairs, never for best's 3."""
        from flexdp import flexibility
        k_cover, pairs = flexibility._k_cover, flexibility._exclusive_pairs
        found, asked = [], []
        monkeypatch.setattr(flexibility, "_exclusive_pairs",
                            lambda *args: found.append(pairs(*args)) or found[-1])
        monkeypatch.setattr(flexibility, "_k_cover",
                            lambda n, colorings, k: asked.append(
                                (k, found[-1].bit_count()))
                            or k_cover(n, colorings, k))
        rng = random.Random(29)
        checked = 0
        for _ in range(200):
            g = random_connected_multigraph(rng, max_n=4, max_mult=2)
            cover = random_cover(rng, g)
            if 0 < _floor(g, cover.masks())[0] < Q(1, 3):
                assert flexibility.epsilon_below(g, cover.masks(), Q(1, 3))[0] == \
                    epsilon_star(g, cover).epsilon_star
                checked += 1
        assert checked and asked
        assert all(k == j for k, j in asked)

    def test_node_cap_zero_is_the_lp_path(self, monkeypatch):
        """With no node to visit every search fails, and the theorem check
        solves the LPs it solved before the cover search, with the same TSV."""
        from flexdp import flexibility
        monkeypatch.setattr(flexibility, "COVER_NODE_CAP", 0)
        report = theorem_check(4, 2)
        assert sum(r.queries for r in report.rows) == 10
        assert hashlib.sha256(report.to_tsv().encode()).hexdigest() == \
            "b24cd72fb9ef2bafa55b475c1997e9e055513c1ffcace3171bd7b42fed246edb"


class TestExclusivePairs:
    def test_theorem_check_settles_match_oracle(self, monkeypatch):
        """Every search at (4,2), (5,1) and (5,2): as many pairs as the
        brute-force oracle finds, and every cover the rule settles has the
        value it returns, 1/j, as its epsilon* by the LP."""
        from flexdp import flexibility
        below, pairs = search.epsilon_below, flexibility._exclusive_pairs
        seen = []

        def recording_pairs(n, colorings):
            found = pairs(n, colorings)
            seen.append([colorings, found])
            return found

        def recording_below(g, masks, best):
            searches = len(seen)
            answer = below(g, masks, best)
            if len(seen) > searches:
                seen[-1] += [g, cover_of_masks(masks), answer]
            return answer

        monkeypatch.setattr(search, "epsilon_below", recording_below)
        monkeypatch.setattr(flexibility, "_exclusive_pairs", recording_pairs)
        for max_vertices, max_mult in (4, 2), (5, 1), (5, 2):
            theorem_check(max_vertices, max_mult)
        monkeypatch.undo()
        settled = 0
        for colorings, found, g, cover, (value, lps) in seen:
            tuples = colorings_of_masks_oracle(g.n, colorings)
            assert tuples == colorings_by_brute_force(g, cover, full_lists(g.n))
            assert found.bit_count() == exclusive_pairs_by_brute_force(g.n, tuples)
            assert not any((m & found).bit_count() > 1 for m in colorings)
            if not lps:
                settled += 1
                assert value == Q(1, found.bit_count()) == \
                    epsilon_star(g, cover).epsilon_star
        assert (len(seen), settled) == (6 + 1 + 31, 6 + 1 + 30)

    def test_random_covers_match_oracle(self):
        from flexdp.flexibility import _exclusive_pairs
        rng = random.Random(31)
        sizes = set()
        for _ in range(300):
            g = random_connected_multigraph(rng, max_n=4, max_mult=2)
            _, colorings = _floor(g, random_cover(rng, g).masks())
            found = _exclusive_pairs(g.n, colorings)
            assert found.bit_count() == exclusive_pairs_by_brute_force(
                g.n, colorings_of_masks_oracle(g.n, colorings))
            sizes.add(found.bit_count())
        assert len(sizes) > 2

    def test_failed_certificates_raise(self, monkeypatch):
        """Pairs that one coloring uses two of, and a cover by j colorings
        that leaves a pair unused or holds more than j, are bugs, not
        reasons to solve the LP.  At best = 1/3 only the rule searches."""
        from flexdp import flexibility
        from flexdp.lp import LpInternalError
        k_cover = flexibility._k_cover
        settled = [(g, cover, k, colorings[0])
                   for g, cover, colorings, k, found in _searches(
                       monkeypatch, "_k_cover", (4, 2))
                   if found is not None and _floor(g, cover.masks())[0] != Q(1, k)
                   and flexibility.epsilon_below(g, cover.masks(), Q(1, 3))
                   == (Q(1, k), 0)]
        g, cover, k, used = settled[0]      # one coloring's pairs
        monkeypatch.setattr(flexibility, "_exclusive_pairs",
                            lambda n, colorings: used)
        with pytest.raises(LpInternalError, match="exclusive pairs"):
            flexibility.epsilon_below(g, cover.masks(), Q(1, 3))
        monkeypatch.undo()
        mutants = [     # drop the colorings giving vertex 0 color 0
            lambda n, colorings, k: [
                m for m in k_cover(n, colorings, k) if not m & pair_bit(n, 0, 0)],
            lambda n, colorings, k: list(colorings)]
        for mutant in mutants:
            monkeypatch.setattr(flexibility, "_k_cover", mutant)
            with pytest.raises(LpInternalError, match="cover check"):
                flexibility.epsilon_below(g, cover.masks(), Q(1, 3))


class TestTwoCore:
    def test_peel_and_the_pendant_fact(self):
        """On random multigraphs with pendant trees hung on: the peel finds
        the brute-force 2-core, every cover has the epsilon* of its
        restriction to the core, and the core's uniform floor is no lower."""
        rng = random.Random(81)
        covers = trees = 0
        while covers < 200:
            g = with_pendant_trees(
                rng, random_connected_multigraph(rng, max_n=4, max_mult=2),
                rng.randint(0, 3))
            core, oracle = peel(g, 1), two_core_by_brute_force(g)
            if len(oracle) == 1:
                trees += 1
                assert len(core) == 1
            else:
                assert core == oracle
            k = g.induced(core)
            place = {v: i for i, v in enumerate(core)}
            for _ in range(4):
                h = random_cover(rng, g)
                hk = Cover({(place[u], place[v]): perms
                            for (u, v), perms in h.matchings.items()
                            if u in place and v in place})
                assert epsilon_star(g, h).epsilon_star == \
                    epsilon_star(k, hk).epsilon_star
                assert _floor(k, hk.masks())[0] >= _floor(g, h.masks())[0]
                covers += 1
        assert trees

    def test_core_row_is_the_canonical_code(self):
        """The map onto the code's graph keeps every multiplicity."""
        rng = random.Random(83)
        for _ in range(60):
            g = with_pendant_trees(
                rng, random_connected_multigraph(rng, max_n=5, max_mult=2),
                rng.randint(0, 2))
            core = peel(g, 1)
            code, phi = search._core_row(g, core)
            assert code == canonical_code(g.induced(core))
            row = _graph_of(code)
            assert sorted(phi) == core and sorted(phi.values()) == list(range(len(core)))
            assert all(g.multiplicity(u, v) == row.multiplicity(phi[u], phi[v])
                       for u, v in combinations(core, 2))


def _graph_of(code: str) -> Multigraph:
    """The graph whose own multiplicity vector is the code."""
    n, vec = code.split(":")
    return Multigraph(int(n), [(u, v, int(m)) for (u, v), m in zip(
        combinations(range(int(n)), 2), vec.split(",") if vec else ()) if int(m)])


def _leaf_graphs(max_vertices: int, max_mult: int) -> list[Multigraph]:
    return [g for g in enumerate_connected_multigraphs(max_vertices, max_mult)
            if mad(g) < 3 and len(peel(g, 1)) < g.n]


class TestLeafRows:
    @pytest.mark.parametrize("max_vertices, max_mult, leaves",
                             [(4, 2, 13), (5, 1, 14), (5, 2, 47)])
    def test_match_every_index_oracle(self, max_vertices, max_mult, leaves):
        """A row with a leaf, read off its 2-core's row, has the minimum and
        first witness of a per-index scan of its own covers, and evaluates
        no class of its own."""
        rows = {r.code: r for r in theorem_check(max_vertices, max_mult).rows}
        graphs = _leaf_graphs(max_vertices, max_mult)
        assert len(graphs) == leaves
        for g in graphs:
            enum = CoverEnumeration(g)
            best, first = min_epsilon_every_index(g, enum.count)
            row = rows[canonical_code(g)]
            assert (row.epsilon_min, row.witness_hash) == \
                (best, cover_hash(enum.at(first)))
            assert row.orbits == row.queries == 0

    def test_missing_core_row_raises(self, monkeypatch):
        monkeypatch.setattr(search, "_core_row", lambda g, core: ("0:", {}))
        with pytest.raises(RuntimeError, match="is not a row"):
            theorem_check(3, 1)

    # (max vertices, max multiplicity, budget, classes evaluated and LPs
    # solved over all rows, sha256 of the TSV); the (4,2), (5,1) and (5,2)
    # budget 20 TSVs are those from before leaf rows were read off their
    # cores.  Before the k-coloring cover the LPs were 12, 12, 2, 78, 112
    # and 124, and (5,2) evaluated 190 and 431 classes at budgets 5 and 20:
    # a core row now holds more Nones, which its leaf rows evaluate.  Before
    # the exclusive pairs the LPs were 10, 8, 1, 47, 31 and 31.
    BUDGET_CUTS = [
        (4, 2, 2, 21, 0,
         "fc494268b1ad46f77d2862d68781fc688dc88c556f17ff592abd5f1dbaa8141a"),
        (4, 2, 7, 37, 0,
         "36d0a34a170649af7fc2c1e160ab8c5dc48dc1aa6d76f51b2db5846b634d6511"),
        (5, 1, 10, 62, 0,
         "ef1df3056695f51b6409e4cdfeff2974888a0bfbcce8e96573d353c2407ad5b2"),
        (5, 2, 5, 191, 0,
         "496524ca198f4c29339a5649ca9a76e28309ace383bc39c47d75c8f5a141fa5f"),
        (5, 2, 20, 451, 1,
         "be169c4695382aaf9c61252a488e1b19604327ea7f3522ab56310887b0fb3944"),
        (5, 2, 50, 396, 1,
         "c74c63a4b7f27e8bada4c2314fe42f7837a534f8a4d97a1b9b8ad941c388b0d2"),
    ]

    def test_any_cut_matches_every_index_oracle(self):
        """Every (4,2) leaf graph, its first 1, 3 or all classes read off
        its core's row cut at every budget or complete: the minimum and
        first index of a per-index scan of those classes."""
        for g in _leaf_graphs(4, 2):
            enum = CoverEnumeration(g)
            code, phi = search._core_row(g, peel(g, 1))
            core_enum = CoverEnumeration(_graph_of(code))
            for core_limit in range(1, core_enum.count + 1):
                [(known, _, _)] = search._class_minima([(core_enum, core_limit)],
                                                       1, False)
                for limit in sorted({1, min(3, enum.count), enum.count}):
                    best, first, _, _ = search._from_core(
                        enum, limit, phi, core_enum, known)
                    assert (best, first) == min_epsilon_every_index(g, limit)

    def test_class_index_carries_a_cover_onto_its_core_row(self):
        """On seeded leaf graphs, the index `class_index` gives a cover and
        the map onto its core's row graph is in the S3^n class of the cover
        the oracle carries along that map."""
        rng = random.Random(85)
        for _ in range(60):
            g = with_pendant_trees(
                rng, random_connected_multigraph(rng, max_n=4, max_mult=2),
                rng.randint(1, 3))
            code, phi = search._core_row(g, peel(g, 1))
            row = _graph_of(code)
            core_enum = CoverEnumeration(row)
            cover = random_cover(rng, g)
            j = core_enum.class_index(cover, phi)
            assert relabeling_canonical_form(row, core_enum.at(j)) == \
                relabeling_canonical_form(row, carried_cover(cover, phi))

    def test_budget_cut_tsv_pinned(self):
        """The TSVs and the classes and LPs the runs spent.  The runs reach
        leaf rows cut by the budget whose core's row is complete, and leaf
        rows cut with their core's row.  No leaf row here has fewer classes
        than its core's, so none is complete with its core's row cut: the
        oracle test above covers that case."""
        cases = set()
        for max_vertices, max_mult, budget, orbits, queries, digest in self.BUDGET_CUTS:
            report = theorem_check(max_vertices, max_mult, budget=budget)
            assert hashlib.sha256(report.to_tsv().encode()).hexdigest() == digest
            assert (sum(r.orbits for r in report.rows),
                    sum(r.queries for r in report.rows)) == (orbits, queries)
            classes = {r.code: r.classes for r in report.rows}
            for g in _leaf_graphs(max_vertices, max_mult):
                core = canonical_code(g.induced(peel(g, 1)))
                cases.add((classes[canonical_code(g)] > budget,
                           classes[core] > budget))
        assert {(True, False), (True, True)} <= cases


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
        """Also at (5,2) cut at 50 classes, where leaf rows evaluate the
        classes their core's row left unknown."""
        assert theorem_check(3, 2, jobs=2) == theorem_check(3, 2, jobs=1)
        assert theorem_check(5, 2, jobs=2, budget=50) == \
            theorem_check(5, 2, jobs=1, budget=50)

    def test_budget_skips_not_passes(self):
        report = theorem_check(3, 2, budget=3)
        assert report.skipped
        assert all(r.status == "skipped" for r in report.rows
                   if r.classes > 3)

    def test_desk_cap_enforced(self):
        """7 vertices at every multiplicity."""
        for max_vertices, max_mult in ((8, 1), (8, 0), (8, 2)):
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

    def test_is_flexible_checks_every_full_cover(self):
        """Random connected graphs on at most 4 vertices with at most 216
        full covers and some rho = 4 vertex: `is_flexible` is True exactly
        when every full cover is feasible, at the drawn basepoints and with
        each of them moved by one color."""
        rng = random.Random(7)
        cases = 0
        while cases < 40:
            g = random_connected_multigraph(rng, max_n=4, max_mult=2)
            rho = tuple(rng.choice((4, 6)) for _ in range(g.n))
            basepoint = tuple(rng.randrange(3) for _ in range(g.n))
            eps = Q(rng.randint(1, 8), rng.randint(9, 40))
            covers = list(islice(all_full_covers(g), 217))
            if 4 not in rho or len(covers) > 216:
                continue
            cases += 1
            dist = trivial_list_distribution(g.n)
            expected = all(framework_feasible(g, PotentialAssignment(rho, basepoint),
                                              c, dist, eps) is not None for c in covers)
            moved = tuple((b + 1) % 3 for b in basepoint)
            for placed in (basepoint, moved):
                assert is_flexible(g, PotentialAssignment(rho, placed), eps) == expected

    @pytest.mark.parametrize("edges, basepoint, eps, failing", [
        ([(0, 1, 1), (1, 2, 1), (0, 2, 1)], (2, 1, 2), Q(2, 9), 24),
        ([(0, 2, 1), (1, 2, 2)], (1, 1, 0), Q(6, 37), 12),
    ], ids=["triangle", "doubled-path"])
    def test_rho_four_basepoints_do_not_hide_a_failing_cover(self, edges, basepoint,
                                                             eps, failing):
        """With rho = (4, 4, 6), `failing` of the full covers admit no
        eps-distribution, at these basepoints as at (0, 0, 0), and the
        graph is critical; the tree-pinned covers alone all admit one at
        these basepoints."""
        g = Multigraph(3, edges)
        dist = trivial_list_distribution(3)
        for placed in (basepoint, (0, 0, 0)):
            pa = PotentialAssignment((4, 4, 6), placed)
            assert sum(framework_feasible(g, pa, c, dist, eps) is None
                       for c in all_full_covers(g)) == failing
            assert not is_flexible(g, pa, eps)
            assert criticality_check(g, pa, eps) == "critical"
        enum = CoverEnumeration(g)
        pa = PotentialAssignment((4, 4, 6), basepoint)
        assert all(framework_feasible(g, pa, enum.at(i), dist, eps) is not None
                   for i in range(enum.count))

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
    not load (and compile) the gadgets, the discharging rules or the CLI;
    nor does search load the process pool, which only jobs > 1 uses."""
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
    assert not loaded & {"concurrent.futures.process", "multiprocessing"}
