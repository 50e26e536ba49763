"""Worst-cover search, graph enumeration, theorem check, criticality, gap."""
import random
from fractions import Fraction as Q

import pytest

from flexdp.covers import straight_cover
from flexdp.flexibility import epsilon_star
from flexdp.graphs import Multigraph, PotentialAssignment, gen_family
from flexdp.search import (BudgetExceeded, canonical_code, criticality_check,
                           enumerate_connected_multigraphs, gap_audit,
                           is_flexible, min_epsilon_over_covers, theorem_check)
from oracles import random_connected_multigraph


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

    def test_counts_of_simple_connected_graphs(self):
        per_n = {}
        for g in enumerate_connected_multigraphs(5, 1):
            per_n[g.n] = per_n.get(g.n, 0) + 1
        assert per_n == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21}


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
        with pytest.raises(ValueError):
            theorem_check(6, 1)
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
