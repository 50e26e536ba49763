"""Vertex classification, conductive connectivity, and the charge transfer."""
import hashlib
import random

import pytest

from flexdp.discharging import (classify, conductively_connected,
                                run_discharging)
from flexdp.graphs import Multigraph, PotentialAssignment, gen_family, potential
from oracles import random_connected_multigraph


def random_assignment(rng, n):
    return PotentialAssignment(tuple(rng.choice((3, 4, 6)) for _ in range(n)),
                               tuple(rng.choice((0, 1, 2)) for _ in range(n)))


class TestClassify:
    def test_j1_two_vertex_positive(self):
        g, pa = gen_family("jm", 1)
        cls = classify(g, pa)
        assert cls.classes[2] == "positive" and cls.sigma[2] == 2

    def test_cubic_vertex_conductive(self):
        g = Multigraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        cls = classify(g, PotentialAssignment.uniform(4))
        assert cls.classes[0] == "conductive" and cls.sigma[0] == 0

    def test_degree_four_insulated(self):
        g = Multigraph(5, [(0, v, 1) for v in range(1, 5)])
        cls = classify(g, PotentialAssignment.uniform(5))
        assert cls.classes[0] == "insulated" and cls.sigma[0] == -2

    def test_partition_in_weak_degree_regime(self):
        """d(v) <= rho(v) - 1 for all v forces a clean three-way partition."""
        rng = random.Random(61)
        checked = 0
        while checked < 150:
            g = random_connected_multigraph(rng, max_n=6, max_mult=2)
            pa = random_assignment(rng, g.n)
            if any(g.degree(v) > pa.rho[v] - 1 for v in range(g.n)):
                continue
            checked += 1
            assert "unclassified" not in classify(g, pa).classes


class TestConductivePaths:
    def test_adjacent_always_connected(self):
        rng = random.Random(62)
        for _ in range(30):
            g = random_connected_multigraph(rng, max_n=5)
            if not g.pairs():
                continue
            pa = random_assignment(rng, g.n)
            u, v = g.pairs()[0]
            assert conductively_connected(g, pa, u, v)

    def test_through_conductive_interior(self):
        g = Multigraph(3, [(0, 1, 1), (1, 2, 1)])
        pa = PotentialAssignment((6, 4, 6), (0, 0, 0))  # middle: d=2, rho=4
        assert classify(g, pa).classes[1] == "conductive"
        assert conductively_connected(g, pa, 0, 2)

    def test_blocked_by_insulated_interior(self):
        g = Multigraph(5, [(0, 1, 1), (1, 2, 1), (1, 3, 1), (1, 4, 2)])
        pa = PotentialAssignment.uniform(5)  # middle: d=5, insulated
        assert classify(g, pa).classes[1] == "insulated"
        assert not conductively_connected(g, pa, 0, 2)

    def test_same_vertex_rejected(self):
        g = Multigraph(2, [(0, 1, 1)])
        with pytest.raises(ValueError):
            conductively_connected(g, PotentialAssignment.uniform(2), 1, 1)


class TestRunDischarging:
    def test_conservation_on_random_inputs(self):
        """Charge is conserved on 200 seeded inputs, whose reports and
        conductive connectivity between every two vertices are pinned by a
        sha256."""
        rng = random.Random(63)
        digest = hashlib.sha256()
        for _ in range(200):
            g = random_connected_multigraph(rng, max_n=6, max_mult=2)
            pa = random_assignment(rng, g.n)
            report = run_discharging(g, pa)
            assert report.conserved
            assert sum(report.final) == potential(g, pa, range(g.n))
            digest.update(repr(report).encode())
            digest.update(bytes(conductively_connected(g, pa, u, v)
                                for u in range(g.n) for v in range(g.n) if u != v))
        assert digest.hexdigest() == (
            "4d691f4e0a6518857320422c73621fff320173b6c590ad8c604ad2c6d3ec0187")

    def test_all_conductive_graph_stays_at_zero(self):
        g = Multigraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
        pa = PotentialAssignment.uniform(4, value=4)  # every vertex d=2, rho=4
        report = run_discharging(g, pa)
        assert all(f == 0 for f in report.final)
        assert not report.assumption_violations

    def test_j1_ends_positive_with_reported_assumptions(self):
        g, pa = gen_family("jm", 1)
        report = run_discharging(g, pa)
        assert report.ending_positive            # J1 is no counterexample
        assert report.assumption_violations
        assert report.conserved

    def test_assumptions_imply_nonpositive_finals(self):
        """The audited implication, on whatever random inputs satisfy it."""
        rng = random.Random(64)
        clean = 0
        for _ in range(400):
            g = random_connected_multigraph(rng, max_n=6, max_mult=2)
            pa = random_assignment(rng, g.n)
            report = run_discharging(g, pa)
            if not report.assumption_violations:
                clean += 1
                assert report.all_final_nonpositive
        assert clean >= 20  # the sample must actually exercise the branch
