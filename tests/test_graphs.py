"""Multigraph structure, potential arithmetic, mad, and family generators."""
import random
from fractions import Fraction as Q
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from flexdp.graphs import (GraphError, GraphFormatError, Multigraph,
                           PotentialAssignment, find_I_subgraph, gen_family,
                           mad, mad_subset_oracle, parse_graph, peel,
                           potential, serialize_graph, sigma)
from flexdp.search import enumerate_connected_multigraphs
from oracles import (components_by_union_find, find_I_subgraph_oracle,
                     random_connected_multigraph, random_multigraph, random_tree,
                     two_core_by_brute_force, with_pendant_trees)


class TestConstruction:
    def test_doubled_edge(self):
        g = Multigraph(2, [(0, 1, 2)])
        assert g.multiplicity(0, 1) == 2
        assert g.degree(0) == 2

    def test_neighbour_rows_increase(self):
        """`neighbors` and `bfs` read the adjacency rows unsorted: the
        constructor fills them in increasing order whatever the edge order."""
        rng = random.Random(41)
        for _ in range(300):
            g = random_multigraph(rng, max_n=8, max_mult=3)
            edges = list(g.edge_items())
            rng.shuffle(edges)
            flipped = [(v, u, m) for u, v, m in reversed(edges)]
            unit = [(u, v, 1) for u, v, m in edges for _ in range(m)]
            rng.shuffle(unit)
            for h in (Multigraph(g.n, edges), Multigraph(g.n, flipped),
                      Multigraph(g.n, unit)):
                assert h == g
                for v in range(h.n):
                    row = h.neighbors(v)
                    assert list(row) == sorted(set(row))

    def test_i1_by_hand(self):
        g = Multigraph(3, [(0, 1, 2), (1, 2, 1), (0, 2, 1)])
        assert g == gen_family("im", 1)[0]

    def test_loop_rejected(self):
        with pytest.raises(GraphError):
            Multigraph(2, [(0, 0, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            Multigraph(2, [(0, 2, 1)])

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(GraphError):
            Multigraph(2, [(0, 1, 0)])

    def test_duplicate_pairs_sum(self):
        g = Multigraph(3, [(0, 1, 1), (1, 0, 1), (0, 1, 1)])
        assert g.multiplicity(0, 1) == 3

    @pytest.mark.parametrize("query, subset", [
        ("induced", [0, 1, 7]), ("induced", [-1, 0, 1]), ("boundary", [1, 9])])
    def test_vertex_set_out_of_range_rejected(self, query, subset):
        """A vertex outside 0..n-1 neither adds a phantom vertex, moves an
        edge, nor is ignored: it raises as `edges_within` does."""
        path = Multigraph(3, [(0, 1, 1), (1, 2, 1)])
        with pytest.raises(GraphError, match="out of range"):
            getattr(path, query)(subset)
        assert path.induced([0, 1]) == Multigraph(2, [(0, 1, 1)])
        assert path.boundary([1]) == 2


class TestBreadthFirstWalk:
    def test_neighbours_in_increasing_order_and_restart(self):
        g = Multigraph(5, [(0, 3, 1), (0, 1, 2), (2, 4, 1)])
        assert g.bfs() == ((0, 1, 3, 2, 4), (-1, 0, -1, 0, 2))
        assert g.components() == [[0, 1, 3], [2, 4]]
        assert not g.is_connected()

    def test_matches_union_find_on_random_multigraphs(self):
        rng = random.Random(910)
        disconnected = 0
        for _ in range(300):
            n = rng.randint(0, 8)
            g = Multigraph(n, [(u, v, rng.randint(1, 3))
                               for u, v in combinations(range(n), 2)
                               if rng.random() < 0.3])
            order, parent = g.bfs()
            assert sorted(order) == list(range(n))
            place = {v: k for k, v in enumerate(order)}
            for v in range(n):
                if parent[v] >= 0:
                    assert place[parent[v]] < place[v]
                    assert g.multiplicity(parent[v], v) >= 1
            comps = components_by_union_find(g)
            assert g.components() == comps
            assert [v for v in order if parent[v] < 0] == [c[0] for c in comps]
            assert g.is_connected() == (len(comps) <= 1)
            disconnected += len(comps) > 1
        assert disconnected > 50


class TestPotential:
    def test_im_potential_is_two(self):
        for m in (1, 2, 3, 4):
            g, pa = gen_family("im", m)
            assert potential(g, pa, range(g.n)) == 2

    def test_k4_potential_zero(self):
        g, pa = gen_family("k4")
        assert potential(g, pa, range(4)) == 0

    def test_empty_subset(self):
        g, pa = gen_family("jm", 2)
        assert potential(g, pa, []) == 0

    def test_sigma_examples(self):
        g, pa = gen_family("im", 1)
        assert sigma(g, pa, 2) == 2          # the degree-2 cycle vertex
        lonely = Multigraph(1, [])
        assert sigma(lonely, PotentialAssignment.uniform(1), 0) == 6
        c2 = Multigraph(2, [(0, 1, 2)])
        pa4 = PotentialAssignment.uniform(2, value=4)
        assert sigma(c2, pa4, 0) == 0

    def test_additivity_over_disjoint_parts(self):
        rng = random.Random(5)
        for _ in range(60):
            g = random_connected_multigraph(rng, max_n=6)
            pa = PotentialAssignment(
                tuple(rng.choice((3, 4, 6)) for _ in range(g.n)),
                (0,) * g.n)
            cut = [v for v in range(g.n) if rng.random() < 0.5]
            rest = [v for v in range(g.n) if v not in cut]
            assert potential(g, pa, range(g.n)) == \
                potential(g, pa, cut) + potential(g, pa, rest) - 4 * g.boundary(cut)

    def test_sigma_sums_to_potential(self):
        rng = random.Random(6)
        for _ in range(60):
            g = random_connected_multigraph(rng, max_n=6)
            pa = PotentialAssignment(
                tuple(rng.choice((3, 4, 6)) for _ in range(g.n)),
                (0,) * g.n)
            assert sum(sigma(g, pa, v) for v in range(g.n)) == \
                potential(g, pa, range(g.n))


class TestMad:
    def test_k4_regular(self):
        assert mad(gen_family("k4")[0]) == 3

    def test_family_formulas_and_oracle_agreement(self):
        for m in (1, 2, 3, 4, 5, 6):
            im = gen_family("im", m)[0]
            jm = gen_family("jm", m)[0]
            assert mad(im) == Q(2 * (3 * m + 1), 2 * m + 1) == mad_subset_oracle(im)
            assert mad(jm) == Q(6 * m + 8, 2 * m + 3) == mad_subset_oracle(jm)
            assert mad(im) < 3 and mad(jm) < 3

    def test_flow_matches_subsets_on_random_graphs(self):
        rng = random.Random(99)
        for _ in range(80):
            g = random_connected_multigraph(rng, max_n=8, max_mult=2)
            assert mad(g) == mad_subset_oracle(g)

    def test_flow_matches_subsets_on_disconnected_graphs(self):
        rng = random.Random(76)
        for _ in range(150):
            g = random_multigraph(rng, max_n=8, max_mult=3)
            assert mad(g) == mad_subset_oracle(g)
        for n in (1, 2, 5):
            assert mad(Multigraph(n)) == 0 == mad_subset_oracle(Multigraph(n))

    def test_densest_set_avoids_vertex_zero(self):
        k4 = [(u, v, 1) for u, v in combinations(range(1, 5), 2)]
        cases = {Multigraph(5, k4 + [(0, 1, 1)]): Q(3),      # pendant on K4
                 Multigraph(5, k4): Q(3),                    # isolated 0
                 Multigraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 5)]): Q(5),
                 Multigraph(6, [(0, 1, 1), (1, 2, 1), (2, 3, 2), (3, 4, 2),
                                (4, 2, 2), (4, 5, 1)]): Q(4)}
        for g, expected in cases.items():
            assert mad(g) == expected == mad_subset_oracle(g)

    @pytest.mark.parametrize("max_vertices, max_mult", [(5, 2), (6, 1)])
    def test_flow_matches_subsets_on_enumerated_graphs(self, max_vertices, max_mult):
        for g in enumerate_connected_multigraphs(max_vertices, max_mult):
            assert mad(g) == mad_subset_oracle(g)

    def test_flow_matches_subsets_with_pendant_trees(self):
        """The peel removes the trees and the min cuts run on what is left."""
        rng = random.Random(84)
        for _ in range(150):
            g = with_pendant_trees(
                rng, random_connected_multigraph(rng, max_n=6, max_mult=2),
                rng.randint(0, 5))
            assert mad(g) == mad_subset_oracle(g)

    def test_forests_and_isolated_vertices(self):
        """An empty 2-core: mad is 2(c-1)/c for the largest component."""
        rng = random.Random(85)
        for _ in range(60):
            sizes = [rng.randint(1, 5) for _ in range(rng.randint(1, 4))]
            edges, base = [], 0
            for size in sizes:
                edges += [(base + u, base + v, 1)
                          for u, v, _ in random_tree(rng, size).edge_items()]
                base += size
            g = Multigraph(base, edges)
            c = max(sizes)
            assert peel(g, 0) == []
            assert mad(g) == Q(2 * (c - 1), c) == mad_subset_oracle(g)
        cases = {Multigraph(9, [(0, 1, 1), (1, 2, 1), (3, 4, 1), (3, 5, 1),
                                (3, 6, 1)]): Q(3, 2),
                 Multigraph(4, [(1, 3, 1)]): Q(1),
                 Multigraph(3, [(0, 1, 2)]): Q(2)}       # a doubled edge is a core
        for g, expected in cases.items():
            assert mad(g) == expected == mad_subset_oracle(g)

    def test_peel_finds_the_two_core(self):
        """The oracle answers [0] when no set has minimum degree 2."""
        rng = random.Random(86)
        for _ in range(100):
            g = random_multigraph(rng, max_n=8, max_mult=2)
            oracle = two_core_by_brute_force(g)
            assert peel(g, 0) == (oracle if len(oracle) > 1 else [])

    def test_long_cycle_with_a_doubled_edge(self):
        """Nothing peels, so the min cuts run on the whole 500-vertex
        network; the whole graph is the densest set."""
        n = 500
        g = Multigraph(n, [(v, (v + 1) % n, 1) for v in range(n)] + [(0, 1, 1)])
        assert mad(g) == Q(501, 250)

    def test_single_vertex(self):
        assert mad(Multigraph(1, [])) == 0

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            mad(Multigraph(0, []))


class TestFindISubgraph:
    def test_self_match(self):
        for m in (1, 2, 3):
            g = gen_family("im", m)[0]
            found = find_I_subgraph(g)
            assert found is not None and found[0] == m

    def test_j_family_clean(self):
        for m in (1, 2, 3):
            assert find_I_subgraph(gen_family("jm", m)[0]) is None

    def test_simple_graphs_never_match(self):
        assert find_I_subgraph(gen_family("k4")[0]) is None
        assert find_I_subgraph(gen_family("h5")[0]) is None

    def test_embedded_with_extra_edges(self):
        # I_1 plus a pendant vertex still matches with m = 1
        g = Multigraph(4, [(0, 1, 2), (1, 2, 1), (0, 2, 1), (2, 3, 1)])
        found = find_I_subgraph(g)
        assert found is not None and found[0] == 1

    def test_agrees_with_brute_force(self):
        """The whole witness, not only m: the search's first cycle is the
        lexicographically first vertex sequence, which is the oracle's."""
        rng = random.Random(17)
        graphs = [random_connected_multigraph(rng, max_n=6, max_mult=2)
                  for _ in range(120)]
        graphs += enumerate_connected_multigraphs(5, 2)
        for g in graphs:
            assert find_I_subgraph(g) == find_I_subgraph_oracle(g)


class TestGenerators:
    def test_im_counts(self):
        g, _ = gen_family("im", 3)
        assert g.n == 7 and g.edge_total() == 10

    def test_jm_counts(self):
        g, _ = gen_family("jm", 1)
        assert g.n == 5 and g.edge_total() == 7
        g2, _ = gen_family("jm", 2)
        assert g2.n == 7 and g2.edge_total() == 10

    def test_c2_exceptional_values(self):
        g, pa = gen_family("c2")
        assert sorted(pa.rho) == [4, 6]
        assert potential(g, pa, range(2)) == 2

    def test_s_family_sizes(self):
        g, _ = gen_family("s", chains=[1, 1])
        # 5-cycle plus two single diamonds plus two exit edges
        assert g.n == 5 + 6 and g.edge_total() == 5 + 10 + 2
        # 2-degenerate: peeling low-degree vertices empties the graph
        remaining = g
        while remaining.n:
            v = next(w for w in range(remaining.n) if remaining.degree(w) <= 2)
            remaining = remaining.delete_vertex(v)

    def test_h5_shape(self):
        g, _ = gen_family("h5")
        assert g.n == 5 and g.edge_total() == 7
        assert sorted(g.degree(v) for v in range(5)) == [2, 3, 3, 3, 3]

    def test_bad_params(self):
        with pytest.raises(GraphError):
            gen_family("im", 0)
        with pytest.raises(GraphError):
            gen_family("s", chains=[])
        with pytest.raises(GraphError):
            gen_family("nope")


@st.composite
def multigraph_strategy(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            mult = draw(st.integers(min_value=0, max_value=3))
            if mult:
                edges.append((u, v, mult))
    return Multigraph(n, edges)


class TestTextFormat:
    @settings(max_examples=120)
    @given(multigraph_strategy(), st.randoms(use_true_random=False))
    def test_round_trip(self, g, rnd):
        rho = tuple(rnd.choice((3, 4, 6)) for _ in range(g.n))
        bp = tuple(rnd.choice((0, 1, 2)) for _ in range(g.n))
        pa = PotentialAssignment(rho, bp)
        g2, pa2 = parse_graph(serialize_graph(g, pa))
        assert g2 == g and pa2 == pa

    def test_parse_defaults_and_comments(self):
        text = """
        # a doubled edge
        vertices 2
        edge 0 1 1
        edge 1 0 1   # duplicate lines sum
        """
        g, pa = parse_graph(text)
        assert g.multiplicity(0, 1) == 2
        assert pa.rho == (6, 6) and pa.basepoint == (0, 0)

    def test_parse_errors(self):
        with pytest.raises(GraphFormatError):
            parse_graph("edge 0 1 1")
        with pytest.raises(GraphFormatError):
            parse_graph("vertices 2\nedge 0 1")
        with pytest.raises(GraphFormatError):
            parse_graph("vertices 2\nrho 5 6")
