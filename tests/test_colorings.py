"""Coloring enumeration, tree packings, and multiset conversion."""
import hashlib
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from flexdp import colorings
from flexdp.colorings import (ColoringError, coloring_masks, colorings_of_masks,
                              distribution_to_multiset, enumerate_colorings,
                              marginal, tree_pack_2cover)
from flexdp.covers import (Cover, CoverError, IDENTITY, full_lists, tight_cover,
                           straight_cover)
from flexdp.flexibility import _support
from flexdp.graphs import Multigraph, gen_family
from oracles import (colorings_by_brute_force, colorings_of_masks_oracle,
                     count_proper_3_colorings, drop_matching,
                     random_connected_multigraph, random_cover, random_2lists,
                     random_multigraph, random_tree)


class TestEnumerate:
    def test_exceptional_c2_has_four_colorings(self):
        g = Multigraph(2, [(0, 1, 2)])
        cover = tight_cover("c2x", g)
        assert enumerate_colorings(g, cover) == \
            [(0, 2), (1, 2), (2, 0), (2, 1)]

    def test_k4_straight_uncolorable(self):
        g, _ = gen_family("k4")
        assert enumerate_colorings(g, straight_cover(g)) == []

    def test_single_vertex(self):
        g = Multigraph(1, [])
        assert enumerate_colorings(g, Cover({})) == [(0,), (1,), (2,)]

    def test_long_path_needs_no_recursion(self):
        """Backtracking keeps its own stack: 1,100 vertices, well past
        Python's recursion limit, and singleton lists that the straight
        cover lets through exactly once."""
        n = 1100
        g = Multigraph(n, [(v, v + 1, 1) for v in range(n - 1)])
        lists = tuple((v % 3,) for v in range(n))
        assert enumerate_colorings(g, straight_cover(g), lists) == \
            [tuple(v % 3 for v in range(n))]

    def test_empty_graph_has_the_empty_coloring(self):
        assert enumerate_colorings(Multigraph(0, []), Cover({})) == [()]

    def test_restricted_lists(self):
        g = Multigraph(2, [(0, 1, 1)])
        lists = ((0, 1), (0,))
        cols = enumerate_colorings(g, straight_cover(g), lists)
        assert cols == [(1, 0)]

    def test_matches_brute_force(self):
        rng = random.Random(31)
        for _ in range(80):
            g = random_connected_multigraph(rng, max_n=5, max_mult=2)
            cover = random_cover(rng, g)
            lists = tuple(tuple(sorted(rng.sample(range(3),
                                                  rng.choice((2, 3)))))
                          for _ in range(g.n))
            fast = enumerate_colorings(g, cover, lists)
            assert fast == sorted(colorings_by_brute_force(g, cover, lists))

    def test_straight_cover_counts_proper_colorings(self):
        rng = random.Random(32)
        seen = 0
        while seen < 40:
            g = random_connected_multigraph(rng, max_n=7, max_mult=1)
            if not g.is_simple():
                continue
            seen += 1
            assert len(enumerate_colorings(g, straight_cover(g))) == \
                count_proper_3_colorings(g)


class TestColoringMasks:
    def test_match_brute_force_in_enumeration_order(self):
        """On random covers of random multigraphs, disconnected ones and
        covers with dropped matchings among them: the masks read bit by bit
        are the brute-force colorings in `enumerate_colorings`' order, and
        the packed counts are the sizes of `_support`."""
        rng = random.Random(33)
        for _ in range(200):
            g = random_multigraph(rng, max_n=5, max_mult=3)
            cover = random_cover(rng, g)
            for u, v in g.pairs():
                if rng.random() < 0.3:
                    cover = drop_matching(cover, u, v, rng.randrange(
                        len(cover.slots(u, v))))
            masks, counts = coloring_masks(g, cover.masks())
            tuples = colorings_of_masks_oracle(g.n, masks)
            assert tuples == sorted(colorings_by_brute_force(g, cover, full_lists(g.n)))
            assert tuples == enumerate_colorings(g, cover)
            assert colorings_of_masks(g.n, masks) == tuples
            assert counts == [len(users) for users in
                              _support(tuples, full_lists(g.n)).values()]

    def test_masks_checked_before_enumerating(self):
        g = Multigraph(3, [(0, 1, 1)])
        with pytest.raises(CoverError, match=r"\(1, 2\): pair is not an edge"):
            coloring_masks(g, [((0, 1), 1), ((1, 2), 1)])
        with pytest.raises(CoverError, match="exceed multiplicity 1"):
            coloring_masks(g, [((0, 1), 3)])

    def test_cap_raises(self, monkeypatch):
        """A 12-vertex path has 3 * 2^11 colorings: over a cap of 10^4
        entries, the mask enumeration stops as the tuple one does."""
        g = Multigraph(12, [(i, i + 1, 1) for i in range(11)])
        assert len(coloring_masks(g, straight_cover(g).masks())[0]) == 3 * 2 ** 11
        monkeypatch.setattr(colorings, "ENUMERATION_CAP", 10 ** 4)
        with pytest.raises(ColoringError, match="more than 833 colorings"):
            coloring_masks(g, straight_cover(g).masks())
        with pytest.raises(ColoringError, match="more than 833 colorings"):
            enumerate_colorings(g, straight_cover(g))


class TestTreePacking:
    def test_single_edge_identity(self):
        t = Multigraph(2, [(0, 1, 1)])
        cover = Cover({(0, 1): (IDENTITY,)})
        lists = ((0, 1), (0, 1))
        phi1, phi2 = tree_pack_2cover(t, cover, lists)
        assert {phi1, phi2} == {(0, 1), (1, 0)}

    def test_star_alternation(self):
        t = Multigraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        cover = straight_cover(t)
        lists = ((0, 1),) * 4
        phi1, phi2 = tree_pack_2cover(t, cover, lists)
        for phi in (phi1, phi2):
            assert all(phi[leaf] != phi[0] for leaf in (1, 2, 3))

    def test_single_vertex(self):
        t = Multigraph(1, [])
        phi1, phi2 = tree_pack_2cover(t, Cover({}), ((0, 1),))
        assert {phi1, phi2} == {(0,), (1,)}

    def test_not_a_tree_rejected(self):
        g = Multigraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        with pytest.raises(ColoringError):
            tree_pack_2cover(g, straight_cover(g), ((0, 1),) * 3)

    def test_random_instances_pack(self):
        """Disjoint colorings covering each listed color exactly once, on
        2,000 seeded instances whose packings are pinned by a sha256."""
        rng = random.Random(77)
        digest = hashlib.sha256()
        for _ in range(2000):
            n = rng.randint(1, 12)
            t = random_tree(rng, n)
            cover = random_cover(rng, t)
            lists = random_2lists(rng, n)
            phi1, phi2 = tree_pack_2cover(t, cover, lists)
            digest.update(repr((phi1, phi2)).encode())
            for phi in (phi1, phi2):
                for u, v in t.pairs():
                    perm = cover.slots(u, v)[0]
                    assert perm[phi[u]] != phi[v]
            assert all(phi1[v] != phi2[v] for v in range(n))
            assert all({phi1[v], phi2[v]} == set(lists[v]) for v in range(n))
        assert digest.hexdigest() == (
            "d7d71e60a85f43b2aa44c54d08e7997d98b87fbd5f2e93edf179cb5116bb5807")


@st.composite
def rational_distribution(draw):
    k = draw(st.integers(min_value=1, max_value=5))
    weights = [draw(st.fractions(min_value=0, max_value=1,
                                 max_denominator=12)) for _ in range(k)]
    total = sum(weights)
    if total == 0:
        weights[0] = Q(1)
        total = Q(1)
    colorings = [tuple(draw(st.integers(0, 2)) for _ in range(3))
                 for _ in range(k)]
    return [(tuple(c), w / total) for c, w in zip(colorings, weights)]


class TestMultiset:
    def test_half_half(self):
        dist = [((0, 1), Q(1, 2)), ((1, 0), Q(1, 2))]
        assert distribution_to_multiset(dist) == [(0, 1), (1, 0)]

    def test_thirds(self):
        dist = [((0,), Q(1, 3)), ((1,), Q(2, 3))]
        assert distribution_to_multiset(dist) == [(0,), (1,), (1,)]

    def test_pendant_family_optimum_as_multiset(self):
        from flexdp.flexibility import epsilon_star
        g, _ = gen_family("jm", 1)
        report = epsilon_star(g, tight_cover("jm", g))
        dist = list(report.distribution)
        multiset = distribution_to_multiset(dist)
        n = len(multiset)
        for v in range(g.n):
            for c in range(3):
                count = sum(1 for phi in multiset if phi[v] == c)
                assert Q(count, n) == marginal(dist, v, c)
                assert Q(count, n) >= Q(1, 5)

    @settings(max_examples=150)
    @given(rational_distribution())
    def test_marginals_reproduced_exactly(self, dist):
        multiset = distribution_to_multiset(dist)
        n = len(multiset)
        for v in range(3):
            for c in range(3):
                count = sum(1 for phi in multiset if phi[v] == c)
                assert Q(count, n) == marginal(dist, v, c)

    def test_rejects_bad_weights(self):
        with pytest.raises(ColoringError):
            distribution_to_multiset([((0,), Q(1, 2))])
