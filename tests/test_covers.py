"""Cover validation, the adversarial covers, and class enumeration."""
import pickle
import random
from itertools import combinations, product

import pytest

from flexdp.covers import (IDENTITY, PERMS, SWAP01, Cover, CoverEnumeration,
                           CoverError, ListDistribution, tight_cover,
                           parse_cover, serialize_cover, straight_cover,
                           validate, _automorphism_generators, _digit_row)
from flexdp.graphs import Multigraph, gen_family, mad
from flexdp.search import enumerate_connected_multigraphs
from oracles import all_full_covers, automorphisms, cover_form, \
    orbit_canonical_form, pinned_relabeling_indices, random_connected_multigraph, \
    random_cover, relabeling_canonical_form, relabeling_orbit

from fractions import Fraction as Q


class TestValidate:
    def test_straight_cover_always_valid(self):
        rng = random.Random(3)
        for _ in range(40):
            g = random_connected_multigraph(rng, max_n=6, max_mult=3)
            assert validate(g, straight_cover(g)) == []

    def test_duplicate_matching_rejected(self):
        g = Multigraph(2, [(0, 1, 2)])
        cover = Cover({(0, 1): (IDENTITY, IDENTITY)})
        problems = validate(g, cover)
        assert any("duplicate" in msg for _, msg in problems)

    def test_count_above_multiplicity_rejected(self):
        g = Multigraph(2, [(0, 1, 2)])
        cover = Cover({(0, 1): (IDENTITY, SWAP01, (0, 2, 1))})
        problems = validate(g, cover)
        assert any("exceed" in msg for _, msg in problems)

    def test_non_edge_rejected(self):
        g = Multigraph(3, [(0, 1, 1)])
        problems = validate(g, Cover({(1, 2): (IDENTITY,)}))
        assert problems

    def test_non_permutation_rejected(self):
        g = Multigraph(2, [(0, 1, 1)])
        problems = validate(g, Cover({(0, 1): ((0, 0, 2),)}))
        assert any("not a permutation" in msg for _, msg in problems)


class TestStraightCover:
    def test_single_edge_gets_identity(self):
        g = Multigraph(2, [(0, 1, 1)])
        assert straight_cover(g).slots(0, 1) == (IDENTITY,)

    def test_doubled_edge_gets_identity_plus_swap(self):
        g = Multigraph(2, [(0, 1, 2)])
        assert straight_cover(g).slots(0, 1) == (IDENTITY, SWAP01)

    def test_triple_edge_truncates_at_three(self):
        g = Multigraph(2, [(0, 1, 3)])
        slots = straight_cover(g).slots(0, 1)
        assert len(slots) == len(set(slots)) == 3


class TestPaperCovers:
    def test_im_cover_blocks_last_color(self):
        from flexdp.colorings import enumerate_colorings
        for m in (1, 2, 3, 4):
            g, _ = gen_family("im", m)
            cover = tight_cover("im", g)
            last = 2 * m  # the vertex with two single cycle edges
            assert all(phi[last] != 2 for phi in enumerate_colorings(g, cover))

    def test_doubled_pair_kinds_are_the_straight_cover(self):
        """The im, jm, c2x and h5 tight covers put identity on every pair
        and add swap(0,1) on the doubled ones, as the straight cover does."""
        cases = [(kind, gen_family(kind, m)[0]) for kind in ("im", "jm")
                 for m in range(1, 7)]
        cases += [("c2x", gen_family("c2")[0]), ("h5", gen_family("h5")[0])]
        for kind, g in cases:
            assert tight_cover(kind, g) == straight_cover(g), (kind, g.n)

    def test_c2x_shape(self):
        g = Multigraph(2, [(0, 1, 2)])
        assert tight_cover("c2x", g).slots(0, 1) == (IDENTITY, SWAP01)

    def test_kind_mismatch(self):
        g, _ = gen_family("jm", 1)
        with pytest.raises(CoverError):
            tight_cover("im", g)

    def test_no_family_graph_is_cover_error(self):
        """A graph too small to infer m >= 1 from, and an explicit m < 1,
        are mismatches like any other wrong graph."""
        cases = [("jm", Multigraph(2, [(0, 1, 1)]), None),
                 ("im", Multigraph(1, []), None),
                 ("im", gen_family("im", 1)[0], 0),
                 ("jm", gen_family("jm", 1)[0], -1)]
        for kind, g, m in cases:
            with pytest.raises(CoverError, match="generator layout"):
                tight_cover(kind, g, m=m)

    def test_s_cover_swaps_exit_edges(self):
        g, _ = gen_family("s", chains=[1])
        cover = tight_cover("s", g, chains=[1])
        assert cover.slots(1, 5) == (SWAP01,)
        assert cover.slots(0, 3) == (IDENTITY,)
        assert validate(g, cover) == []

    def test_s_cover_blocks_apex_color(self):
        from flexdp.colorings import enumerate_colorings
        for chains in ([1], [2], [1, 1]):
            g, _ = gen_family("s", chains=chains)
            cover = tight_cover("s", g, chains=chains)
            apex = 2 * len(chains)  # last cycle vertex
            colorings = enumerate_colorings(g, cover)
            assert colorings
            assert all(phi[apex] != 2 for phi in colorings)


class TestEnumeration:
    def test_single_edge_one_class(self):
        assert CoverEnumeration(Multigraph(2, [(0, 1, 1)])).count == 1

    def test_doubled_edge_five_classes(self):
        assert CoverEnumeration(Multigraph(2, [(0, 1, 2)])).count == 5

    def test_triangle_six_classes(self):
        g = Multigraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        assert CoverEnumeration(g).count == 6

    def test_digits_against_composed_perms(self):
        """For every slot count, pinning and set of k perms: relabeling the
        ends by (a, b) turns each perm q into b q a^-1, composed here as
        tuples, and the digit is that set's place among the pair's choices
        (those holding the identity when pinned), or -1 when none."""
        for k, pinned in product(range(1, 7), (False, True)):
            options = [c for c in combinations(PERMS, k) if not pinned or IDENTITY in c]
            for perms in combinations(PERMS, k):
                mask = sum(1 << PERMS.index(q) for q in perms)
                expected = []
                for a, b in product(PERMS, repeat=2):
                    a_inv = tuple(a.index(i) for i in range(3))
                    twisted = tuple(sorted(tuple(b[q[a_inv[i]]] for i in range(3))
                                           for q in perms))
                    expected.append(options.index(twisted) if twisted in options else -1)
                assert _digit_row(2 * k + pinned, mask) == tuple(expected)

    def test_every_enumerated_cover_validates(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_connected_multigraph(rng, max_n=4, max_mult=2)
            enum = CoverEnumeration(g)
            if enum.count > 300:
                continue
            for i in range(enum.count):
                assert validate(g, enum.at(i)) == []

    def test_at_decodes_the_combinations_order(self):
        """Index i is a mixed-radix number, last pair fastest, whose digits
        pick each pair's perms in `combinations` order; a tree pair's first
        slot is the identity."""
        g = Multigraph(3, [(0, 1, 2), (1, 2, 1), (0, 2, 3)])
        enum = CoverEnumeration(g)
        tree = {(min(x, y), max(x, y)) for x, y in enum.tree}
        options = []
        for u, v, k in g.edge_items():
            options.append([(IDENTITY,) + c for c in combinations(PERMS[1:], k - 1)]
                           if (u, v) in tree else list(combinations(PERMS, k)))
        assert enum.pairs == [(u, v) for u, v, _ in g.edge_items()]
        assert [enum.at(i) for i in range(enum.count)] == \
            [Cover(dict(zip(enum.pairs, pick))) for pick in product(*options)]

    def test_disconnected_rejected(self):
        with pytest.raises(CoverError):
            CoverEnumeration(Multigraph(3, [(0, 1, 1)]))

    def test_reaches_exactly_the_relabeling_classes(self):
        """Same relabeling classes as full brute force (<= 4 edges).

        Every brute-force cover lies in the closure of the enumerated covers
        under all 6^n relabelings, and the enumerated covers fall into as
        many classes as the brute-force ones, so the two class sets are
        equal.  Orbits are listed once per enumerated cover and once per
        brute-force class, never once per brute-force cover."""
        rng = random.Random(23)
        checked = 0
        while checked < 12:
            g = random_connected_multigraph(rng, max_n=4, max_mult=2)
            if g.edge_total() > 4 or g.n > 4:
                continue
            checked += 1
            enum = CoverEnumeration(g)
            orbits = [relabeling_orbit(g, enum.at(i)) for i in range(enum.count)]
            closure = set().union(*orbits)
            ours = {min(orbit) for orbit in orbits}
            seen, brute_classes = set(), 0
            for c in all_full_covers(g):
                form = cover_form(g, c)
                assert form in closure
                if form not in seen:
                    brute_classes += 1
                    seen |= relabeling_orbit(g, c)
            assert len(ours) == brute_classes


class TestClassIndex:
    def test_lands_in_the_cover_class(self):
        """A random per-vertex relabeling of a random cover is sent to an
        index of the cover's own S3^n class."""
        rng = random.Random(82)
        for _ in range(60):
            g = random_connected_multigraph(rng, max_n=4, max_mult=3)
            enum = CoverEnumeration(g)
            cover = random_cover(rng, g)
            form = relabeling_canonical_form(g, cover)
            relabeled = Cover(dict(rng.choice(sorted(relabeling_orbit(g, cover)))))
            index = enum.class_index(relabeled)
            assert 0 <= index < enum.count
            assert relabeling_canonical_form(g, enum.at(index)) == form

    def test_agrees_with_rep_of_on_every_42_index(self):
        for g in enumerate_connected_multigraphs(4, 2):
            if mad(g) >= 3:
                continue
            enum = CoverEnumeration(g)
            _, rep_of = enum.representatives(enum.count)
            assert all(rep_of[enum.class_index(enum.at(i))] == rep_of[i]
                       for i in range(enum.count))

    def test_rejects_a_cover_of_another_shape(self):
        enum = CoverEnumeration(Multigraph(3, [(0, 1, 2), (1, 2, 1)]))
        for cover in (Cover({(0, 1): (IDENTITY,), (1, 2): (IDENTITY,)}),
                      Cover({(0, 1): (IDENTITY, SWAP01)})):
            with pytest.raises(CoverError):
                enum.class_index(cover)

    def test_pickles_with_its_gauge_built(self):
        """Pool tasks carry enumerations that have already searched: the
        enumeration holds plain data only, and a pickled copy gives the
        same answers."""
        g = Multigraph(4, [(0, 1, 2), (1, 2, 1), (2, 3, 1), (0, 3, 1), (0, 2, 1)])
        enum = CoverEnumeration(g)
        enum.representatives(enum.count)
        assert not any(map(callable, vars(enum).values()))
        copy = pickle.loads(pickle.dumps(enum))
        assert all(copy.at(i) == enum.at(i) for i in range(enum.count))
        for count in (1, 17, enum.count):
            assert copy.representatives(count) == enum.representatives(count)
        assert all(copy.class_index(enum.at(i)) == enum.class_index(enum.at(i))
                   for i in range(enum.count))


class TestClassSearch:
    @staticmethod
    def check(g: Multigraph, cover: Cover) -> None:
        """At the full limit and at cut ones: marking finds exactly the
        indices below the limit among those of every tree-pinned gauge
        vector, and `first` the first of them in the oracle's order (root
        PERMS[5] first, then depth first)."""
        enum = CoverEnumeration(g)
        held = dict(cover.masks())
        masks = [held[pair] for pair in enum.pairs]
        met = pinned_relabeling_indices(g, cover)
        least = min(met)
        for limit in {1, least, least + 1, enum.count // 2 + 1, max(met), enum.count}:
            limit = min(limit, enum.count)
            below = [i for i in met if i < limit]
            assert enum._relabeled_indices(masks, limit) == set(below)
            assert enum._relabeled_indices(masks, limit, first=True) == set(below[:1])

    @pytest.mark.parametrize("max_vertices, max_mult", [(4, 2), (5, 1)])
    def test_every_index_matches_the_gauge_oracle(self, max_vertices, max_mult):
        for g in enumerate_connected_multigraphs(max_vertices, max_mult):
            if mad(g) < 3:
                enum = CoverEnumeration(g)
                for i in range(enum.count):
                    self.check(g, enum.at(i))

    def test_random_covers_match_the_gauge_oracle(self):
        rng = random.Random(86)
        for _ in range(150):
            g = random_connected_multigraph(rng, max_n=5, max_mult=3)
            self.check(g, random_cover(rng, g))


class TestRepresentatives:
    @pytest.mark.parametrize("max_vertices, max_mult, classes, orbits",
                             [(3, 3, 20, 19), (4, 2, 82, 76)])
    def test_one_representative_per_brute_force_orbit(self, max_vertices,
                                                      max_mult, classes, orbits):
        """On every sparse graph at this scale, each S3^n x Aut(G) orbit of
        the enumerated indices holds exactly one representative, its
        smallest index, and rep_of stays inside the orbit."""
        class_total = orbit_total = 0
        for g in enumerate_connected_multigraphs(max_vertices, max_mult):
            if mad(g) >= 3:
                continue
            enum = CoverEnumeration(g)
            reps, rep_of = enum.representatives(enum.count)
            s3_forms = [relabeling_canonical_form(g, enum.at(i))
                        for i in range(enum.count)]
            # a class's canonical form is a cover of that class, so the orbit
            # form need only be found once per class
            orbit_form = {form: orbit_canonical_form(g, Cover(dict(form)))
                          for form in set(s3_forms)}
            orbit = [orbit_form[form] for form in s3_forms]
            members: dict[tuple, list[int]] = {}
            for i, key in enumerate(orbit):
                members.setdefault(key, []).append(i)
            for indices in members.values():
                assert [i for i in indices if i in reps] == [indices[0]]
            assert len(reps) == len(members)
            assert all(orbit[rep_of[i]] == orbit[i] for i in range(enum.count))
            class_total += len(orbit_form)
            orbit_total += len(members)
        assert (class_total, orbit_total) == (classes, orbits)

    @pytest.mark.parametrize("g", [
        gen_family("k4")[0],
        Multigraph(4, [(0, 1, 2), (0, 2, 1), (1, 2, 1), (2, 3, 2)]),
    ], ids=["k4", "doubled-tree-pairs"])
    def test_limit_cuts_the_scan(self, g):
        """Over the first `limit` indices: every index maps to a smaller or
        equal representative of its own orbit (the full scan, checked
        against the oracle above, names the orbits), and the smallest
        index of each orbit below the limit is a representative."""
        enum = CoverEnumeration(g)
        _, orbit_of = enum.representatives(enum.count)
        for limit in (1, 2, 10, 100):
            reps, rep_of = enum.representatives(min(limit, enum.count))
            assert reps == sorted(set(rep_of))
            assert all(r <= i and orbit_of[r] == orbit_of[i]
                       for i, r in enumerate(rep_of))
            firsts = {orbit_of[i]: i for i in reversed(range(len(rep_of)))}
            assert set(firsts.values()) <= set(reps)

    @pytest.mark.parametrize("g, limit", [
        (gen_family("jm", 5)[0], 10),
        (Multigraph(12, [(i, i + 1, 1) for i in range(11)]), 1),
        (Multigraph(12, [(i, i + 1, 3) for i in range(11)]), 10),
        (Multigraph(12, [(0, i, 1) for i in range(1, 12)]), 1),
        (Multigraph(12, [(0, i, 2) for i in range(1, 12)]), 10),
        (Multigraph(12, [(u, v, 6) for u, v in combinations(range(12), 2)]), 1),
        (Multigraph(5, [(u, v, 6) for u, v in combinations(range(5), 2)]), 1),
    ], ids=["j5-budget-10", "path-12", "path-12-triple-budget-10", "star-12",
            "star-12-double-budget-10", "k12-sextuple", "k5-sextuple"])
    def test_scan_is_not_bounded_by_the_group_order(self, g, limit):
        """Graphs with up to 11! automorphisms, or covers that every list
        relabeling fixes: the scan answers in milliseconds (it never lists
        Aut(G) or the 6 * product(tree slot counts) pinned relabelings)."""
        enum = CoverEnumeration(g)
        reps, rep_of = enum.representatives(limit)
        assert reps[0] == 0 and reps == sorted(set(rep_of))
        assert all(r <= i for i, r in enumerate(rep_of))

    def test_automorphism_generators_generate_the_group(self):
        rng = random.Random(6)
        for _ in range(150):
            n = rng.randint(1, 6)
            g = Multigraph(n, [(u, v, k) for u, v in combinations(range(n), 2)
                               if (k := rng.choice((0, 0, 1, 1, 2)))])
            group = {tuple(range(n))}
            frontier = list(group)
            while frontier:
                p = frontier.pop()
                for q in _automorphism_generators(g):
                    r = tuple(q[i] for i in p)
                    if r not in group:
                        group.add(r)
                        frontier.append(r)
            assert group == automorphisms(g)


class TestListDistribution:
    def test_probabilities_must_sum_to_one(self):
        lists = ((0, 1, 2),)
        with pytest.raises(CoverError):
            ListDistribution(((lists, Q(1, 2)),))

    def test_negative_probability_rejected(self):
        lists = ((0, 1, 2),)
        with pytest.raises(CoverError):
            ListDistribution(((lists, Q(3, 2)), (lists, Q(-1, 2))))


class TestTextFormat:
    def test_round_trip(self):
        rng = random.Random(4)
        from oracles import random_cover
        for _ in range(80):
            g = random_connected_multigraph(rng, max_n=5, max_mult=2)
            cover = random_cover(rng, g)
            assert parse_cover(serialize_cover(cover), g) == cover

    def test_orientation_is_min_to_max(self):
        text = "match 1 0 1 0 2\n"
        cover = parse_cover(text)
        assert cover.slots(0, 1) == ((1, 0, 2),)

    def test_validation_against_graph(self):
        g = Multigraph(2, [(0, 1, 1)])
        with pytest.raises(CoverError):
            parse_cover("match 0 1 0 1 2\nmatch 0 1 1 0 2\n", g)
