"""epsilon*, certificates, packings, box distributions, framework LP."""
import hashlib
import random
from fractions import Fraction as Q

import pytest

from flexdp.colorings import enumerate_colorings, marginal
from flexdp.covers import (Cover, CoverError, IDENTITY, ListDistribution,
                           full_lists, tight_cover, straight_cover,
                           trivial_list_distribution)
from flexdp.flexibility import (FlexReport, InadmissibleDistribution,
                                _floor, box_distribution, epsilon_star,
                                fractional_packing, framework_feasible)
from flexdp.graphs import Multigraph, PotentialAssignment, gen_family
from flexdp.lp import solve
from oracles import (drop_matching, epsilon_lp, random_connected_multigraph,
                     random_cover, random_tree, uniform_marginals)


def check_worst_request(report: FlexReport, colorings):
    """Dual certificate: no coloring beats eps*, and some coloring meets it."""
    eps = report.epsilon_star
    w = report.worst_request
    assert sum(w.values(), Q(0)) == 1
    values = [sum((w.get((v, c), Q(0)) for v, c in enumerate(phi)), Q(0))
              for phi in colorings]
    if colorings:
        assert max(values) == eps


class TestEpsilonStar:
    def test_exceptional_c2_quarter(self):
        g = Multigraph(2, [(0, 1, 2)])
        cover = tight_cover("c2x", g)
        report = epsilon_star(g, cover)
        assert report.epsilon_star == Q(1, 4)
        for v in range(2):
            for c in range(3):
                assert marginal(list(report.distribution), v, c) >= Q(1, 4)
        check_worst_request(report, enumerate_colorings(g, cover))

    def test_inflexible_family_zero(self):
        for m in (1, 2):
            g, _ = gen_family("im", m)
            cover = tight_cover("im", g)
            assert epsilon_star(g, cover).epsilon_star == 0
            assert solve(epsilon_lp(g, cover)).value == 0

    def test_tight_pendant_family_one_fifth(self):
        for m in (1, 2, 3, 4):
            g, _ = gen_family("jm", m)
            report = epsilon_star(g, tight_cover("jm", g))
            assert report.epsilon_star == Q(1, 5)
        g, _ = gen_family("jm", 1)
        check_worst_request(epsilon_star(g, tight_cover("jm", g)),
                            enumerate_colorings(g, tight_cover("jm", g)))

    def test_tight_j5_report_pinned(self):
        """The benchmark's J_5 instance: the sha256 of its full report (eps*,
        distribution, sorted worst request) pins the LP's primal and dual
        witnesses.  The digest was generated before the simplex's in-place
        update for pivots equal to the denominator."""
        g, _ = gen_family("jm", 5)
        report = epsilon_star(g, tight_cover("jm", g))
        text = repr((report.epsilon_star, report.colorable, report.distribution,
                     sorted(report.worst_request.items())))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "fd96c06ce6439fc658ff9c014f58ee32106b89e964d55368a5b07b3a8172dbf8")

    def test_uncolorable_flagged(self):
        g, _ = gen_family("k4")
        report = epsilon_star(g, straight_cover(g))
        assert report.epsilon_star == 0
        assert not report.colorable
        assert report.distribution == ()
        pairs = [(v, c) for v in range(g.n) for c in range(3)]
        assert report.worst_request == {**dict.fromkeys(pairs, 0), (0, 0): 1}

    def test_solver_status_checked_without_assert(self, monkeypatch):
        """A non-optimal status is a solver fault, raised even under -O."""
        from flexdp import flexibility
        from flexdp.lp import LpInternalError, LpOutcome
        monkeypatch.setattr(flexibility, "solve",
                            lambda program: LpOutcome("infeasible"))
        g = Multigraph(2, [(0, 1, 2)])
        with pytest.raises(LpInternalError):
            epsilon_star(g, tight_cover("c2x", g))

    def test_certificates_on_random_instances(self):
        rng = random.Random(41)
        for _ in range(40):
            g = random_connected_multigraph(rng, max_n=4, max_mult=2)
            cover = random_cover(rng, g)
            report = epsilon_star(g, cover)
            colorings = enumerate_colorings(g, cover)
            if not colorings:
                continue
            eps = report.epsilon_star
            dist = list(report.distribution)
            for v in range(g.n):
                for c in range(3):
                    assert marginal(dist, v, c) >= eps
            check_worst_request(report, colorings)

    def test_optimum_sandwiched_by_plain_feasibility(self):
        """Independent route: feasible at eps*, infeasible just above it."""
        from flexdp.lp import solve
        from oracles import dense_lp

        def feasible_at(g, cover, eps):
            cols = enumerate_colorings(g, cover)
            if not cols:
                return False
            rows = [(tuple(Q(1) if phi[v] == c else Q(0) for phi in cols),
                     ">=", eps)
                    for v in range(g.n) for c in range(3)]
            rows.append(((Q(1),) * len(cols), "=", Q(1)))
            program = dense_lp((Q(0),) * len(cols), rows)
            return solve(program).status == "optimal"

        rng = random.Random(46)
        for _ in range(50):
            g = random_connected_multigraph(rng, max_n=4, max_mult=2)
            cover = random_cover(rng, g)
            report = epsilon_star(g, cover)
            if report.colorable:
                assert feasible_at(g, cover, report.epsilon_star)
            if report.epsilon_star < Q(1, 3):
                assert not feasible_at(g, cover,
                                       report.epsilon_star + Q(1, 10 ** 6))

    def test_deleting_matchings_never_decreases(self):
        """Fewer matchings only enlarge the coloring set."""
        rng = random.Random(42)
        done = 0
        while done < 100:
            g = random_connected_multigraph(rng, max_n=4, max_mult=2)
            if not g.pairs():
                continue
            done += 1
            cover = random_cover(rng, g)
            base = epsilon_star(g, cover).epsilon_star
            pair = rng.choice(cover.pairs())
            slot = rng.randrange(len(cover.slots(*pair)))
            smaller = drop_matching(cover, *pair, slot)
            assert epsilon_star(g, smaller).epsilon_star >= base


class TestFractionalPacking:
    def test_single_edge_packs(self):
        g = Multigraph(2, [(0, 1, 1)])
        witness = fractional_packing(g, straight_cover(g))
        assert witness is not None
        for v in range(2):
            for c in range(3):
                assert marginal(witness, v, c) == Q(1, 3)

    def test_matches_epsilon_star_threshold(self):
        """A packing exists exactly when epsilon* reaches 1/3."""
        rng = random.Random(43)
        for _ in range(60):
            g = random_connected_multigraph(rng, max_n=4, max_mult=2)
            cover = random_cover(rng, g)
            eps = epsilon_star(g, cover).epsilon_star
            witness = fractional_packing(g, cover)
            assert (witness is not None) == (eps >= Q(1, 3))
            if witness is not None:
                for v in range(g.n):
                    for c in range(3):
                        assert marginal(witness, v, c) == Q(1, 3)

    def test_trees_always_pack(self):
        rng = random.Random(44)
        for _ in range(25):
            t = random_tree(rng, rng.randint(1, 10))
            cover = random_cover(rng, t)
            assert fractional_packing(t, cover) is not None

    def test_small_subcubic_members_pack_for_every_cover(self):
        """Exhaustive over cover classes, not just sampled ones."""
        from flexdp.covers import CoverEnumeration
        diamond = Multigraph(4, [(0, 1, 1), (0, 2, 1), (1, 2, 1),
                                 (1, 3, 1), (2, 3, 1)])
        c4 = Multigraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        for g in (diamond, c4):
            enum = CoverEnumeration(g)
            for i in range(enum.count):
                assert fractional_packing(g, enum.at(i)) is not None

    def test_witnesses_pinned_on_every_42_index(self):
        """Every cover index of every (4,2) graph with mad < 3: 289 covers,
        115 of which pack; the witnesses themselves are pinned."""
        from flexdp.covers import CoverEnumeration
        from flexdp.graphs import mad
        from flexdp.search import enumerate_connected_multigraphs
        digest = hashlib.sha256()
        covers = packed = 0
        for g in enumerate_connected_multigraphs(4, 2):
            if mad(g) >= 3:
                continue
            enum = CoverEnumeration(g)
            for i in range(enum.count):
                witness = fractional_packing(g, enum.at(i))
                digest.update(repr(witness).encode())
                covers += 1
                packed += witness is not None
        assert (covers, packed) == (289, 115)
        assert digest.hexdigest() == \
            "d333e63015ab726c23b78f72475df38b63ec8fb1c605ef80655312df712101f8"


class TestBoxDistribution:
    def test_path_with_pinned_middle(self):
        g = Multigraph(3, [(0, 1, 1), (1, 2, 1)])
        cover = straight_cover(g)
        lists = full_lists(3)
        pins = [(1, 1, Q(3, 10)), (1, 2, Q(3, 10))]  # basepoint 0 left free
        witness = box_distribution(g, cover, lists, Q(3, 10), Q(2, 5), pins)
        assert witness is not None
        assert marginal(witness, 1, 1) == Q(3, 10)
        assert marginal(witness, 1, 2) == Q(3, 10)
        for v in range(3):
            for c in range(3):
                assert Q(3, 10) <= marginal(witness, v, c) <= Q(2, 5)

    def test_impossible_bounds(self):
        g = Multigraph(2, [(0, 1, 1)])
        assert box_distribution(g, straight_cover(g), full_lists(2),
                                Q(1, 2), Q(1)) is None

    def test_single_vertex_uniform(self):
        g = Multigraph(1, [])
        witness = box_distribution(g, Cover({}), full_lists(1),
                                   Q(1, 3), Q(1, 3))
        assert witness is not None
        assert all(w == Q(1, 3) for _, w in witness)

    def test_conflicting_pins_rejected(self):
        g = Multigraph(1, [])
        with pytest.raises(ValueError):
            box_distribution(g, Cover({}), full_lists(1), Q(0), Q(1),
                             [(0, 0, Q(1, 3)), (0, 0, Q(1, 2))])

    @pytest.mark.parametrize("vertex", [2, -1])
    def test_pinned_vertex_out_of_range_rejected(self, vertex):
        g = Multigraph(2, [(0, 1, 1)])
        with pytest.raises(ValueError, match=f"pinned vertex {vertex} out of range"):
            box_distribution(g, straight_cover(g), full_lists(2), Q(0), Q(1),
                             [(vertex, 0, Q(1, 3))])

    def test_crossed_bounds_rejected(self):
        g = Multigraph(1, [])
        with pytest.raises(ValueError):
            box_distribution(g, Cover({}), full_lists(1), Q(1, 2), Q(1, 3))


class TestUniformFloor:
    def test_lower_bound_exact_at_one_third(self):
        """The floor is the smallest brute-force uniform marginal, never
        above epsilon*, and equal to it whenever it is 1/3."""
        rng = random.Random(47)
        thirds = below = 0
        for _ in range(120):
            g = random_connected_multigraph(rng, max_n=5, max_mult=2)
            cover = random_cover(rng, g)
            floor = _floor(g, cover.masks())[0]
            eps = epsilon_star(g, cover).epsilon_star
            assert floor == min(uniform_marginals(g, cover), default=0)
            assert floor <= eps <= Q(1, 3)
            if floor == Q(1, 3):
                thirds += 1
                assert eps == floor
            elif 0 < floor < eps:
                below += 1
        assert thirds and below

    def test_uncolorable_cover_has_floor_zero(self):
        g, _ = gen_family("k4")
        assert _floor(g, straight_cover(g).masks())[0] == 0

    def test_cover_checked(self):
        with pytest.raises(CoverError, match=r"\(1, 2\): pair is not an edge"):
            _floor(_ONE_EDGE, _NON_EDGE_COVER.masks())
        with pytest.raises(CoverError, match="exceed multiplicity 1"):
            _floor(_ONE_EDGE, [((0, 1), 3)])
        for perms in ((IDENTITY, IDENTITY), ((0, 0, 1),)):
            with pytest.raises(CoverError, match="duplicate|not a permutation"):
                Cover({(0, 1): perms}).masks()


class TestFramework:
    def test_exceptional_c2_threshold(self):
        g, pa = gen_family("c2")
        cover = tight_cover("c2x", g)
        dist = trivial_list_distribution(2)
        witness = framework_feasible(g, pa, cover, dist, Q(1, 6))
        assert witness is not None
        overall = witness.overall()
        assert marginal(overall, 0, 0) == 2 * Q(1, 6)      # basepoint of the 4-vertex
        assert marginal(overall, 1, 0) == Q(1, 6)
        assert marginal(overall, 1, 1) == Q(1, 6)
        assert framework_feasible(g, pa, cover, dist,
                                  Q(1, 6) + Q(1, 1000)) is None

    def test_inflexible_family_infeasible_for_any_eps(self):
        g, pa = gen_family("im", 1)
        cover = tight_cover("im", g)
        dist = trivial_list_distribution(g.n)
        for eps in (Q(1, 1000), Q(1, 5), Q(1, 3)):
            assert framework_feasible(g, pa, cover, dist, eps) is None

    def test_reduces_to_epsilon_star_without_weights(self):
        """With rho = 6 everywhere, feasibility at eps means eps* >= eps."""
        rng = random.Random(45)
        for _ in range(40):
            g = random_connected_multigraph(rng, max_n=4, max_mult=2)
            cover = random_cover(rng, g)
            pa = PotentialAssignment.uniform(g.n)
            dist = trivial_list_distribution(g.n)
            eps = Q(1, rng.choice((3, 4, 5, 6, 10)))
            feasible = framework_feasible(g, pa, cover, dist, eps) is not None
            assert feasible == (epsilon_star(g, cover).epsilon_star >= eps)

    def test_list_distribution_on_2list_vertices(self):
        g = Multigraph(2, [(0, 1, 1)])
        pa = PotentialAssignment((3, 6), (0, 0))
        cover = straight_cover(g)
        outcomes = tuple((((a, b), (0, 1, 2)), Q(1, 3))
                         for a, b in ((0, 1), (0, 2), (1, 2)))
        dist = ListDistribution(outcomes)
        assert framework_feasible(g, pa, cover, dist, Q(1, 5)) is not None

    def test_inadmissible_distribution_raises(self):
        g = Multigraph(2, [(0, 1, 1)])
        pa = PotentialAssignment((3, 6), (0, 0))
        cover = straight_cover(g)
        dist = ListDistribution(((((0, 1), (0, 1, 2)), Q(1)),))  # only forbids 2
        with pytest.raises(InadmissibleDistribution):
            framework_feasible(g, pa, cover, dist, Q(1, 5))

    def test_cover_validated_once_per_query(self, monkeypatch):
        """One check of the cover serves every list outcome; the lists of
        each outcome are still checked."""
        from flexdp import covers
        from flexdp.colorings import ColoringError
        g, pa = gen_family("c2")
        cover = tight_cover("c2x", g)
        calls = []
        original = covers.validate

        def counting_validate(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(covers, "validate", counting_validate)
        dist = ListDistribution(tuple((full_lists(2), Q(1, 3)) for _ in range(3)))
        assert framework_feasible(g, pa, cover, dist, Q(1, 6)) is not None
        assert len(calls) == 1
        bad = ListDistribution(((((0, 1, 2), (0, 1, 5)), Q(1)),))
        with pytest.raises(ColoringError, match="bad list"):
            framework_feasible(g, pa, cover, bad, Q(1, 6))

    def test_wrong_list_sizes_rejected(self):
        g = Multigraph(1, [])
        pa = PotentialAssignment((3,), (0,))
        with pytest.raises(ValueError):
            framework_feasible(g, pa, Cover({}),
                               trivial_list_distribution(1), Q(1, 5))


def test_empty_graph_rejected_everywhere():
    empty = Multigraph(0, [])
    with pytest.raises(ValueError):
        epsilon_star(empty, Cover({}))
    with pytest.raises(ValueError):
        fractional_packing(empty, Cover({}))
    with pytest.raises(ValueError):
        box_distribution(empty, Cover({}), (), Q(0), Q(1))


_ONE_EDGE = Multigraph(3, [(0, 1, 1)])
_NON_EDGE_COVER = Cover({(0, 1): (IDENTITY,), (1, 2): (IDENTITY,)})


@pytest.mark.parametrize("query", [
    lambda: epsilon_star(_ONE_EDGE, _NON_EDGE_COVER),
    lambda: fractional_packing(_ONE_EDGE, _NON_EDGE_COVER),
    lambda: box_distribution(_ONE_EDGE, _NON_EDGE_COVER, full_lists(3), Q(0), Q(1)),
    # the cover is checked before the lists, which are too short here
    lambda: box_distribution(_ONE_EDGE, _NON_EDGE_COVER, full_lists(2), Q(0), Q(1)),
    lambda: framework_feasible(_ONE_EDGE, PotentialAssignment.uniform(3),
                               _NON_EDGE_COVER, trivial_list_distribution(3),
                               Q(1, 5)),
], ids=["epsilon_star", "fractional_packing", "box_distribution",
        "box_distribution_short_lists", "framework_feasible"])
def test_matching_on_non_edge_rejected_everywhere(query):
    with pytest.raises(CoverError, match=r"\(1, 2\): pair is not an edge"):
        query()
