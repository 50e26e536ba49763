"""Gadget matrices: algebraic identities, case selection, composition."""
import random
from fractions import Fraction as Q

import pytest

from flexdp.covers import full_lists, straight_cover
from flexdp.flexibility import box_distribution
from flexdp.gadgets import (GadgetError, PARALLEL3_CASE_PROBES,
                            gadget_butterfly, gadget_one_positive,
                            gadget_parallel3, gadget_pendent,
                            normalize_parallel3, sample_parallel3,
                            sample_simplex, selftest)
from flexdp.graphs import Multigraph

FIFTH = Q(1, 5)
PENDANT_OUTPUT = (Q(2, 5), Q(3, 10), Q(3, 10))


class TestPendent:
    def test_uniform_input(self):
        m = gadget_pendent([Q(1, 3)] * 3)
        assert m.output() == PENDANT_OUTPUT
        assert all(m.entries[i][i] == 0 for i in range(3))

    def test_skewed_input(self):
        m = gadget_pendent(PENDANT_OUTPUT)
        assert m.output() == PENDANT_OUTPUT

    def test_boundary_rejected(self):
        with pytest.raises(GadgetError):
            gadget_pendent([Q(1), Q(0), Q(0)])

    def test_random_region(self):
        rng = random.Random(51)
        for _ in range(300):
            m = gadget_pendent(sample_simplex(rng, 3, FIFTH))
            m.validate()
            assert m.output() == PENDANT_OUTPUT


class TestButterfly:
    def test_uniform_input(self):
        m = gadget_butterfly([Q(1, 3)] * 3)
        assert m.output() == (FIFTH,) * 5

    def test_skewed_input(self):
        assert gadget_butterfly(PENDANT_OUTPUT).output() == (FIFTH,) * 5

    def test_low_entry_rejected(self):
        with pytest.raises(GadgetError):
            gadget_butterfly([Q(1, 10), Q(1, 2), Q(2, 5)])

    def test_zero_pattern_respects_middle_vertex(self):
        # rows use middle-vertex colors 0,0,1,2,2; column i bans rows with
        # middle color i (identity matching to the attachment vertex)
        m = gadget_butterfly([Q(1, 3)] * 3)
        middle = (0, 0, 1, 2, 2)
        for j in range(3):
            for i, mid in enumerate(middle):
                if mid == j:
                    assert m.entries[i][j] == 0

    def test_random_region(self):
        rng = random.Random(52)
        for _ in range(300):
            m = gadget_butterfly(sample_simplex(rng, 3, FIFTH))
            m.validate()
            assert m.output() == (FIFTH,) * 5


class TestOnePositive:
    def test_uniform_input(self):
        m = gadget_one_positive([Q(1, 3)] * 3)
        assert m.output() == PENDANT_OUTPUT

    def test_skewed_input(self):
        m = gadget_one_positive([Q(3, 10), Q(3, 10), Q(2, 5)])
        assert m.output() == PENDANT_OUTPUT

    def test_out_of_region_rejected(self):
        with pytest.raises(GadgetError):
            gadget_one_positive([Q(1, 2), Q(1, 4), Q(1, 4)])

    def test_nonzero_entries_at_least_third(self):
        rng = random.Random(53)
        for _ in range(300):
            m = gadget_one_positive(sample_simplex(rng, 3, Q(3, 10)))
            m.validate()
            assert m.output() == PENDANT_OUTPUT
            assert all(x == 0 or x >= Q(1, 3)
                       for row in m.entries for x in row)


class TestParallel3:
    def test_case_probes(self):
        for expected, p in PARALLEL3_CASE_PROBES.items():
            case, m = gadget_parallel3(p)
            assert case == expected
            out = m.output()
            assert all(x >= FIFTH for x in out)
            if expected == "c'":
                assert out == (FIFTH, Q(2, 5), FIFTH, FIFTH)

    def test_case_selection_first_applicable(self):
        # boundary p31+p32 = 2/5 goes to case a, not b
        p = [Q(1, 5), Q(1, 5), Q(1, 10), Q(1, 10), Q(1, 5), Q(1, 5)]
        case, m = gadget_parallel3(p)
        assert case == "a"
        assert all(x >= FIFTH for x in m.output())
        p = [Q(1, 10), Q(1, 10), Q(1, 5), Q(1, 5), Q(1, 5), Q(1, 5)]
        case, m = gadget_parallel3(p)
        assert case == "a"
        assert all(x >= FIFTH for x in m.output())

    def test_normalization_violation_rejected(self):
        p = [Q(1, 5), Q(1, 10), Q(1, 5), Q(1, 5), Q(1, 10), Q(1, 5)]
        with pytest.raises(GadgetError):
            gadget_parallel3(p)
        fixed = normalize_parallel3(p)
        case, m = gadget_parallel3(fixed)
        assert all(x >= FIFTH for x in m.output())

    def test_rows_compatible_with_attachment_colors(self):
        # In cases a, b, c a row (iu, iv) has zero weight on every column
        # with u' = iu or v' = iv.  Case c' is excluded: its published form
        # sends the (1,3) and (2,3) columns to the coloring (2u, 3v), so the
        # pattern cannot hold there while producing (1/5, 2/5, 1/5, 1/5).
        rows = ((1, 3), (2, 3), (3, 1), (3, 2))
        cols = ((1, 2), (2, 1), (1, 3), (2, 3), (3, 1), (3, 2))
        rng = random.Random(54)
        for _ in range(100):
            case, m = gadget_parallel3(sample_parallel3(rng))
            if case == "c'":
                continue
            for i, (iu, iv) in enumerate(rows):
                for j, (cu, cv) in enumerate(cols):
                    if cu == iu or cv == iv:
                        assert m.entries[i][j] == 0

    def test_exactly_one_case_fires(self):
        rng = random.Random(55)
        seen = set()
        for _ in range(400):
            case, m = gadget_parallel3(sample_parallel3(rng))
            seen.add(case)
            assert all(x >= FIFTH for x in m.output())
        assert seen == {"a", "b", "c", "c'"}


class TestComposition:
    def test_pendant_joint_distribution_matches_lp(self):
        """Simulate the pendant rule on a single edge and cross-check by LP."""
        rng = random.Random(56)
        g = Multigraph(2, [(0, 1, 1)])
        cover = straight_cover(g)
        for _ in range(10):
            p = sample_simplex(rng, 3, FIFTH)
            m = gadget_pendent(p)
            joint = [((j, i), m.entries[j][i] * p[i])
                     for i in range(3) for j in range(3)
                     if m.entries[j][i] * p[i] > 0]
            # valid colorings of the identity edge, pendant marginals exact
            assert all(a != b for (a, b), _ in joint)
            for j in range(3):
                got = sum((w for (a, _), w in joint if a == j), Q(0))
                assert got == PENDANT_OUTPUT[j]
            pins = [(0, c, PENDANT_OUTPUT[c]) for c in range(3)]
            pins += [(1, c, p[c]) for c in range(3)]
            witness = box_distribution(g, cover, full_lists(2), Q(0), Q(1), pins)
            assert witness is not None


def test_selftest_all_pass():
    report = selftest(200, seed=1)
    for name, info in report.items():
        assert info["passed"] == info["samples"], name
    assert set(report["parallel3"]["cases"]) == {"a", "b", "c", "c'"}
