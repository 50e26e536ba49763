"""Acceptance suite: one test per criterion, each printing a PASS line.

Every numeric assertion is exact rational equality or an exact inequality;
the only tolerances are the stated wall-clock budgets.
"""
import hashlib
import random
import time
from fractions import Fraction as Q

from flexdp.colorings import enumerate_colorings, marginal, tree_pack_2cover
from flexdp.covers import (CoverEnumeration, full_lists, tight_cover,
                           straight_cover, trivial_list_distribution)
from flexdp.flexibility import (epsilon_star, fractional_packing,
                                framework_feasible)
from flexdp.gadgets import selftest
from flexdp.discharging import run_discharging
from flexdp.graphs import (Multigraph, PotentialAssignment, gen_family, mad,
                           mad_subset_oracle, potential)
from flexdp.lp import solve
from flexdp.search import theorem_check
from oracles import (dense_lp, epsilon_lp, oracle_solve,
                     random_connected_multigraph, random_cover,
                     random_2connected_subcubic, random_2lists, random_tree)

JOBS = 8


def report(number: int, message: str) -> None:
    print(f"criterion {number}: PASS - {message}")


def test_criterion_01_inflexible_family_epsilon_zero():
    start = time.monotonic()
    for m in (1, 2, 3):
        g, _ = gen_family("im", m)
        cover = tight_cover("im", g)
        flex = epsilon_star(g, cover)
        assert flex.epsilon_star == 0
        colorings = enumerate_colorings(g, cover)
        assert colorings, "the cover is colorable, only one color is blocked"
        assert all(phi[2 * m] != 2 for phi in colorings)
        if m <= 2:
            assert solve(epsilon_lp(g, cover)).value == 0
    elapsed = time.monotonic() - start
    assert elapsed < 10
    report(1, f"I_1..I_3 adversarial covers give epsilon* = 0 exactly and never "
              f"color the last vertex 2 ({elapsed:.1f}s)")


def test_criterion_02_pendant_family_epsilon_one_fifth():
    start = time.monotonic()
    values = []
    for m in (1, 2):
        g, _ = gen_family("jm", m)
        values.append(epsilon_star(g, tight_cover("jm", g)).epsilon_star)
    assert values == [Q(1, 5), Q(1, 5)]
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(2, f"J_1 and J_2 adversarial covers give epsilon* = 1/5 exactly "
              f"({elapsed:.1f}s)")


def test_criterion_03_exceptional_doubled_edge_threshold():
    start = time.monotonic()
    g, pa = gen_family("c2")
    cover = tight_cover("c2x", g)
    dist = trivial_list_distribution(2)
    assert framework_feasible(g, pa, cover, dist, Q(1, 6)) is not None
    assert framework_feasible(g, pa, cover, dist,
                              Q(1, 6) + Q(1, 1000)) is None
    elapsed = time.monotonic() - start
    assert elapsed < 1
    report(3, f"rho = (4,6) doubled edge feasible at 1/6, infeasible at "
              f"1/6 + 1/1000 ({elapsed:.2f}s)")


def test_criterion_04_potentials():
    for m in (1, 2, 3, 4):
        g, pa = gen_family("im", m)
        assert potential(g, pa, range(g.n)) == 2
    k4, pk4 = gen_family("k4")
    assert potential(k4, pk4, range(4)) == 0
    report(4, "potential(I_m) = 2 for m <= 4 and potential(K_4) = 0, exact")


def test_criterion_05_mad_values():
    for m in (1, 2, 3, 4):
        im = gen_family("im", m)[0]
        jm = gen_family("jm", m)[0]
        expected_i = Q(2 * (3 * m + 1), 2 * m + 1)
        expected_j = Q(6 * m + 8, 2 * m + 3)
        assert mad(im) == expected_i == mad_subset_oracle(im) < 3
        assert mad(jm) == expected_j == mad_subset_oracle(jm) < 3
    report(5, "mad(I_m) = 2(3m+1)/(2m+1) and mad(J_m) = (6m+8)/(2m+3) for "
              "m <= 4; flow and subset oracles agree exactly")


def test_criterion_06_desk_scale_theorem_check():
    start = time.monotonic()
    multi = theorem_check(4, 2, jobs=JOBS)
    simple5 = theorem_check(5, 1, jobs=JOBS)
    flagged = 0
    for rep in (multi, simple5):
        assert not rep.counterexamples
        assert not rep.skipped
        for row in rep.rows:
            if row.i_subgraph is not None:
                flagged += 1
                assert row.epsilon_min == 0
            else:
                assert row.epsilon_min >= Q(1, 5)
    assert flagged >= 1  # the doubled triangle and its extensions
    graphs = len(multi.rows) + len(simple5.rows)
    # the next scale: the TSVs of the runs that first checked it
    for (max_vertices, max_mult), digest in [
            ((5, 2), "5bcd9205426ecd9af20e4ad3aed03f25609b373c6ff63700c52d7d2acbd73b71"),
            ((6, 1), "b4428832cb0e11dbe294feb9cf5ff0afdebb34958a922ce51c7fc8b3d7143d92"),
            ((6, 2), "d866af6e799a8d8984816f28356296e888d846929a323ff41428b78634bbb9b6")]:
        larger = theorem_check(max_vertices, max_mult, jobs=JOBS)
        assert not larger.counterexamples and not larger.skipped
        assert hashlib.sha256(larger.to_tsv().encode()).hexdigest() == digest
        graphs += len(larger.rows)
    elapsed = time.monotonic() - start
    assert elapsed < 1800
    report(6, f"{graphs} sparse graphs checked (<=4 vertices mult<=2, "
              f"5-vertex simple, then <=5 mult<=2, <=6 simple and "
              f"<=6 mult<=2): "
              f"no counterexamples, {flagged} flagged "
              f"inflexible-family graphs all at epsilon_min = 0, none "
              f"skipped ({elapsed:.0f}s, jobs={JOBS})")


def _k23_plus_edge() -> Multigraph:
    # parts {0,1} and {2,3,4}, plus the edge 2-3 inside the larger part
    edges = [(a, b, 1) for a in (0, 1) for b in (2, 3, 4)]
    edges.append((2, 3, 1))
    return Multigraph(5, edges)


def test_criterion_07_packing_negative_instance():
    start = time.monotonic()
    g = _k23_plus_edge()
    assert mad(g) == Q(14, 5)
    enum = CoverEnumeration(g)
    bad = None
    for i in range(enum.count):
        if fractional_packing(g, enum.at(i)) is None:
            bad = i
            break
    elapsed = time.monotonic() - start
    assert bad is not None
    assert elapsed < 600
    report(7, f"K_2,3 + edge: cover class {bad} of {enum.count} admits no "
              f"fractional packing ({elapsed:.0f}s)")


def test_criterion_08_packing_positive_family():
    start = time.monotonic()
    rng = random.Random(20240808)
    solved = 0
    for _ in range(50):
        g = random_2connected_subcubic(rng, max_n=8)
        two = sum(1 for v in range(g.n) if g.degree(v) == 2)
        assert g.n <= 8 and two >= 2 and g.is_simple()
        for _ in range(20):
            cover = random_cover(rng, g)
            witness = fractional_packing(g, cover)
            assert witness is not None
            solved += 1
    assert solved == 1000
    elapsed = time.monotonic() - start
    report(8, f"1000 random (2-connected subcubic, cover) instances all "
              f"admit fractional packings ({elapsed:.0f}s)")


def test_criterion_09_gadget_identities():
    results = selftest(1000, seed=20240808)
    for name, info in results.items():
        assert info["passed"] == info["samples"], name
    assert results["parallel3"]["cases"] == {"a": 468, "b": 316, "c": 132, "c'": 88}
    report(9, "1000 random feasible inputs per gadget: column stochasticity "
              "and output identities hold exactly; all four cases of the "
              "six-column gadget exercised, case c' output (1/5,2/5,1/5,1/5)")


def test_criterion_10_tree_packing():
    rng = random.Random(101)
    for _ in range(500):
        n = rng.randint(1, 12)
        tree = random_tree(rng, n)
        cover = random_cover(rng, tree)
        lists = random_2lists(rng, n)
        phi1, phi2 = tree_pack_2cover(tree, cover, lists)
        for phi in (phi1, phi2):
            for u, v in tree.pairs():
                assert cover.slots(u, v)[0][phi[u]] != phi[v]
        assert all(phi1[v] != phi2[v] for v in range(n))
        assert all({phi1[v], phi2[v]} == set(lists[v]) for v in range(n))
    report(10, "500 random (tree, 2-cover, 2-lists) instances produce two "
               "disjoint colorings partitioning every listed color")


def test_criterion_11_discharging_conservation():
    rng = random.Random(102)
    clean = 0
    for _ in range(200):
        g = random_connected_multigraph(rng, max_n=6, max_mult=2)
        pa = PotentialAssignment(
            tuple(rng.choice((3, 4, 6)) for _ in range(g.n)),
            tuple(rng.choice((0, 1, 2)) for _ in range(g.n)))
        rep = run_discharging(g, pa)
        assert rep.conserved
        assert sum(rep.final) == potential(g, pa, range(g.n))
        if not rep.assumption_violations:
            clean += 1
            assert rep.all_final_nonpositive
    assert clean >= 10
    report(11, f"200 random inputs conserve total charge exactly; all "
               f"{clean} assumption-satisfying inputs end nonpositive")


def test_criterion_12_lp_engine_soundness():
    rng = random.Random(103)
    agreed = 0
    optimal = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        rand_q = lambda: Q(rng.randint(-4, 4), rng.randint(1, 3))
        program = dense_lp(
            [rand_q() for _ in range(n)],
            [([rand_q() for _ in range(n)],
              rng.choice(["<=", "=", ">="]), rand_q()) for _ in range(m)])
        outcome = solve(program)  # certificate re-verified on every solve
        status, value = oracle_solve(program)
        assert outcome.status == status
        if status == "optimal":
            optimal += 1
            assert outcome.value == value
            dual_value = sum((outcome.dual[i] * program.rows[i][2]
                              for i in range(m)), Q(0))
            assert dual_value == outcome.value  # strong duality, exact
        agreed += 1
    assert agreed == 200 and optimal >= 50
    report(12, f"200 random LPs match the vertex-enumeration oracle; strong "
               f"duality exact on all {optimal} optimal instances")
