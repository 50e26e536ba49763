"""LP engine: spec examples, certificate checks, and the brute-force oracle."""
import hashlib
import random
from fractions import Fraction as Q

import pytest

from dataclasses import replace

from flexdp import flexibility
from flexdp.covers import CoverEnumeration, tight_cover
from flexdp.graphs import gen_family, mad
from flexdp.lp import (LinearProgram, LpError, LpInternalError, _Revised,
                       solve, verify_certificate)
from flexdp.search import enumerate_connected_multigraphs
from oracles import (bland_simplex, dense_lp, epsilon_lp,
                     first_negative_column, list_pivot, oracle_solve,
                     random_2connected_subcubic, random_cover, reduced_costs,
                     slots_of)


def lp(objective, rows):
    """The program over Fractions, x >= 0, with its width from `objective`."""
    return dense_lp([Q(c) for c in objective], [
        ([Q(a) for a in coeffs], rel, Q(rhs)) for coeffs, rel, rhs in rows])


def test_single_cap():
    out = solve(lp([1], [((1,), "<=", 1)]))
    assert out.status == "optimal"
    assert out.value == 1
    assert out.dual == (Q(1),)


def test_two_caps_takes_tighter():
    out = solve(lp([1], [((1,), "<=", Q(1, 3)), ((1,), "<=", Q(1, 5))]))
    assert out.value == Q(1, 5)


def test_contradictory_equalities_infeasible():
    out = solve(lp([1], [((1,), "=", 1), ((1,), "=", 2)]))
    assert out.status == "infeasible"


def test_unbounded_direction():
    out = solve(lp([1, 1], [((1, -1), "<=", 1)]))
    assert out.status == "unbounded"


def test_degenerate_redundant_rows():
    """The second equality is redundant and is deleted after phase 1, also
    in the copy with the equalities scaled by 1/2 and 2/3."""
    rows = [((1, 1), "=", 1), ((2, 2), "=", 2), ((1, 0), "<=", Q(3, 4))]
    scaled = [((Q(1, 2), Q(1, 2)), "=", Q(1, 2)),
              ((Q(4, 3), Q(4, 3)), "=", Q(4, 3)), rows[2]]
    for program in (rows, scaled):
        out = solve(lp([1, 0], program))
        assert out.value == Q(3, 4)
        assert out.primal == (Q(3, 4), Q(1, 4)) and out.dual == (0, 0, 1)


def test_mixed_row_denominators_pin_the_dual():
    """Degenerate at the origin, with two optimal duals; phase 1 must weigh
    each artificial as a variable of its unscaled row to reach (0, 2)."""
    out = solve(lp([0, 1], [((Q(-1, 3), Q(2, 3)), "<=", 0),
                            ((Q(1, 2), Q(1, 2)), "=", 0)]))
    assert out.primal == (0, 0) and out.value == 0
    assert out.dual == (0, 2)


def test_classic_cycling_instance_terminates():
    """Degenerate LP on which naive pivoting cycles forever."""
    out = solve(lp(
        [Q(3, 4), Q(-150), Q(1, 50), Q(-6)],
        [((Q(1, 4), Q(-60), Q(-1, 25), Q(9)), "<=", Q(0)),
         ((Q(1, 2), Q(-90), Q(-1, 50), Q(3)), "<=", Q(0)),
         ((Q(0), Q(0), Q(1), Q(0)), "<=", Q(1))]))
    assert out.status == "optimal"
    assert out.value == Q(1, 20)


def test_lower_bounds_shift():
    """A lower bound other than 0 is a `>=` row."""
    out = solve(lp([-1], [((1,), "<=", 5), ((1,), ">=", 2)]))
    assert out.value == -2
    assert out.primal == (Q(2),)


def test_no_rows():
    assert solve(LinearProgram(2, (1, 0), ())).status == "unbounded"
    out = solve(LinearProgram(2, (-1, Q(-1, 2)), ()))
    assert out.status == "optimal" and out.value == 0 and out.primal == (0, 0)
    assert out.dual == ()


@pytest.mark.parametrize("objective, rows, message", [
    ((1,), (({0: 1, 1: 2}, "<=", 1),), "objective width"),
    ((1, 2), (({0: 1, 2: 1}, "<=", 1),), r"row column outside 0\.\.1"),
    ((1, 2), (({-1: 1}, "<=", 1),), r"row column outside 0\.\.1"),
    ((1, 2), (({0: 1, 1: 2}, "<", 1),), "unknown relation '<'"),
    ((1, 2), (({}, "==", 0),), "unknown relation '=='"),
], ids=["objective", "row", "negative", "relation", "empty-row-relation"])
def test_width_mismatch_rejected(objective, rows, message):
    """A program is rejected for an objective of the wrong width, a row
    with a column at num_vars or below 0, or an unknown relation."""
    with pytest.raises(LpError, match=message):
        LinearProgram(2, objective, rows)


def test_empty_row_is_the_zero_row():
    """A row with no nonzeros is valid: 0 <= 1 holds and 0 >= 1 fails."""
    out = solve(LinearProgram(2, (1, 1), (({}, "<=", 1), ({0: 1, 1: 1}, "<=", 2))))
    assert out.status == "optimal" and out.value == 2 and out.dual[0] == 0
    assert solve(LinearProgram(1, (0,), (({}, ">=", 1),))).status == "infeasible"


def _random_lp(rng, integral=False):
    n = rng.randint(1, 4)
    m = rng.randint(1, 5)
    if integral:
        rand_q = lambda: rng.randint(-4, 4)
    else:
        rand_q = lambda: Q(rng.randint(-4, 4), rng.randint(1, 3))
    objective = [rand_q() for _ in range(n)]
    rows = [(tuple(rand_q() for _ in range(n)),
             rng.choice(["<=", "=", ">="]), rand_q()) for _ in range(m)]
    return lp(objective, rows)


def _as_ints(program):
    """The same program with every entry a Python int (entries are integral)."""
    return LinearProgram(
        program.num_vars, tuple(int(c) for c in program.objective),
        tuple(({j: int(a) for j, a in coeffs.items()}, rel, int(rhs))
              for coeffs, rel, rhs in program.rows))


def test_random_lps_match_vertex_enumeration_oracle():
    """200 random small LPs agree with the oracle on status and value.

    Then 200 more with integer data, solved once with Python int entries
    and once as Fractions: both outcomes must be identical and agree with
    the oracle.
    """
    rng = random.Random(20240331)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(200):
        program = _random_lp(rng)
        out = solve(program)  # certificate verified inside solve
        status, value = oracle_solve(program)
        assert out.status == status
        if status == "optimal":
            assert out.value == value
        statuses[status] += 1
    # the generator must exercise every status for the test to mean anything
    assert all(statuses.values()), statuses

    rng = random.Random(20240331)
    int_statuses = dict.fromkeys(statuses, 0)
    for _ in range(200):
        program = _random_lp(rng, integral=True)
        ints = _as_ints(program)
        assert all(type(a) is int for coeffs, _, _ in ints.rows
                   for a in coeffs.values())
        out = solve(ints)
        assert out == solve(program)
        status, value = oracle_solve(program)
        assert out.status == status
        if status == "optimal":
            assert out.value == value
        int_statuses[status] += 1
    assert all(int_statuses.values()), int_statuses


# max 3 x0 + 2 x1 + 0 x2 at x = (3, 1, 0): rows 0 and 2 are tight with
# duals 2 and 1, rows 1 and 3 are loose, and column 2 has reduced cost 2.
_INT_LP = dense_lp((3, 2, 0), (
    ((1, 1, 1), "<=", 4),
    ((1, 3, 0), "<=", 9),
    ((1, 0, 0), "<=", 3),
    ((1, 1, 0), ">=", 1)))
# The same program with every row and the objective rescaled by Fractions,
# plus a loose fifth row x0 >= 1.
_FRACTION_LP = lp([Q(3, 2), 1, 0],
                  [((Q(1, 2), Q(1, 2), Q(1, 2)), "<=", 2),
                   ((Q(1, 3), 1, 0), "<=", 3),
                   ((Q(2, 5), 0, 0), "<=", Q(6, 5)),
                   ((Q(3, 7), Q(3, 7), 0), ">=", Q(3, 7)),
                   ((1, 0, 0), ">=", 1)])


def _set(values, i, new):
    values = list(values)
    values[i] = new
    return tuple(values)


_TAMPERS = {
    "negative_primal": (
        lambda out: replace(out, primal=_set(out.primal, 2, Q(-1, 2))),
        "primal violates x >= 0"),
    "violated_row": (
        lambda out: replace(out, primal=_set(out.primal, 1, out.primal[1] + 1)),
        "row 0: .* > "),
    "wrong_dual_sign": (
        lambda out: replace(out, dual=_set(out.dual, 3, Q(1))),
        "row 3: dual sign for >= must be <= 0"),
    "row_complementary_slackness": (
        lambda out: replace(out, dual=_set(out.dual, 1, Q(1))),
        "row 1: complementary slackness fails"),
    "wrong_value": (
        lambda out: replace(out, value=out.value + 1),
        "reported value differs"),
    "negative_reduced_cost": (
        lambda out: replace(out, dual=_set(out.dual, 0, out.dual[0] / 2)),
        "dual infeasible"),
    "column_complementary_slackness": (
        lambda out: replace(out, dual=_set(out.dual, 0, out.dual[0] * 2)),
        "column 0: complementary slackness fails"),
    # Feasibility and both slackness conditions imply strong duality, so a
    # dual that breaks it is always caught, here by column slackness.
    "strong_duality": (
        lambda out: replace(out, dual=tuple(2 * y for y in out.dual)),
        None),
}


@pytest.mark.parametrize("program", [_INT_LP, _FRACTION_LP],
                         ids=["int", "fraction"])
@pytest.mark.parametrize("tamper", list(_TAMPERS))
def test_certificate_check_rejects_tampering(program, tamper):
    out = solve(program)
    assert out.status == "optimal" and out.primal == (3, 1, 0)
    verify_certificate(program, out)
    change, message = _TAMPERS[tamper]
    with pytest.raises(LpInternalError, match=message):
        verify_certificate(program, change(out))


@pytest.mark.parametrize("objective, row, primal, message", [
    ((-1, 0), ((1, 0), ">=", 1), (0, 0), "row 0: 0 < 1"),
    ((1, 0), ((1, 1), "=", 1), (1, 1), "row 0: 2 != 1"),
], ids=["ge", "eq"])
def test_certificate_check_rejects_violated_row(objective, row, primal, message):
    """The `>=` and `=` counterparts of the `violated_row` tamper above."""
    program = lp(objective, [row])
    out = solve(program)
    verify_certificate(program, out)
    with pytest.raises(LpInternalError, match=message):
        verify_certificate(program, replace(out, primal=primal))


def test_duals_certify_value_on_random_optimal_lps():
    rng = random.Random(7)
    seen = 0
    while seen < 40:
        program = _random_lp(rng)
        out = solve(program)
        if out.status != "optimal":
            continue
        seen += 1
        dual_value = sum((out.dual[i] * program.rows[i][2]
                          for i in range(len(program.rows))), Q(0))
        assert dual_value == out.value


def _degenerate_lps(count):
    """The first `count` LPs of a seeded stream of small LPs with mixed row
    denominators, many of them degenerate."""
    rng = random.Random(1)
    for _ in range(count):
        n, m = rng.randint(1, 6), rng.randint(1, 7)
        rows = []
        for _ in range(m):
            den = rng.choice((1, 2, 3, 5))
            rows.append((tuple(Q(rng.randint(-2, 2), den) for _ in range(n)),
                         rng.choice(("<=", "=", ">=")),
                         Q(rng.randint(-1, 2), den)))
        yield lp([rng.choice((-1, 0, 1)) for _ in range(n)], rows)


def test_witnesses_pinned_on_degenerate_lps():
    """6,000 small LPs with mixed row denominators, many degenerate: the
    sha256 of every outcome's repr pins primal and dual witnesses, not only
    values, so any change to the pivot sequence shows.  The digest was
    generated with the per-row-denominator tableau that preceded the
    fraction-free one."""
    digest = hashlib.sha256()
    for program in _degenerate_lps(6000):
        digest.update(repr(solve(program)).encode())
    assert digest.hexdigest() == (
        "88bfbef133a3e29865670d7fe12aee495d6fbd8a892d46fa8188bf9285a6b6ff")


def _outcome(program):
    out = solve(program)
    return out.status, out.primal, out.value, out.dual


def test_witnesses_match_dense_bland_oracle():
    """The first 2,000 LPs of the pinned-digest generator above: `solve`
    returns the textbook dense simplex's status, primal, value and dual."""
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for program in _degenerate_lps(2000):
        expected = bland_simplex(program)
        assert _outcome(program) == expected
        statuses[expected[0]] += 1
    assert all(statuses.values()), statuses


def _recorded_lps(queries):
    """The LPs `flexibility` solves while `queries` are asked, in order."""
    programs = []

    def recording(program):
        programs.append(program)
        return solve(program)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flexibility, "solve", recording)
        for query in queries:
            query()
    return programs


def _epsilon_star_lps():
    """The epsilon* LPs of the tight J_1..J_3 covers, as `epsilon_star`
    builds them, and of every (4,2) graph with mad < 3 under its first
    cover class, as `oracles.epsilon_lp` writes them: `epsilon_star` solves
    no LP where a color is dead, which some of those classes have."""
    tight = [gen_family("jm", m)[0] for m in (1, 2, 3)]
    graphs = [g for g in enumerate_connected_multigraphs(4, 2) if mad(g) < 3]
    programs = _recorded_lps(
        [lambda g=g: flexibility.epsilon_star(g, tight_cover("jm", g))
         for g in tight])
    programs += [epsilon_lp(g, CoverEnumeration(g).at(0)) for g in graphs]
    assert len(programs) == 3 + len(graphs)
    return programs


def _j5_lp():
    """The epsilon* LP of the tight J_5 cover, 40 rows by 368 colorings and
    epsilon, as `epsilon_star` builds it."""
    g = gen_family("jm", 5)[0]
    (program,) = _recorded_lps(
        [lambda: flexibility.epsilon_star(g, tight_cover("jm", g))])
    assert (len(program.rows), program.num_vars) == (40, 369)
    return program


def test_epsilon_star_lps_match_dense_bland_oracle():
    """The epsilon* LPs above solve to the dense oracle's witnesses."""
    for program in _epsilon_star_lps():
        assert _outcome(program) == bland_simplex(program)


def test_unit_and_full_pivots_match_dense_bland_oracle(monkeypatch):
    """Both branches of `_Revised.pivot` run and keep the oracle's witnesses.

    A pivot equal to the denominator moves, in place, only the packed
    columns at the pivot row's nonzeros; any other pivot rewrites every
    column, and a negative one (driving an artificial out) negates them
    all.  Over the epsilon* LPs and the first 200 LPs of the pinned-digest
    generator each branch must run, every outcome must equal the dense
    oracle's, and a second solve of the same program must return the same
    outcome, which an in-place update that leaked into shared data would
    break.
    """
    programs = _epsilon_star_lps() + list(_degenerate_lps(200))
    counts = {"unit": 0, "full": 0, "negative": 0}
    pivot = _Revised.pivot

    def counting(tab, p, j, column):
        piv = column[p]
        counts["unit" if piv == tab.d else "full"] += 1
        counts["negative"] += piv < 0
        pivot(tab, p, j, column)

    monkeypatch.setattr(_Revised, "pivot", counting)
    for program in programs:
        first = _outcome(program)
        assert first == bland_simplex(program)
        assert _outcome(program) == first
    assert all(counts.values()), counts


def test_packed_pricing_picks_the_first_negative_column(monkeypatch):
    """At every pricing step the lowest negative slot of the packed z-row is
    the column a scan of every reduced cost picks first (-1 when none is
    negative), and after every pivot, negative ones driving artificials out
    included, each slot of T holds its column's reduced cost; over the
    epsilon* LPs, the first 200 LPs of the pinned-digest generator and the
    J_5 epsilon* LP."""
    programs = _epsilon_star_lps() + list(_degenerate_lps(200)) + [_j5_lp()]
    steps = {"entering": 0, "optimal": 0, "negative": 0}
    entering, pivot = _Revised.entering, _Revised.pivot

    def checked_entering(tab):
        expected = first_negative_column(tab)
        picked = entering(tab)
        assert picked == expected
        steps["entering" if picked >= 0 else "optimal"] += 1
        return picked

    def checked_pivot(tab, p, j, column):
        steps["negative"] += column[p] < 0
        pivot(tab, p, j, column)
        assert tab.T == sum(r << tab.width * slot
                            for slot, r in enumerate(reduced_costs(tab)))

    monkeypatch.setattr(_Revised, "entering", checked_entering)
    monkeypatch.setattr(_Revised, "pivot", checked_pivot)
    for program in programs:
        solve(program)
    assert steps["entering"] > 1000 and steps["optimal"] > len(programs)
    assert steps["negative"], steps


def _columns(tab) -> list:
    """The kernel's packed columns of d*B^-1 and beta, read by the oracle
    through the bias of their stored slots."""
    return [slots_of(x - tab.off, tab.V, len(tab.basis)) for x in tab.B]


def test_packed_columns_match_list_pivot(monkeypatch):
    """After every pivot the packed columns B of d*B^-1 and beta, u and d
    equal the rows that the list-of-rows pivot gives from the same state,
    and M bounds every entry.  Before it, the entering column is each
    row's dot product with A_j and the z entry u.A_j - d*cost[j].  Over the
    epsilon* LPs, the first 200 LPs of the pinned-digest generator and the
    J_5 epsilon* LP, where M is tracked pivot by pivot; unit, full and
    negative pivots all run."""
    programs = _epsilon_star_lps() + list(_degenerate_lps(200)) + [_j5_lp()]
    counts = {"unit": 0, "full": 0, "negative": 0}
    pivot = _Revised.pivot

    def checked(tab, p, j, column):
        rows = [list(r) for r in zip(*_columns(tab))] + [list(tab.u)]
        ks, vs = tab.cols[j]
        entries = (1,) * len(ks) if vs is None else vs
        assert column == [sum(r[k] * a for k, a in zip(ks, entries))
                          for r in rows[:-1]] + [
            sum(tab.u[k] * a for k, a in zip(ks, entries))
            - tab.d * tab.cost[j]]
        counts["unit" if column[p] == tab.d else "full"] += 1
        counts["negative"] += column[p] < 0
        d = list_pivot(rows, p, column, tab.d)
        pivot(tab, p, j, column)
        columns = _columns(tab)
        assert tab.d == d
        assert columns == [list(c) for c in zip(*rows[:-1])]
        assert tab.u == rows[-1]
        assert tab.M >= max(abs(a) for c in columns for a in c)

    monkeypatch.setattr(_Revised, "pivot", checked)
    for program in programs:
        solve(program)
    assert all(counts.values()), counts


@pytest.mark.parametrize("width", [16, 32, 64, 128])
@pytest.mark.parametrize("native", [True, False], ids=["cast", "bytes"])
def test_slots_read_back(width, native):
    """`encode`, `decode` and `row` round-trip any slots within the width
    bound, the extremes included, through the native cast and through the
    slot-by-slot bytes path."""
    rng = random.Random(width)
    limit = (1 << width - 2) - 1
    count = 9
    columns = [[rng.choice((limit, -limit, 0, rng.randint(-limit, limit)))
                for _ in range(count)] for _ in range(5)] + [[0] * count]
    tab = _Revised.__new__(_Revised)
    tab.slots(width, count)
    if not native:
        tab.cast = None
    tab.B = [tab.encode(c) for c in columns]
    assert [slots_of(x - tab.off, width, count) for x in tab.B] == columns
    assert [tab.decode(x) for x in tab.B] == columns
    for p in range(count):
        assert tab.row(p) == [c[p] for c in columns]


def _wide_lps(count):
    """Small LPs whose every entry is a Fraction with 30- to 40-digit
    numerator and denominator."""
    rng = random.Random(5)

    def entry():
        return Q(rng.choice((-1, 1)) * rng.randint(10**29, 10**40),
                 rng.randint(10**29, 10**40))

    for _ in range(count):
        n, m = rng.randint(2, 5), rng.randint(2, 5)
        yield dense_lp([entry() for _ in range(n)], [
            ([entry() for _ in range(n)], rng.choice(("<=", "=", ">=")),
             entry()) for _ in range(m)])


def test_slot_width_grows_mid_phase(monkeypatch):
    """The pivots of LPs with 30- to 40-digit coefficients outgrow the slot
    width they start a phase with: the kernel must double it and repack
    between pivots, pick the scan's column at every pricing step, and still
    return the dense oracle's outcome."""
    phase_pivots, growths = [0], [0]
    run, pivot, repack = _Revised.run, _Revised.pivot, _Revised.repack
    entering = _Revised.entering

    def counting_run(tab, ncols):
        phase_pivots[0] = 0
        return run(tab, ncols)

    def counting_pivot(tab, p, j, column):
        phase_pivots[0] += 1
        pivot(tab, p, j, column)

    def counting_repack(tab, width):
        if width > tab.width and phase_pivots[0]:
            assert width % tab.width == 0
            growths[0] += 1
        repack(tab, width)

    def checked_entering(tab):
        expected = first_negative_column(tab)
        assert entering(tab) == expected
        return expected

    monkeypatch.setattr(_Revised, "run", counting_run)
    monkeypatch.setattr(_Revised, "pivot", counting_pivot)
    monkeypatch.setattr(_Revised, "repack", counting_repack)
    monkeypatch.setattr(_Revised, "entering", checked_entering)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for program in _wide_lps(20):
        expected = bland_simplex(program)
        assert _outcome(program) == expected
        statuses[expected[0]] += 1
    assert growths[0] >= 1
    assert all(statuses.values()), statuses


def test_misread_slots_raise_instead_of_widening(monkeypatch):
    """A kernel defect that reads every slot 2**(V-1) too low fails the
    bound check of every pivot: `refit` must stop at the Hadamard ceiling
    with LpInternalError instead of doubling V without end (the guard on
    `slots` fails the test, well before memory runs out, if it does not)."""
    row, slots = _Revised.row, _Revised.slots

    def misread(tab, p):
        return [b - tab.half for b in row(tab, p)]

    def guarded(tab, width, count):
        assert width <= 4096, f"a 2-row LP widened its slots to {width} bits"
        slots(tab, width, count)

    monkeypatch.setattr(_Revised, "row", misread)
    monkeypatch.setattr(_Revised, "slots", guarded)
    with pytest.raises(LpInternalError, match="Hadamard ceiling"):
        solve(lp([1, 1], [((1, 2), "<=", 4), ((3, 1), "<=", 6)]))


def _sparse_wide_lp(seed):
    """An LP of 2 to 9 variables and 2 to 9 rows drawn from `seed`: about
    20% of its entries are 0, the others +-Fractions whose numerator and
    denominator lie in [10**a, 10**(a+b)], a in 1..12 and b in 1..10."""
    rng = random.Random(seed)
    a, b = rng.randint(1, 12), rng.randint(1, 10)

    def entry():
        if rng.random() < 0.2:
            return 0
        return Q(rng.choice((-1, 1)) * rng.randint(10**a, 10**(a + b)),
                 rng.randint(10**a, 10**(a + b)))

    n, m = rng.randint(2, 9), rng.randint(2, 9)
    return dense_lp([entry() for _ in range(n)], [
        ([entry() for _ in range(n)], rng.choice(("<=", "=", ">=")), entry())
        for _ in range(m)])


# Seeds below 4,500 whose LPs take a pivot with |piv| < d after which the
# pivot row's entries, which stay put, exceed (|piv|*M + max|f|*max|b|) // d
# + 1, the bound on every other slot.
_SLOT_P_SEEDS = (380, 2650, 3135)


def test_column_width_grows_mid_phase(monkeypatch):
    """The pivots of LPs with 30- to 40-digit coefficients outgrow the
    slot width V of the packed columns of d*B^-1: the kernel must read
    them at the old width, double V and repack between pivots, keep M a
    bound on every entry, and still return the dense oracle's outcome.
    M must stay a bound through the pivots of `_SLOT_P_SEEDS` too."""
    phase_pivots, growths = [0], [0]
    run, pivot, refit = _Revised.run, _Revised.pivot, _Revised.refit

    def counting_run(tab, ncols):
        phase_pivots[0] = 0
        return run(tab, ncols)

    def checked_pivot(tab, p, j, column):
        pivot(tab, p, j, column)
        phase_pivots[0] += 1
        assert tab.M >= max(abs(a) for c in _columns(tab) for a in c)

    def counting_refit(tab, *args):
        width = tab.V
        bound = refit(tab, *args)
        if tab.V > width and phase_pivots[0]:
            assert tab.V % width == 0
            growths[0] += 1
        return bound

    monkeypatch.setattr(_Revised, "run", counting_run)
    monkeypatch.setattr(_Revised, "pivot", checked_pivot)
    monkeypatch.setattr(_Revised, "refit", counting_refit)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    programs = list(_wide_lps(20)) + list(map(_sparse_wide_lp, _SLOT_P_SEEDS))
    for program in programs:
        expected = bland_simplex(program)
        assert _outcome(program) == expected
        statuses[expected[0]] += 1
    assert growths[0] >= 1
    assert all(statuses.values()), statuses


def test_stored_slots_are_biased_and_read_back(monkeypatch):
    """Every stored slot of every packed column lies in [0, 2**V) and is
    the signed slot plus 2**(V-1): after every pivot, the base-2**V digits
    of each B[k] minus 2**(V-1) are the oracle's signed slots of B[k] -
    off, and `row(p)` is slot p of those signed columns for every p.
    Before every pivot the kept entering column X, less the bias of one
    column, is sum_k A_kj * (B[k] - off).  Over the J_5 epsilon* LP, 200
    random LPs, the LPs with 30- to 40-digit entries and `_SLOT_P_SEEDS`;
    unit, full and negative pivots and refits after a phase's first pivot
    all occur."""
    rng = random.Random(20251020)
    programs = ([_j5_lp()] + [_random_lp(rng) for _ in range(200)]
                + list(_wide_lps(20)) + list(map(_sparse_wide_lp,
                                                 _SLOT_P_SEEDS)))
    counts = dict.fromkeys(("unit", "full", "negative", "mid-phase refit"), 0)
    phase_pivots = [0]
    run, pivot, refit = _Revised.run, _Revised.pivot, _Revised.refit

    def counting_run(tab, ncols):
        phase_pivots[0] = 0
        return run(tab, ncols)

    def counting_refit(tab, *args):
        counts["mid-phase refit"] += phase_pivots[0] > 0
        return refit(tab, *args)

    def checked_pivot(tab, p, j, column):
        V, m = tab.V, len(tab.basis)
        off = sum(1 << V * i + V - 1 for i in range(m))
        ks, vs = tab.cols[j]
        entries = (1,) * len(ks) if vs is None else vs
        assert tab.X - off == sum(a * (tab.B[k] - off)
                                  for k, a in zip(ks, entries))
        counts["unit" if column[p] == tab.d else "full"] += 1
        counts["negative"] += column[p] < 0
        pivot(tab, p, j, column)
        phase_pivots[0] += 1
        V, m = tab.V, len(tab.basis)
        off = sum(1 << V * i + V - 1 for i in range(m))
        assert tab.off == off
        columns = []
        for x in tab.B:
            assert 0 <= x < 1 << V * m
            signed = slots_of(x - off, V, m)
            assert [(x >> V * i) % (1 << V) - (1 << V - 1)
                    for i in range(m)] == signed
            columns.append(signed)
        for i in range(m):
            assert tab.row(i) == [c[i] for c in columns]

    monkeypatch.setattr(_Revised, "run", counting_run)
    monkeypatch.setattr(_Revised, "refit", counting_refit)
    monkeypatch.setattr(_Revised, "pivot", checked_pivot)
    for program in programs:
        solve(program)
    assert all(counts.values()), counts


def test_j5_pivot_counts_pinned(monkeypatch):
    """The J_5 epsilon* LP takes 640 pivots, 526 of them equal to the
    common denominator, the counts of the kernel that priced column by
    column: the basis sequence is unchanged."""
    counts = {"all": 0, "unit": 0}
    pivot = _Revised.pivot

    def counting(tab, p, j, column):
        counts["all"] += 1
        counts["unit"] += column[p] == tab.d
        pivot(tab, p, j, column)

    program = _j5_lp()
    monkeypatch.setattr(_Revised, "pivot", counting)
    assert solve(program).value == Q(1, 5)
    assert counts == {"all": 640, "unit": 526}


def _pricing_sum(tab) -> int:
    """sum_k |u_k| * max_j |A_kj| over the rows k of A, each max at least
    the 1 of row k's artificial, from `tab.u` and the sparse `tab.cols`."""
    amax = [1] * (len(tab.u) - 1)
    for ks, vs in tab.cols:
        for k, a in zip(ks, (1,) * len(ks) if vs is None else vs):
            amax[k] = max(amax[k], abs(a))
    return sum(abs(a) * w for a, w in zip(tab.u, amax))


def test_running_pricing_sum_matches_a_fresh_sum(monkeypatch):
    """After every pivot the kernel's running sum S, which bounds the packed
    reduced costs, equals sum_k |u_k| * max_j |A_kj| summed afresh: in
    phase 1, the drive-out and phase 2, through unit and full pivots, over
    the J_5 epsilon* LP, 200 random LPs and the first 200 LPs of the
    pinned-digest generator."""
    rng = random.Random(20240331)
    programs = ([_j5_lp()] + [_random_lp(rng) for _ in range(200)]
                + list(_degenerate_lps(200)))
    counts = dict.fromkeys(("phase 1", "drive-out", "phase 2", "unit",
                            "full"), 0)
    state = {"runs": 0, "running": False}
    run, pivot = _Revised.run, _Revised.pivot

    def tracking_run(tab, ncols):
        state["runs"] += 1
        state["running"] = True
        try:
            return run(tab, ncols)
        finally:
            state["running"] = False

    def checked(tab, p, j, column):
        counts["unit" if column[p] == tab.d else "full"] += 1
        counts["phase 2" if state["runs"] > 1 else
               "phase 1" if state["running"] else "drive-out"] += 1
        pivot(tab, p, j, column)
        assert tab.S == _pricing_sum(tab)

    monkeypatch.setattr(_Revised, "run", tracking_run)
    monkeypatch.setattr(_Revised, "pivot", checked)
    for program in programs:
        state["runs"] = 0
        solve(program)
    assert all(counts.values()), counts


def _packing_instances():
    """K4 under its first 20 cover classes (12 of them reach an LP), the
    tight J_5 cover (its LP is infeasible), and the
    first two instances on each of the first three graphs of the
    criterion-8 packing sweep's stream (5, 4 and 6 vertices)."""
    k4, j5 = gen_family("k4")[0], gen_family("jm", 5)[0]
    classes = CoverEnumeration(k4)
    found = [(k4, classes.at(i)) for i in range(20)]
    found.append((j5, tight_cover("jm", j5)))
    rng = random.Random(20240808)
    for _ in range(3):
        g = random_2connected_subcubic(rng, max_n=8)
        found += [(g, random_cover(rng, g)) for _ in range(20)][:2]
    return found


def test_redundant_rows_keep_their_artificial_at_zero(monkeypatch):
    """The fractional-packing LPs of `_packing_instances` have redundant
    rows (the three marginal rows of a vertex sum to the same total), which
    the drive-out finds with no real column to pivot on.  Each such row
    keeps its artificial basic with beta 0 after every later pivot and at
    the end of phase 2.  The counts are those of the kernel that deleted
    the rows, and the witnesses equal the dense oracle's, which deletes
    them row by row."""
    programs = _recorded_lps([
        lambda g=g, cover=cover: flexibility.fractional_packing(g, cover)
        for g, cover in _packing_instances()])
    run, pivot, redundant = _Revised.run, _Revised.pivot, _Revised.redundant
    rows = []

    def kept(tab):
        beta = _columns(tab)[-1]
        assert all(tab.basis[i] >= tab.art0 and beta[i] == 0 for i in rows)

    def checked_redundant(tab, p):
        j = redundant(tab, p)
        if j < 0:
            rows.append(p)
        return j

    def checked_pivot(tab, p, j, column):
        pivot(tab, p, j, column)
        kept(tab)

    def checked_run(tab, ncols):
        status = run(tab, ncols)
        kept(tab)
        return status

    monkeypatch.setattr(_Revised, "redundant", checked_redundant)
    monkeypatch.setattr(_Revised, "pivot", checked_pivot)
    monkeypatch.setattr(_Revised, "run", checked_run)
    found = []
    for program in programs:
        rows.clear()
        assert _outcome(program) == bland_simplex(program)
        found.append(len(rows))
    assert found == [7, 7, 0, 0, 0, 0, 0, 0, 0, 0, 7, 0,
                     0,
                     4, 6, 3, 3, 5, 5]


def test_redundant_matches_a_column_scan(monkeypatch):
    """At every drive-out step the packed product's lowest nonzero slot is
    the first real column with a nonzero in the artificial's row, as a
    dot product per column finds it, and -1 exactly when there is none;
    over the packing LPs above, the first 200 LPs of the pinned-digest
    generator and the LPs with 30- to 40-digit entries."""
    programs = (_recorded_lps([
        lambda g=g, cover=cover: flexibility.fractional_packing(g, cover)
        for g, cover in _packing_instances()])
        + list(_degenerate_lps(200)) + list(_wide_lps(20)))
    found = {"column": 0, "redundant": 0}
    redundant = _Revised.redundant

    def checked(tab, p):
        row = tab.row(p)
        expected = next((j for j, (ks, vs) in enumerate(tab.cols[:tab.art0])
                         if sum(row[k] * a for k, a in zip(
                             ks, (1,) * len(ks) if vs is None else vs))), -1)
        assert redundant(tab, p) == expected
        found["column" if expected >= 0 else "redundant"] += 1
        return expected

    monkeypatch.setattr(_Revised, "redundant", checked)
    for program in programs:
        solve(program)
    assert all(found.values()), found


def test_redundant_widens_before_reading_slots():
    """A slot of 2**16 reads as 0 at the starting 16-bit width, so `redundant`
    must widen W before it reads P: the row below, 2**16 at column 0, is
    not redundant."""
    tab = _Revised([((0,), (1 << 16,)), ((0,), None)], [0], [-1, 0], [0, -1])
    tab.ncols, tab.cmax = 2, 1
    tab.repack(tab.width)
    assert tab.width == 16
    assert tab.redundant(0) == 0
    assert tab.width == 32
