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
from oracles import bland_simplex, oracle_solve


def lp(objective, rows):
    """The program over Fractions, x >= 0, with its width from `objective`."""
    objective = tuple(Q(c) for c in objective)
    return LinearProgram(len(objective), objective, tuple(
        (tuple(Q(a) for a in coeffs), rel, Q(rhs)) for coeffs, rel, rhs in rows))


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
    ((1,), (((1, 2), "<=", 1),), "objective width"),
    ((1, 2), (((1,), "<=", 1),), "row width"),
    ((1, 2), (((1, 2), "<", 1),), "unknown relation '<'"),
], ids=["objective", "row", "relation"])
def test_width_mismatch_rejected(objective, rows, message):
    with pytest.raises(LpError, match=message):
        LinearProgram(2, objective, rows)


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
        tuple((tuple(int(a) for a in coeffs), rel, int(rhs))
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
        assert all(type(a) is int for coeffs, _, _ in ints.rows for a in coeffs)
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
_INT_LP = LinearProgram(3, (3, 2, 0), (
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


def _epsilon_star_lps():
    """The epsilon* LPs of the tight J_1..J_3 covers and of every (4,2)
    graph with mad < 3 under its first cover class, as `epsilon_star`
    builds them."""
    programs = []

    def recording(program):
        programs.append(program)
        return solve(program)

    graphs = [g for g in enumerate_connected_multigraphs(4, 2) if mad(g) < 3]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flexibility, "solve", recording)
        for m in (1, 2, 3):
            g = gen_family("jm", m)[0]
            flexibility.epsilon_star(g, tight_cover("jm", g))
        for g in graphs:
            flexibility.epsilon_star(g, CoverEnumeration(g).at(0), shortcut=False)
    assert len(programs) == 3 + len(graphs)
    return programs


def test_epsilon_star_lps_match_dense_bland_oracle():
    """The epsilon* LPs above solve to the dense oracle's witnesses."""
    for program in _epsilon_star_lps():
        assert _outcome(program) == bland_simplex(program)


def test_unit_and_full_pivots_match_dense_bland_oracle(monkeypatch):
    """Both branches of `_Revised.pivot` run and keep the oracle's witnesses.

    A pivot equal to the denominator updates the rows in place, at the
    pivot row's nonzeros only; any other pivot rewrites every row, and a
    negative one (driving an artificial out) negates them all.  Over the
    epsilon* LPs and the first 200 LPs of the pinned-digest generator each
    branch must run, every outcome must equal the dense oracle's, and a
    second solve of the same program must return the same outcome, which
    an in-place update that leaked into shared data would break.
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
