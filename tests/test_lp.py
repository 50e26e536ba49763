"""LP engine: spec examples, certificate checks, and the brute-force oracle."""
import random
from fractions import Fraction as Q

import pytest

from dataclasses import replace

from flexdp.lp import (LinearProgram, LpError, LpInternalError, solve,
                       verify_certificate)
from oracles import oracle_solve


def lp(objective, rows, lower=None):
    return LinearProgram.build(objective, rows, lower)


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
    rows = [((1, 1), "=", 1), ((2, 2), "=", 2), ((1, 0), "<=", Q(3, 4))]
    out = solve(lp([1, 0], rows))
    assert out.value == Q(3, 4)


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
    out = solve(lp([-1], [((1,), "<=", 5)], lower=[Q(2)]))
    assert out.value == -2
    assert out.primal == (Q(2),)


def test_no_rows():
    assert solve(LinearProgram(2, (1, 0), ())).status == "unbounded"
    out = solve(LinearProgram(2, (-1, Q(-1, 2)), ()))
    assert out.status == "optimal" and out.value == 0 and out.primal == (0, 0)
    assert out.dual == ()


def test_width_mismatch_rejected():
    with pytest.raises(LpError):
        LinearProgram.build([1, 2], [((1,), "<=", 1)])


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
# The same program with every row and the objective rescaled by Fractions
# and explicit lower bounds, only the last of which is binding.
_FRACTION_LP = lp([Q(3, 2), 1, 0],
                  [((Q(1, 2), Q(1, 2), Q(1, 2)), "<=", 2),
                   ((Q(1, 3), 1, 0), "<=", 3),
                   ((Q(2, 5), 0, 0), "<=", Q(6, 5)),
                   ((Q(3, 7), Q(3, 7), 0), ">=", Q(3, 7))],
                  lower=[1, 0, 0])


def _set(values, i, new):
    values = list(values)
    values[i] = new
    return tuple(values)


_TAMPERS = {
    "below_lower_bound": (
        lambda out: replace(out, primal=_set(out.primal, 2, Q(-1, 2))),
        "lower bound"),
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
