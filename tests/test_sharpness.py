"""The chain family in closed form: EX(chain(delta, ell)) by an oracle
that builds no chain, and the exact limits of the two slacks that make
the girth-6 bound sharp up to an additive constant."""

from fractions import Fraction

import pytest

from avec.bounds import BOUND_G6, BOUND_LOWER, analyze, sharpness_lower, upper_bound
from avec.generators import ChainSpec, chain
from avec.graph import eccentricity_profile
from util import chain_ex_oracle

#: delta = 7 has no chain: 6 is no prime power.
DELTAS = (3, 4, 5, 6, 8, 9)
#: The closed-form checks read every even ell up to here;
#: `test_oracle_equals_eccentricity_profile` holds the oracle to the
#: built chain up to 12.
TOP_ELL = 44


def copy_order(delta):
    return 2 * delta * delta - 2 * delta + 2


def slacks(delta, ell):
    """(slack_upper, slack_lower) of chain(delta, ell), from the oracle's
    EX and the bounds, as exact Fractions."""
    n = ell * copy_order(delta)
    avec = Fraction(chain_ex_oracle(delta, ell), n)
    return upper_bound(BOUND_G6, n, delta) - avec, avec - sharpness_lower(n, delta)


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("ell", range(2, 13, 2))
def test_oracle_equals_eccentricity_profile(delta, ell):
    g = chain(ChainSpec(delta, ell)).graph
    assert chain_ex_oracle(delta, ell) == eccentricity_profile(g).ex_total


@pytest.mark.parametrize(
    "delta, a, b, c",
    [
        (3, 63, -35, -16),
        (4, 117, -65, -20),
        (5, 189, -105, -24),
        (6, 279, -155, -28),
        (8, 513, -285, -36),
        (9, 657, -365, -40),
    ],
)
def test_closed_form(delta, a, b, c):
    # EX = a ell^2 + b ell + c, that is copy_order * (9 ell^2 - 5 ell) / 2
    # - 4 (delta + 1).
    assert (2 * a, 2 * b, c) == (9 * copy_order(delta), -5 * copy_order(delta), -4 * (delta + 1))
    # The oracle spends about copy_order^2 + ell * copy_order steps, so
    # ell = 16384 takes up to a second for delta >= 6.
    big = (1024, 16384) if delta <= 5 else (1024,)
    for ell in [*range(2, TOP_ELL + 1, 2), *big]:
        assert chain_ex_oracle(delta, ell) == a * ell * ell + b * ell + c


@pytest.mark.parametrize("delta, second", zip(DELTAS, (504, 936, 1512, 2232, 4104, 5256)))
def test_second_difference_is_36_copy_orders(delta, second):
    assert second == 36 * copy_order(delta)
    ex = {ell: chain_ex_oracle(delta, ell) for ell in range(2, TOP_ELL + 1, 2)}
    for ell in range(2, TOP_ELL - 3, 2):
        assert ex[ell + 4] - 2 * ex[ell + 2] + ex[ell] == second


@pytest.mark.parametrize("delta", DELTAS)
def test_slack_limits(delta):
    # ell * slack(ell) is linear in ell, so slack(ell) = limit + c / ell
    # exactly, and the limit is half the step of ell * slack over ell + 2.
    steps = set()
    for ell in range(2, TOP_ELL - 1, 2):
        now, after = slacks(delta, ell), slacks(delta, ell + 2)
        steps.add(tuple((ell + 2) * b - ell * a for a, b in zip(now, after)))
    assert len(steps) == 1, steps
    upper_step, lower_step = steps.pop()
    assert (Fraction(upper_step, 2), Fraction(lower_step, 2)) == (Fraction(21, 2), Fraction(5, 2))


@pytest.mark.parametrize("delta", DELTAS)
def test_slacks_match_analyze(delta):
    ell = 4
    report = analyze(chain(ChainSpec(delta, ell)).graph, (delta, ell))
    by_name = {b.name: b.slack for b in report.bounds}
    assert (by_name[BOUND_G6], by_name[BOUND_LOWER]) == slacks(delta, ell)
