from fractions import Fraction
from math import comb, log2

import pytest

from womkit.capacity import (
    RatePoint,
    WeightVector,
    WomParams,
    achieved_rate,
    derive_parameters,
    entropy,
    in_capacity_region,
    inverse_entropy,
    optimal_point,
    parse_densities,
)


def test_entropy_values():
    assert entropy(0.0) == 0.0
    assert entropy(1.0) == 0.0
    assert entropy(0.5) == 1.0
    third = 1 / 3
    expected = -third * log2(third) - (1 - third) * log2(1 - third)
    assert abs(entropy(third) - expected) < 1e-15
    assert abs(entropy(third) - 0.9182958340544896) < 1e-12
    with pytest.raises(ValueError):
        entropy(-0.1)
    with pytest.raises(ValueError):
        entropy(1.1)


def test_inverse_entropy():
    assert inverse_entropy(1.0) == pytest.approx(0.5, abs=1e-12)
    assert inverse_entropy(0.0) == pytest.approx(0.0, abs=1e-12)
    assert inverse_entropy(0.9182958340544896) == pytest.approx(1 / 3, abs=1e-9)
    for i in range(1001):
        h = i / 1000
        assert abs(entropy(inverse_entropy(h)) - h) < 1e-9
    with pytest.raises(ValueError):
        inverse_entropy(1.5)


def test_optimal_point_sums():
    for t in range(1, 11):
        rates, densities = optimal_point(t)
        assert abs(rates.total - log2(t + 1)) < 1e-9
        assert densities.p[-1] == Fraction(1, 2)
    rates, densities = optimal_point(1)
    assert rates.rates == (1.0,)
    rates, densities = optimal_point(2)
    assert rates.rates[0] == pytest.approx(entropy(1 / 3))
    assert rates.rates[1] == pytest.approx(2 / 3)
    assert densities.p == (Fraction(1, 3), Fraction(1, 2))
    rates3, _ = optimal_point(3)
    assert abs(rates3.total - 2.0) < 1e-12
    with pytest.raises(ValueError, match="^need at least one round$"):
        optimal_point(0)


def test_optimal_point_in_region():
    for t in range(1, 6):
        rates, densities = optimal_point(t)
        assert in_capacity_region(rates, densities)


def test_region_rejects_overfull_rates():
    # R_1 = 1 forces p_1 = 1/2, leaving at most 1/2 for the final round
    rates = RatePoint((1.0, 0.6))
    for i in range(10_001):
        p1 = Fraction(i, 20_000)
        assert not in_capacity_region(rates, WeightVector([p1, Fraction(1, 2)]))


def test_region_trivial_cases():
    t = 4
    zero = RatePoint((0.0,) * t)
    p = WeightVector([Fraction(0)] * (t - 1) + [Fraction(1, 2)])
    assert in_capacity_region(zero, p)
    with pytest.raises(ValueError):
        in_capacity_region(RatePoint((0.5, 0.5)), WeightVector([Fraction(1, 2)]))


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        WeightVector([Fraction(1, 3), Fraction(1, 3)])  # last entry not 1/2
    with pytest.raises(ValueError):
        WeightVector([Fraction(2, 3), Fraction(1, 2)])  # above 1/2
    with pytest.raises(ValueError):
        WeightVector([])
    with pytest.raises(ValueError, match="^need at least one round$"):
        RatePoint(())
    with pytest.raises(ValueError, match="^rates must be nonnegative$"):
        RatePoint((0.5, -0.1))


def test_derive_parameters_frozen_example():
    rates, densities = optimal_point(2)
    params = derive_parameters(0.5, 2, rates, densities)
    assert params.c == 40
    assert params.n == 320
    assert params.l == 27  # ceil(0.5 * 320 / 6)
    assert params.m == 2 ** (27 // 4) - 1
    assert not params.desk_executable
    assert params.n0 == 2 + 2 * 320 + params.m * 320


def test_derive_parameters_rejects_vacuous_target():
    rates, densities = optimal_point(2)
    with pytest.raises(ValueError):
        derive_parameters(rates.total, 2, rates, densities)
    with pytest.raises(ValueError):
        derive_parameters(2.0, 2, rates, densities)
    with pytest.raises(ValueError):
        derive_parameters(0.0, 2, rates, densities)
    with pytest.raises(ValueError, match="^need at least one round$"):
        derive_parameters(0.5, 0, rates, densities)
    with pytest.raises(ValueError, match="^rates and densities must have t entries$"):
        derive_parameters(0.5, 3, rates, densities)
    with pytest.raises(ValueError, match="^rate point is not achievable under the given densities$"):
        derive_parameters(0.5, 2, RatePoint((1.0, 0.6)), densities)


def test_derived_occupancy_and_rate_guarantee():
    for eps in (0.3, 0.5, 0.8):
        for t in (2, 3, 4):
            rates, densities = optimal_point(t)
            params = derive_parameters(eps, t, rates, densities)
            assert params.m * params.n / params.n0 > 1 - eps / (3 * t)
            assert achieved_rate(params) >= rates.total - eps
            # side condition keeping the existence argument valid
            assert params.n >= 20 * log2(1 / eps) / eps


def test_budget_floors():
    params = WomParams(t=2, n=10, m=4, l=2, k=(7,), p=WeightVector([Fraction(1, 3), Fraction(1, 2)]))
    assert params.budgets == (3, 6)
    params3 = WomParams(
        t=3, n=12, m=3, l=2, k=(7, 5),
        p=WeightVector([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]),
    )
    assert params3.budgets == (3, 6, 9)
    assert params3.n0 == 3 + 4 * 12 + 3 * 12


def test_achieved_rate_examples():
    single = WomParams(t=1, n=4, m=1, l=0, k=(), p=WeightVector([Fraction(1, 2)]))
    assert single.budgets == (2,)
    assert single.n0 == 5
    assert achieved_rate(single) == pytest.approx(log2(6) / 5)

    # no information: degenerate hash rounds and an empty first round
    empty = WomParams(t=2, n=8, m=2, l=3, k=(3,), p=WeightVector([Fraction(0), Fraction(1, 2)]))
    assert empty.budgets[0] == 0
    assert achieved_rate(empty) == 0.0


def test_params_validation():
    good = dict(t=2, n=10, m=4, l=2, k=(7,), p=WeightVector([Fraction(1, 3), Fraction(1, 2)]))
    WomParams(**good)
    with pytest.raises(ValueError):
        WomParams(**{**good, "k": (1,)})  # k below l
    with pytest.raises(ValueError):
        WomParams(**{**good, "k": (11,)})  # k above n
    with pytest.raises(ValueError):
        WomParams(**{**good, "k": (7, 7)})  # wrong arity
    with pytest.raises(ValueError):
        WomParams(**{**good, "m": 0})
    with pytest.raises(ValueError):
        WomParams(**{**good, "p": WeightVector([Fraction(1, 2)])})
    for field, value, message in [("t", 0, "need at least one round"), ("n", 0, "data words need at least one bit"),
                                  ("l", -1, "slack must be nonnegative")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            WomParams(**{**good, field: value})
    with pytest.raises(ValueError, match="^data index 4 out of range$"):
        WomParams(**good).data_offset(4)
    with pytest.raises(ValueError, match="^side index 1 out of range$"):
        WomParams(**good).side_offset(1)


@pytest.mark.parametrize("field,value,message", [
    ("t", 2.0, "^t 2.0 is not an int$"),
    ("n", 10.0, "^n 10.0 is not an int$"),
    ("m", True, "^m True is not an int$"),
    ("l", 2.0, "^l 2.0 is not an int$"),
    ("k", (7.0,), "^k_2 7.0 is not an int$"),
])
def test_params_refuse_fields_that_are_no_int(field, value, message):
    # n = 10.0 once constructed, and Device.fresh(params.n0) then raised TypeError
    good = dict(t=2, n=10, m=4, l=2, k=(7,), p=WeightVector([Fraction(1, 3), Fraction(1, 2)]))
    with pytest.raises(ValueError, match=message):
        WomParams(**{**good, field: value})
    three = dict(t=3, n=12, m=3, l=2, k=(7, 5.0), p=WeightVector([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]))
    with pytest.raises(ValueError, match=r"^k_3 5.0 is not an int$"):
        WomParams(**three)


def test_round1_rank_bits():
    params = WomParams(t=2, n=10, m=4, l=2, k=(7,), p=WeightVector([Fraction(1, 3), Fraction(1, 2)]))
    assert params.round1_space == comb(10, 3) == 120
    assert params.round1_rank_bits == 6
    assert params.payload_bits(1) == 6
    assert params.payload_bits(2) == 5


def test_parse_densities_checks_syntax_only():
    # values WeightVector would reject still parse: only the syntax is checked here
    assert parse_densities("1/3,2/4,-1/2,3/2") == [Fraction(1, 3), Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)]
    for text, message in [
        ("1.3", "density '1.3' is not a num/den rational"),
        ("1/2,x/3", "bad density: 'x'"),
        ("1/3,1/0", "density '1/0' has a zero denominator"),
    ]:
        with pytest.raises(ValueError) as info:
            parse_densities(text)
        assert str(info.value) == message
