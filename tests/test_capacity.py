import random
from fractions import Fraction
from math import comb, exp, log, log2, nextafter

import pytest

from womkit.capacity import (
    REGION_TOL,
    WeightVector,
    WomParams,
    achieved_rate,
    derivation_constant,
    derive_parameters,
    entropy,
    in_capacity_region,
    inverse_entropy,
    optimal_point,
    parse_densities,
)
from womkit.wom_device import Device, load_image, save_image


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
        assert abs(sum(rates) - log2(t + 1)) < 1e-9
        assert densities.p[-1] == Fraction(1, 2)
    rates, densities = optimal_point(1)
    assert rates == (1.0,)
    rates, densities = optimal_point(2)
    assert rates[0] == pytest.approx(entropy(1 / 3))
    assert rates[1] == pytest.approx(2 / 3)
    assert densities.p == (Fraction(1, 3), Fraction(1, 2))
    rates3, _ = optimal_point(3)
    assert abs(sum(rates3) - 2.0) < 1e-12
    with pytest.raises(ValueError, match="^need at least one round$"):
        optimal_point(0)


def test_optimal_point_equals_the_two_piece_formula():
    # the last round is the general formula's case j = t: density 1/2, entropy exactly 1
    for t in range(1, 13):
        rates = tuple((t + 2 - j) / (t + 1) * entropy(1.0 / (t + 2 - j)) for j in range(1, t)) + (2.0 / (t + 1),)
        densities = [Fraction(1, t + 2 - j) for j in range(1, t)] + [Fraction(1, 2)]
        got_rates, got = optimal_point(t)
        assert got_rates == rates and all(type(r) is float for r in got_rates)
        assert got.p == tuple(densities) and all(type(x) is Fraction for x in got.p)


def two_branch_region(rates, p):
    """The region test with the final round's bound prod_{i<t}(1-p_i) stated apart."""
    t = len(rates)
    remaining = Fraction(1)
    for j in range(1, t + 1):
        if j < t:
            bound = float(remaining) * entropy(float(p.p[j - 1]))
        else:
            bound = float(remaining)
        if rates[j - 1] > bound + REGION_TOL:
            return False
        remaining *= 1 - p.p[j - 1]
    return True


def test_region_equals_the_two_branch_rule():
    rnd = random.Random(3030)
    seen = set()
    for _ in range(3000):
        t = rnd.randint(1, 6)
        den = rnd.choice((2, 3, 7, 10, 64, 1000))
        p = WeightVector([Fraction(rnd.randint(0, den // 2), den) for _ in range(t - 1)] + [Fraction(1, 2)])
        rates, remaining = [], Fraction(1)
        for pj in p.p:
            bound = float(remaining) * entropy(float(pj))
            edge = bound + REGION_TOL
            rates.append(rnd.choice((
                bound, edge, nextafter(edge, 2.0), nextafter(edge, -1.0), bound - REGION_TOL,
                bound + 2 * REGION_TOL, rnd.uniform(0.0, bound), 0.0,
            )))
            remaining *= 1 - pj
        expected = two_branch_region(rates, p)
        assert in_capacity_region(rates, p) is expected, (rates, p)
        seen.add(expected)
    assert seen == {True, False}


def test_optimal_point_in_region():
    for t in range(1, 6):
        rates, densities = optimal_point(t)
        assert in_capacity_region(rates, densities)


def test_region_rejects_overfull_rates():
    # R_1 = 1 forces p_1 = 1/2, leaving at most 1/2 for the final round
    rates = (1.0, 0.6)
    for i in range(10_001):
        p1 = Fraction(i, 20_000)
        assert not in_capacity_region(rates, WeightVector([p1, Fraction(1, 2)]))


def test_region_trivial_cases():
    t = 4
    zero = (0.0,) * t
    p = WeightVector([Fraction(0)] * (t - 1) + [Fraction(1, 2)])
    assert in_capacity_region(zero, p)
    with pytest.raises(ValueError):
        in_capacity_region((0.5, 0.5), WeightVector([Fraction(1, 2)]))


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        WeightVector([Fraction(1, 3), Fraction(1, 3)])  # last entry not 1/2
    with pytest.raises(ValueError):
        WeightVector([Fraction(2, 3), Fraction(1, 2)])  # above 1/2
    with pytest.raises(ValueError):
        WeightVector([])
    # derive_parameters refuses an empty or negative rate list before it looks at epsilon
    with pytest.raises(ValueError, match="^need at least one round$"):
        derive_parameters(0.5, (), WeightVector([Fraction(1, 2)]))
    with pytest.raises(ValueError, match="^rates must be nonnegative$"):
        derive_parameters(0.5, (0.5, -0.1), WeightVector([Fraction(1, 3), Fraction(1, 2)]))


def test_derive_parameters_frozen_example():
    rates, densities = optimal_point(2)
    params = derive_parameters(0.5, rates, densities)
    assert derivation_constant(0.5, 2) == 40
    assert params.n == 320
    assert params.l == 27  # ceil(0.5 * 320 / 6)
    assert params.m == 2 ** (27 // 4) - 1
    assert not params.desk_executable
    assert params.n0 == 2 + 2 * 320 + params.m * 320


def test_derive_parameters_rejects_vacuous_target():
    rates, densities = optimal_point(2)
    with pytest.raises(ValueError):
        derive_parameters(sum(rates), rates, densities)
    with pytest.raises(ValueError):
        derive_parameters(2.0, rates, densities)
    with pytest.raises(ValueError):
        derive_parameters(0.0, rates, densities)
    with pytest.raises(ValueError, match="^need at least one round$"):
        derive_parameters(0.5, (), densities)
    with pytest.raises(ValueError, match="^length mismatch: 3 rates vs 2 densities$"):
        derive_parameters(0.5, rates + (0.0,), densities)
    with pytest.raises(ValueError, match="^rate point is not achievable under the given densities$"):
        derive_parameters(0.5, (1.0, 0.6), densities)
    # the constant alone refuses an epsilon outside (0, t), where its loop would not end
    for t, epsilon in ((2, 0.0), (2, 2.0), (2, -0.5), (0, 0.5)):
        with pytest.raises(ValueError, match=rf"^epsilon must lie in \(0, {t}\), got {epsilon}$"):
            derivation_constant(epsilon, t)
    assert derivation_constant(1.99, 2) >= 21


def test_derived_occupancy_and_rate_guarantee():
    for eps in (0.3, 0.5, 0.8):
        for t in (2, 3, 4):
            rates, densities = optimal_point(t)
            params = derive_parameters(eps, rates, densities)
            assert params.m * params.n / params.n0 > 1 - eps / (3 * t)
            assert achieved_rate(params) >= sum(rates) - eps
            round1 = log2(comb(params.n, params.budgets[0]))
            exact = params.m * (round1 + sum(kj - params.l for kj in params.k)) / params.n0
            assert achieved_rate(params) == pytest.approx(exact, rel=1e-12, abs=0)
            # side condition keeping the existence argument valid
            assert params.n >= 20 * log2(1 / eps) / eps


def test_small_epsilon_keeps_the_rate_guarantee():
    # the exact C(n, B_1) of this n = 6,000,840 took minutes; lgamma answers at once
    rates, densities = optimal_point(2)
    params = derive_parameters(1e-4, rates, densities)
    assert (params.n, params.budgets[0]) == (6000840, 2000280)
    assert achieved_rate(params) >= sum(rates) - 1e-4


def counting_constant(epsilon, t):
    """derivation_constant as it was: count c up from 21."""
    c = 21
    while not 6 * t * t < (t / epsilon) ** (c / 12 - 1):
        c += 1
    return c


def test_derivation_constant_equals_the_counting_loop():
    rnd = random.Random(2901)
    cases = [(t, t / (1 + 10 ** rnd.uniform(-3, 1))) for t in range(1, 11) for _ in range(20)]
    # epsilon where 12 * (1 + ln(6t^2) / ln(t/eps)) lands on an integer c0, and a few ulps around it
    for t in range(1, 11):
        for c0 in (22, 23, 37, 100, 1000, rnd.randint(24, 5000)):
            eps = t / exp(log(6 * t * t) / (c0 / 12 - 1))
            for _ in range(4):
                cases += [(t, eps), (t, nextafter(eps, 0.0)), (t, nextafter(eps, t))]
                eps = nextafter(nextafter(eps, t), t)
    for t, eps in cases:
        assert derivation_constant(eps, t) == counting_constant(eps, t), (t, eps)
    # far beyond where counting ends: c still is the smallest integer that passes the test
    t, eps = 1, 1 - 1e-9
    c = derivation_constant(eps, t)
    assert 6 * t * t < (t / eps) ** (c / 12 - 1)
    assert not 6 * t * t < (t / eps) ** ((c - 1) / 12 - 1)


def test_derived_parameters_equal_their_fields_and_their_image():
    # a code is its six fields: how derive_parameters reached them is not part of its value
    params = derive_parameters(0.5, *optimal_point(2))
    fields = (params.t, params.n, params.m, params.l, params.k, params.p)
    built = WomParams(*fields)
    dev, loaded, round_ = load_image(save_image(Device.fresh(params.n0), params, 0))
    for other in (built, loaded):
        assert other == params and hash(other) == hash(params) == hash(fields)
    assert (dev.cells.length, round_) == (params.n0, 0)
    assert repr(params) == repr(built) == f"WomParams(t=2, n=320, m=63, l=27, k={params.k!r}, p={params.p!r})"


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
