"""Acceptance gate: one test per criterion, each printing its pass/fail line.

The criteria live in womkit.selftest so the CLI `womkit selftest` runs the
same checks; here each one becomes a hard assertion at its stated
tolerance and scale.
"""

import pytest

from womkit import selftest


def _run(number):
    result = selftest.run_criterion(number)
    print(result.line())
    assert result.passed, result.detail
    return result


def test_criterion_1_capacity_arithmetic():
    # sum of optimal rates equals log2(t+1) within 1e-9 for t = 1..10
    _run(1)


def test_criterion_2_t2_end_to_end():
    # 100 random two-round sessions at n=10, m=4, l=2, k2=7, B1=3:
    # decode is a left inverse, budgets hold, the device saw no violation
    _run(2)


def test_criterion_3_t3_end_to_end():
    # 50 random three-round sessions at n=12, m=3, p=(1/4,1/3,1/2)
    _run(3)


def test_criterion_4_image_fraction_audit():
    # n=8, k=6, l=4, 10 random sources, all 2^16 coefficient pairs: <= 1/2
    _run(4)


def test_criterion_5_exact_distance():
    # full joint-distribution enumerations at n <= 6 stay within 2^(-l/2)
    _run(5)


def test_criterion_6_guaranteed_regime():
    # 200 instances with |Y_i| >= 2^k and m < 2^(l/4) never fail
    _run(6)


def test_criterion_7_parameter_formulas():
    # eps=0.5, t=2 gives c=40, n=320; rate >= log2(3) - 0.5; occupancy bound
    _run(7)


def test_criterion_8_field_and_combinatorics():
    # 10^4 axiom triples per width, Fermat, colex bijection, enumeration
    _run(8)


def test_criterion_9_persistence():
    # bit-exact round trip, checksum rejection, identical resume
    _run(9)


def test_criterion_10_determinism():
    # criteria 2-3 reruns produce byte-identical images
    _run(10)
