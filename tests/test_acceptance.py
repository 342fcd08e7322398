"""Acceptance suite: runs every criterion at its pinned tolerance.

The shared run_all() executes the criteria in order (sharing the expensive
sheets and the horseshoe laboratory) and prints one pass/fail line per
criterion; the tests here assert each outcome individually so a failure
points at its criterion.
"""

import pytest

from hecu.acceptance import criterion_10, run_all


@pytest.fixture(scope="module")
def results():
    res = run_all()
    return {r.index: r for r in res}


def _check(results, idx):
    res = results[idx]
    assert res.passed, res.line()


def test_criterion_01_nu_reproduction(results):
    _check(results, 1)


def test_criterion_02_melnikov_oracle(results):
    _check(results, 2)


def test_criterion_03_homoclinic_closed_form(results):
    _check(results, 3)


def test_criterion_04_first_order_splitting(results):
    _check(results, 4)


def test_criterion_05_exponential_law(results):
    _check(results, 5)


def test_criterion_06_inner_constant(results):
    _check(results, 6)


def test_criterion_07_outer_inner_cross_validation(results):
    _check(results, 7)


def test_criterion_08_parabolic_lambda_lemma(results):
    _check(results, 8)


def test_criterion_09_horseshoe_verification(results):
    _check(results, 9)


def test_criterion_09_records_one_batch_strips_and_start(results):
    # the strips run one stencil of 24 returns per v-line, and the shadowing
    # start one per v-line of its nodes (two), before 3 k maps per Newton iterate
    values = results[9].values
    strips = values["counters"]["strips"]
    assert strips["batches"] == 1 and strips["lane_maps"] == 6 * 24
    assert values["counters"]["cones"]["batches"] == 1
    itinerary = values["itinerary"]
    assert values["counters"]["shadow_return_maps"] == itinerary["return_maps"]
    assert itinerary["return_maps"] == 2 * 24 + 9 * (itinerary["iterations"] + 1)


def test_criterion_10_oscillatory_witness(results):
    _check(results, 10)


def test_criterion_10_is_the_same_alone_and_after_criterion_9(results):
    # criterion 10 shadows in criterion 9's strips whichever runs first: on a
    # fresh cache it builds them itself, and its maxima, itinerary and
    # counters equal those of the run that shares them with criterion 9
    alone = criterion_10({})
    assert alone.passed
    assert alone.values == results[10].values


def test_criterion_11_poincare_cartan_consistency(results):
    _check(results, 11)


def test_criterion_12_averaging_remainder(results):
    _check(results, 12)
