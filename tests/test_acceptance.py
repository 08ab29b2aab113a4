"""
Acceptance gate: one test per criterion, each printing a pass/fail line
(run with `pytest -s tests/test_acceptance.py` to see the lines as they
go by).  All arithmetic is exact, so every comparison is equality or a
strict sign; the only tolerances are the stated wall-clock budgets.
"""
import time

import pytest

from conftest import cells_of, col_support, row_support
import fixtures
from kl_via_r import coeff, degree, kl_table_via_r
from klimm.exactmat import (
    is_k_positive,
    minor,
    repeat_submatrix,
    restrict,
)
from klimm.grid import (
    block_antidiagonal_split,
    bounding_boxes,
    deletion_pruned_grid_identity,
    graph_of_upper_interval,
    spanning_corners,
)
from klimm.immanant import imm_definition, imm_determinantal
from klimm.klpoly import ONE, KLCache, kl_polynomial, ZERO
from klimm.perm import bruhat_leq, delete_entry, length, symmetric_group
from klimm.suites import Config, run_search, run_suite

FIXTURE = fixtures.TWO_POSITIVE_NOT_THREE


def _announce(number: int, name: str, passed: bool) -> None:
    print(f"ACCEPTANCE {number:2d} ({name}): {'PASS' if passed else 'FAIL'}")
    assert passed


def test_criterion_01_determinantal_formula_equivalence():
    started = time.perf_counter()
    report = run_suite("prop-3.1", Config(max_n=5, samples=3, seed=0))
    elapsed = time.perf_counter() - started
    ok = report.ok and report.cases_run > 0 and elapsed < 300
    print(f"  [criterion 1] {report.cases_run} cases in {elapsed:.1f}s")
    _announce(1, "defining sum = determinantal formula, n <= 5", ok)


def test_criterion_02_main_sign_theorem_sweep():
    report = run_suite("main-sq", Config(max_n=4, max_m=4, samples=5, seed=0))
    ok = report.ok and report.cases_run > 0
    print(f"  [criterion 2] {report.cases_run} cases, "
          f"{len(report.counterexamples)} counterexamples")
    _announce(2, "positive iff admissible on k-positive samples", ok)


def test_criterion_03_fixture_certification(kl_cache_s4):
    ok = (is_k_positive(FIXTURE, 2)
          and not is_k_positive(FIXTURE, 3)
          and minor(FIXTURE, [1, 2, 3], [1, 2, 3]) == -2
          and imm_definition((2, 4, 1, 3), FIXTURE, kl_cache_s4) == 39
          and imm_determinantal((2, 4, 1, 3), FIXTURE) == 39)
    _announce(3, "fixture matrix order and immanant value", ok)


def test_criterion_04_worked_examples_bit_exact():
    G = graph_of_upper_interval((2, 4, 1, 3))
    graph_ok = (
        len(cells_of(G)) == 12
        and row_support(G, 1) == frozenset({2, 3, 4})
        and row_support(G, 2) == frozenset({2, 3, 4})
        and row_support(G, 3) == frozenset({1, 2, 3})
        and row_support(G, 4) == frozenset({1, 2, 3})
        and col_support(G, 1) == frozenset({3, 4})
        and col_support(G, 4) == frozenset({1, 2})
        and restrict(FIXTURE, G) == fixtures.RESTRICTED_TO_2413_GRAPH)

    repeat_ok = repeat_submatrix(FIXTURE, (1, 1, 3), (2, 3, 4)) == \
        fixtures.REPEATED_113_234

    boxes = bounding_boxes(fixtures.BOX_COLORING_WORD)
    boxes_ok = (tuple(b.color for b in boxes) == fixtures.BOX_COLORING_COLORS
                and spanning_corners(fixtures.BOX_COLORING_WORD)
                == fixtures.BOX_COLORING_CORNERS)

    split = block_antidiagonal_split(
        graph_of_upper_interval(fixtures.BLOCK_SPLIT_WORD))
    split_ok = (split is not None and split[0] == fixtures.BLOCK_SPLIT_J
                and cells_of(split[1]) == cells_of(graph_of_upper_interval(
                    fixtures.BLOCK_SPLIT_UPPER))
                and cells_of(split[2]) == cells_of(graph_of_upper_interval(
                    fixtures.BLOCK_SPLIT_LOWER)))

    deletion_ok = (delete_entry(fixtures.DELETION_WORD,
                                fixtures.DELETION_POSITION)
                   == fixtures.DELETION_RESULT
                   and deletion_pruned_grid_identity(
                       fixtures.DELETION_WORD, fixtures.DELETION_POSITION))

    _announce(4, "worked examples reproduced bit-exact",
              graph_ok and repeat_ok and boxes_ok and split_ok and deletion_ok)


def test_criterion_05_lewis_carroll_identity():
    report = run_suite("prop-3.2", Config(samples=200, seed=0))
    ok = report.ok and report.cases_run == 200
    _announce(5, "two-rows-two-columns identity, 200 exact residuals", ok)


def test_criterion_06_structural_lemmas_exhaustive():
    budgets = {
        "lemma-2.11": Config(max_n=6, seed=0),
        "lemma-2.12": Config(max_n=7, seed=0),
        "lemma-2.16": Config(max_n=7, seed=0),
        "prop-2.17": Config(max_n=7, seed=0),
    }
    ok = True
    for suite, config in budgets.items():
        started = time.perf_counter()
        report = run_suite(suite, config)
        elapsed = time.perf_counter() - started
        print(f"  [criterion 6] {suite}: {report.cases_run} cases "
              f"in {elapsed:.1f}s")
        ok = ok and report.ok and elapsed < 180
    _announce(6, "structural sweeps exhaustive and under budget", ok)


def test_criterion_07_deletion_identity():
    report = run_suite("deletion", Config(max_n=5, samples=3, seed=0))
    ok = report.ok and report.cases_run > 0
    _announce(7, "word deletion matches grid deletion, n <= 5", ok)


def test_criterion_08_block_factorization():
    report = run_suite("prop-4.1", Config(max_n=6, samples=3, seed=0))
    ok = report.ok and report.cases_run > 0
    _announce(8, "block-antidiagonal factorization, n <= 6", ok)


def test_criterion_09_young_sign_laws():
    report = run_suite("young", Config(max_n=4, max_m=4, samples=5, seed=0))
    ok = report.ok and report.cases_run > 0
    print(f"  [criterion 9] {report.cases_run} shape/label/matrix cases")
    _announce(9, "sign laws for shapes in the 4x4 box", ok)


def test_criterion_10_kl_sanity(kl_cache_s5):
    perms = list(symmetric_group(5))
    ok = True
    for y in perms:
        ly = length(y)
        for x in perms:
            if not bruhat_leq(x, y):
                ok = ok and kl_polynomial(x, y, kl_cache_s5) == ZERO
                continue
            p = kl_polynomial(x, y, kl_cache_s5)
            gap = ly - length(x)
            ok = ok and coeff(p, 0) == 1 and 2 * degree(p) <= max(gap - 1, 0)
            if gap <= 2:
                ok = ok and p == ONE

    named = kl_polynomial((1, 3, 2, 4), (3, 4, 1, 2), KLCache(4))
    ok = ok and named.coeffs == (1, 1)

    cache4 = KLCache(4)
    for y in symmetric_group(4):
        table = kl_table_via_r(y)
        for x in symmetric_group(4):
            ok = ok and kl_polynomial(x, y, cache4) == table.get(x, ZERO)
    _announce(10, "KL polynomial sanity and dual-route agreement", ok)


@pytest.mark.parametrize("conjecture", ["5.1", "5.2", "5.3"])
def test_criterion_11_conjecture_searches(conjecture):
    report = run_search(conjecture, Config(max_n=4, max_m=4, samples=1000,
                                           seed=0))
    ok = report.ok and report.cases_run == 1000
    if conjecture != "5.2":
        # k < m on every trial, so no sample may be totally positive.
        ok = ok and report.notes["sampled_matrices"]["totally_positive"] == 0
    if conjecture == "5.1":
        ok = ok and report.notes["sampled_matrices"]["constructed"] == 1000
    if conjecture == "5.3":
        tested = report.cases_run - report.notes["identically_zero_cases"]
        ok = ok and (f"{tested} of them not identically zero"
                     in report.notes["conclusion"])
    print(f"  [criterion 11] search {conjecture}: "
          f"{report.notes['conclusion']}")
    _announce(11, f"conjecture {conjecture} search at n <= 4", ok)
