import functools
import gc
import hashlib
import itertools
import json
import os
import random
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures
from conftest import random_rational_matrix, store_holding
from kl_via_r import kl_table_via_r
from klimm import grid, immanant, klpoly, perm, suites
from klimm.cli import main
from klimm.errors import PreconditionError
from klimm.exactmat import Matrix, is_k_positive, positivity_order
from klimm.grid import (
    FORBIDDEN_PATTERNS,
    graph_of_upper_interval,
    is_admissible,
    label_patterns,
)
from klimm.klpoly import ZERO, KLCache, imm_terms
from klimm.perm import (
    avoids,
    compose,
    format_perm,
    is_in_maximal_parabolic,
    length,
    longest_element,
    symmetric_group,
)
from klimm.suites import Config, SuiteReport, _avoiders, run_search, run_suite


def small_config(**kwargs):
    defaults = dict(max_n=4, max_m=4, samples=2, seed=0)
    defaults.update(kwargs)
    return Config(**defaults)


@pytest.mark.parametrize("suite", [
    "lemma-2.11", "lemma-2.12", "lemma-2.16", "prop-2.17",
    "prop-3.1", "prop-4.1", "deletion", "main-sq",
])
def test_suites_pass_at_small_scale(suite):
    report = run_suite(suite, small_config())
    assert report.ok
    assert report.cases_run > 0
    assert report.cases_passed == report.cases_run
    assert report.counterexamples == []


def test_lewis_carroll_suite():
    report = run_suite("prop-3.2", Config(samples=30, seed=1))
    assert report.ok and report.cases_run == 30


def test_young_suite_small():
    report = run_suite("young", small_config(max_n=3, max_m=3))
    assert report.ok
    # every shape contributes both variants
    assert report.cases_run > 0 and report.cases_run % 2 == 0


def test_partitions_in_box_come_in_decreasing_order():
    for n in range(8):
        shapes = suites._partitions_in_box(n)
        assert shapes == tuple(sorted(shapes, reverse=True))
        assert len(shapes) == len(set(shapes))


def test_deletion_suite_has_one_grid_case_per_position(monkeypatch):
    # Fail every grid case, so that each one shows its key.
    monkeypatch.setattr(suites, "deletion_grid_identity", lambda v, i: False)
    monkeypatch.setattr(suites, "deletion_pruned_grid_identity",
                        lambda v, i: False)
    config = Config(max_n=5, samples=3, seed=0)
    cases = list(suites._suite_deletion(config, None, {}))
    grid_keys = [key for key, _ in filter(None, cases)]
    avoiders = {n: suites._avoiders(n, FORBIDDEN_PATTERNS) for n in range(2, 6)}
    assert all(key.endswith(":grid") for key in grid_keys)
    assert len(grid_keys) == len(set(grid_keys)) == sum(
        n * len(vs) for n, vs in avoiders.items())
    assert len(cases) == 2200


def test_deletion_suite_fails_when_corners_are_not_pruned(monkeypatch):
    unpruned = grid._upper_interval_rows
    monkeypatch.setattr(grid, "_upper_interval_rows",
                        lambda v, skip=0: unpruned(v))
    report = run_suite("deletion", Config(max_n=5, samples=3, seed=0))
    assert not report.ok
    assert {witness["failure"] for witness in report.counterexamples} == {
        "grid deletion mismatch"}


def test_sign_probe_suite_reports_skips():
    report = run_suite("sgn-probe", small_config(samples=1))
    assert report.ok
    assert report.notes["preconditions_not_met"] > 0


def test_unknown_suite_and_config_validation():
    with pytest.raises(ValueError,
                       match=r"unknown suite 'nope'; choose from \['deletion'"):
        run_suite("nope", small_config())
    with pytest.raises(ValueError, match=r"max_n must lie in \[1, 7\]"):
        Config(max_n=8)
    with pytest.raises(ValueError):
        Config(samples=0)
    with pytest.raises(ValueError, match="k must be positive"):
        Config(k=0)
    with pytest.raises(ValueError, match="max_m must be positive"):
        Config(max_m=0)


def test_reports_are_byte_deterministic():
    first = run_suite("main-sq", small_config()).to_json()
    second = run_suite("main-sq", small_config()).to_json()
    assert first == second
    third = run_suite("main-sq", small_config(seed=5)).to_json()
    assert third != first  # the seed is part of the document


def test_report_invariant_enforced():
    with pytest.raises(ValueError):
        SuiteReport("x", {}, cases_run=2, cases_passed=1,
                    counterexamples=[], wall_time=0.0)
    # One witness for two failed cases.
    with pytest.raises(ValueError, match="report invariant violated"):
        SuiteReport("x", {}, cases_run=3, cases_passed=1,
                    counterexamples=[{"case": "a", "v": "21"}], wall_time=0.0)
    report = SuiteReport("x", {"seed": 0}, cases_run=2, cases_passed=1,
                         counterexamples=[{"case": "a", "v": "21"}],
                         wall_time=0.0)
    assert not report.ok
    assert "counterexamples" in report.to_doc()
    assert report.to_csv().splitlines()[1].endswith(",2,1,1")


def test_runner_counts_every_case_and_sorts_only_the_failures():
    # Passes yield None; failures come out of key order, and two share a
    # key, so the sort must be stable.
    def cases(config, caches, notes):
        yield None
        yield "c", {"w": 1}
        yield "a", {"w": 2}
        yield None
        yield None
        yield "b", {"w": 3}
        yield "a", {"w": 4}
        yield None

    report = suites._run("x", cases, Config(), {})
    assert (report.cases_run, report.cases_passed) == (8, 4)
    assert report.counterexamples == [
        {"case": "a", "w": 2}, {"case": "a", "w": 4},
        {"case": "b", "w": 3}, {"case": "c", "w": 1}]
    for passes in (0, 3):
        report = suites._run("x", lambda *_: iter([None] * passes),
                             Config(), {})
        assert (report.cases_run, report.cases_passed) == (passes, passes)
        assert report.ok


@pytest.mark.parametrize("failure,message", [
    (("b", None), "x case b failed without a witness"),
    (("b", {}), "x case b failed without a witness"),
    ((None, {"v": "12"}), "x: a case failed without a key"),
    (("", {"v": "12"}), "x: a case failed without a key"),
], ids=["witness-none", "witness-empty", "key-none", "key-empty"])
def test_runner_rejects_a_failure_without_a_witness_or_key(failure, message):
    def cases(config, caches, notes):
        yield "a", {"v": "21"}
        yield None
        yield failure

    with pytest.raises(ValueError, match=message):
        suites._run("x", cases, Config(), {})


def test_passing_sweep_formats_no_case_key(monkeypatch):
    words = []
    monkeypatch.setattr(suites, "format_perm",
                        lambda v: words.append(v) or format_perm(v))
    report = run_suite("lemma-2.12", Config(max_n=5))
    assert report.ok and report.cases_run == 1 + 2 + 6 + 24 + 120
    # prop-2.17's cases are the words that avoid 2143 with w0 v outside
    # every maximal parabolic, counted here apart from the sweep.
    report = run_suite("prop-2.17", Config(max_n=5))
    assert report.ok and report.cases_run == sum(
        avoids(v, (2, 1, 4, 3)) and not is_in_maximal_parabolic(
            compose(longest_element(n), v))
        for n in range(1, 6) for v in symmetric_group(n))
    assert words == []


def test_sweep_makes_no_case_of_a_word_whose_hypotheses_fail(monkeypatch):
    # Words starting with 1 fail a hypothesis, and those ending with 1
    # fail the check: only the latter are cases, keyed and witnessed.
    def holds(v):
        if v[0] == 1:
            raise PreconditionError(f"{v} starts with 1")
        return v[-1] != 1

    words = []
    monkeypatch.setattr(suites, "format_perm",
                        lambda v: words.append(v) or format_perm(v))
    sweep = suites._every_permutation(holds, lambda v: {"last": v[-1]})
    report = suites._run("x", sweep, Config(max_n=4), {})
    failing = [v for n in range(2, 5) for v in symmetric_group(n)
               if v[-1] == 1]
    assert report.cases_run == sum(
        v[0] != 1 for n in range(1, 5) for v in symmetric_group(n))
    assert words == failing
    assert report.counterexamples == sorted(
        ({"case": f"n={len(v)}:v={format_perm(v)}", "v": format_perm(v),
          "last": 1} for v in failing), key=lambda doc: doc["case"])


def test_sweep_lets_any_other_error_through():
    def holds(v):
        if v == (2, 1, 3):
            raise ValueError("not a precondition")
        return True

    with pytest.raises(ValueError, match="not a precondition"):
        suites._run("x", suites._every_permutation(holds), Config(max_n=3),
                    {})


def test_prop31_validates_each_word_once_per_case_past_n_1(monkeypatch):
    # Cold, as a fresh CLI run: the defining sum leaves its word check to
    # klpoly.imm_terms from n = 2 on, so each of the 484 cases there
    # checks its word one time fewer than when it checked the word itself
    # (2,812 calls).
    for module in (grid, immanant, klpoly, perm, suites):
        for value in vars(module).values():
            if isinstance(value, functools._lru_cache_wrapper):
                value.cache_clear()
    calls = []
    real = perm.is_permutation_word
    monkeypatch.setattr(perm, "is_permutation_word",
                        lambda word: calls.append(word) or real(word))
    report = run_suite("prop-3.1", Config(max_n=6, samples=1, seed=0))
    assert report.ok and report.cases_run == 485
    assert len(calls) == 2328


def test_suite_uses_kl_cache_files(tmp_path):
    base = str(tmp_path / "kl.json")
    report = run_suite("prop-3.1", Config(max_n=3, samples=1, seed=0,
                                          kl_cache_path=base))
    assert report.ok
    assert os.path.exists(str(tmp_path / "kl.s3.json"))
    again = run_suite("prop-3.1", Config(max_n=3, samples=1, seed=0,
                                         kl_cache_path=base))
    assert again.to_json() == report.to_json()


@pytest.mark.parametrize("conjecture", ["5.1", "5.2", "5.3"])
def test_searches_find_no_counterexamples(conjecture):
    report = run_search(conjecture, Config(max_n=3, max_m=3, samples=40,
                                           seed=0))
    assert report.ok
    assert report.cases_run == 40
    assert "not a proof" in report.notes["conclusion"]


@pytest.mark.parametrize("conjecture", ["5.1", "5.2", "5.3"])
def test_search_witnesses_are_reverified(monkeypatch, conjecture):
    # Force the one trial to fail: no immanant is identically zero, every
    # one reads -1 and the sign law never holds, in the search and in its
    # re-check alike.
    monkeypatch.setattr(suites, "_identically_zero", lambda *args: False)
    monkeypatch.setattr(suites, "imm_definition", lambda *args: -1)
    monkeypatch.setattr(suites, "obeys_sign_law", lambda *args: False)
    report = run_search(conjecture, Config(max_n=3, samples=1))
    [witness] = report.counterexamples
    assert witness["reverified"] is True


def test_sample_tally_only_in_sampling_reports():
    for suite in ("prop-3.1", "lemma-2.12"):
        assert "sampled_matrices" not in run_suite(suite,
                                                   small_config()).notes
    report = run_suite("main-sq", small_config())
    avoiders = suites._avoiders(4, FORBIDDEN_PATTERNS)
    assert sum(report.notes["sampled_matrices"].values()) == 2 * len(avoiders)


@pytest.mark.parametrize("argv", [
    ["check", "main-sq", "--max-n", "4", "--max-m", "2", "--samples", "1"],
    ["check", "young", "--max-n", "5", "--max-m", "2", "--samples", "1"],
    ["search", "5.2", "--k", "3", "--max-n", "3"],
], ids=["main-sq", "young", "search-5.2"])
def test_positivity_order_above_the_matrix_size(tmp_path, capsys, argv):
    # k > m asks for an m x m matrix with every minor positive: a totally
    # positive one, verified at order m.
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["counterexamples"] == []
    assert doc["cases_passed"] == doc["cases_run"] > 0
    assert doc["notes"]["sampled_matrices"]["totally_positive"] > 0


@pytest.mark.parametrize("conjecture", ["5.1", "5.2", "5.3"])
def test_searches_need_two_by_two(capsys, conjecture):
    with pytest.raises(ValueError, match="max_n >= 2, got 1"):
        run_search(conjecture, Config(max_n=1))
    assert main(["search", conjecture, "--max-n", "1"]) == 1
    assert "max_n >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("conjecture,max_n,k", [("5.1", 4, 2), ("5.3", 3, 1)])
def test_pinned_order_searches_sample_only_that_order(monkeypatch, conjecture,
                                                      max_n, k):
    real = suites._k_positive_samples
    drawn = []

    def recording(*args):
        out = real(*args)
        drawn.extend(out)
        return out

    monkeypatch.setattr(suites, "_k_positive_samples", recording)
    report = run_search(conjecture, Config(max_n=max_n, samples=40, k=k))
    assert report.ok and report.params["k"] == k
    assert drawn
    assert all(positivity_order(M) == k < M.rows for M in drawn)


@pytest.mark.parametrize("conjecture", ["5.1", "5.3"])
def test_pinned_order_needs_a_larger_size(capsys, conjecture):
    with pytest.raises(ValueError, match="pinned k=4 needs max_n > k"):
        run_search(conjecture, Config(max_n=4, k=4))
    assert main(["search", conjecture, "--k", "4", "--max-n", "4"]) == 1
    assert "pinned k=4 needs max_n > k" in capsys.readouterr().err


def test_search_rejects_unknown_conjecture():
    with pytest.raises(ValueError, match=r"unknown conjecture '5.4'; "
                                         r"choose from \['5.1', '5.2', '5.3'\]"):
        run_search("5.4", small_config())


# ---------------------------------------------------------------------------
# Search 5.3's exact "identically zero"


def test_vanishing_is_exactly_inadmissibility_up_to_n_4():
    # The zero half of the main theorem: for v avoiding 1324 and 2143,
    # Imm_v(x_{R,C}) is the zero polynomial iff the graph of [v, w0] is
    # not (R, C)-admissible.
    tally = {}
    for n in range(1, 5):
        cache, patterns = KLCache(n), label_patterns(n, n)
        for v in _avoiders(n, FORBIDDEN_PATTERNS):
            graph = graph_of_upper_interval(v)
            for R, C in itertools.product(patterns, repeat=2):
                zero = suites._identically_zero(v, R, C, cache)
                assert zero != is_admissible(graph, R, C), (v, R, C)
                cases, zeros = tally.get(n, (0, 0))
                tally[n] = cases + 1, zeros + zero
    assert tally == {1: (1, 0), 2: (8, 3), 3: (96, 63), 4: (1408, 1147)}


@functools.lru_cache(maxsize=None)
def _expansion_weights(v):
    """
    (w, (-1)^(l(w) - l(v)) P_{w0 w, w0 v}(1)) for every w in S_n, with the
    Kazhdan-Lusztig values of the R-polynomial route: neither the Bruhat
    table nor the recursion behind imm_terms.
    """
    w0 = longest_element(len(v))
    values = kl_table_via_r(compose(w0, v))
    return [(w, (-1) ** (length(w) - length(v))
             * values.get(compose(w0, w), ZERO)(1))
            for w in symmetric_group(len(v))]


def _vanishes_by_expansion(v, R, C):
    """Whether Imm_v(x_{R,C}), summed over all of S_n with one coefficient
    per monomial (the multiset of entries (R_i, C_{w(i)})), is zero."""
    monomials = Counter()
    for w, weight in _expansion_weights(v):
        pairs = Counter((R[i], C[w[i] - 1]) for i in range(len(v)))
        monomials[frozenset(pairs.items())] += weight
    return all(c == 0 for c in monomials.values())


@st.composite
def label_multisets(draw):
    """(n, R, C): n in {3, 4} and two weakly increasing n-tuples in [m],
    m <= 4."""
    n, m = draw(st.integers(3, 4)), draw(st.integers(1, 4))
    labels = st.lists(st.integers(1, m), min_size=n, max_size=n)
    return n, tuple(sorted(draw(labels))), tuple(sorted(draw(labels)))


@given(label_multisets())
@settings(max_examples=100, deadline=None)
def test_identically_zero_matches_the_full_expansion(case):
    # Every v, the ones containing 1324 or 2143 too, where admissibility
    # is not the criterion.
    n, R, C = case
    cache = KLCache(n)
    for v in symmetric_group(n):
        assert suites._identically_zero(v, R, C, cache) == \
            _vanishes_by_expansion(v, R, C), (v, R, C)


def test_identically_zero_sees_one_flipped_sign(monkeypatch):
    cases = [(v, R, C) for n in (3, 4) for v in symmetric_group(n)
             for R, C in itertools.product(label_patterns(n, n), repeat=2)]

    def answers():
        caches = {n: KLCache(n) for n in (3, 4)}
        return [suites._identically_zero(v, R, C, caches[len(v)])
                for v, R, C in cases]

    before = answers()
    monkeypatch.setattr(suites, "imm_terms", lambda v, cache: [
        (k, -c if i == 0 else c)
        for i, (k, c) in enumerate(imm_terms(v, cache))])
    assert answers() != before


def test_search_53_decides_vanishing_without_evaluating(monkeypatch):
    # At seed 0, 266 of 1000 trials are identically zero, decided with no
    # random point drawn, and only the other 734 evaluate an immanant.
    def no_draws(*args):
        raise AssertionError("search 5.3 drew a random rational matrix")

    evaluations = []
    real = suites.imm_definition

    def counting(*args):
        evaluations.append(args)
        return real(*args)

    monkeypatch.setattr(suites, "_random_rational_matrix", no_draws)
    monkeypatch.setattr(suites, "imm_definition", counting)
    report = run_search("5.3", Config(max_n=4, max_m=4, samples=1000, seed=0))
    assert report.ok and report.cases_run == 1000
    assert report.notes["identically_zero_cases"] == 266
    assert len(evaluations) == 734


# ---------------------------------------------------------------------------
# CLI


def test_cli_kl(capsys):
    assert main(["kl", "1324", "3412"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "1 + q"
    assert out[1] == "at q=1: 2"
    assert main(["kl", "4321", "1234"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "0"
    assert main(["kl", "12", "123"]) == 1  # size mismatch


def test_cli_answers_at_n_8_without_a_bruhat_table(tmp_path, capsys):
    # The table is guarded at n <= 7; neither command below needs it.
    assert main(["kl", "12345678", "12345678"]) == 0
    assert capsys.readouterr().out.splitlines() == ["1", "at q=1: 1"]
    matrix = tmp_path / "m.json"
    assert main(["gen", "8", "8", "--out", str(matrix)]) == 0
    assert main(["imm", "21345678", "-m", str(matrix), "--method", "det"]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "determinantal"


def test_cli_kl_writes_out(tmp_path, capsys):
    out = tmp_path / "kl.txt"
    assert main(["kl", "1324", "3412", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == "1 + q\nat q=1: 2\n"


def test_cli_kl_cache_comes_from_the_flag_alone(tmp_path, monkeypatch,
                                                 capsys):
    # KLIMM_CACHE is no source of the base path; only --kl-cache is.
    monkeypatch.setenv("KLIMM_CACHE", str(tmp_path / "cache.json"))
    assert main(["kl", "1324", "3412"]) == 0
    assert capsys.readouterr().out == "1 + q\nat q=1: 2\n"
    assert list(tmp_path.iterdir()) == []
    assert main(["kl", "1324", "3412",
                 "--kl-cache", str(tmp_path / "kl.json")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kl.s4.json"]


def test_cli_kl_rejects_mislabelled_cache_file(tmp_path, capsys):
    base = str(tmp_path / "kl.json")
    assert main(["kl", "13245", "34125", "--kl-cache", base]) == 0
    s5 = tmp_path / "kl.s5.json"
    (tmp_path / "kl.s4.json").write_bytes(s5.read_bytes())
    before = s5.read_bytes()
    capsys.readouterr()
    assert main(["kl", "1324", "3412", "--kl-cache", base]) == 1
    assert "S_5" in capsys.readouterr().err
    assert s5.read_bytes() == before


# 4 is the bitset of table position 2, which holds 1324 in S_4.
@pytest.mark.parametrize("doc", [
    {"format_version": 2, "values": [], "rows": {}},
    [],
    {"n": 4, "format_version": 2, "values": [["a"]],
     "rows": {"3412": {"0": "4"}}},
    {"n": 4, "format_version": 2, "values": [[1.5]],
     "rows": {"3412": {"0": "4"}}},
    {"n": 4, "format_version": 2, "values": [[2]],
     "rows": {"3412": {"0": "4"}}},
], ids=["n-missing", "list", "coefficient-a-string", "coefficient-a-float",
        "value-not-a-kl-polynomial"])
def test_cli_kl_rejects_a_malformed_cache_file(tmp_path, capsys, doc):
    (tmp_path / "kl.s4.json").write_text(json.dumps(doc))
    base = str(tmp_path / "kl.json")
    assert main(["kl", "1324", "3412", "--kl-cache", base]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("key,value", [("1,3,2,4|3,4,1,2", [1, 1]),
                                       (" 1234 |2143", [1])])
def test_cli_kl_refuses_keys_in_another_form(tmp_path, capsys, key, value):
    # Each key names a true KL value, but rows are keyed by the compact
    # word of y alone, the one form save writes.
    path = tmp_path / "kl.s4.json"
    path.write_text(json.dumps({"n": 4, "format_version": 2,
                                "values": [value], "rows": {key: {"0": "1"}}}))
    before = path.read_bytes()
    assert main(["kl", "1324", "3412",
                 "--kl-cache", str(tmp_path / "kl.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cache row {key} in {path} ")
    assert path.read_bytes() == before


@pytest.mark.parametrize("argv", [
    ["kl", "1234", "4312"],
    ["check", "prop-3.1", "--max-n", "4", "--samples", "1"],
], ids=["kl", "check"])
def test_cli_reports_a_kl_value_the_recursion_refutes(tmp_path, capsys, argv):
    # 1 + q fits the degree bound, as l(3142) - l(1234) = 3 allows degree
    # 1, so the file loads; the recursion then meets it as a term and
    # finds P_1234,4312 = 1 - q.
    path = tmp_path / "kl.s4.json"
    store_holding(4, {((1, 2, 3, 4), (3, 1, 4, 2)): [1, 1]}).save(str(path))
    before = path.read_bytes()
    assert main(argv + ["--kl-cache", str(tmp_path / "kl.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: negative coefficient in P_1234,4312\n"
    assert path.read_bytes() == before


def test_cli_kl_rejects_cache_entries_that_are_not_below(tmp_path, capsys):
    # Neither pair is x < y in Bruhat order, so the recursion would never
    # read them; the file is refused, not counted and saved back.
    path = tmp_path / "kl.s4.json"
    store_holding(4, {((4, 3, 2, 1), (1, 2, 3, 4)): [5],
                      ((1, 2, 3, 4), (1, 2, 3, 4)): [7]}).save(str(path))
    before = path.read_bytes()
    assert main(["kl", "1324", "3412",
                 "--kl-cache", str(tmp_path / "kl.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cache entry 4321|1234 ")
    assert path.read_bytes() == before


def _write_fixture_matrix(path) -> str:
    with open(path, "w") as handle:
        json.dump(fixtures.TWO_POSITIVE_NOT_THREE.to_doc(), handle)
    return str(path)


def test_cli_imm_both_methods(tmp_path, capsys):
    matrix = _write_fixture_matrix(tmp_path / "m.json")
    assert main(["imm", "2413", "--R", "1,2,3,4", "--C", "1,2,3,4",
                 "-m", matrix]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["value"] == "39" and doc["admissible"] is True
    assert "methods agree" in captured.err

    assert main(["imm", "2413", "--R", "1,2,2,3", "--C", "1,2,2,3",
                 "-m", matrix]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == "0" and doc["admissible"] is False


def test_cli_imm_identity_defaults_and_det_method(tmp_path, capsys):
    matrix = _write_fixture_matrix(tmp_path / "m.json")
    assert main(["imm", "1234", "-m", matrix, "--method", "det"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "determinantal"
    # determinantal route must refuse a pattern violation
    assert main(["imm", "1324", "-m", matrix, "--method", "det"]) == 1
    # the defining sum handles it fine
    assert main(["imm", "1324", "-m", matrix, "--method", "definition"]) == 0


def test_cli_imm_det_reads_no_kl_cache(tmp_path, capsys):
    # Only the defining sum reads KL values, so a cache file that would
    # be refused fails the routes that use it and no other.
    matrix = _write_fixture_matrix(tmp_path / "m.json")
    (tmp_path / "kl.s4.json").write_text("[]")
    base = str(tmp_path / "kl.json")
    assert main(["imm", "2413", "-m", matrix, "--method", "det",
                 "--kl-cache", base]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "determinantal"
    for method in ("definition", "both"):
        assert main(["imm", "2413", "-m", matrix, "--method", method,
                     "--kl-cache", base]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_cli_imm_closes_the_matrix_file(tmp_path, capsys):
    matrix = _write_fixture_matrix(tmp_path / "m.json")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(["imm", "2413", "-m", matrix, "--method", "det"]) == 0
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.parametrize("doc", [
    {"rows": 2, "entries": ["1", "2", "3", "4"]},
    [[1, 2], [3, 4]],
    {"rows": -1, "cols": 0, "entries": []},
    {"rows": 0, "cols": 5, "entries": []},
    {"rows": True, "cols": 1, "entries": ["1"]},
    {"rows": 1, "cols": 1, "entries": "1"},
    {"rows": 1, "cols": 1, "entries": ["1/0"]},
], ids=["cols-missing", "list", "rows-negative", "cols-without-rows",
        "rows-a-bool", "entries-a-string", "zero-denominator"])
def test_cli_imm_rejects_a_malformed_matrix_file(tmp_path, capsys, doc):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert main(["imm", "12", "-m", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("base", ["kk", "newdir/"],
                         ids=["existing-directory", "trailing-slash"])
def test_cli_refuses_a_kl_cache_base_path_naming_a_directory(tmp_path, capsys,
                                                             base):
    # An existing directory would get kk.s4.json written beside it, and a
    # trailing slash a hidden newdir/.s4.json inside.
    (tmp_path / "kk").mkdir()
    path = os.path.join(str(tmp_path), base)
    for argv in (["kl", "1324", "3412"],
                 ["check", "prop-3.1", "--max-n", "4", "--samples", "1"]):
        assert main(argv + ["--kl-cache", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: KL cache base path {path!r}")
    assert sorted(p.relative_to(tmp_path).as_posix()
                  for p in tmp_path.rglob("*")) == ["kk"]


def test_cli_imm_says_the_matrix_is_too_small_for_its_default_labels(
        tmp_path, capsys):
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps(
        {"rows": 3, "cols": 3, "entries": [1, 0, 0, 0, 1, 0, 0, 0, 1]}))
    message = ("error: the 3x3 matrix is too small for the default labels "
               "1..4; pass --R and --C\n")
    for labels in ([], ["--R", "1,2,2,3"], ["--C", "1,2,3,3"]):
        assert main(["imm", "1324", "-m", str(matrix), "--method", "det",
                     *labels]) == 1
        assert capsys.readouterr().err == message
    # With both label lists given, the labels are the user's own.
    assert main(["imm", "2413", "-m", str(matrix), "--method", "det",
                 "--R", "1,2,2,3", "--C", "1,2,3,3"]) == 0


def test_cli_graph(tmp_path, capsys):
    assert main(["graph", "2413"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == ". X # #"
    assert "largest square: 2" in out

    assert main(["graph", "4321", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cells"] == [[1, 4], [2, 3], [3, 2], [4, 1]]

    assert main(["graph", str(fixtures.BOX_COLORING_WORD[0])
                 and ",".join(map(str, fixtures.BOX_COLORING_WORD)),
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [b["color"] for b in doc["boxes"]] == \
        list(fixtures.BOX_COLORING_COLORS)


def test_lewis_carroll_suite_honours_max_n(monkeypatch):
    # Each key seeds its case's draws, so _case_rng sees every one.
    keys = []
    case_rng = suites._case_rng
    monkeypatch.setattr(suites, "_case_rng", lambda seed, suite, key: (
        keys.append(key) or case_rng(seed, suite, key)))
    cases = list(suites._suite_lewis_carroll(
        Config(max_n=3, samples=5), None, {}))
    assert cases == [None] * 5
    assert keys == ["t=0000:n=2", "t=0001:n=3", "t=0002:n=2",
                    "t=0003:n=3", "t=0004:n=2"]
    with pytest.raises(ValueError, match="max_n >= 2, got 1"):
        run_suite("prop-3.2", Config(max_n=1))


def test_cli_check_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["check", "prop-3.2", "--samples", "10",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["cases_run"] == 10 and doc["counterexamples"] == []
    assert main(["check", "prop-3.2", "--samples", "10",
                 "--format", "csv"]) == 0
    csv_text = capsys.readouterr().out
    assert csv_text.splitlines()[0].startswith("suite,seed")


def test_cli_search(capsys):
    assert main(["search", "5.1", "--samples", "10", "--max-n", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cases_run"] == 10


def test_cli_gen(tmp_path, capsys):
    out = tmp_path / "tp.json"
    assert main(["gen", "4", "4", "--out", str(out)]) == 0
    M = Matrix.from_doc(json.loads(out.read_text()))
    assert positivity_order(M) == 4
    assert "max positivity order: 4" in capsys.readouterr().err

    assert main(["gen", "4", "2", "--out", str(out)]) == 0
    M = Matrix.from_doc(json.loads(out.read_text()))
    assert is_k_positive(M, 2) and not is_k_positive(M, 3)

    assert main(["gen", "3", "5"]) == 1  # k out of range


@pytest.mark.parametrize("n,k,message", [
    ("3", "5", "k must lie in [1, 3], not 5"),
    ("3", "0", "k must lie in [1, 3], not 0"),
    ("0", "0", "n must be at least 1, not 0"),
    ("-2", "1", "n must be at least 1, not -2"),
])
def test_cli_gen_rejects_sizes_out_of_range(capsys, n, k, message):
    assert main(["gen", n, k]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_gen_scalar(tmp_path, capsys):
    out = tmp_path / "one.json"
    assert main(["gen", "1", "1", "--out", str(out)]) == 0
    M = Matrix.from_doc(json.loads(out.read_text()))
    assert M.rows == 1 and M.entries[0][0] > 0


def test_cli_imm_disagreement_exit_code(tmp_path, capsys, monkeypatch):
    # The determinantal and defining routes provably agree, so force a
    # disagreement to check the CLI's dedicated exit code.
    import klimm.cli as cli

    real = cli.dual_canonical_eval

    def skewed(v, R, C, M, method="determinantal", cache=None):
        result = real(v, R, C, M, method, cache)
        if method == "determinantal":
            object.__setattr__(result, "value", result.value + 1)
        return result

    monkeypatch.setattr(cli, "dual_canonical_eval", skewed)
    matrix = _write_fixture_matrix(tmp_path / "m.json")
    assert main(["imm", "2413", "-m", matrix, "--method", "both"]) == 3
    assert "DISAGREEMENT" in capsys.readouterr().err


def test_cli_gen_constructs_order_k(tmp_path, capsys):
    out = tmp_path / "m.json"
    for n, k in [(4, 2), (3, 2)]:
        for seed in range(3):
            assert main(["gen", str(n), str(k), "--seed", str(seed),
                         "--out", str(out)]) == 0
            M = Matrix.from_doc(json.loads(out.read_text()))
            assert positivity_order(M) == k
            assert f"max positivity order: {k}" in capsys.readouterr().err
    with pytest.raises(SystemExit) as excinfo:
        main(["gen", "4", "2", "--budget", "0"])
    assert excinfo.value.code == 2


def test_cli_usage_errors():
    with pytest.raises(SystemExit) as excinfo:
        main(["check", "prop-9.9"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["search", "6.1"])
    assert excinfo.value.code == 2


# SHA-256 of grid-derived documents, pinned from the frozenset-cell grid
# that preceded the row-mask one: a change of grid representation must
# leave every byte of these outputs alone.
GRID_DIGESTS = [
    (["check", "lemma-2.11", "--max-n", "5"],
     "0e33a5d9200b28f8228178abbf5983b91cd9e85315402e2df22fdad218646832"),
    (["check", "lemma-2.12", "--max-n", "5"],
     "c7aa6b1ef6700ee25410d8cd4730275e4cbb8675dfa8b031052cf41e92b1ee18"),
    (["check", "lemma-2.16", "--max-n", "5"],
     "c216ee3809eb03c757b2ec0991a6d944c24556fe2522b207b231da35fb8763a1"),
    (["check", "prop-2.17", "--max-n", "5"],
     "7b3a9b4eb006f4e49993d794cbe3800535b90217033fe9d89e9d20438893c49e"),
    (["graph", "2413", "--format", "json"],
     "3ffc79290826279cfe70907410aa56d75a50c04aa4b402decd40fe3380d3bedd"),
    (["graph", format_perm(fixtures.BOX_COLORING_WORD), "--format", "json"],
     "35c215f7bc1a3b8c3e797ce9d42a746829e9e67fc46540af459b89d9df38f423"),
]


# SHA-256 of reports built on restricted determinants, pinned from the
# determinants of restricted Fraction matrices: taking them on masked
# integer rows instead must leave every byte of these reports alone.
DETERMINANT_DIGESTS = [
    (["check", "deletion"],
     "834aaad832d3046ca0d72f0ddc3d3c3e7828ff5afb5d59ca42562e5b9b79ebfc"),
    (["check", "prop-4.1"],
     "d19fab9ee36a94c67555dab36eaa799013ca9ab53d3fec10d694d4729256f50e"),
]


@pytest.mark.parametrize("argv,digest", GRID_DIGESTS + DETERMINANT_DIGESTS,
                         ids=["-".join(argv[:2]) for argv, _ in
                              GRID_DIGESTS + DETERMINANT_DIGESTS])
def test_grid_outputs_match_pinned_digests(tmp_path, capsys, argv, digest):
    out = tmp_path / "doc.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_prop41_decides_the_split_once_per_avoider(monkeypatch):
    # Each avoider's block split is decided once, before a key is made or
    # a stream seeded: an avoider that does not split makes no case.  The
    # report bytes are pinned in DETERMINANT_DIGESTS.
    seeded, splits = [], []
    case_rng, split = suites._case_rng, suites.block_antidiagonal_split
    monkeypatch.setattr(suites, "_case_rng", lambda seed, suite, key: (
        seeded.append(key) or case_rng(seed, suite, key)))
    monkeypatch.setattr(suites, "block_antidiagonal_split", lambda P: (
        splits.append(P) or split(P)))
    report = run_suite("prop-4.1", Config())
    avoiders = [v for n in range(2, 7) for v in _avoiders(n, FORBIDDEN_PATTERNS)]
    assert len(splits) == len(avoiders) == 484
    kept = [v for v in avoiders
            if split(grid.graph_of_upper_interval(v)) is not None]
    assert len(seeded) == report.cases_run == 3 * len(kept) == 759
    assert len(set(seeded)) == len(seeded)


# SHA-256 of a cold prop-3.1 run's KL cache files and report.  The
# report is pinned from the recursion that preceded the straight-line
# one, so a faster kl_at must leave every byte of it alone.  The cache
# files are pinned from format 2 (one bitset per row and value class);
# the test below checks that they decode to exactly the cold store.
PROP31_DIGESTS = {
    "kl.s4.json":
        "4135281a6b8e6ec809cac407a8447ed496243eca8c3428cd1c52f525da21b83d",
    "kl.s5.json":
        "f5cfc81356d0692e9a8cf02bfa7bfda97a5fb8249868e6a3d4c83db23f93a1e4",
    "r.json":
        "b799630160fdd21b01cb8ca26443260a3fe0f376341342646a0418d32982f791",
}


def test_prop31_cache_files_and_report_match_pinned_digests(tmp_path, capsys):
    assert main(["check", "prop-3.1", "--max-n", "5", "--samples", "1",
                 "--seed", "0", "--kl-cache", str(tmp_path / "kl.json"),
                 "--out", str(tmp_path / "r.json")]) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in PROP31_DIGESTS} == PROP31_DIGESTS


def test_prop31_cache_files_decode_to_the_cold_store(tmp_path, capsys):
    # prop-3.1 evaluates the defining sum of every avoider, so a cold
    # recursion that walks the same KL rows stores exactly the pairs the
    # files must hold, each with its value; S_1 stores none, and a cache
    # that never missed writes no file.
    assert main(["check", "prop-3.1", "--max-n", "5", "--samples", "1",
                 "--seed", "0", "--kl-cache", str(tmp_path / "kl.json")]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == [f"kl.s{n}.json" for n in range(2, 6)]
    for n in range(1, 6):
        cold = KLCache(n)
        for v in _avoiders(n, FORBIDDEN_PATTERNS):
            imm_terms(v, cold)
        path = tmp_path / f"kl.s{n}.json"
        if n == 1:
            assert len(cold) == 0 and not path.exists()
            continue
        loaded = KLCache.load(str(path))
        assert len(loaded) == len(cold) > 0
        assert loaded._rows == cold._rows


# SHA-256 of the random draws of the two rational suites, in suite order,
# pinned from the draws made with randint.  A passing report holds no
# matrix, so only these pins see a changed draw.
PROP31_DRAWS_DIGEST = (
    "a1373276a2ec48fe2bc9b7eeb7e4bf8476446da876abe4c19e67a33133ef4cdd")
PROP32_DRAWS_DIGEST = (
    "791791c7fc193071d549c663d7e471a1ecabf30c375369e71581e23b62234fa6")


def _sha256_of_json(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _record_draws(monkeypatch, name: str) -> list[Matrix]:
    """Every matrix suites.<name> returns from now on, in order."""
    drawn, draw = [], getattr(suites, name)

    def recording(*args):
        out = draw(*args)
        drawn.extend(out if isinstance(out, list) else [out])
        return out

    monkeypatch.setattr(suites, name, recording)
    return drawn


def test_prop31_draws_match_pinned_digest(monkeypatch):
    drawn = _record_draws(monkeypatch, "_random_rational_matrix")
    assert run_suite("prop-3.1", Config(max_n=6, samples=1, seed=0)).ok
    assert len(drawn) == 485
    assert _sha256_of_json([M.to_doc() for M in drawn]) == PROP31_DRAWS_DIGEST


@given(st.integers(0, 7), st.integers(0, 2**64))
@settings(max_examples=60, deadline=None)
def test_draw_matches_the_randint_reference(n, seed):
    # prop-3.2 draws its indices from the same generator after the matrix.
    rng, reference_rng = random.Random(seed), random.Random(seed)
    M = suites._random_rational_matrix(n, rng)
    reference = random_rational_matrix(n, reference_rng)
    assert rng.getstate() == reference_rng.getstate()
    assert M == reference and hash(M) == hash(reference)
    assert M.cleared == reference.cleared
    assert M.entries == reference.entries
    assert M.to_doc() == reference.to_doc()


def test_prop31_draws_build_no_entries_until_a_case_fails(monkeypatch):
    drawn = _record_draws(monkeypatch, "_random_rational_matrix")
    config = Config(max_n=5, samples=1)
    assert run_suite("prop-3.1", config).ok
    assert drawn and not any("entries" in vars(M) for M in drawn)

    determinantal = suites.imm_determinantal
    monkeypatch.setattr(suites, "imm_determinantal",
                        lambda v, M: determinantal(v, M) + 1)
    report = run_suite("prop-3.1", config)
    assert len(report.counterexamples) == report.cases_run == len(drawn) // 2
    for witness in report.counterexamples:
        rng = suites._case_rng(config.seed, "prop-3.1", witness["case"])
        reference = random_rational_matrix(len(witness["v"]), rng)
        assert witness["matrix"] == reference.to_doc()


# Passing runs whose drawn matrices are read only through their cleared
# rows: prop-4.1's random draws and every other run's k-positive samples.
PASSING_RUNS = {
    "prop-4.1": Config(),
    "main-sq": Config(max_n=3, max_m=3, samples=2),
    "young": Config(max_n=3, max_m=3, samples=2),
    "sgn-probe": Config(max_n=4, samples=1),
    "5.1": Config(samples=100),
    "5.2": Config(samples=100),
    "5.3": Config(samples=100),
}


@pytest.mark.parametrize("name", PASSING_RUNS)
def test_passing_runs_build_no_entries(monkeypatch, name):
    drawn = _record_draws(monkeypatch, "_random_rational_matrix"
                          if name == "prop-4.1" else "_k_positive_samples")
    run = run_search if name in suites.SEARCHES else run_suite
    assert run(name, PASSING_RUNS[name]).ok
    assert drawn and not any("entries" in vars(M) for M in drawn)


# SHA-256 of every matrix the searches and main-sq sample, pinned from the
# Fraction-built sampler.  A passing report holds no matrix, so only this
# pin sees a changed draw.
SAMPLED_MATRICES_DIGEST = (
    "e943034c722317672fd973a998441259f05cd6285ccf66da018473dd6885afd0")


def test_sampled_matrices_match_pinned_digest(monkeypatch):
    drawn = _record_draws(monkeypatch, "_k_positive_samples")
    for conjecture in ("5.1", "5.2", "5.3"):
        assert run_search(conjecture, Config(max_n=4, max_m=4, samples=200,
                                             seed=0)).ok
    assert run_suite("main-sq", Config(max_n=3, max_m=3, samples=2)).ok
    assert len(drawn) == 569
    assert (_sha256_of_json([M.to_doc() for M in drawn])
            == SAMPLED_MATRICES_DIGEST)


def test_prop32_draws_match_pinned_digest(monkeypatch):
    drawn = []
    residual = suites.lewis_carroll_residual

    def recording(M, a, a2, b, b2):
        drawn.append([M.to_doc(), [a, a2, b, b2]])
        return residual(M, a, a2, b, b2)

    monkeypatch.setattr(suites, "lewis_carroll_residual", recording)
    assert run_suite("prop-3.2", Config(seed=0)).ok
    assert len(drawn) == 200
    assert _sha256_of_json(drawn) == PROP32_DRAWS_DIGEST


# SHA-256 of outputs that read row and column labels, pinned from the
# grids that carried their own labels: passing the labels to
# is_admissible instead must leave every byte of them alone.  Searches
# 5.1 and 5.3 also evaluate the defining sum outside prop-3.1; theirs
# were pinned from the imm_definition that walked the KL store itself,
# before it became a dot product of klpoly.imm_terms.  5.3's was re-pinned
# when its random-point vanishing test gave way to the exact one: only its
# hypothesis_source text changed.  The graph 2413 ASCII output was
# re-pinned when its "admissible (identity labels)" line, which identity
# labels make always True, was dropped.  MATRIX stands for the fixture
# matrix file.
LABEL_DIGESTS = [
    (["check", "main-sq", "--max-n", "4", "--max-m", "4", "--samples", "1"],
     "b6550c20d967d749d1449a5dcb75a37a307a01b4993e26204bc80b165cc29210"),
    (["check", "young", "--max-n", "4", "--max-m", "4", "--samples", "1"],
     "acd64502d1a9626b1560897ee37b16ca68a0da785b1e956b98761839885da6d8"),
    (["check", "sgn-probe", "--max-n", "5", "--samples", "1"],
     "023db1d36881ce4abca30c199d950ac706e66e0e8d8ecc35d52d433d3d372113"),
    (["search", "5.1", "--samples", "200"],
     "c42b1083fe7d797045c605925d692fa20e34796a0e4b3c0a03986cecfe8749de"),
    (["search", "5.2", "--samples", "200"],
     "4fe25ac2f1cf6af38df4ba1225eba56706c4b24a82aab62b7311aa35bb042a09"),
    (["search", "5.3", "--samples", "200"],
     "d08660497b0bbb431f173e66c33b5480195c3f2ab8acd281919d1d58a58e169f"),
    (["imm", "2413", "--R", "1,2,2,3", "--C", "1,2,3,3", "-m", "MATRIX"],
     "6177fffff68be62108b6a031fb6a840313c7d9775c6ee57849cb3a5f8421c242"),
    (["graph", "2413"],
     "027a8b0636849e9fbebccaf137db428864f5b7122a89ce5c8f833508bd10af42"),
]


@pytest.mark.parametrize("argv,digest", LABEL_DIGESTS,
                         ids=["-".join(argv[:2]) for argv, _ in LABEL_DIGESTS])
def test_label_outputs_match_pinned_digests(tmp_path, capsys, argv, digest):
    matrix = _write_fixture_matrix(tmp_path / "m.json")
    argv = [matrix if arg == "MATRIX" else arg for arg in argv]
    out = tmp_path / "doc.out"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 of a lemma-2.12 report with failures, pinned from the runner
# that sorted every case by its key: streaming the cases and keying only
# the failures must leave every byte of a failing report alone too.
# largest_square is raised by one on the graphs that hold the cell (2, 1)
# at n >= 5, that is, on the 288 words with 1 in one of their first two
# places.
LEMMA_212_FAILURE_DIGEST = (
    "743a405ea2e91be1fe2ec7ae2188edffb77340984fabcb2aa89bcde0fd37ddc8")


def test_failing_report_matches_pinned_digest(tmp_path, capsys, monkeypatch):
    real = grid.largest_square
    monkeypatch.setattr(grid, "largest_square", lambda P: real(P) + (
        P.n >= 5 and P.rows[1] >> 1 & 1))
    out = tmp_path / "doc.json"
    assert main(["check", "lemma-2.12", "--max-n", "6",
                 "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert (doc["cases_run"], doc["cases_passed"]) == (873, 585)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        LEMMA_212_FAILURE_DIGEST


# SHA-256 of a prop-2.17 report with failures, pinned from the engine
# before its square guards, mu test and labeled-case loops were each
# stated once.  The last maximal box of every word of S_6 that starts
# with 2 is recoloured purple; 24 of those words meet the hypotheses and
# have more than one box.
PROP_217_FAILURE_DIGEST = (
    "f33ecffbbbdffe62b74d6f725176a9342d9bf585753a4730d65f3cb01abfc7b1")


def test_failing_alternation_report_matches_pinned_digest(tmp_path, capsys,
                                                          monkeypatch):
    real = grid._maximal_spans

    def purple_last_box(v):
        spans = real(v)
        if len(v) == 6 and v[0] == 2:
            lo, hi, corners, _ = spans[-1]
            spans = spans[:-1] + [(lo, hi, corners, "purple")]
        return spans

    monkeypatch.setattr(grid, "_maximal_spans", purple_last_box)
    out = tmp_path / "doc.json"
    assert main(["check", "prop-2.17", "--max-n", "7",
                 "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert (doc["cases_run"], doc["cases_passed"]) == (1965, 1941)
    for witness in doc["counterexamples"]:
        word = witness["v"]
        assert witness["case"] == f"n=6:v={word}" and word[0] == "2"
        assert witness["colors"][-1] == "purple"
        assert len(witness["colors"]) > 1
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        PROP_217_FAILURE_DIGEST
