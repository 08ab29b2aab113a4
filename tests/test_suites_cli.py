import gc
import hashlib
import json
import os
import warnings

import pytest

import fixtures
from klimm import grid, suites
from klimm.cli import main
from klimm.exactmat import Matrix, is_k_positive, positivity_order
from klimm.grid import FORBIDDEN_PATTERNS
from klimm.perm import format_perm
from klimm.suites import Config, SuiteReport, run_search, run_suite


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


def test_deletion_suite_has_one_grid_case_per_position():
    config = Config(max_n=5, samples=3, seed=0)
    keys = [key for key, _, _ in suites._suite_deletion(config, None, {})]
    grid_keys = [key for key in keys if key.endswith(":grid")]
    avoiders = {n: suites._avoiders(n, FORBIDDEN_PATTERNS) for n in range(2, 6)}
    assert len(grid_keys) == len(set(grid_keys)) == sum(
        n * len(vs) for n, vs in avoiders.items())
    assert len(keys) == 2200


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
    report = SuiteReport("x", {"seed": 0}, cases_run=2, cases_passed=1,
                         counterexamples=[{"case": "a", "v": "21"}],
                         wall_time=0.0)
    assert not report.ok
    assert "counterexamples" in report.to_doc()
    assert report.to_csv().splitlines()[1].endswith(",2,1,1")


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
    # Force the one trial to fail: every immanant reads -1 and the sign
    # law never holds, in the search and in its re-check alike.
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


def test_search_rejects_unknown_conjecture():
    with pytest.raises(ValueError, match=r"unknown conjecture '5.4'; "
                                         r"choose from \['5.1', '5.2', '5.3'\]"):
        run_search("5.4", small_config())


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


def test_cli_kl_cache_env(tmp_path, monkeypatch, capsys):
    base = tmp_path / "cache.json"
    monkeypatch.setenv("KLIMM_CACHE", str(base))
    assert main(["kl", "1324", "3412"]) == 0
    capsys.readouterr()
    assert (tmp_path / "cache.s4.json").exists()


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


@pytest.mark.parametrize("doc", [
    {"format_version": 1, "table": {}},
    [],
    {"n": 4, "format_version": 1, "table": {"1324|3412": ["a"]}},
    {"n": 4, "format_version": 1, "table": {"1324|3412": [1.5]}},
], ids=["n-missing", "list", "coefficient-a-string", "coefficient-a-float"])
def test_cli_kl_rejects_a_malformed_cache_file(tmp_path, capsys, doc):
    (tmp_path / "kl.s4.json").write_text(json.dumps(doc))
    base = str(tmp_path / "kl.json")
    assert main(["kl", "1324", "3412", "--kl-cache", base]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cli_kl_rejects_cache_entries_that_are_not_below(tmp_path, capsys):
    # Neither pair is x < y in Bruhat order, so the recursion would never
    # read them; the file is refused, not counted and saved back.
    path = tmp_path / "kl.s4.json"
    path.write_text(json.dumps({"n": 4, "format_version": 1, "table": {
        "4321|1234": [7], "1234|1234": [5]}}))
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


@pytest.mark.parametrize("argv,digest", GRID_DIGESTS,
                         ids=["-".join(argv[:2]) for argv, _ in GRID_DIGESTS])
def test_grid_outputs_match_pinned_digests(tmp_path, capsys, argv, digest):
    out = tmp_path / "doc.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 of a cold prop-3.1 run's KL cache files and report, pinned from
# the recursion that preceded the straight-line one: a faster kl_at or
# KLCache.save must leave every byte of them alone.
PROP31_DIGESTS = {
    "kl.s4.json":
        "74ecee46e9f3bfc97a7f2d449b3a0268293c5396f1edbfcdad45505d283e91d2",
    "kl.s5.json":
        "4cce1adb4108a90b7a4b347f6d864601b11a023d833765aa8c43290f6e5e8a14",
    "r.json":
        "b799630160fdd21b01cb8ca26443260a3fe0f376341342646a0418d32982f791",
}


def test_prop31_cache_files_and_report_match_pinned_digests(tmp_path, capsys):
    assert main(["check", "prop-3.1", "--max-n", "5", "--samples", "1",
                 "--seed", "0", "--kl-cache", str(tmp_path / "kl.json"),
                 "--out", str(tmp_path / "r.json")]) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in PROP31_DIGESTS} == PROP31_DIGESTS
