"""
Verification suites and conjecture searches.

Each suite sweeps one structural fact over an exhaustive or sampled case
list and produces a :class:`SuiteReport`.  Reports are deterministic
given (config, seed): case keys are generated in a fixed order, every
random draw is keyed off the seed and the case key, and wall time is
kept off the serialized document so identical runs produce identical
bytes.

A failed case always carries a fully serialized witness (matrix
included), so any finding can be re-checked independently of this
process.  Each search re-checks its witness from that serialization
alone and records the boolean ``reverified``: the matrix must be
k-positive at min(k, m), and then search 5.1 re-evaluates the plain
immanant (<= 0), 5.2 re-runs the sign law at (v, R, C), and 5.3
re-evaluates the immanant of the repeated-label submatrix (<= 0).
"""
from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator

from .errors import PreconditionError
from .exactmat import (
    Matrix,
    gen_k_positive_not_higher,
    gen_totally_positive,
    is_k_positive,
    lewis_carroll_residual,
    repeat_submatrix,
)
from .grid import (
    FORBIDDEN_PATTERNS,
    block_antidiagonal_split,
    bounding_boxes,
    boxes_alternate,
    boxes_cover_interval_graph,
    deletion_grid_identity,
    deletion_pruned_grid_identity,
    durfee,
    graph_of_interval_bruteforce,
    graph_of_upper_interval,
    label_patterns,
    largest_square,
    spanning_corners,
    squares_match_noninversions,
    young_complement_grid,
)
from .immanant import (
    deletion_det_identity,
    dual_canonical_eval,
    factor_block_antidiagonal,
    imm_definition,
    imm_determinantal,
    lewis_carroll_sign_probe,
    obeys_sign_law,
    sign_probe_anchor,
    young_complement_sign_law,
    young_sign_law,
)
from .klpoly import KLCacheRegistry
from .perm import (
    BRUHAT_TABLE_GUARD,
    Perm,
    avoids,
    format_perm,
    identity,
    parse_perm,
    symmetric_group,
)


@dataclass
class Config:
    """Run parameters; unset fields fall back to per-suite defaults."""

    max_n: int | None = None
    max_m: int | None = None
    samples: int | None = None
    seed: int = 0
    kl_cache_path: str | None = None
    k: int | None = None  # pin the positivity order in searches

    def __post_init__(self):
        if self.max_n is not None and not 1 <= self.max_n <= BRUHAT_TABLE_GUARD:
            raise ValueError(f"max_n must lie in [1, {BRUHAT_TABLE_GUARD}]")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be positive")
        if self.max_m is not None and self.max_m < 1:
            raise ValueError("max_m must be positive")
        if self.samples is not None and self.samples < 1:
            raise ValueError("samples must be positive")


@dataclass
class SuiteReport:
    """Outcome of one suite or search run."""

    suite: str
    params: dict
    cases_run: int
    cases_passed: int
    counterexamples: list[dict]
    wall_time: float
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        if bool(self.counterexamples) != (self.cases_passed < self.cases_run):
            raise ValueError(
                "report invariant violated: counterexamples must be "
                "recorded exactly for the failed cases")

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_doc(self) -> dict:
        # Wall time deliberately omitted: documents must be byte-identical
        # across runs with the same config and seed.
        return {
            "suite": self.suite,
            "params": self.params,
            "cases_run": self.cases_run,
            "cases_passed": self.cases_passed,
            "counterexamples": self.counterexamples,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        header = ("suite,seed,max_n,max_m,samples,"
                  "cases_run,cases_passed,counterexamples")
        row = ",".join(str(x) for x in (
            self.suite, self.params.get("seed"), self.params.get("max_n"),
            self.params.get("max_m"), self.params.get("samples"),
            self.cases_run, self.cases_passed, len(self.counterexamples)))
        return header + "\n" + row + "\n"


Case = tuple[str, bool, dict | None]
CaseGenerator = Callable[[Config, KLCacheRegistry, dict], Iterator[Case]]


def _case_rng(seed: int, suite: str, key: str) -> random.Random:
    return random.Random(f"{seed}:{suite}:{key}")


def _random_rational_matrix(n: int, rng: random.Random) -> Matrix:
    return Matrix(tuple(
        tuple(Fraction(rng.randint(-999, 999), rng.randint(1, 50))
              for _ in range(n))
        for _ in range(n)))


def _k_positive_samples(m: int, k: int, tag: str, count: int,
                        notes: dict) -> list[Matrix]:
    """
    Deterministic verified k-positive m x m matrices, tallied by origin in
    the notes: totally positive when k >= m (an m x m matrix has no minor
    larger than m), else each constructed with order exactly k from its
    own seed.
    """
    counts = notes.setdefault("sampled_matrices", dict.fromkeys(
        ("constructed", "totally_positive"), 0))
    if k >= m:
        out = [gen_totally_positive(m, seed=f"{tag}:tp{index}")
               for index in range(count)]
        counts["totally_positive"] += count
    else:
        out = [gen_k_positive_not_higher(m, k, seed=f"{tag}:k{index}")
               for index in range(count)]
        counts["constructed"] += count
    for M in out:
        if not is_k_positive(M, min(k, m)):
            raise ArithmeticError("sampled matrix failed its positivity check")
    return out


@lru_cache(maxsize=None)
def _avoiders(n: int, patterns: tuple[Perm, ...]) -> tuple[Perm, ...]:
    return tuple(v for v in symmetric_group(n) if avoids(v, *patterns))


@lru_cache(maxsize=None)
def _partitions_in_box(n: int) -> tuple[tuple[int, ...], ...]:
    """
    All weakly decreasing tuples (with trailing zeros) inside n^n, in
    decreasing lexicographic order: the order the combinations of the
    decreasing range come in.
    """
    return tuple(itertools.combinations_with_replacement(range(n, -1, -1), n))


def _random_multiset(m: int, n: int, rng: random.Random) -> tuple[int, ...]:
    return tuple(sorted(rng.choices(range(1, m + 1), k=n)))


def _draw_size_and_order(rng: random.Random, k: int | None,
                         max_n: int) -> tuple[int, int]:
    """Size n and positivity order k < n for one trial; a pinned k stays."""
    if k is None:
        n = rng.randint(2, max_n)
        return n, rng.randint(1, n - 1)
    if k + 1 > max_n:
        raise ValueError(f"pinned k={k} needs max_n > k")
    return rng.randint(k + 1, max_n), k


# ---------------------------------------------------------------------------
# Suite case generators.  Each yields (case_key, passed, witness_or_None).


def _every_permutation(holds: Callable[[Perm], bool]) -> CaseGenerator:
    """Sweep one predicate over every permutation of size 1..max_n."""
    def cases(config: Config, caches: KLCacheRegistry,
              notes: dict) -> Iterator[Case]:
        for n in range(1, (config.max_n or 7) + 1):
            for v in symmetric_group(n):
                passed = holds(v)
                yield (f"n={n}:v={format_perm(v)}", passed,
                       None if passed else {"v": format_perm(v)})
    return cases


def _interval_graph_matches_oracle(v: Perm) -> bool:
    return (graph_of_upper_interval(v).rows
            == graph_of_interval_bruteforce(v).rows)


def _suite_alternation(config: Config, caches: KLCacheRegistry,
                       notes: dict) -> Iterator[Case]:
    max_n = config.max_n or 7
    for n in range(1, max_n + 1):
        for v in symmetric_group(n):
            try:
                passed = boxes_alternate(v)
            except PreconditionError:
                continue
            key = f"n={n}:v={format_perm(v)}"
            if passed:
                yield key, True, None
            else:
                boxes = bounding_boxes(v)
                yield key, False, {"v": format_perm(v),
                                   "colors": [b.color for b in boxes]}


def _suite_determinantal_formula(config: Config, caches: KLCacheRegistry,
                                 notes: dict) -> Iterator[Case]:
    max_n = config.max_n or 5
    samples = config.samples or 3
    for n in range(1, max_n + 1):
        cache = caches.for_n(n)
        for v in _avoiders(n, FORBIDDEN_PATTERNS):
            for s in range(samples):
                key = f"n={n}:v={format_perm(v)}:s={s}"
                rng = _case_rng(config.seed, "prop-3.1", key)
                M = _random_rational_matrix(n, rng)
                lhs = imm_definition(v, M, cache)
                rhs = imm_determinantal(v, M)
                passed = lhs == rhs
                witness = None if passed else {
                    "v": format_perm(v), "matrix": M.to_doc(),
                    "definition": str(lhs), "determinantal": str(rhs)}
                yield key, passed, witness


def _suite_lewis_carroll(config: Config, caches: KLCacheRegistry,
                         notes: dict) -> Iterator[Case]:
    samples = config.samples or 200
    for t in range(samples):
        n = 2 + t % 5  # sizes 2 through 6
        key = f"t={t:04d}:n={n}"
        rng = _case_rng(config.seed, "prop-3.2", key)
        M = _random_rational_matrix(n, rng)
        a = rng.randint(1, n - 1)
        a2 = rng.randint(a + 1, n)
        b = rng.randint(1, n - 1)
        b2 = rng.randint(b + 1, n)
        residual = lewis_carroll_residual(M, a, a2, b, b2)
        passed = residual == 0
        witness = None if passed else {
            "matrix": M.to_doc(), "rows": [a, a2], "cols": [b, b2],
            "residual": str(residual)}
        yield key, passed, witness


def _suite_block_factorization(config: Config, caches: KLCacheRegistry,
                               notes: dict) -> Iterator[Case]:
    max_n = config.max_n or 6
    samples = config.samples or 3
    for n in range(2, max_n + 1):
        for v in _avoiders(n, FORBIDDEN_PATTERNS):
            if block_antidiagonal_split(graph_of_upper_interval(v)) is None:
                continue
            for s in range(samples):
                key = f"n={n}:v={format_perm(v)}:s={s}"
                rng = _case_rng(config.seed, "prop-4.1", key)
                M = _random_rational_matrix(n, rng)
                product = factor_block_antidiagonal(v, M)
                direct = imm_determinantal(v, M)
                passed = product == direct
                witness = None if passed else {
                    "v": format_perm(v), "matrix": M.to_doc(),
                    "product": str(product), "direct": str(direct)}
                yield key, passed, witness


def _suite_deletion(config: Config, caches: KLCacheRegistry,
                    notes: dict) -> Iterator[Case]:
    max_n = config.max_n or 5
    samples = config.samples or 3
    for n in range(2, max_n + 1):
        for v in _avoiders(n, FORBIDDEN_PATTERNS):
            corners = spanning_corners(v)
            for i in range(1, n + 1):
                key = f"n={n}:v={format_perm(v)}:i={i}:grid"
                if (i, v[i - 1]) in corners:
                    passed = deletion_pruned_grid_identity(v, i)
                else:
                    passed = deletion_grid_identity(v, i)
                yield key, passed, None if passed else {
                    "v": format_perm(v), "i": i,
                    "failure": "grid deletion mismatch"}
                for s in range(samples):
                    key = f"n={n}:v={format_perm(v)}:i={i}:s={s}"
                    rng = _case_rng(config.seed, "deletion", key)
                    M = _random_rational_matrix(n - 1, rng)
                    passed = deletion_det_identity(v, i, M)
                    yield key, passed, None if passed else {
                        "v": format_perm(v), "i": i, "matrix": M.to_doc()}


def _suite_young(config: Config, caches: KLCacheRegistry,
                 notes: dict) -> Iterator[Case]:
    n = config.max_n or 4
    m = config.max_m or 4
    samples = config.samples or 5
    patterns = label_patterns(n, m)
    for shape in _partitions_in_box(n):
        shape_text = ",".join(str(p) for p in shape)
        direct_k = max(1, durfee(shape))
        comp_k = max(1, largest_square(young_complement_grid(shape, n)))
        direct_mats = _k_positive_samples(
            m, direct_k, f"{config.seed}:young:{shape_text}:d", samples, notes)
        comp_mats = _k_positive_samples(
            m, comp_k, f"{config.seed}:young:{shape_text}:c", samples, notes)
        for R in patterns:
            for C in patterns:
                for s in range(samples):
                    key = (f"shape={shape_text}:direct:R={R}:C={C}:s={s}")
                    passed = young_sign_law(shape, R, C, direct_mats[s])
                    yield key, passed, None if passed else {
                        "shape": list(shape), "R": list(R), "C": list(C),
                        "matrix": direct_mats[s].to_doc(), "variant": "direct"}
                    key = (f"shape={shape_text}:complement:R={R}:C={C}:s={s}")
                    passed = young_complement_sign_law(shape, R, C, comp_mats[s])
                    yield key, passed, None if passed else {
                        "shape": list(shape), "R": list(R), "C": list(C),
                        "matrix": comp_mats[s].to_doc(),
                        "variant": "complement"}


def _suite_main_sq(config: Config, caches: KLCacheRegistry,
                   notes: dict) -> Iterator[Case]:
    n = config.max_n or 4
    m = config.max_m or 4
    samples = config.samples or 5
    patterns = label_patterns(n, m)
    for v in _avoiders(n, FORBIDDEN_PATTERNS):
        k = largest_square(graph_of_upper_interval(v))
        mats = _k_positive_samples(
            m, k, f"{config.seed}:main-sq:{format_perm(v)}", samples, notes)
        for R in patterns:
            for C in patterns:
                for s, M in enumerate(mats):
                    key = f"v={format_perm(v)}:R={R}:C={C}:s={s}"
                    result = dual_canonical_eval(v, R, C, M)
                    passed = obeys_sign_law(result.value, result.admissible)
                    yield key, passed, None if passed else {
                        "v": format_perm(v), "R": list(R), "C": list(C),
                        "matrix": M.to_doc(), "value": str(result.value),
                        "admissible": result.admissible, "k": k}


def _suite_sign_probe(config: Config, caches: KLCacheRegistry,
                      notes: dict) -> Iterator[Case]:
    max_n = config.max_n or 5
    samples = config.samples or 2
    skipped = 0
    for n in range(3, max_n + 1):
        patterns = label_patterns(n, n)
        for v in _avoiders(n, FORBIDDEN_PATTERNS):
            if sign_probe_anchor(v)[0] is None:
                continue
            k = largest_square(graph_of_upper_interval(v))
            mats = _k_positive_samples(
                n, k, f"{config.seed}:sgn:{format_perm(v)}", samples, notes)
            for R in patterns:
                for C in patterns:
                    for s, M in enumerate(mats):
                        key = f"n={n}:v={format_perm(v)}:R={R}:C={C}:s={s}"
                        report = lewis_carroll_sign_probe(v, R, C, M)
                        if not report.hypotheses_met:
                            skipped += 1
                            continue
                        passed = not report.violated
                        yield key, passed, None if passed else {
                            "v": format_perm(v), "R": list(R), "C": list(C),
                            "matrix": M.to_doc(), "probe": report.to_doc()}
    notes["preconditions_not_met"] = skipped


# Each suite: its case generator and the description its report notes.
SUITES: dict[str, tuple[CaseGenerator, str]] = {
    "lemma-2.11": (_every_permutation(_interval_graph_matches_oracle),
                   "interval graph equals its sandwiching description"),
    "lemma-2.12": (_every_permutation(squares_match_noninversions),
                   "largest square matches the non-inversion gap bound"),
    "lemma-2.16": (_every_permutation(boxes_cover_interval_graph),
                   "interval graph is covered by its bounding boxes"),
    "prop-2.17": (_suite_alternation,
                  "bounding boxes alternate blue/red when hypotheses hold"),
    "prop-3.1": (_suite_determinantal_formula,
                 "defining sum agrees with the determinantal formula"),
    "prop-3.2": (_suite_lewis_carroll,
                 "two-rows-two-columns determinant identity has zero "
                 "residual"),
    "prop-4.1": (_suite_block_factorization,
                 "block-antidiagonal graphs factor the immanant"),
    "deletion": (_suite_deletion,
                 "word deletion matches grid row/column deletion, "
                 "pruned at spanning corners"),
    "young": (_suite_young,
              "sign laws for Young-diagram grids and their complements"),
    "main-sq": (_suite_main_sq,
                "signed value positive iff the labeled grid is admissible"),
    "sgn-probe": (_suite_sign_probe,
                  "two-term sign relation around the last two boxes"),
}


def _run(suite: str, cases: CaseGenerator, config: Config,
         notes: dict) -> SuiteReport:
    """Run one case generator and assemble its deterministic report."""
    caches = KLCacheRegistry(config.kl_cache_path)
    start = time.perf_counter()
    results = sorted(cases(config, caches, notes), key=lambda case: case[0])
    elapsed = time.perf_counter() - start
    caches.persist()
    counterexamples = [
        {"case": key, **witness}
        for key, passed, witness in results if not passed and witness]
    return SuiteReport(
        suite=suite,
        params={
            "max_n": config.max_n, "max_m": config.max_m,
            "samples": config.samples, "seed": config.seed,
            "k": config.k,
        },
        cases_run=len(results),
        cases_passed=sum(1 for _, passed, _ in results if passed),
        counterexamples=counterexamples,
        wall_time=elapsed,
        notes=notes,
    )


def run_suite(name: str, config: Config) -> SuiteReport:
    """Run one verification suite and assemble its deterministic report."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{sorted(SUITES)}")
    cases, description = SUITES[name]
    return _run(name, cases, config, {"description": description})


# ---------------------------------------------------------------------------
# Conjecture searches.  These only ever report; they never claim a proof.


def _search_plain_immanant(config: Config, caches: KLCacheRegistry,
                           notes: dict) -> Iterator[Case]:
    # For sampled (n, k, v) with v avoiding the increasing pattern of
    # length k+1, the plain immanant should be positive on verified
    # k-positive matrices.
    cases = config.samples or 1000
    max_n = config.max_n or 4
    for t in range(cases):
        key = f"t={t:05d}"
        rng = _case_rng(config.seed, "search-5.1", key)
        n, k = _draw_size_and_order(rng, config.k, max_n)
        pool = _avoiders(n, (identity(k + 1),))
        v = pool[rng.randrange(len(pool))]
        M = _k_positive_samples(n, k, f"{config.seed}:5.1:{t}", 1, notes)[0]
        value = imm_definition(v, M, caches.for_n(n))
        passed = value > 0
        yield key, passed, None if passed else _reverified(
            {"v": format_perm(v), "n": n, "k": k, "matrix": M.to_doc(),
             "value": str(value)},
            lambda v, M, R, C: imm_definition(v, M) <= 0)


def _reverified(witness: dict, fails: Callable[..., bool]) -> dict:
    """Set ``reverified`` from the serialized witness alone: its matrix is
    k-positive at min(k, m) and ``fails(v, M, R, C)`` holds again."""
    M = Matrix.from_doc(witness["matrix"])
    witness["reverified"] = is_k_positive(M, min(witness["k"], M.rows)) and (
        fails(parse_perm(witness["v"]), M, witness.get("R"), witness.get("C")))
    return witness


def _violates_sign_law(v: Perm, M: Matrix, R: list, C: list) -> bool:
    result = dual_canonical_eval(v, R, C, M)
    return not obeys_sign_law(result.value, result.admissible)


def _search_sign_control(config: Config, caches: KLCacheRegistry,
                         notes: dict) -> Iterator[Case]:
    # Hypothesis source: the proven sufficient condition (avoid 1324 and
    # 2143 with largest square at most k) stands in for "the plain
    # immanant is k-positive", which sampling cannot decide.
    cases = config.samples or 1000
    max_n = config.max_n or 4
    max_m = config.max_m or 4
    for t in range(cases):
        key = f"t={t:05d}"
        rng = _case_rng(config.seed, "search-5.2", key)
        n = rng.randint(2, max_n)
        pool = _avoiders(n, FORBIDDEN_PATTERNS)
        if config.k is not None:
            pool = tuple(
                v for v in pool
                if largest_square(graph_of_upper_interval(v)) <= config.k)
            if not pool:
                continue
        v = pool[rng.randrange(len(pool))]
        k = config.k or largest_square(graph_of_upper_interval(v))
        m = rng.randint(n, max(n, max_m))
        R = _random_multiset(m, n, rng)
        C = _random_multiset(m, n, rng)
        M = _k_positive_samples(m, k, f"{config.seed}:5.2:{t}", 1, notes)[0]
        result = dual_canonical_eval(v, R, C, M)
        passed = obeys_sign_law(result.value, result.admissible)
        yield key, passed, None if passed else _reverified(
            {"v": format_perm(v), "R": list(R), "C": list(C), "k": k,
             "matrix": M.to_doc(), "value": str(result.value),
             "admissible": result.admissible},
            _violates_sign_law)


def _search_pattern_positivity(config: Config, caches: KLCacheRegistry,
                               notes: dict) -> Iterator[Case]:
    # Sampled (n, k, m, v, R, C) with v avoiding the increasing pattern
    # of length k+1: when the repeated-label immanant is not identically
    # zero (tested at random rational points, which only proves nonzero),
    # it should be positive on verified k-positive matrices.
    cases = config.samples or 1000
    max_n = config.max_n or 4
    max_m = config.max_m or 4
    vacuous = 0
    for t in range(cases):
        key = f"t={t:05d}"
        rng = _case_rng(config.seed, "search-5.3", key)
        n, k = _draw_size_and_order(rng, config.k, max_n)
        m = rng.randint(n, max(n, max_m))
        pool = _avoiders(n, (identity(k + 1),))
        v = pool[rng.randrange(len(pool))]
        R = _random_multiset(m, n, rng)
        C = _random_multiset(m, n, rng)
        cache = caches.for_n(n)
        generic_nonzero = any(
            imm_definition(
                v, repeat_submatrix(_random_rational_matrix(m, rng), R, C),
                cache) != 0
            for _ in range(3))
        if not generic_nonzero:
            vacuous += 1
            yield key, True, None
            continue
        M = _k_positive_samples(m, k, f"{config.seed}:5.3:{t}", 1, notes)[0]
        value = imm_definition(v, repeat_submatrix(M, R, C), cache)
        passed = value > 0
        yield key, passed, None if passed else _reverified(
            {"v": format_perm(v), "n": n, "k": k, "m": m,
             "R": list(R), "C": list(C), "matrix": M.to_doc(),
             "value": str(value)},
            lambda v, M, R, C: imm_definition(
                v, repeat_submatrix(M, R, C)) <= 0)
    notes["identically_zero_cases"] = vacuous


# Each search: its case generator and the source of its hypotheses.
SEARCHES: dict[str, tuple[CaseGenerator, str]] = {
    "5.1": (_search_plain_immanant,
            "sampled verified k-positive matrices; v avoids the increasing "
            "(k+1)-pattern"),
    "5.2": (_search_sign_control,
            "proven sufficient condition: v avoids 1324 and 2143 with "
            "largest square <= k"),
    "5.3": (_search_pattern_positivity,
            "nonvanishing tested at 3 random rational points (one-sided: "
            "3 zeros count as identically zero, unproven)"),
}


def run_search(conjecture: str, config: Config) -> SuiteReport:
    """Randomized counterexample search for one conjecture."""
    if conjecture not in SEARCHES:
        raise ValueError(f"unknown conjecture {conjecture!r}; choose from "
                         f"{sorted(SEARCHES)}")
    cases, hypothesis_source = SEARCHES[conjecture]
    if config.max_n is not None and config.max_n < 2:
        raise ValueError(f"searches need max_n >= 2, got {config.max_n}")
    report = _run(f"search-{conjecture}", cases, config,
                  {"hypothesis_source": hypothesis_source})
    if report.counterexamples:
        report.notes["conclusion"] = (
            f"{len(report.counterexamples)} candidate counterexample(s) "
            "found; see witnesses")
    else:
        vacuous = report.notes.get("identically_zero_cases")
        tested = ("" if vacuous is None else f", {report.cases_run - vacuous}"
                  " of them not identically zero")
        report.notes["conclusion"] = (
            f"no counterexample found in {report.cases_run} trials{tested} "
            "(this is not a proof)")
    return report
