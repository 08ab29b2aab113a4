"""
The benchmark's tracer patches klimm functions and methods by name; a
rename in the package must fail here rather than in a benchmark run.  Its
runner clears klimm's module-level memo tables before every unit, and a
cold unit must then repeat exactly.  Its traced KL and sweep units must
pass the runner's own report checks and exact-count anchors, read from
the runner rather than restated here.
"""
import importlib
import importlib.util
from pathlib import Path

from klimm.klpoly import KLCache, KLCacheRegistry
from klimm.suites import Config, run_suite

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_in_the_package():
    spans = _load("spans")
    for module, attr in spans.TRACED_FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"klimm.{module}"),
                                attr, None)), f"klimm.{module}.{attr}"
    for method in spans.TRACED_METHODS:
        assert callable(getattr(KLCache, method, None)), f"KLCache.{method}"


def test_a_cold_run_repeats_once_the_memo_tables_are_cleared(monkeypatch):
    # The benchmark runs its units one after another in one process.  A
    # memo that outlives a unit and that clearing the lru_caches misses
    # would make the next unit warm, and show as fewer misses here.
    memo_tables = _load("run").memo_tables
    caches = {}
    for_n = KLCacheRegistry.for_n

    def recording(registry, n):
        caches[n] = for_n(registry, n)
        return caches[n]

    monkeypatch.setattr(KLCacheRegistry, "for_n", recording)
    runs = []
    for _ in range(2):
        for table in memo_tables():
            table.cache_clear()
        caches.clear()
        report = run_suite("prop-3.1", Config(max_n=5, samples=1, seed=0))
        runs.append(([caches[n].stats() for n in sorted(caches)],
                     report.to_json(), report.to_csv()))
    assert runs[0] == runs[1]
    assert runs[0][0][-1] == {"n": 5, "entries": 2508, "hits": 6293,
                              "misses": 2508}


def test_traced_units_pass_the_benchmark_checks(tmp_path, monkeypatch):
    # The checks a traced benchmark run fails on: a report that is not ok
    # or not the configured size, S_6 cache counts off the kl-cold anchor,
    # a kl-warm miss, or a traced name the tracer cannot patch.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = _load("run")
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    tables = run.memo_tables()
    base = str(tmp_path / "build" / "kl.json")
    warm = run.commands("kl-warm", 0, base)
    assert run.check_unit(warm, run.run_unit(warm, tables)[2])[1] == []
    # The sweep unit runs the grid and perm kernels the tracer patches.
    for workload, cmds in (("kl-cold", run.commands("kl-cold", 0)),
                           ("kl-warm", warm),
                           ("sweep", run.commands("sweep", 0))):
        tracer, _, _, results = run.traced_unit(workload, 0, cmds, tables)
        assert run.check_unit(cmds, results)[1] == []
        assert run.anchor_problems(workload, tracer) == []
        assert tracer.layer_metrics()
