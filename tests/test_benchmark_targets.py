"""The names that ``benchmarks/run.py`` traces exist in the package.

A traced name that no longer resolves breaks every traced benchmark run;
this catches a renamed or deleted one without running the benchmark.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import lacunary

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_traced_target_resolves(monkeypatch):
    for info in pkgutil.iter_modules(lacunary.__path__):
        if not info.name.startswith("_"):
            importlib.import_module(f"lacunary.{info.name}")
    # run.py puts its own directory on sys.path and imports spans and speed;
    # both are undone below
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        targets, _ = run.traced_targets(True)
        assert "checks.sample_annulus_points" in targets
        for name in targets:
            owner, attr = sys.modules["spans"]._resolve(name)
            assert callable(vars(owner).get(attr)), name
    finally:
        for name in set(sys.modules) - before:
            del sys.modules[name]
