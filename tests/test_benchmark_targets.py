"""The names that ``benchmarks/run.py`` traces exist in the package.

A traced name that no longer resolves breaks every traced benchmark run;
this catches a renamed or deleted one without running the benchmark.
"""

import importlib
import pkgutil
import sys

import lacunary

from helpers import bench_run


def test_every_traced_target_resolves():
    for info in pkgutil.iter_modules(lacunary.__path__):
        if not info.name.startswith("_"):
            importlib.import_module(f"lacunary.{info.name}")
    with bench_run() as run:
        targets, _ = run.traced_targets(True)
        assert "checks.sample_annulus_points" in targets
        for name in targets:
            owner, attr = sys.modules["spans"]._resolve(name)
            assert callable(vars(owner).get(attr)), name
