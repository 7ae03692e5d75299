"""Tests of the benchmark itself: python3 -m pytest benchmarks -q"""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
from spans import Tracer, patched, self_times  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_call_tree():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9]
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def at(t, fn=None):
        clock.now = t
        return fn() if fn else None

    c = tracer.wrap("c", lambda: at(3))
    a = tracer.wrap("a", lambda: (at(2, c), at(4)))
    b = tracer.wrap("b", lambda: at(9))
    root = tracer.wrap("root", lambda: (at(1, a), at(5, b), at(10)))
    clock.now = 0.0
    root()

    totals = tracer.totals()
    assert totals["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert totals["a"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert totals["b"] == {"calls": 1, "total_s": 4.0, "self_s": 4.0}
    assert totals["c"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert sum(e["self_s"] for e in totals.values()) == 10.0
    assert tracer.count_within("c", "a") == 1
    assert tracer.count_within("b", "a") == 0
    assert tracer.intervals("a") == [(1.0, 4.0)]


def test_self_times_of_recursive_spans():
    # same name nested in itself: each level keeps only its own time
    lengths = [6.0, 4.0, 1.0]
    parents = [-1, 0, 1]
    assert self_times(lengths, parents) == [2.0, 3.0, 1.0]


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap("boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.totals()["boom"]["calls"] == 1
    assert tracer._stack == []


def _lacunary_bindings():
    """id of every value bound in a lacunary namespace, dict or class."""
    import lacunary  # noqa: F401
    from lacunary import checks, cli, coefficients, growth  # noqa: F401

    seen = {}
    for name, module in sys.modules.items():
        if module is None or not name.startswith("lacunary"):
            continue
        for key, value in vars(module).items():
            seen[(name, key)] = id(value)
            if isinstance(value, dict):
                for k, v in value.items():
                    seen[(name, key, k)] = id(v)
            if isinstance(value, type):
                for k, v in vars(value).items():
                    seen[(name, key, "attr", k)] = id(v)
    return seen


def test_patching_reaches_every_binding_and_restores_it():
    from lacunary import checks, cli, coefficients, interpolation

    before = _lacunary_bindings()
    original_eval_g = interpolation.eval_g
    targets, observers = run.traced_targets(trace=True)
    with patched(Tracer(), targets, observers):
        assert interpolation.eval_g is not original_eval_g
        assert checks.eval_g is interpolation.eval_g
        assert cli.make_system is coefficients.make_system
        assert checks.CHECK_FUNCTIONS["residual"] is checks.check_residual
        assert "__wrapped__" in vars(coefficients.HProduct.eval)
    assert _lacunary_bindings() == before
    assert checks.eval_g is original_eval_g


def test_traced_call_counts_through_the_library():
    from lacunary import checks, make_schedule, make_system

    # sample_annulus_points reaches nearest_zero through the name checks
    # imported, not through lacunary.product
    system = make_system(make_schedule(0.5, 2, "factorial", dps=30))
    tracer = Tracer()
    with patched(tracer, ("product.nearest_zero", "checks.sample_annulus_points")):
        points = checks.sample_annulus_points(system, 3, seed=1)
    totals = tracer.totals()
    assert len(points) == 3
    assert totals["checks.sample_annulus_points"]["calls"] == 1
    assert totals["product.nearest_zero"]["calls"] >= 3
    assert tracer.count_within("product.nearest_zero", "checks.sample_annulus_points") == (
        totals["product.nearest_zero"]["calls"]
    )


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"][:2] == ["python3", "benchmarks/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_metric_dicts_use_every_declared_name():
    passes = [{"setup_s": 1.0, "checks_s": 2.0, "wall_s": 3.0, "bytes_written": 10}]
    ops = [{"pass": True, "value": 1e-50, "bound": 1e-40, "dps": 100}, {"pass": False}]
    e2e = run.end_to_end_metrics(passes, ops)
    assert list(e2e) == [name for name, _ in run.END_TO_END]
    assert e2e["passed_share"]["value"] == 0.5
    assert e2e["margin_digits"]["value"] == pytest.approx(10.0)
    layer = run.per_layer_metrics(Tracer(), passes)
    assert list(layer) == [name for name, _ in run.PER_LAYER]


def test_margin_counts_a_zero_value_as_one_unit_in_the_last_digit():
    ops = [{"pass": True, "value": 0.0, "bound": 0.01, "dps": 100}]
    assert run.margin_digits(ops) == pytest.approx(98.0)
    assert run.margin_digits([{"pass": True, "value": None, "bound": None, "dps": 100}]) is None


def test_verify_validation_flags_inconsistent_summary(tmp_path):
    rec = {"check": "cauchy", "eq": "2f", "zero": [1, 0], "value": 1e-15, "bound": 1e-20, "pass": False}
    (tmp_path / "records.jsonl").write_text(json.dumps(rec) + "\n")
    summary = {"checks": ["cauchy"], "records": 1, "failed": 1, "passed": False}
    (tmp_path / "verify_summary.json").write_text(json.dumps(summary))
    ops, problems = run.validate_verify(tmp_path, 1, 200)
    assert problems == []
    assert run.known_failure("contour", ops[0]) is not None
    assert run.known_failure("residual", ops[0]) is None

    (tmp_path / "verify_summary.json").write_text(json.dumps({**summary, "records": 2}))
    ops, problems = run.validate_verify(tmp_path, 1, 200)
    assert problems and ops[-1]["invalid"] and not ops[-1]["pass"]

    ops, problems = run.validate_verify(tmp_path, 3, 200)
    assert ops == [{"command": "verify", "exit": 3, "pass": False}]


def test_missing_source_tree_exits_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "growth", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_speed_probe_rescales_each_stretch_by_the_probe_that_ends_it():
    from speed import REFERENCE_S, SpeedProbe

    probe = SpeedProbe()
    # a probe at the reference speed at t=1, one twice as slow at t=2
    probe.starts.extend([1.0, 2.0])
    probe.ends.extend([1.0 + REFERENCE_S, 2.0 + 2 * REFERENCE_S])
    expected = 0.5 * 1.0 + (1.0 - REFERENCE_S) * 0.5 + (0.5 - 2 * REFERENCE_S) * 0.5
    assert probe.normalized(0.5, 2.5) == pytest.approx(expected)
    assert SpeedProbe().normalized(0.5, 2.5) == 2.0


def test_speed_probe_restores_the_alarm_handler():
    import signal

    from speed import SpeedProbe

    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(interval=0.001) as probe:
        deadline = time.perf_counter() + 0.05
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.starts) > 0
