"""End-to-end benchmark of the lacunary CLI on the headline config.

    python3 benchmarks/run.py --workload residual|contour|growth \
        --seed N --seconds S --trace 0|1

Run it from the repository root.  The package is imported from ``src/``
(as with ``PYTHONPATH=src``); nothing needs installing.  One client runs
the workload's commands one after another in this process (a closed
loop, no threads).  A *pass* is one run of the workload's command list;
passes repeat while another one still fits in ``--seconds``, and at
least one always runs.  Every pass passes the same ``--seed`` to the
program, which is the only way the seed reaches it.

``--trace 0`` times whole commands and ``make_system`` only, and prints
the end-to-end metrics.  ``--trace 1`` wraps the public functions listed
in ``LAYERS`` and prints per-layer metrics, averaged per pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it describes the machine, the build and each command's exit code.
Outputs go to ``.bench_runs/`` under the repository root; the command
outputs are deleted after they are validated, the spans and the result
are kept.  See ``benchmarks/NOTES.md`` for the workloads, the metrics
and the known-failure ledger.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import mpmath

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from spans import Tracer, patched, per_span_overhead  # noqa: E402
from speed import SpeedProbe  # noqa: E402

HEADLINE_CONFIG = {"rho_f": 0.5, "rule": "factorial", "K": 4, "rho_H": 0.4}

# Each point is checked at base, c=1 and c=10 (three residual records);
# at the seed one point costs about 0.42 reference seconds (0.5-0.85 s raw).
RESIDUAL_POINTS = 12

WORKLOADS = {
    # near-field eval_g (|z| <= r_3) and HProduct.eval at 100 digits
    "residual": (
        ("verify", ["--checks", "interpolation,residual", "--points", str(RESIDUAL_POINTS)]),
    ),
    # eval_f / log_derivative on Cauchy contours at 200 digits, with the
    # residues written by construct and read back; no eval_g call
    "contour": (
        ("construct", ["--precision", "200"]),
        (
            "verify",
            [
                "--precision",
                "200",
                "--artifacts",
                "{construct}",
                "--checks",
                "interpolation,summability,cauchy,asymptotics",
            ],
        ),
    ),
    # far-field eval_g inside proximity_m's node doubling (characteristic
    # runs it at 100 r_K, the middle radius of the proximity check, which
    # is left out to keep 70 runs within the time budget), then the
    # term-sum growth scans and the indicator scan
    "growth": (
        ("verify", ["--checks", "characteristic"]),
        ("scan", ["--scan", "order"]),
        ("scan", ["--scan", "witness"]),
        ("scan", ["--scan", "indicator"]),
    ),
}

END_TO_END = (
    ("setup_s", "s"),
    ("checks_s", "s"),
    ("wall_s", "s"),
    ("passed_share", "share"),
    ("margin_digits", "digits"),
    ("peak_rss_mb", "MB"),
)

# Public functions wrapped in a traced run, as module.function or
# module.Class.method.
LAYERS = (
    "interpolation.eval_g",
    "interpolation.proximity_m",
    "interpolation.residues_from_f",
    "product.derivs_at_zero",
    "product.eval_f",
    "product.log_derivative",
    "product.nearest_zero",
    "logdomain.principal_arg",
    "logdomain.log_add",
    "logdomain.to_value",
    "logdomain.log_from_value",
    "coefficients.residual",
    "coefficients.HProduct.eval",
    "coefficients.cauchy_ratio",
    "coefficients.make_system",
    "coefficients.interpolation_identity_residuals",
    "growth.verify_thm2_asymptotics",
    "growth.nevanlinna",
    "growth.log_max_modulus_bound",
    "growth.indicator_scan",
    "growth.order_scan",
    "growth.crg_witness",
    "checks.sample_annulus_points",
)

# the checks the workloads run
CHECKS = (
    "interpolation",
    "residual",
    "summability",
    "cauchy",
    "asymptotics",
    "characteristic",
)

PER_LAYER = (
    *((f"{layer}.{kind}", unit) for layer in LAYERS for kind, unit in (("calls", "count"), ("self_s", "s"))),
    ("interpolation.proximity_m.g_evals", "count"),
    ("coefficients.cauchy_ratio.f_evals", "count"),
    ("coefficients.cauchy_ratio.halvings", "count"),
    *(
        (f"checks.{name}.{kind}", unit)
        for name in CHECKS
        for kind, unit in (("s", "s"), ("records", "count"), ("failed", "count"))
    ),
    ("checks.residual.points_per_s", "1/s"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "share"),
)

# Failures present at the seed.  They count in `failed`; they do not make
# the run incorrect.  A failure not listed here does.
KNOWN_FAILURES = {
    "contour": (
        (
            lambda op: op.get("check") == "cauchy" and op.get("eq") == "2f" and op.get("zero") == [1, 0],
            "cauchy 2f block 1: 512-node contour quadrature truncates (8.2e-16 vs 1e-20)",
        ),
        (
            lambda op: op.get("property") == "blockwise ratios strictly decreasing",
            "cauchy: |f''/f'^2| is 1.78 at k=1 and 2.50 at k=2",
        ),
    ),
    "growth": (
        (
            lambda op: op.get("scan") == "indicator" and op.get("exit") == 3,
            "scan indicator: radius 1e6 outside H's validity radius 16384 (TailError)",
        ),
    ),
}


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, bad arguments)."""


# ---------------------------------------------------------------------------
# output validation


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def validate_verify(out: Path, exit_code: int, dps: int):
    """(operations, problems) for one verify command.

    An operation is one record.  A command that exits 2 or 3 (or
    crashes) fails the records it was meant to produce, counted as one.
    """
    if exit_code not in (0, 1):
        return [{"command": "verify", "exit": exit_code, "pass": False}], []
    problems = []
    ops = []
    try:
        lines = (out / "records.jsonl").read_text(encoding="utf-8").splitlines()
        for line in lines:
            rec = json.loads(line)
            if not isinstance(rec, dict) or not isinstance(rec.get("pass"), bool):
                raise ValueError(f"malformed record {line[:80]!r}")
            ops.append({**rec, "dps": dps})
        summary = _read_json(out / "verify_summary.json")
    except (OSError, ValueError) as exc:
        return [{"command": "verify", "exit": exit_code, "pass": False}], [f"verify output: {exc}"]
    n_failed = sum(1 for op in ops if not op["pass"])
    if summary.get("records") != len(ops) or summary.get("failed") != n_failed:
        problems.append(f"verify_summary.json {summary} disagrees with {len(ops)} records, {n_failed} failed")
    if summary.get("passed") != (n_failed == 0) or exit_code != (0 if n_failed == 0 else 1):
        problems.append(f"exit {exit_code} / passed {summary.get('passed')} with {n_failed} failed records")
    for name in summary.get("checks", ()):
        if not any(op["check"] == name for op in ops):
            problems.append(f"check {name} wrote no record")
    if "residual" in summary.get("checks", ()):
        n_res = sum(1 for op in ops if op["check"] == "residual")
        if n_res != 3 * RESIDUAL_POINTS:
            problems.append(f"{n_res} residual records for {RESIDUAL_POINTS} points")
    if problems:
        ops.append({"command": "verify", "exit": exit_code, "pass": False, "invalid": True})
    return ops, problems


def _scan_ok(kind: str, summary: dict) -> bool:
    if summary.get("scan") != kind:
        return False
    if kind == "order":
        return bool(summary["peaks_in_band"] and summary["dips_strictly_decreasing"])
    if kind == "witness":
        # the factorial schedule is the paper's growth-irregularity witness
        return summary["verdict"] == "violation"
    return bool(summary["budget_ok"] and summary["all_positive"])


def validate_scan(out: Path, kind: str, exit_code: int):
    op = {"scan": kind, "exit": exit_code, "pass": False}
    if exit_code != 0:
        return [op], []
    try:
        summary = _read_json(out / f"{kind}_summary.json")
        csv_lines = (out / f"{kind}.csv").read_text(encoding="utf-8").splitlines()
        op["pass"] = _scan_ok(kind, summary) and len(csv_lines) > 1
    except (OSError, ValueError, KeyError) as exc:
        op["invalid"] = True
        return [op], [f"scan {kind} output: {exc}"]
    return [op], []


def validate_construct(out: Path, exit_code: int):
    if exit_code != 0:
        return [f"construct exited {exit_code}"]
    try:
        residues = _read_json(out / "residues.json")
        system = _read_json(out / "system.json")
    except (OSError, ValueError) as exc:
        return [f"construct output: {exc}"]
    if len(residues) != system.get("zero_count"):
        return [f"{len(residues)} residues for {system.get('zero_count')} zeros"]
    return []


def known_failure(workload: str, op: dict):
    for matches, reason in KNOWN_FAILURES.get(workload, ()):
        if matches(op):
            return reason
    return None


def margin_digits(ops) -> float | None:
    """Smallest log10(bound / value) over passing records with a numeric
    value and bound.  A value of 0 counts as one unit in the last of the
    command's digits."""
    margins = []
    for op in ops:
        value, bound = op.get("value"), op.get("bound")
        if not op["pass"] or value is None or bound is None or bound <= 0:
            continue
        floor = 10.0 ** -op["dps"]
        margins.append(math.log10(bound / max(abs(value), floor)))
    return min(margins) if margins else None


# ---------------------------------------------------------------------------
# one run


def machine_info(workload: str) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "lacunary").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "dps": sorted({_dps(args) for _, args in WORKLOADS[workload]}),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def _dps(args) -> int:
    if "--precision" in args:
        return int(args[args.index("--precision") + 1])
    return 100


def _git_commit():
    """HEAD of a git checkout at the repository root, read from .git; the
    benchmark may also run in an exported tree, which has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_command(cli_main, argv) -> tuple[int, float, float]:
    """(exit code, start, end); the CLI's own output goes to stderr."""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = cli_main(argv)
    except Exception:  # a crash is a failed operation, not a dead benchmark
        traceback.print_exc()
        code = -1
    return code, t0, time.perf_counter()


def run_pass(workload, seed, cfg_path: Path, pass_dir: Path, tracer: Tracer, cli_main):
    """Run the workload's commands once; returns the pass record."""
    outs = {}
    commands = []
    ops = []
    problems = []
    for index, (command, extra) in enumerate(WORKLOADS[workload]):
        out = pass_dir / f"{index}-{command}"
        outs[command] = out
        extra = [str(outs["construct"]) if a == "{construct}" else a for a in extra]
        argv = [command, "--config", str(cfg_path), "--out", str(out), "--seed", str(seed), *extra]
        first_span = len(tracer)
        code, t0, t1 = run_command(cli_main, argv)
        entry = {
            "command": command,
            "args": extra,
            "exit": code,
            "interval": (t0, t1),
            "make_system": tracer.intervals("coefficients.make_system", since=first_span),
        }
        if command == "verify":
            new_ops, new_problems = validate_verify(out, code, _dps(extra))
        elif command == "scan":
            new_ops, new_problems = validate_scan(out, extra[1], code)
        else:
            new_ops, new_problems = [], validate_construct(out, code)
        entry["bytes_written"] = _dir_bytes(out) if out.exists() else 0
        commands.append(entry)
        ops.extend(new_ops)
        problems.extend(new_problems)
    return {
        "commands": commands,
        "ops": ops,
        "problems": problems,
        "bytes_written": sum(c["bytes_written"] for c in commands),
    }


def pass_times(workload: str, commands, seconds) -> dict:
    """setup_s, checks_s and wall_s of one pass, with ``seconds(a, b)``
    giving the length of the interval [a, b]."""

    def length(command):
        return seconds(*command["interval"])

    def setup(command):
        return sum(seconds(a, b) for a, b in command["make_system"])

    wall = sum(length(c) for c in commands)
    if workload == "contour":
        setup_s = sum(length(c) for c in commands if c["command"] == "construct")
        checks_s = sum(length(c) for c in commands if c["command"] == "verify")
    else:
        setup_s = sum(setup(c) for c in commands)
        checks_s = sum(length(c) - setup(c) for c in commands if c["command"] == "verify")
    return {"setup_s": setup_s, "checks_s": checks_s, "wall_s": wall}


def end_to_end_metrics(passes, ops) -> dict:
    attempted = len(ops)
    failed = sum(1 for op in ops if not op["pass"])
    margin = margin_digits(ops)
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "checks_s": statistics.median(p["checks_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "passed_share": (attempted - failed) / attempted,
        # no qualifying record means the checks did not run: report the worst
        "margin_digits": margin if margin is not None else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(tracer: Tracer, passes, seconds=None) -> dict:
    n = len(passes)
    totals = tracer.totals(seconds)
    values = {}
    for layer in LAYERS:
        entry = totals.get(layer, {"calls": 0, "self_s": 0.0})
        values[f"{layer}.calls"] = entry["calls"] / n
        values[f"{layer}.self_s"] = entry["self_s"] / n
    values["interpolation.proximity_m.g_evals"] = (
        tracer.count_within("interpolation.eval_g", "interpolation.proximity_m") / n
    )
    values["coefficients.cauchy_ratio.f_evals"] = (
        tracer.count_within("product.eval_f", "coefficients.cauchy_ratio") / n
    )
    values["coefficients.cauchy_ratio.halvings"] = (
        tracer.counters.get("coefficients.cauchy_ratio.halvings", 0) / n
    )
    for name in CHECKS:
        entry = totals.get(f"checks.check_{name}", {"total_s": 0.0})
        values[f"checks.{name}.s"] = entry["total_s"] / n
        values[f"checks.{name}.records"] = tracer.counters.get(f"checks.{name}.records", 0) / n
        values[f"checks.{name}.failed"] = tracer.counters.get(f"checks.{name}.failed", 0) / n
    residual_s = values["checks.residual.s"]
    points = tracer.counters.get("checks.residual.points", 0) / n
    values["checks.residual.points_per_s"] = points / residual_s if residual_s > 0 else 0.0
    cli = totals.get("cli.main", {"total_s": 0.0, "self_s": 0.0})
    values["cli.self_s"] = cli["self_s"] / n
    values["cli.bytes_written"] = sum(p["bytes_written"] for p in passes) / n
    spans = len(tracer)
    values["trace.spans"] = spans / n
    values["trace.overhead_s"] = spans * per_span_overhead() / n
    layer_self = sum(e["self_s"] for name, e in totals.items() if name != "cli.main")
    values["trace.coverage"] = layer_self / cli["total_s"] if cli["total_s"] > 0 else 0.0
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def _observers():
    def halvings(tracer, result):
        tracer.count("coefficients.cauchy_ratio.halvings", result.halvings)

    def points(tracer, result):
        tracer.count("checks.residual.points", len(result))

    def check_records(name):
        def observe(tracer, records):
            tracer.count(f"checks.{name}.records", len(records))
            tracer.count(f"checks.{name}.failed", sum(1 for r in records if not r["pass"]))

        return observe

    observers = {f"checks.check_{name}": check_records(name) for name in CHECKS}
    observers["coefficients.cauchy_ratio"] = halvings
    observers["checks.sample_annulus_points"] = points
    return observers


def traced_targets(trace: bool):
    if not trace:
        return ("coefficients.make_system",), {}
    return (*LAYERS, *(f"checks.check_{name}" for name in CHECKS)), _observers()


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(result line, details) for one run."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if not (SRC / "lacunary" / "cli.py").is_file():
        raise BenchError(f"no lacunary source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    from lacunary import cli

    run_dir = ROOT / ".bench_runs" / f"{workload}-seed{seed}-trace{int(trace)}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    cfg_path = run_dir / "config.json"
    cfg_path.write_text(json.dumps(HEADLINE_CONFIG) + "\n", encoding="utf-8")

    tracer = Tracer()
    targets, observers = traced_targets(trace)
    passes = []
    started = time.perf_counter()
    with SpeedProbe() as probe, patched(tracer, targets, observers):
        cli_main = tracer.wrap("cli.main", cli.main) if trace else cli.main
        while True:
            pass_dir = run_dir / f"pass{len(passes)}"
            passes.append(run_pass(workload, seed, cfg_path, pass_dir, tracer, cli_main))
            shutil.rmtree(pass_dir)
            elapsed = time.perf_counter() - started
            last = passes[-1]["commands"]
            if elapsed + last[-1]["interval"][1] - last[0]["interval"][0] > seconds:
                break
    for p in passes:
        p["raw"] = pass_times(workload, p["commands"], lambda a, b: b - a)
        p.update(pass_times(workload, p["commands"], probe.normalized))

    ops = [op for p in passes for op in p["ops"]]
    problems = [msg for p in passes for msg in p["problems"]]
    unexpected = []
    ledger = {}
    for op in ops:
        if op["pass"]:
            continue
        reason = known_failure(workload, op)
        if reason is None:
            unexpected.append(op)
        else:
            ledger[reason] = ledger.get(reason, 0) + 1
    if trace:
        metrics = per_layer_metrics(tracer, passes, probe.normalized)
    else:
        metrics = end_to_end_metrics(passes, ops)
    result = {
        "correct": not problems and not unexpected,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op["pass"]),
        "metrics": metrics,
    }
    details = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "passes": len(passes),
        "machine": machine_info(workload),
        "speed_probe": probe.summary(),
        "passes_raw_s": [p["raw"] for p in passes],
        "commands": [
            [{k: v for k, v in c.items() if k != "make_system"} for c in p["commands"]]
            for p in passes
        ],
        "known_failures": ledger,
        "unexpected_failures": unexpected,
        "problems": problems,
    }
    (run_dir / "result.json").write_text(json.dumps({**details, **result}, indent=1) + "\n")
    if trace:
        with gzip.open(run_dir / "spans.csv.gz", "wt", encoding="utf-8") as fh:
            tracer.write(fh)
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(details, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
