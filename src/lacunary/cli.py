"""Command-line front end: construct, verify, scan, report.

Exit codes: 0 all checks passed, 1 a verification check failed, 2 a
ConfigError: bad configuration, a --checks list that names no check,
--points or --angles below 1, or unreadable input (a config, an
artifact, or a file ``report`` reads), 3 a NumericalError (insufficient
precision, non-convergent quadrature, a point off the certified domain),
with a suggested precision printed when one can be computed.  ``main``
alone loads the config, enters its precision and maps errors to these
codes.  ``verify`` and ``scan`` first delete the files they write, so a
run that exits 2 or 3 leaves none of them behind.

Config schema (JSON object):

    {"rho_f": 0.5, "rule": "factorial", "K": 4, "precision_digits": 100}
    {"blocks": [[4, 2], [16, 4]], "rho_f": 0.5, "precision_digits": 100}

optionally extended with "rho_H" (H then has H_TRUNCATION = 64 factors).
The keys "H_truncation", "c_scale" and "near_zero_delta" are no longer
read; a config that sets one is rejected (exit 2).  With a fixed
(config, seed, precision) triple every output file is byte-identical
across runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys as _sys
from contextlib import contextmanager
from pathlib import Path

from mpmath import mp, mpc, mpf

from . import checks as checks_mod
from .coefficients import H_TRUNCATION, build_H, make_system
from .errors import ConfigError, NumericalError, PrecisionInsufficient
from .growth import (
    HZeroDiskFamily,
    ZeroDiskFamily,
    crg_witness,
    indicator_scan,
    order_scan,
)
from .interpolation import RationalInterpolant, check_summability, config_interpolant
from .product import (
    LacunaryConfig,
    config_from_dict,
    config_to_dict,
    eval_f_scan,
    zero_count,
    zeros,
)

CONSTRUCT_ENUMERATION_CAP = 8192
REMOVED_CONFIG_KEYS = ("H_truncation", "c_scale", "near_zero_delta")


def _nstr(x, digits: int = 25) -> str:
    # never reconstruct an existing mpf: mpf(x) rounds to the ambient
    # precision, which silently truncates serialized artifacts
    if not isinstance(x, mp.mpf):
        x = mpf(x)
    return mp.nstr(x, digits)


def _cstr(z, digits: int = 25) -> list[str]:
    z = mpc(z)
    return [_nstr(z.real, digits), _nstr(z.imag, digits)]


def _load(args) -> tuple[LacunaryConfig, dict, Path]:
    """(config, its JSON object with --precision applied, output directory)."""
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    for key in REMOVED_CONFIG_KEYS:
        if key in data:
            raise ConfigError(f"config key {key!r} is no longer supported; remove it")
    if args.precision is not None:
        data = {**data, "precision_digits": args.precision}
    cfg = config_from_dict(data)
    _rho_H(data)  # a malformed rho_H fails here, before any command starts
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, data, out


def _rho_H(data: dict):
    try:
        return None if data.get("rho_H") is None else mpf(str(data["rho_H"]))
    except ValueError as exc:
        raise ConfigError(f"rho_H must be a number: {exc}") from exc


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=False) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# construct


def cmd_construct(cfg: LacunaryConfig, data: dict, out: Path, args) -> int:
    system = make_system(cfg, rho_H=_rho_H(data))

    extras = {"rho_H": data["rho_H"]} if "rho_H" in data else {}
    _write_json(out / "config.json", {**config_to_dict(cfg), **extras})

    # full-precision serialization: the verify-from-artifact path must
    # round-trip residues without disturbing the interpolation identity.
    # The poles are the zeros, in block order: residues.json holds only
    # their (k, m) labels, and verify takes the poles from the config
    rat = system.rat
    blocks_payload = []
    residues_payload = []
    for k, (r, n) in enumerate(cfg.blocks, start=1):
        start = rat.pole_index(k, 0)
        entry = {"k": k, "r": _nstr(r), "n": n}
        if n <= CONSTRUCT_ENUMERATION_CAP:
            entry["zeros"] = [_cstr(p, cfg.dps + 5) for p in rat.poles[start : start + n]]
        else:
            entry["enumerated"] = False
        blocks_payload.append(entry)
        residues_payload += [
            {"k": k, "m": m, "residue": _cstr(u, cfg.dps + 5)}
            for m, u in enumerate(rat.residues[start : start + n])
        ]
    _write_json(out / "zeros.json", {"count": zero_count(cfg), "blocks": blocks_payload})
    _write_json(out / "residues.json", residues_payload)

    summ = check_summability(rat)
    cert = cfg.sigma_certificate
    _write_json(
        out / "system.json",
        {
            "precision_digits": cfg.dps,
            "rho_f": _nstr(cfg.rho_f),
            "K": cfg.K,
            "zero_count": zero_count(cfg),
            "c_bound": _nstr(rat.c_bound),
            "summability": {
                "included": _nstr(summ.included),
                "tail": _nstr(summ.tail),
                "total": _nstr(summ.total),
                "passed": summ.passed,
            },
            "sigma_certificate": {
                "s": _nstr(cert.s),
                "partial": _nstr(cert.partial),
                "tail": _nstr(cert.tail),
                "total": _nstr(cert.total),
            },
            "H": None
            if system.h is None
            else {
                "rho_H": _nstr(system.h.rho),
                "truncation": system.h.truncation,
                "max_radius": _nstr(system.h.max_radius),
                "theorem_hypothesis_met": system.theorem_hypothesis_met,
            },
        },
    )
    print(f"constructed {zero_count(cfg)} zeros / residues into {out}")
    return 0


# ---------------------------------------------------------------------------
# verify


def _load_artifact_residues(cfg: LacunaryConfig, path: Path) -> RationalInterpolant:
    """Residues written by ``construct``, on the zeros of the config.

    Entries must come in the config's (block, index) order; the poles are
    the config's zeros, and any key of an entry besides k, m and residue
    is ignored.  Each residue is a list of two strings, its real and
    imaginary parts.  Their values are not validated: catching a wrong
    residue is the checks' job.
    """
    try:
        entries = json.loads((path / "residues.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read residues from {path}: {exc}") from exc
    if not isinstance(entries, list):
        raise ConfigError(f"residues in {path} must be a JSON list")
    if len(entries) != zero_count(cfg):
        raise ConfigError(
            f"artifact holds {len(entries)} residues, config has {zero_count(cfg)} zeros"
        )
    ids = [(k, m) for k, (_, n) in enumerate(cfg.blocks, start=1) for m in range(n)]
    residues = []
    try:
        for i, (e, (k, m)) in enumerate(zip(entries, ids)):
            if (int(e["k"]), int(e["m"])) != (k, m):
                raise ConfigError(
                    f"artifact entry {i} is zero ({e['k']}, {e['m']}); "
                    f"config order expects ({k}, {m})"
                )
            re_im = e["residue"]
            if not isinstance(re_im, list) or [type(x) for x in re_im] != [str, str]:
                raise ConfigError(
                    f"artifact entry {i}: residue must be a list of two strings, got {re_im!r}"
                )
            residues.append(mpc(mpf(re_im[0]), mpf(re_im[1])))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed residue entry in {path}: {exc!r}") from exc
    poles = [p for k in range(1, cfg.K + 1) for p in zeros(cfg, k)]
    return config_interpolant(cfg, poles, residues)


def cmd_verify(cfg: LacunaryConfig, data: dict, out: Path, args) -> int:
    names = _parse_checks(args.checks)
    if args.points < 1:
        raise ConfigError(f"--points must be at least 1, got {args.points}")
    checks_mod.ensure_feasible(cfg.dps, names)

    rat = None
    if args.artifacts:
        rat = _load_artifact_residues(cfg, Path(args.artifacts))
    system = make_system(cfg, rho_H=_rho_H(data), rat=rat)

    records, all_passed = checks_mod.run_checks(
        system, names, args.seed, residual_points=args.points
    )
    with open(out / "records.jsonl", "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=False) + "\n")
    failed = [r for r in records if not r["pass"]]
    summary = {
        "checks": list(names),
        "seed": args.seed,
        "precision_digits": cfg.dps,
        "records": len(records),
        "failed": len(failed),
        "passed": all_passed,
    }
    _write_json(out / "verify_summary.json", summary)
    for name in names:
        n_fail = sum(1 for r in failed if r["check"] == name)
        print(f"check {name}: {'PASS' if n_fail == 0 else f'FAIL ({n_fail} records)'}")
    return 0 if all_passed else 1


def _parse_checks(raw: str | None):
    if not raw or raw == "all":
        return checks_mod.CHECK_NAMES
    names = tuple(s.strip() for s in raw.split(",") if s.strip())
    if not names:
        raise ConfigError(f"--checks {raw!r} names no check")
    for name in names:
        if name not in checks_mod.CHECK_NAMES:
            raise ConfigError(
                f"unknown check {name!r}; available: {', '.join(checks_mod.CHECK_NAMES)}"
            )
    return names


# ---------------------------------------------------------------------------
# scan


CSV_HEADER = ("r", "theta", "log_abs_f", "ratio", "excluded", "pass")


def _write_csv(path: Path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)


def _scan_ks(cfg: LacunaryConfig):
    if cfg.rule is not None:
        return range(4, 8)
    return range(1, cfg.K + 1)


def cmd_scan(cfg: LacunaryConfig, data: dict, out: Path, args) -> int:
    if args.angles < 1:
        raise ConfigError(f"--angles must be at least 1, got {args.angles}")
    kind = args.scan

    if kind == "order":
        scan = order_scan(cfg, _scan_ks(cfg))
        rows = [
            (
                _nstr(row.r),
                "",
                _nstr(row.log_max),
                "" if row.ratio is None else _nstr(row.ratio),
                False,
                True,
            )
            for row in scan.rows
        ]
        _write_csv(out / "order.csv", rows)
        peaks = scan.ratios("peak")
        dips = scan.ratios("dip")
        band = (mpf("0.8") * cfg.rho_f, mpf("1.4") * cfg.rho_f)
        summary = {
            "scan": "order",
            "peak_ratios": [float(x) for x in peaks],
            "dip_ratios": [float(x) for x in dips],
            "band": [float(band[0]), float(band[1])],
            "peaks_in_band": bool(all(band[0] <= x <= band[1] for x in peaks)),
            "dips_strictly_decreasing": bool(
                all(a > b for a, b in zip(dips, dips[1:]))
            ),
        }
        _write_json(out / "order_summary.json", summary)
        print(f"order scan: peaks {summary['peaks_in_band']}, dips {summary['dips_strictly_decreasing']}")
        return 0

    if kind == "witness":
        rep = crg_witness(cfg, _scan_ks(cfg))
        # the order scan's rows alternate dip and peak, as a and b interleave
        normalized = [x for pair in zip(rep.a, rep.b) for x in pair]
        rows = [
            (_nstr(row.r), "", _nstr(row.log_max), _nstr(x), False, True)
            for row, x in zip(rep.rows, normalized)
        ]
        _write_csv(out / "witness.csv", rows)
        summary = {
            "scan": "witness",
            "ks": list(rep.ks),
            "a": [float(x) for x in rep.a],
            "b": [float(x) for x in rep.b],
            "threshold_factor": float(rep.threshold_factor),
            "verdict": rep.verdict,
        }
        _write_json(out / "witness_summary.json", summary)
        print(f"witness scan: verdict {rep.verdict}")
        return 0

    # indicator: argparse admits no other kind
    rho_H = _rho_H(data)
    if rho_H is not None:
        h = build_H(rho_H, H_TRUNCATION, dps=cfg.dps)
        target = "H"
        fn = h.eval
        rho = h.rho
        radii = [mpf(10) ** 6]
        exclusion = HZeroDiskFamily(h)
    else:
        target = "f"
        fn = lambda z: eval_f_scan(cfg, z)
        rho = cfg.rho_f
        radii = [16 * cfg.blocks[-1][0]]
        exclusion = ZeroDiskFamily(cfg)
    thetas = [2 * mp.pi * j / args.angles for j in range(args.angles)]
    scan = indicator_scan(fn, rho, thetas, radii, exclusion=exclusion)
    rows = [
        (_nstr(s.r), _nstr(s.theta), _nstr(s.log_abs), _nstr(s.ratio), s.excluded, True)
        for s in scan.samples
    ]
    _write_csv(out / "indicator.csv", rows)
    min_ratio = scan.min_ratio()
    summary = {
        "scan": "indicator",
        "target": target,
        "angles": args.angles,
        "radii": [float(r) for r in radii],
        "min_ratio_nonexcluded": None if min_ratio is None else float(min_ratio),
        "all_positive": bool(min_ratio is not None and min_ratio > 0),
        "excluded_samples": sum(1 for s in scan.samples if s.excluded),
        "budget_ok": scan.budget_ok,
    }
    _write_json(out / "indicator_summary.json", summary)
    print(f"indicator scan of {target}: min nonexcluded ratio {summary['min_ratio_nonexcluded']}")
    return 0


# ---------------------------------------------------------------------------
# report


@contextmanager
def _reading(path: Path):
    """Report an unreadable, truncated or incomplete output file as a
    ConfigError that names it."""
    try:
        yield
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc!r}") from exc


def cmd_report(out: Path) -> int:
    report = {"verify": None, "scans": {}, "passed": True}
    records_path = out / "records.jsonl"
    if records_path.exists():
        by_check: dict = {}
        with _reading(records_path):
            for line in records_path.read_text(encoding="utf-8").splitlines():
                if line.strip():
                    rec = json.loads(line)
                    entry = by_check.setdefault(rec["check"], {"records": 0, "failed": 0})
                    entry["records"] += 1
                    if not rec["pass"]:
                        entry["failed"] += 1
        failed = sum(e["failed"] for e in by_check.values())
        report["verify"] = {"by_check": by_check, "failed": failed}
        report["passed"] = report["passed"] and failed == 0
    # summary fields that must all be true for a scan to pass
    gates = {
        "order": ("peaks_in_band", "dips_strictly_decreasing"),
        "witness": (),
        "indicator": ("budget_ok", "all_positive"),
    }
    for name, keys in gates.items():
        p = out / f"{name}_summary.json"
        if p.exists():
            with _reading(p):
                summary = json.loads(p.read_text(encoding="utf-8"))
                if not isinstance(summary, dict):
                    raise TypeError("not a JSON object")
                report["scans"][name] = summary
                report["passed"] = report["passed"] and all(summary[key] for key in keys)
    _write_json(out / "report.json", report)
    if report["verify"] is not None:
        for name, entry in report["verify"]["by_check"].items():
            state = "PASS" if entry["failed"] == 0 else "FAIL"
            print(f"{name}: {state} ({entry['records']} records)")
    for name, summary in report["scans"].items():
        print(f"scan {name}: {summary.get('verdict', summary)}")
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# entry point


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lacunary",
        description="construct and verify lacunary products solving f'' + A f' + B f = 0",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--precision", type=int, default=None, help="override precision digits")
        p.add_argument("--seed", type=int, default=0, help="seed for sample-point generation")

    p = sub.add_parser("construct", help="materialize zeros, residues and certificates")
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run verification checks")
    common(p)
    p.add_argument(
        "--checks",
        default="all",
        help=f"comma list from: {', '.join(checks_mod.CHECK_NAMES)} (default all)",
    )
    p.add_argument("--points", type=int, default=200, help="residual sample points")
    p.add_argument(
        "--artifacts",
        default=None,
        help="directory with residues.json to verify instead of recomputing",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="growth scans emitting CSV + verdict summary")
    common(p)
    p.add_argument("--scan", required=True, choices=("order", "indicator", "witness"))
    p.add_argument("--angles", type=int, default=360, help="indicator scan angles")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("report", help="aggregate verification records and scan summaries")
    p.add_argument("--out", required=True, help="directory with prior outputs")
    return parser


def _own_outputs(args) -> tuple[str, ...]:
    """The files ``verify`` or ``scan`` writes into --out."""
    if args.command == "verify":
        return ("records.jsonl", "verify_summary.json")
    if args.command == "scan":
        return (f"{args.scan}.csv", f"{args.scan}_summary.json")
    return ()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # a run that exits 2 or 3 must leave no earlier run's output for
    # ``report`` to read as its own
    for name in _own_outputs(args):
        (Path(args.out) / name).unlink(missing_ok=True)
    try:
        if args.command == "report":
            return cmd_report(Path(args.out))
        cfg, data, out = _load(args)
        with mp.workdps(cfg.dps):
            return args.func(cfg, data, out, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except PrecisionInsufficient as exc:
        print(
            f"precision insufficient: {exc} (suggested precision: {exc.suggested_dps})",
            file=_sys.stderr,
        )
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return 3


if __name__ == "__main__":
    _sys.exit(main())
