"""Command-line front end: construct, verify, scan, report.

Exit codes: 0 all checks passed, 1 a verification check failed, 2 a
ConfigError: bad configuration, a --checks list that names no check or
one check twice, --points or --angles below 1, unreadable input (a
config, an artifact, or the directory or a file ``report`` reads, or a
directory with no records and no scan summary to report), or an --out
that is no directory, such as a file or a path under one, 3 a
NumericalError (insufficient precision, non-convergent quadrature, a
point off the certified domain), with a suggested precision printed
when one can be computed.  ``main`` alone loads the config, enters its
precision and maps errors to these codes.  ``construct``, ``verify``
and ``scan`` first delete the files they write, and ``report`` its
``report.json``, so a run that exits 2 or 3 leaves none of them behind;
only a ``config.json`` that is the --config being read is kept.  Every
JSON output but ``residues.json`` is streamed to its file with
``json.dump``; ``construct`` writes that one entry by entry, in the same
layout (``_write_residues``).

Config schema (JSON object):

    {"rho_f": 0.5, "rule": "factorial", "K": 4, "precision_digits": 100}
    {"blocks": [[4, 2], [16, 4]], "rho_f": 0.5, "precision_digits": 100}

optionally extended with "rho_H", which ``coefficients.build_H`` reads as
``product._rho`` reads rho_f (H then has H_TRUNCATION = 64 factors).
A key outside the schema (``product.CONFIG_KEYS``), or "rule" or "K"
next to "blocks", is rejected by name (exit 2).  With a fixed
(config, seed, precision) triple every output file is byte-identical
across runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys as _sys
from contextlib import contextmanager
from pathlib import Path

from mpmath import mp, mpc, mpf

from . import checks as checks_mod
from .coefficients import H_TRUNCATION, RHO_H_BOUND, build_H, make_system
from .errors import ConfigError, NumericalError, PrecisionInsufficient
from .growth import (
    HZeroDiskFamily,
    ZeroDiskFamily,
    crg_witness,
    indicator_scan,
    order_scan,
)
from .interpolation import RationalInterpolant, config_interpolant
from .product import (
    LacunaryConfig,
    _integer,
    _rho,
    config_from_dict,
    config_to_dict,
    eval_f_scan,
    sigma_certificate,
    zero_count,
)


def _nstr(x) -> str:
    # never reconstruct an existing mpf: mpf(x) rounds to the ambient
    # precision, which silently truncates serialized artifacts
    if not isinstance(x, mp.mpf):
        x = mpf(x)
    return mp.nstr(x, 25)


# residues.json holds each part of a residue exactly, in float.hex syntax
# with an integer mantissa; float.fromhex reads it to the nearest double
_HEX = re.compile(r"(-?)0x([0-9a-f]+)p(-?[0-9]+)")


def _hex(x: mpf) -> str:
    """x exactly as ``[-]0x<hex mantissa>p<binary exponent>``; zero is
    ``0x0p0`` and a non-finite x its float name."""
    sign, man, exp, _ = x._mpf_  # man is unsigned; only nan and infinities have man 0, exp != 0
    if not man and exp:
        return repr(float(x))
    return f"{'-' if sign else ''}0x{man:x}p{exp}"


def _unhex(s: str) -> mpf:
    """The number :func:`_hex` wrote, at the working precision: exact when
    it was written at no more, else rounded once."""
    if s in ("nan", "inf", "-inf"):
        return mpf(s)
    match = _HEX.fullmatch(s)
    if match is None:
        raise ValueError(f"{s!r} is not of the form [-]0x<hex mantissa>p<binary exponent>")
    sign, man, exp = match.groups()
    return mpf((int(sign + man, 16), int(exp)))


def _load(args) -> tuple[LacunaryConfig, dict, Path]:
    """(config, its JSON object with --precision applied, output directory)."""
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    if args.precision is not None:
        data = {**data, "precision_digits": args.precision}
    cfg = config_from_dict(data)
    if data.get("rho_H") is not None:  # a bad rho_H fails here, before any command starts
        _rho(data["rho_H"], cfg.dps, "rho_H", RHO_H_BOUND)
    out = Path(args.out)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
    return cfg, data, out


@contextmanager
def _writing(out):
    """Report an --out that cannot hold the outputs, such as a file or a
    path under one, as a ConfigError that names it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write into --out {out}: {exc}") from exc


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


# one residues.json entry in the layout of json.dump(..., indent=1); a
# part that _hex writes needs no JSON escape
_RESIDUE_ENTRY = ' {{\n  "k": {},\n  "m": {},\n  "residue": [\n   "{}",\n   "{}"\n  ]\n }}'


def _write_residues(path: Path, residues) -> None:
    """residues.json, entry by entry: byte for byte what :func:`_write_json`
    writes for the list of {"k", "m", "residue": [re, im]} entries, without
    Python's pure-Python encoder, which ``indent`` selects, or the whole
    text in memory."""
    with open(path, "w", encoding="utf-8") as fh:
        sep = "[\n"
        for k, block in enumerate(residues, start=1):
            for m, u in enumerate(block):
                fh.write(sep + _RESIDUE_ENTRY.format(k, m, _hex(u.real), _hex(u.imag)))
                sep = ",\n"
        fh.write("[]\n" if sep == "[\n" else "\n]\n")


# ---------------------------------------------------------------------------
# construct


def cmd_construct(cfg: LacunaryConfig, data: dict, out: Path, args) -> int:
    system = make_system(cfg, rho_H=data.get("rho_H"))

    extras = {"rho_H": data["rho_H"]} if "rho_H" in data else {}
    _write_json(out / "config.json", {**config_to_dict(cfg), **extras})

    # exact serialization: the verify-from-artifact path reads back the
    # residues it would compute, so the interpolation identity is undisturbed.
    # The config fixes every zero: zeros.json holds each block's r and n,
    # and residues.json only the (k, m) label of each residue's pole
    rat = system.rat
    blocks = [{"k": k, "r": _nstr(r), "n": n} for k, (r, n) in enumerate(cfg.blocks, start=1)]
    _write_json(out / "zeros.json", {"count": zero_count(cfg), "blocks": blocks})
    _write_residues(out / "residues.json", rat.residues)

    cert = sigma_certificate(cfg)
    _write_json(
        out / "system.json",
        {
            "precision_digits": cfg.dps,
            "rho_f": _nstr(cfg.rho_f),
            "K": cfg.K,
            "zero_count": zero_count(cfg),
            "c_bound": _nstr(rat.c_bound),
            "summability": {
                "included": _nstr(rat.sum_included),
                "tail": _nstr(rat.tail_sum_bound),
                "total": _nstr(rat.sum_included + rat.tail_sum_bound),
                "passed": rat.summable,
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
                "truncation": H_TRUNCATION,
                "max_radius": _nstr(system.h.max_radius),
                # H's order above the zeros' convergence exponent is what regular growth
                # needs; recorded, not enforced (the ODE residual holds either way)
                "theorem_hypothesis_met": bool(system.h.rho > cfg.rho_f),
            },
        },
    )
    print(f"constructed {zero_count(cfg)} zeros / residues into {out}")
    return 0


# ---------------------------------------------------------------------------
# verify


def _load_artifact_residues(cfg: LacunaryConfig, path: Path) -> RationalInterpolant:
    """Residues written by ``construct``, on the zeros of the config, at
    no lower precision than the config's (the artifact's ``config.json``).

    Entries must come in the config's (block, index) order, the order of
    the config's zeros, which fix the poles; no zero is formed here, and
    any key of an entry besides k, m and residue is ignored.  Each
    residue is a list of two strings, its real and imaginary parts in the
    form :func:`_hex` writes, or nan, inf or -inf.  Their values are not
    validated: catching a wrong residue is the checks' job.
    """
    try:
        entries = json.loads((path / "residues.json").read_text(encoding="utf-8"))
        written = json.loads((path / "config.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read residues from {path}: {exc}") from exc
    if not isinstance(entries, list):
        raise ConfigError(f"residues in {path} must be a JSON list")
    digits = written.get("precision_digits") if isinstance(written, dict) else None
    if _integer(digits, f"precision_digits of {path / 'config.json'}") < cfg.dps:
        raise ConfigError(f"residues in {path} were written at {digits} digits, below {cfg.dps}")
    if len(entries) != zero_count(cfg):
        raise ConfigError(
            f"artifact holds {len(entries)} residues, config has {zero_count(cfg)} zeros"
        )
    entry = iter(entries)
    try:
        residues = [
            [_entry_residue(next(entry), k, m) for m in range(n)]
            for k, (_, n) in enumerate(cfg.blocks, start=1)
        ]
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed residue entry in {path}: {exc!r}") from exc
    return config_interpolant(cfg, residues)


def _entry_residue(e, k: int, m: int) -> mpc:
    """The residue of the residues.json entry that must be zero (k, m)."""
    label = (_integer(e["k"], "entry k"), _integer(e["m"], "entry m"))
    if label != (k, m):
        raise ConfigError(f"artifact entry is zero {label}; config order expects ({k}, {m})")
    re_im = e["residue"]
    if not isinstance(re_im, list) or [type(x) for x in re_im] != [str, str]:
        raise ConfigError(
            f"artifact entry ({k}, {m}): residue must be a list of two strings, got {re_im!r}"
        )
    # _unhex already rounds at the working precision, which mpc() would redo
    return mp.make_mpc((_unhex(re_im[0])._mpf_, _unhex(re_im[1])._mpf_))


def cmd_verify(cfg: LacunaryConfig, data: dict, out: Path, args) -> int:
    names = _parse_checks(args.checks)
    if args.points < 1:
        raise ConfigError(f"--points must be at least 1, got {args.points}")
    checks_mod.ensure_feasible(cfg.dps, names)

    rat = None
    if args.artifacts:
        rat = _load_artifact_residues(cfg, Path(args.artifacts))
    defer = set(names).isdisjoint(checks_mod.RESIDUE_CHECKS)
    rho_H = None if set(names).isdisjoint(checks_mod.H_CHECKS) else data.get("rho_H")
    system = make_system(cfg, rho_H=rho_H, rat=rat, defer_top=defer)

    records, all_passed = checks_mod.run_checks(
        system, names, args.seed, residual_points=args.points
    )
    with open(out / "records.jsonl", "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=False, allow_nan=False) + "\n")
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
    for i, name in enumerate(names):
        if name not in checks_mod.CHECK_NAMES:
            raise ConfigError(
                f"unknown check {name!r}; available: {', '.join(checks_mod.CHECK_NAMES)}"
            )
        if name in names[:i]:
            raise ConfigError(f"--checks {raw!r} names {name!r} twice")
    return names


# ---------------------------------------------------------------------------
# scan


CSV_HEADER = ("r", "theta", "log_abs_f", "ratio", "excluded")


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
            (_nstr(row.r), "", _nstr(row.log_max), _nstr(x), False)
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
    if data.get("rho_H") is not None:
        h = build_H(data["rho_H"], dps=cfg.dps)
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
        (_nstr(s.r), _nstr(s.theta), _nstr(s.log_abs), _nstr(s.ratio), s.excluded)
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
    if not out.is_dir():
        raise ConfigError(f"cannot read outputs: {out} is no directory")
    with _writing(out):
        (out / "report.json").unlink(missing_ok=True)
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
    if report["verify"] is None and not report["scans"]:
        raise ConfigError(f"cannot read outputs: {out} holds no records.jsonl or scan summary")
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
    """The files ``construct``, ``verify`` or ``scan`` writes into --out,
    less a ``config.json`` that is the --config ``construct`` reads."""
    if args.command == "construct":
        names = ("zeros.json", "residues.json", "system.json")
        if Path(args.out, "config.json").resolve() == Path(args.config).resolve():
            return names
        return ("config.json", *names)
    if args.command == "verify":
        return ("records.jsonl", "verify_summary.json")
    if args.command == "scan":
        return (f"{args.scan}.csv", f"{args.scan}_summary.json")
    return ()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(Path(args.out))
        # a run that exits 2 or 3 must leave no earlier run's output for
        # ``report`` to read as its own
        with _writing(args.out):
            for name in _own_outputs(args):
                (Path(args.out) / name).unlink(missing_ok=True)
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
