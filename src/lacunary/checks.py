"""Named verification checks and their machine-readable records.

Each check emits JSON-line records of the form

    {"check": ..., "eq": ..., "zero": [k, m] | null, "point": [re, im] | null,
     "value": ..., "bound": ..., "pass": bool}

where "eq" is the label of the identity or bound being verified:

    3f  interpolation identity  A0(z_k) f'(z_k) + f''(z_k) = 0
    1c  base equation           f'' + A0 f' + B0 f = 0
    1d  perturbed equation      f'' + A f' + B f = 0
    3x  residue summability     sum |u_k / z_k| finite, max |u| per block
        within the 1b bound, and block K's within its closed form
    1b  derivative-ratio bound  |f''(z_k)/f'(z_k)^2| <= C (and its
        finite-difference route through -(1/f')')
    2f  contour recovery        f''/f'^2 from the Cauchy integral of 1/f'
    2a/2c/2e  near-circle asymptotics of f, zf'/f and |f'|
    3a  proximity decay         m(r, g) -> 0 along growing radii
    3h  characteristic          T(r, g) = N(r, g) + o(1)

3a and 3h take m(r, g) from ``interpolation.g_proximity`` and carry its
bound B(r) >= max |g| over the circle as "sup_g_bound": where B < 1,
m = 0 is certified without sampling g.  3a is one verdict record, at
r = 1000 r_K, whose "per_radius" holds m and sup_g_bound at each radius
it compares.  3h forms N(r, g) per block, n_k ln(r / r_k).

A finite nonzero value or bound beyond float range reads 0.0 (too small)
or null (too large), and the record also carries its log10 as
"log10_value" or "log10_bound", before "pass"; NaN and an infinity read
null, with no log10, so that every record is strict JSON.

Checks whose pass threshold cannot be certified at the configured
precision abort the run with a suggested precision instead of reporting
unearned failures (or unearned passes).
"""

from __future__ import annotations

import math

from mpmath import mp, mpf

from .coefficients import (
    CONTOUR_AGREEMENT_THRESHOLD,
    CoefficientSystem,
    cauchy_ratio,
    interpolation_identity_residuals,
    reciprocal_derivative_fd,
    residual,
    residual_tolerance,
)
from .errors import PrecisionInsufficient
from .growth import annulus_points, verify_thm2_asymptotics
from .interpolation import g_proximity

# unused since the g checks stopped sampling g: benchmarks/test_bench.py
# checks that a traced run rebinds this import; it goes with that test
from .interpolation import eval_g  # noqa: F401
from .product import derivative_ratio_bound

INTERPOLATION_THRESHOLD = mpf("1e-40")
RESIDUAL_THRESHOLD = mpf("1e-40")
PROXIMITY_FINAL_THRESHOLD = mpf("0.01")
CHARACTERISTIC_THRESHOLD = mpf("0.05")


def _num(x):
    """Records hold plain floats and strict JSON: a magnitude below float
    range reads 0.0, and NaN, an infinity or a magnitude above float range
    reads null, after the pass verdict has already been decided."""
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


def record(check, eq, value, bound, passed, zero=None, point=None, extra=None):
    rec = {
        "check": check,
        "eq": eq,
        "zero": list(zero) if zero is not None else None,
        "point": [float(point.real), float(point.imag)] if point is not None else None,
        "value": _num(value),
        "bound": _num(bound),
    }
    for key, x in (("value", value), ("bound", bound)):
        if x and rec[key] in (0, None) and mp.isfinite(x):
            rec[f"log10_{key}"] = float(mp.log10(abs(x)))
    rec["pass"] = bool(passed)
    if extra:
        rec.update(extra)
    return rec


def required_dps(checks) -> int:
    """Smallest precision at which every selected check's achievable
    tolerance sits a factor 10 below its pass threshold."""
    need = 30
    for name in checks:
        if name == "interpolation":
            # model: achievable identity residual ~ 10^(-P/2)
            need = max(need, 2 * int(-mp.log(INTERPOLATION_THRESHOLD / 10, 10)) + 2)
        elif name == "residual":
            # model: achievable ODE residual ~ 10^(40 - P)
            need = max(need, 40 + int(-mp.log(RESIDUAL_THRESHOLD / 10, 10)) + 1)
        elif name == "cauchy":
            need = max(need, 2 * int(-mp.log(CONTOUR_AGREEMENT_THRESHOLD, 10)))
    return need


def ensure_feasible(dps: int, checks) -> None:
    need = required_dps(checks)
    if dps < need:
        raise PrecisionInsufficient(
            f"precision {dps} cannot certify {'/'.join(checks)}; "
            f"need at least {need} digits",
            suggested_dps=need,
        )


def check_interpolation(sys: CoefficientSystem, seed: int):
    records = []
    rows = interpolation_identity_residuals(sys)
    for k, m, value in rows:
        records.append(
            record(
                "interpolation",
                "3f",
                value,
                INTERPOLATION_THRESHOLD,
                value < INTERPOLATION_THRESHOLD,
                zero=(k, m),
            )
        )
    return records


def sample_annulus_points(sys: CoefficientSystem, n_points: int, seed: int):
    """Uniform over the annulus r_1/2 <= |z| <= r_min(K,3), rejecting the
    per-zero disks of radius r_k/n_k (``growth.annulus_points``)."""
    cfg = sys.cfg
    r_lo = cfg.blocks[0][0] / 2
    r_hi = cfg.blocks[min(cfg.K, 3) - 1][0]
    return annulus_points(
        cfg, n_points, seed, lambda u: mp.sqrt(r_lo**2 + u * (r_hi**2 - r_lo**2)), 1
    )


def check_residual(sys: CoefficientSystem, seed: int, n_points: int):
    records = []
    points = sample_annulus_points(sys, n_points, seed)
    scales = (1, 10) if sys.h is not None else ()
    for z in points:
        bound = max(RESIDUAL_THRESHOLD, residual_tolerance(sys, abs(z)))
        # the base residual (1c), then one per perturbation scale (1d)
        for c, value in zip((None, *scales), residual(sys, z, scales)):
            records.append(
                record(
                    "residual",
                    "1c" if c is None else "1d",
                    value,
                    bound,
                    value < bound,
                    point=z,
                    extra=None if c is None else {"c_scale": c},
                )
            )
    return records


def check_summability(sys: CoefficientSystem, seed: int):
    """One 3x record of the interpolant's summability verdict and the
    per-block numbers it rests on; a failing one also names its reason."""
    rat = sys.rat
    reason = rat.unsummable

    def per_block(values):
        return {str(k): _num(v) for k, v in enumerate(values, start=1)}

    return [
        record(
            "summability",
            "3x",
            rat.sum_included + rat.tail_sum_bound,
            None,
            reason is None,
            extra={
                "included": _num(rat.sum_included),
                "tail": _num(rat.tail_sum_bound),
                "per_block": per_block(rat.block_sums),
                "per_block_max_residue": per_block(rat.block_max),
                "per_block_residue_bound": per_block(rat.residue_bounds),
                **({} if reason is None else {"reason": reason}),
            },
        )
    ]


def check_cauchy(sys: CoefficientSystem, seed: int):
    cfg = sys.cfg
    records = []
    ratios = []
    fd_tol = mp.power(10, -mpf(sys.dps) / 4)
    for k in range(1, cfg.K + 1):
        cr = cauchy_ratio(cfg, k)
        ratios.append(abs(cr.direct))
        bound = derivative_ratio_bound(cfg, k)
        records.append(
            record(
                "cauchy",
                "1b",
                abs(cr.direct),
                bound,
                abs(cr.direct) <= bound,
                zero=(k, 0),
            )
        )
        fd_route = {"route": "finite-difference of 1/f'"}
        if cr.direct == 0:  # f = 1 - z/r_1: no relative error to measure
            moot = {"applicable": False, "reason": "f''/f'^2 is exactly 0 at the zero"}
            for eq, extra in (("2f", moot), ("1b", {**fd_route, **moot})):
                records.append(record("cauchy", eq, None, None, True, zero=(k, 0), extra=extra))
            continue
        records.append(
            record(
                "cauchy",
                "2f",
                cr.agreement,
                CONTOUR_AGREEMENT_THRESHOLD,
                cr.agreement < CONTOUR_AGREEMENT_THRESHOLD,
                zero=(k, 0),
                extra={
                    "full_radius_zero_free": cr.winding_at_full_radius == 0,
                    "halvings": cr.halvings,
                    "chain_bound_ok": bool(cr.chain_bound >= abs(cr.direct)),
                    "winding_nodes": cr.winding_nodes,
                    "nodes": cr.nodes,
                    "quad_radius": _num(cr.quad_radius),
                    "agreement_half": _num(cr.agreement_half),
                },
            )
        )
        fd = reciprocal_derivative_fd(sys, k, 0)
        fd_err = abs(fd - cr.direct) / abs(cr.direct)
        records.append(
            record("cauchy", "1b", fd_err, fd_tol, fd_err < fd_tol, zero=(k, 0), extra=fd_route)
        )
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    if cfg.K >= 2:
        records.append(
            record(
                "cauchy",
                "2f",
                None,
                None,
                decreasing,
                extra={"property": "blockwise ratios strictly decreasing"},
            )
        )
    return records


def check_asymptotics(sys: CoefficientSystem, seed: int):
    cfg = sys.cfg
    k = cfg.K - 1 if cfg.K >= 2 else 1
    rep = verify_thm2_asymptotics(cfg, k, seed=seed)
    moot = {"applicable": False, "reason": rep.logderiv_reason} if rep.logderiv_reason else None
    records = [
        record("asymptotics", "2a", rep.partial_dev_max, rep.partial_bound, rep.partial_pass),
        record("asymptotics", "2c", rep.logderiv_dev_max, None if moot else rep.logderiv_bound,
               rep.logderiv_pass, extra=moot),
        record("asymptotics", "2e", rep.fprime_dev_max, rep.fprime_bound, rep.fprime_pass),
    ]
    for disk in rep.disks:
        extra = {"applicable": disk.applicable}
        if disk.applicable:
            extra["winding"] = disk.winding
        else:
            extra["reason"] = disk.reason
        records.append(
            record(
                "asymptotics",
                "2c",
                None,
                None,
                disk.winding == 0 if disk.applicable else True,
                zero=(disk.block, 0),
                extra={"property": "disk free of zeros of f'", **extra},
            )
        )
    summary = {"property": "zero-free disk confirmed for every applicable block"}
    if not any(disk.applicable for disk in rep.disks):
        reasons = "; ".join(f"block {disk.block}: {disk.reason}" for disk in rep.disks)
        summary.update(applicable=False, reason=f"no block's disk applies ({reasons})")
    records.append(record("asymptotics", "2c", None, None, rep.disks_pass, extra=summary))
    return records


def check_proximity(sys: CoefficientSystem, seed: int):
    """One 3a record: m(r, g) nonincreasing over r = 10, 100, 1000 r_K and
    small at the last; its per_radius keeps m and B(r) at each multiple."""
    r_base = sys.cfg.blocks[-1][0]
    radii = {str(s): g_proximity(sys.rat, s * r_base) for s in (10, 100, 1000)}
    values = [m for m, _ in radii.values()]
    final, bound = radii["1000"]
    passed = all(a >= b for a, b in zip(values, values[1:])) and final < PROXIMITY_FINAL_THRESHOLD
    extra = {
        "property": "m(r,g) nonincreasing with small final value",
        "sup_g_bound": _num(bound),
        "per_radius": {s: {"m": _num(m), "sup_g_bound": _num(b)} for s, (m, b) in radii.items()},
    }
    return [record("proximity", "3a", final, PROXIMITY_FINAL_THRESHOLD, passed, extra=extra)]


def check_characteristic(sys: CoefficientSystem, seed: int):
    cfg = sys.cfg
    r = 100 * cfg.blocks[-1][0]
    m, bound = g_proximity(sys.rat, r)
    # N(r, g) in closed form: every pole of block k has modulus r_k < r
    n = mpf(0)
    for r_k, n_k in cfg.blocks:
        n += n_k * mp.log(r / r_k)
    t = m + n
    gap = abs(t - n)
    return [
        record(
            "characteristic",
            "3h",
            gap,
            CHARACTERISTIC_THRESHOLD,
            gap < CHARACTERISTIC_THRESHOLD,
            extra={
                "m": _num(m),
                "N": _num(n),
                "T": _num(t),
                "radius": _num(r),
                "sup_g_bound": _num(bound),
            },
        )
    ]


CHECK_FUNCTIONS = {
    "interpolation": check_interpolation,
    "residual": check_residual,
    "summability": check_summability,
    "cauchy": check_cauchy,
    "asymptotics": check_asymptotics,
    "proximity": check_proximity,
    "characteristic": check_characteristic,
}
CHECK_NAMES = tuple(CHECK_FUNCTIONS)
# checks that read stored block-K residues (3f's stride, g's direct sum
# wherever _top_block declines); the rest read only its certificates
RESIDUE_CHECKS = ("interpolation", "residual")
# checks that read H (residual's 1d records); verify builds H for no other
H_CHECKS = ("residual",)


def run_checks(sys: CoefficientSystem, checks, seed: int, residual_points: int):
    """Run the named checks, whose precision ``ensure_feasible`` has
    already admitted, at the system's precision, so the records do not
    depend on the caller's; returns (records, all_passed)."""
    records = []
    with mp.workdps(sys.dps):
        for name in checks:
            if name == "residual":
                recs = check_residual(sys, seed, n_points=residual_points)
            else:
                recs = CHECK_FUNCTIONS[name](sys, seed)
            records.extend(recs)
    return records, all(r["pass"] for r in records)
