"""Named verification checks and their machine-readable records.

Each check emits JSON-line records of the form

    {"check": ..., "eq": ..., "zero": [k, m] | null, "point": [re, im] | null,
     "value": ..., "bound": ..., "pass": bool}

where "eq" is the label of the identity or bound being verified:

    3f  interpolation identity  A0(z_k) f'(z_k) + f''(z_k) = 0
    1c  base equation           f'' + A0 f' + B0 f = 0
    1d  perturbed equation      f'' + A f' + B f = 0
    3x  residue summability     sum |u_k / z_k| finite, and max |u| per
        block within the 1b bound
    1b  derivative-ratio bound  |f''(z_k)/f'(z_k)^2| <= C (and its
        finite-difference route through -(1/f')')
    2f  contour recovery        f''/f'^2 from the Cauchy integral of 1/f'
    2a/2c/2e  near-circle asymptotics of f, zf'/f and |f'|
    3a  proximity decay         m(r, g) -> 0 along growing radii
    3h  characteristic          T(r, g) = N(r, g) + o(1)

3a and 3h take m(r, g) from ``interpolation.g_proximity`` and carry its
bound B(r) >= max |g| over the circle as "sup_g_bound": where B < 1,
m = 0 is certified without sampling g.  3h forms N(r, g) per block,
n_k ln(r / r_k).

A nonzero value or bound too small for a float reads 0.0, and the record
also carries its log10 as "log10_value" or "log10_bound", before "pass".

Checks whose pass threshold cannot be certified at the configured
precision abort the run with a suggested precision instead of reporting
unearned failures (or unearned passes).
"""

from __future__ import annotations

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
from .interpolation import check_summability as summability_report
from .interpolation import g_proximity

# unused since the g checks stopped sampling g: benchmarks/test_bench.py
# checks that a traced run rebinds this import; it goes with that test
from .interpolation import eval_g  # noqa: F401
from .product import derivative_ratio_bound

CHECK_NAMES = (
    "interpolation",
    "residual",
    "summability",
    "cauchy",
    "asymptotics",
    "proximity",
    "characteristic",
)

INTERPOLATION_THRESHOLD = mpf("1e-40")
RESIDUAL_THRESHOLD = mpf("1e-40")
PROXIMITY_FINAL_THRESHOLD = mpf("0.01")
CHARACTERISTIC_THRESHOLD = mpf("0.05")


def _num(x):
    """Records hold plain floats; magnitudes beyond float range clamp to
    0.0 / inf after the pass verdict has already been decided."""
    if x is None:
        return None
    return float(x)


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
        if x and rec[key] == 0:
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


def check_residual(sys: CoefficientSystem, seed: int, n_points: int = 200):
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
    rep = summability_report(sys.rat)
    return [
        record(
            "summability",
            "3x",
            rep.total,
            None,
            rep.passed,
            extra={
                "included": _num(rep.included),
                "tail": _num(rep.tail),
                "per_block": {str(k): _num(v) for k, v in sorted(rep.per_block.items())},
                "per_block_max_residue": {
                    str(k): _num(v) for k, v in sorted(rep.per_block_max.items())
                },
                "per_block_residue_bound": {
                    str(k): _num(v) for k, v in sorted(rep.per_block_bound.items())
                },
            },
        )
    ]


def check_cauchy(sys: CoefficientSystem, seed: int):
    cfg = sys.cfg
    records = []
    ratios = []
    fd_tol = mp.power(10, -mpf(sys.dps) / 4)
    for k in range(1, cfg.K + 1):
        cr = cauchy_ratio(cfg, k, 0)
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
        records.append(
            record(
                "cauchy",
                "2f",
                cr.agreement,
                CONTOUR_AGREEMENT_THRESHOLD,
                cr.agreement < CONTOUR_AGREEMENT_THRESHOLD,
                zero=(k, 0),
                extra={
                    "full_radius_zero_free": cr.full_radius_zero_free,
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
            record("cauchy", "1b", fd_err, fd_tol, fd_err < fd_tol, zero=(k, 0),
                   extra={"route": "finite-difference of 1/f'"})
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
    records = [
        record("asymptotics", "2a", rep.partial_dev_max, rep.partial_bound, rep.partial_pass),
        record("asymptotics", "2c", rep.logderiv_dev_max, rep.logderiv_bound, rep.logderiv_pass),
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
                disk.zero_free if disk.applicable else True,
                zero=(disk.block, 0),
                extra={"property": "disk free of zeros of f'", **extra},
            )
        )
    records.append(
        record(
            "asymptotics",
            "2c",
            None,
            None,
            rep.disks_pass,
            extra={"property": "zero-free disk confirmed for every applicable block"},
        )
    )
    return records


def check_proximity(sys: CoefficientSystem, seed: int):
    r_base = sys.cfg.blocks[-1][0]
    values = []
    records = []
    for scale in (10, 100, 1000):
        m, bound = g_proximity(sys.rat, scale * r_base)
        values.append(m)
        records.append(
            record(
                "proximity",
                "3a",
                m,
                None,
                True,
                extra={"radius_scale": scale, "sup_g_bound": _num(bound)},
            )
        )
    nonincreasing = all(a >= b for a, b in zip(values, values[1:]))
    final_ok = values[-1] < PROXIMITY_FINAL_THRESHOLD
    records.append(
        record(
            "proximity",
            "3a",
            values[-1],
            PROXIMITY_FINAL_THRESHOLD,
            nonincreasing and final_ok,
            extra={
                "property": "m(r,g) nonincreasing with small final value",
                "sup_g_bound": _num(bound),
            },
        )
    )
    return records


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


def run_checks(sys: CoefficientSystem, checks, seed: int, residual_points: int):
    """Run the named checks, whose precision ``ensure_feasible`` has
    already admitted; returns (records, all_passed)."""
    records = []
    for name in checks:
        if name == "residual":
            recs = check_residual(sys, seed, n_points=residual_points)
        else:
            recs = CHECK_FUNCTIONS[name](sys, seed)
        records.extend(recs)
    return records, all(r["pass"] for r in records)
