"""Growth measurement: max modulus, characteristic functions, order and
indicator scans, and the regular-growth violation witness.

Two evaluation regimes coexist:

- direct evaluation of a callable on circles: the proximity quadrature
  of ``nevanlinna`` and the (theta, r) grid of ``indicator_scan``;
- the term-sum formula ln M(r) ~= sum_j ln(1 + (r/r_j)^{n_j}), valid at
  any radius, used for the order/witness scans whose interesting radii
  (r_k up to 2^5040) are far beyond direct evaluation.  The formula is
  an upper bound for ln M(r), by the triangle inequality in each factor.
  Aligning the dominant block and applying the reverse triangle
  inequality to the rest bounds ln M(r) from below; the tests form that
  lower bound, and the scans, which report the upper bound, form none.

The max modulus by direct evaluation (an angle grid refined by
golden-section search) is a test oracle for the formula, kept in tests.

The witness reads the order scan's rows and compares a_k =
ln M(r_k)/r_k^rho (dips, which sink to 0) with b_k = ln M(e r_k)/(e r_k)^rho
(peaks, which stabilize near e^{-rho}); a persistent gap between them is
exactly the failure of ln|f| / r^rho to converge, outside any admissible
exceptional disks.

Exceptional-disk bookkeeping: scans mark samples inside the per-zero
disks of radius r_k/n_k (the scale on which derivative estimates
operate).  The disk-radius budget at scale r must stay below r/10; the
scan computes and flags it per radius rather than assuming it.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import partial

from mpmath import mp, mpc, mpf

from .coefficients import H_TRUNCATION, MAX_NODES, HProduct, disk_winding
from .errors import CancellationError, ConfigError, DivergenceError
from .interpolation import proximity_m
from .product import (
    LacunaryConfig,
    _check_domain,
    _circle_levels,
    _fprime_on_circle,
    _jet,
    _nearest_in,
    _scan_blocks,
    log_derivative,
    nearest_zero,
)


def _logmag(value) -> mpf:
    mag = abs(mpc(value))
    return mp.log(mag) if mag > 0 else mpf("-inf")


def _softplus(y: mpf) -> mpf:
    """ln(1 + e^y), overflow-safe for |y| up to mpf's exponent range."""
    if y > 0:
        return y + mp.log1p(mp.exp(-y))
    return mp.log1p(mp.exp(y))


def _absorbs(x: mpf, y: mpf) -> bool:
    """x is nonzero and any positive t < 4 e^-|y| added to it, correctly
    rounded at the working precision, gives x back: from binary exponents
    alone, forming no exp.  With x of binary size X (2^(X-1) <= |x| < 2^X)
    and |y| >= 2^(Y-1), t < 2^(2 - |y|), which lies 2^5 below half an ulp
    of x, 2^(X - prec - 1), once |y| >= prec + 8 - X."""
    if not x or not y:
        return False
    need = mp.prec + 8 - (x._mpf_[2] + x._mpf_[3])
    return need <= 0 or y._mpf_[2] + y._mpf_[3] - 1 >= (need - 1).bit_length()


def log_max_modulus_bound(cfg: LacunaryConfig, r) -> mpf:
    """Term-sum upper bound for ln M(r): sum_j ln(1+(r/r_j)^{n_j}) over the
    blocks of ``product._scan_blocks``.

    With y_j = n_j ln(r/r_j), each block adds softplus(y_j).  Far from r_j,
    |y_j| runs up to 2^20160, and an exp there costs a 20,000-bit division,
    for a term that rounding absorbs: softplus(y) = y + ln(1 + e^-y) for
    y > 0 and ln(1 + e^y) < e^y for y < 0.  So where :func:`_absorbs` shows
    that the small part vanishes against what it joins (y itself, or the
    running sum), no exp is formed; the sum keeps its bits.
    """
    with mp.workdps(cfg.dps):
        r = mpf(r)
        if r <= 0:
            raise ConfigError("radius must be positive")
        log_r = mp.log(r)
        total = mpf(0)
        for r_k, n_k in _scan_blocks(cfg, r):
            y = cfg._multiplicity(n_k) * (log_r - mp.log(r_k))
            if y > 0 and _absorbs(y, y):
                total += y
            elif not (y < 0 and _absorbs(total, y)):
                total += _softplus(y)
        return total


def counting_N(pole_moduli, r) -> mpf:
    """N(r) = sum_{|z_k| <= r} ln(r / |z_k|) for simple poles, finite at 0:
    one logarithm per distinct modulus, times its count."""
    r = mpf(r)
    total = mpf(0)
    for mod, count in Counter(map(mpf, pole_moduli)).items():
        if mod <= r:
            total += count * mp.log(r / mod)
    return total


def nevanlinna(fn, pole_moduli, r) -> tuple[mpf, mpf, mpf]:
    """(m, N, T) at radius r: proximity by quadrature, counting in closed form.

    The characteristic check takes m(r, g) from ``interpolation.g_proximity``
    and N from the blocks; this route for any callable is the tests' oracle,
    kept here while ``benchmarks/run.py`` traces it by name."""
    m = proximity_m(fn, r, avoid_moduli=dict.fromkeys(pole_moduli))
    n = counting_N(pole_moduli, r)
    return m, n, m + n


# ---------------------------------------------------------------------------
# order scan and witness


@dataclass(frozen=True)
class OrderScanRow:
    kind: str  # 'dip' (r = r_k) or 'peak' (r = e r_k)
    r: mpf
    log_max: mpf
    ratio: mpf | None  # lnln M / ln r, None when ln M <= 1


@dataclass(frozen=True)
class OrderScan:
    rows: tuple[OrderScanRow, ...]

    def ratios(self, kind: str) -> list:
        return [row.ratio for row in self.rows if row.kind == kind and row.ratio is not None]


def order_scan(cfg: LacunaryConfig, ks) -> OrderScan:
    """lnln M / ln r at dip radii r_k and peak radii e r_k, by term sums."""
    rows = []
    with mp.workdps(cfg.dps):
        for k in ks:
            r_k, _ = cfg.block(k)
            for kind, r in (("dip", mpf(r_k)), ("peak", mp.e * r_k)):
                log_max = log_max_modulus_bound(cfg, r)
                ratio = mp.log(log_max) / mp.log(r) if log_max > 1 else None
                rows.append(OrderScanRow(kind=kind, r=r, log_max=log_max, ratio=ratio))
    return OrderScan(rows=tuple(rows))


@dataclass(frozen=True)
class WitnessReport:
    ks: tuple[int, ...]
    a: tuple[mpf, ...]  # ln M(r_k) / r_k^rho
    b: tuple[mpf, ...]  # ln M(e r_k) / (e r_k)^rho
    threshold_factor: mpf
    verdict: str
    rows: tuple[OrderScanRow, ...]  # the order scan that a and b come from


def crg_witness(cfg: LacunaryConfig, ks) -> WitnessReport:
    """Dip/peak comparison of ln M(r)/r^rho over ``order_scan(cfg, ks)``.

    Verdict 'violation' when max(a) < min(b)/3: along r_k the normalized
    log-maximum stays a factor-3 gap below its value along e r_k, so it
    cannot converge to any indicator value.  a and b come from the term
    sum, an upper bound for ln M; the certificate that the verdict holds
    for ln M itself, with the side it rests on lowered to the alignment
    lower bound, lives in the tests (``tests/test_growth.py::TestWitness``).
    """
    ks = tuple(ks)
    rows = order_scan(cfg, ks).rows
    with mp.workdps(cfg.dps):
        # the rows alternate dip (r_k) and peak (e r_k)
        normalized = [row.log_max / mp.power(row.r, cfg.rho_f) for row in rows]
        a, b = tuple(normalized[::2]), tuple(normalized[1::2])
        threshold_factor = mpf(3)
        verdict = "violation" if max(a) < min(b) / threshold_factor else "no violation"
        return WitnessReport(
            ks=ks, a=a, b=b, threshold_factor=threshold_factor, verdict=verdict, rows=rows
        )


# ---------------------------------------------------------------------------
# indicator scan with exceptional disks


class ZeroDiskFamily:
    """Disks of radius r_k/n_k around every zero of the blocks that
    ``eval_f_scan`` takes at the sample's radius, past K too."""

    def __init__(self, cfg: LacunaryConfig):
        self.cfg = cfg

    def excluded(self, z) -> bool:
        with mp.workdps(self.cfg.dps):
            z = mpc(z)
            blocks = _scan_blocks(self.cfg, abs(z))
            k, _, dist, _ = _nearest_in(blocks, z)
            return dist <= blocks[k - 1][0] / blocks[k - 1][1]

    def radii_sum(self, r) -> mpf:
        r = mpf(r)
        total = mpf(0)
        for r_k, _ in _scan_blocks(self.cfg, r):
            if r_k <= r:
                total += r_k
        return total


class HZeroDiskFamily:
    """Disks around the negative-axis zeros of H, each 1/20 of the local
    zero spacing (sum of radii ~ r/20, inside the r/10 exceptional
    budget)."""

    def __init__(self, h: HProduct):
        self.h = h

    def _radius(self, m: int) -> mpf:
        return mpf("0.05") * (self.h.moduli[m] - self.h.moduli[m - 1])

    def excluded(self, z) -> bool:
        z = mpc(z)
        guess = int(mp.power(abs(z), self.h.rho)) if abs(z) > 0 else 1
        for m in range(max(1, guess - 2), min(H_TRUNCATION, guess + 2) + 1):
            if abs(z + self.h.moduli[m - 1]) <= self._radius(m):
                return True
        return False

    def radii_sum(self, r) -> mpf:
        r = mpf(r)
        total = mpf(0)
        for m, a in enumerate(self.h.moduli[:H_TRUNCATION], start=1):
            if a > r:
                break
            total += self._radius(m)
        return total


@dataclass(frozen=True)
class IndicatorSample:
    r: mpf
    theta: mpf
    log_abs: mpf
    ratio: mpf
    excluded: bool


@dataclass(frozen=True)
class IndicatorScan:
    samples: tuple[IndicatorSample, ...]
    budget_ok: bool

    def min_ratio(self):
        vals = [s.ratio for s in self.samples if not s.excluded]
        return min(vals) if vals else None


def indicator_scan(fn, rho, thetas, radii, exclusion) -> IndicatorScan:
    """ln|fn(r e^{i theta})| / r^rho over a (theta, r) grid.

    Samples inside the exceptional disks are kept but marked excluded;
    the per-radius disk budget (sum of radii of disks centered within r,
    vs r/10) is reported and flagged, never silently trusted.  Exclusion
    is decided first: an excluded sample whose evaluation cancels (it sits
    on a zero) keeps the lossy value its CancellationError carries.
    """
    rho = mpf(rho)
    samples = []
    budget_ok = True
    for r in radii:
        r = mpf(r)
        budget_ok = budget_ok and bool(exclusion.radii_sum(r) < r / 10)
        scale = mp.power(r, rho)
        for theta in thetas:
            theta = mpf(theta)
            z = r * mp.exp(mpc(0, 1) * theta)
            excluded = bool(exclusion.excluded(z))
            try:
                value = _logmag(fn(z))
            except CancellationError as exc:
                if not excluded:
                    raise
                value = _logmag(exc.result)
            samples.append(
                IndicatorSample(
                    r=r, theta=theta, log_abs=value, ratio=value / scale, excluded=excluded
                )
            )
    return IndicatorScan(samples=tuple(samples), budget_ok=budget_ok)


# ---------------------------------------------------------------------------
# finite-level asymptotics of the product near its k-th circle

# points near the circle in (i)-(ii); (iii) reads the first level of the f'
# windings' grid (``product._circle_levels``) from the config's disk samples
# (``LacunaryConfig._disk_samples``), which (iv) and the contour check extend
ANNULUS_POINTS = 32

# draws per requested point before an annulus sampler gives up
ANNULUS_ATTEMPTS = 500


@dataclass(frozen=True)
class DiskCheck:
    block: int
    applicable: bool
    reason: str
    winding: int | None


@dataclass(frozen=True)
class AsymptoticsReport:
    partial_dev_max: mpf
    partial_bound: mpf
    partial_pass: bool
    logderiv_dev_max: mpf
    logderiv_bound: mpf
    logderiv_pass: bool
    logderiv_reason: str
    fprime_dev_max: mpf
    fprime_bound: mpf
    fprime_pass: bool
    disks: tuple[DiskCheck, ...]
    disks_pass: bool

    @property
    def passed(self) -> bool:
        return bool(
            self.partial_pass and self.logderiv_pass and self.fprime_pass and self.disks_pass
        )


def annulus_points(cfg: LacunaryConfig, n_points: int, seed: int, radius, margin) -> list[mpc]:
    """n_points seeded points radius(u) e^{2 pi i v}, u and v uniform on
    [0, 1) and drawn in that order, rejecting those within ``margin``
    r_k/n_k of their nearest zero; DivergenceError after ANNULUS_ATTEMPTS
    draws per point."""
    rng = random.Random(seed)
    points = []
    for _ in range(ANNULUS_ATTEMPTS * n_points):
        if len(points) == n_points:
            break
        z = radius(mpf(rng.random())) * mp.exp(mpc(0, 2 * mp.pi * mpf(rng.random())))
        k, _, dist, _ = nearest_zero(cfg, z)
        r_k, n_k = cfg.blocks[k - 1]
        if dist > margin * r_k / n_k:
            points.append(z)
    if len(points) < n_points:
        raise DivergenceError("annulus sampling starved by zero disks")
    return points


def _disk_separation(cfg: LacunaryConfig, j: int) -> tuple[bool, str]:
    r_j, n_j = cfg.block(j)
    if j >= 2:
        r_prev, _ = cfg.block(j - 1)
        if not r_j * (1 - mpf(1) / n_j) > r_prev:
            return False, "disk reaches the previous circle"
    has_next = cfg.rule is not None or j < cfg.K
    if has_next:
        r_next, _ = cfg.block(j + 1)
        if not r_j * (1 + mpf(1) / n_j) < r_next:
            return False, "disk reaches the next circle"
    return True, ""


def verify_thm2_asymptotics(cfg: LacunaryConfig, k: int, seed: int = 0) -> AsymptoticsReport:
    """Finite-level checks of the near-circle behaviour of f at block k.

    (i)   f agrees with its k-block partial product, to the truncation
          tail scale (exactly, when there are no further blocks): f/part - 1
          is formed as the product of the blocks past k, minus 1;
    (ii)  z f'/f agrees with sum_{j<k} n_j plus the k-th term, to the
          scale (2 sum_{j<k} n_j + sum_{j>k} n_j a_j/(1 - a_j)) / n_k,
          a_j = (1.1 r_k/r_j)^{n_j} (deviation measured relative to n_k);
          not applicable, with a reason, where that sum over j > k can
          reach n_k (any a_j >= 1 among them);
    (iii) |f'| at the 32 nodes of the first level of the windings' grid
          (:func:`_circle_levels`) on the boundary of the zero-centered
          disk of radius r_k/n_k, at the unit direction zeta, matches
          (n_k/r_k) prod_{j<k} (r_k/r_j)^{n_j} |e^zeta|
          within 5*(sum n_j/n_k + sum (r_j/r_k)^{n_j} + 1/n_k), the
          finite-level error scale of that product form;
    (iv)  for every block whose disk sits strictly between the
          neighbouring circles, the argument-principle winding of f'
          confirms the disk holds no zero of f' (``disk_winding``), on
          the disk samples (``LacunaryConfig._disk_samples``) that (iii) and
          the contour check share, summed once for both.  With no such
          block, (iv) holds vacuously.
    """
    if not 1 <= k <= cfg.K:
        raise ConfigError(f"k must be within 1..{cfg.K}")
    with mp.workdps(cfg.dps):
        r_k, n_k = cfg.block(k)
        points = annulus_points(
            cfg, ANNULUS_POINTS, seed, lambda u: r_k * (mpf("0.9") + mpf("0.2") * u), mpf("1.2")
        )

        # (i) partial product
        if cfg.rule is None and k == cfg.K:
            bound_i = mpf(0)
        else:
            r_next, n_next = cfg.block(k + 1)
            bound_i = 2 * mp.exp(mpf(n_next) * (mp.log(mpf("1.1") * r_k) - mp.log(r_next)))
        dev_i = mpf(0)
        for z in points:
            _check_domain(cfg, z)
            dev_i = max(dev_i, abs(_jet(cfg.blocks[k:], z, 0, True)[0] - 1))
        pass_i = bool(dev_i <= bound_i)

        # (ii) log-derivative two-term form; floored at the rounding level,
        # since with no other blocks the analytic bound is exactly zero.
        # Block j > k adds n_j w_j/(w_j - 1), |w_j| <= a_j; where these can
        # reach n_k (or a_j >= 1), block k's term is not resolved
        sum_prev = sum(n for _, n in cfg.blocks[: k - 1])
        above = [(n_j, mp.power(mpf("1.1") * r_k / r_j, n_j)) for r_j, n_j in cfg.blocks[k:]]
        upper = mp.fsum(n_j * a / (1 - a) if a < 1 else mp.inf for n_j, a in above)
        reason_ii = "" if upper < n_k else f"blocks above {k} can move z f'/f by n_k or more"
        bound_ii = (2 * mpf(sum_prev) + upper) / n_k + mp.power(10, -(mpf(cfg.dps) - 10))
        dev_ii = mpf(0)
        for z in points:
            lhs = z * log_derivative(cfg, z)
            w = mp.power(z / r_k, n_k)
            rhs = mpf(sum_prev) + mpf(n_k) * (w / (w - 1))
            dev_ii = max(dev_ii, abs(lhs - rhs) / n_k)
        pass_ii = bool(reason_ii or dev_ii <= bound_ii)

        # (iii) |f'| on the disk boundary against the product form, on the
        # first level alone: (iv) may not apply to block k
        fprime = partial(_fprime_on_circle, cfg, k, r_k / mpf(n_k))
        grid = cfg._grid(MAX_NODES, 1)
        _, vals = next(_circle_levels(fprime, cfg._disk_samples(k), MAX_NODES, 1, grid))
        log_prefactor = sum(
            (mpf(n_j) * (mp.log(r_k) - mp.log(r_j)) for r_j, n_j in cfg.blocks[: k - 1]),
            mpf(0),
        )
        prefactor = mp.exp(log_prefactor) * n_k / r_k
        dev_iii = mpf(0)
        for zeta, fp in vals:
            form = prefactor * mp.exp(zeta.real)
            dev_iii = max(dev_iii, abs(abs(fp) / form - 1))
        sum_ratios = sum(
            (mp.power(r_j / r_k, n_j) for r_j, n_j in cfg.blocks[: k - 1]), mpf(0)
        )
        bound_iii = 5 * (mpf(sum_prev) / n_k + sum_ratios + mpf(1) / n_k)
        if cfg.rule is not None or k < cfg.K:
            bound_iii += bound_i
        pass_iii = bool(dev_iii <= bound_iii)

        # (iv) zero-free disks, block by block where the separation holds
        disks = []
        for j in range(1, k + 1):
            applicable, reason = _disk_separation(cfg, j)
            w = None
            if applicable:
                _, w = disk_winding(cfg, j)
            disks.append(DiskCheck(j, applicable, reason, w))
        disks_pass = all(d.winding == 0 for d in disks if d.applicable)

        return AsymptoticsReport(
            partial_dev_max=dev_i,
            partial_bound=bound_i,
            partial_pass=pass_i,
            logderiv_dev_max=dev_ii,
            logderiv_bound=bound_ii,
            logderiv_pass=pass_ii,
            logderiv_reason=reason_ii,
            fprime_dev_max=dev_iii,
            fprime_bound=bound_iii,
            fprime_pass=pass_iii,
            disks=tuple(disks),
            disks_pass=disks_pass,
        )
