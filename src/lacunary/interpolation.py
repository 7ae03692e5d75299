"""Residue data and the rational interpolation series.

From the product f we build the meromorphic function

    g(z) = sum_k u_k / (z - z_k),        u_k = -f''(z_k) / f'(z_k)^2,

with one simple pole at every zero of f, so that A0 = f g is entire.
Every interpolant belongs to a configuration: its poles are the zeros of
that configuration's product, in block order.  The residues are produced
by factor extraction (never by numerically dividing near the zeros), and
the interpolant carries two certificates:

- summability: sum |u_k / z_k| over the included poles plus an analytic
  tail bound derived from the residue-ratio bound at block K+1 and the
  geometric radius growth of the schedule;
- C_bound: max |u_k|, finite by construction.

``proximity_m`` is the (1/2pi) integral of log+ |fn| over a circle,
computed by node-doubling trapezoid quadrature (spectrally accurate for
the periodic integrand away from poles).

Interpolants are immutable and evaluation is pure: quadrature nodes can
be evaluated concurrently, and sums run in stored pole order so results
are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpc, mpf

from .errors import NearPoleError, QuadratureError, TailError
from .product import (
    LacunaryConfig,
    _near_zero_margin,
    derivative_ratio_bound,
    derivs_at_zero,
    nearest_zero,
    zero_point,
)


@dataclass(frozen=True)
class RationalInterpolant:
    """The zeros of ``cfg`` as poles, their residues, and certificates.

    ``pole_ids`` holds the (block, index) label of each pole, in the
    config's block order.  ``tail_sum_bound`` bounds the uncomputed part
    of sum |u/z| (0 for finite explicit products).  Build interpolants
    with ``residues_from_f`` or ``config_interpolant``.
    """

    poles: tuple[mpc, ...]
    residues: tuple[mpc, ...]
    pole_ids: tuple[tuple[int, int], ...]
    c_bound: mpf
    sum_included: mpf
    tail_sum_bound: mpf
    cfg: LacunaryConfig

    def pole_index(self, k: int, m: int) -> int:
        offset = 0
        for j, (_, n) in enumerate(self.cfg.blocks, start=1):
            if j == k:
                if not 0 <= m < n:
                    raise ValueError(f"index {m} outside block {k}")
                return offset + m
            offset += n
        raise ValueError(f"block {k} outside config")

    def with_residue(self, index: int, value) -> "RationalInterpolant":
        """Copy with one residue replaced and the certificates recomputed
        (fault injection / diagnostics)."""
        residues = list(self.residues)
        residues[index] = mpc(value)
        return config_interpolant(self.cfg, self.poles, residues, self.pole_ids)


def _schedule_tail_sum(cfg: LacunaryConfig) -> mpf:
    """Bound on sum_{k>K} |u/z| over the poles past K.

    Radii at least double at each step and n <= r^rho + 1.5, so the
    harmonic block sum past K is dominated by a geometric series; each
    term carries the residue-ratio bound of block K+1.
    """
    if cfg.rule is None:
        return mpf(0)
    rho = cfg.rho_f
    r_next = cfg.next_radius()
    geo = 1 / (1 - mp.power(2, rho - 1))
    harmonic = mp.power(r_next, rho - 1) * geo + 3 / r_next
    return derivative_ratio_bound(cfg, cfg.K + 1) * harmonic


def config_interpolant(cfg: LacunaryConfig, poles, residues, pole_ids) -> RationalInterpolant:
    """Interpolant for the zeros of ``cfg`` with their residues, certified.

    C_bound and the included sum |u/z| run over the poles in the given
    order; the tail bound comes from the schedule.  ``residues_from_f``,
    ``with_residue`` and the CLI's artifact loader all build their
    interpolant here, so every interpolant carries certificates for the
    residues it holds.
    """
    with mp.workdps(cfg.dps):
        c_bound = mpf(0)
        total = mpf(0)
        for p, u in zip(poles, residues):
            c_bound = max(c_bound, abs(u))
            total += abs(u) / abs(p)
        return RationalInterpolant(
            poles=tuple(poles),
            residues=tuple(residues),
            pole_ids=tuple(pole_ids),
            c_bound=c_bound,
            sum_included=total,
            tail_sum_bound=_schedule_tail_sum(cfg),
            cfg=cfg,
        )


def residues_from_f(cfg: LacunaryConfig) -> RationalInterpolant:
    """u = -f''/f'^2 at every zero up to level K, by factor extraction."""
    with mp.workdps(cfg.dps):
        poles = []
        residues = []
        ids = []
        for k, (_, n) in enumerate(cfg.blocks, start=1):
            for m in range(n):
                xi = zero_point(cfg, k, m)
                f1, f2 = derivs_at_zero(cfg, k, m, order=2, xi=xi)
                poles.append(xi)
                residues.append(-f2 / (f1 * f1))
                ids.append((k, m))
        return config_interpolant(cfg, poles, residues, ids)


def g_tail_bound(rat: RationalInterpolant, radius) -> mpf:
    """Bound on the omitted pole contributions to g, valid for |z| <= r_{K+1}/2."""
    cfg = rat.cfg
    with mp.workdps(cfg.dps):
        if cfg.rule is not None and mpf(radius) > cfg.next_radius() / 2:
            raise TailError("radius outside the certified domain |z| <= r_{K+1}/2")
        return 2 * rat.tail_sum_bound


def eval_g(rat: RationalInterpolant, z, check_domain: bool = True) -> mpc:
    """Partial-fraction sum over the included poles, in stored order."""
    cfg = rat.cfg
    with mp.workdps(cfg.dps):
        z = mpc(z)
        if check_domain and cfg.rule is not None:
            if abs(z) > cfg.next_radius() / 2:
                raise TailError("z outside the certified domain of g")
        k, m, _, rel = nearest_zero(cfg, z)
        if rel < _near_zero_margin(cfg):
            raise NearPoleError(
                f"z within relative 10^-{cfg.dps // 2} of pole {(k, m)}"
            )
        return _g_sum(rat, z)


def _g_sum(rat: RationalInterpolant, z: mpc) -> mpc:
    """:func:`eval_g` without its guards, at the working precision."""
    total = mpc(0)
    for p, u in zip(rat.poles, rat.residues):
        total += u / (z - p)
    return total


def g_regular_at(rat: RationalInterpolant, index: int) -> tuple[mpc, mpc]:
    """(g_r(z_i), g_r'(z_i)) of the regular part g - u_i/(z - z_i) at its pole."""
    with mp.workdps(rat.cfg.dps):
        xi = rat.poles[index]
        val = mpc(0)
        der = mpc(0)
        for i, (p, u) in enumerate(zip(rat.poles, rat.residues)):
            if i == index:
                continue
            d = xi - p
            val += u / d
            der -= u / (d * d)
        return val, der


def recover_residue(rat: RationalInterpolant, index: int) -> mpc:
    """Independent residue recovery: (1/2pi i) of g around pole ``index``.

    The contour radius is a quarter of the distance to the nearest other
    pole, so the regular part integrates to zero, on 64 nodes, up to a
    spectrally small quadrature error.
    """
    with mp.workdps(rat.cfg.dps):
        xi = rat.poles[index]
        dist = min(
            (abs(xi - p) for i, p in enumerate(rat.poles) if i != index),
            default=abs(xi),
        )
        radius = dist / 4
        nodes = 64
        total = mpc(0)
        for j in range(nodes):
            w = mp.expjpi(2 * mpf(j) / nodes)
            total += _g_sum(rat, xi + radius * w) * w
        return total * radius / nodes


@dataclass(frozen=True)
class SummabilityReport:
    per_block: dict
    per_block_max: dict
    per_block_bound: dict
    included: mpf
    tail: mpf
    passed: bool

    @property
    def total(self) -> mpf:
        return self.included + self.tail


def check_summability(rat: RationalInterpolant) -> SummabilityReport:
    """Certificate report for sum |u_k / z_k|: included partial sums per
    block plus the analytic tail.  Passes when the total is finite and,
    in every block k, the largest |u| stays within the residue-ratio
    bound ``derivative_ratio_bound(cfg, k)``."""
    cfg = rat.cfg
    with mp.workdps(cfg.dps):
        per_block: dict = {}
        per_block_max: dict = {}
        for (k, _), p, u in zip(rat.pole_ids, rat.poles, rat.residues):
            per_block[k] = per_block.get(k, mpf(0)) + abs(u) / abs(p)
            per_block_max[k] = max(per_block_max.get(k, mpf(0)), abs(u))
        per_block_bound = {k: derivative_ratio_bound(cfg, k) for k in per_block_max}
        within = all(per_block_max[k] <= per_block_bound[k] for k in per_block_max)
        return SummabilityReport(
            per_block=per_block,
            per_block_max=per_block_max,
            per_block_bound=per_block_bound,
            included=rat.sum_included,
            tail=rat.tail_sum_bound,
            passed=bool(rat.sum_included + rat.tail_sum_bound < mpf("inf")) and within,
        )


def _log_plus(value) -> mpf:
    mag = abs(mpc(value))
    if mag <= 1:
        return mpf(0)
    return mp.log(mag)


def proximity_m(fn, r, avoid_moduli=None) -> mpf:
    """(1/2pi) integral of log+ |fn(r e^{i theta})| by node-doubling trapezoid rule.

    Starts at 32 nodes; converged when two successive estimates differ by
    less than 10^-6; raises QuadratureError (carrying the last two
    estimates) past 2^14 nodes.  ``avoid_moduli``: quadrature is refused
    within relative 10^-3 of a pole modulus, where log+ spikes void the rule.
    """
    with mp.extraprec(10):
        r = mpf(r)
        if avoid_moduli is not None:
            for m in avoid_moduli:
                m = mpf(m)
                if abs(r - m) < mpf("1e-3") * max(m, r):
                    raise QuadratureError(
                        f"radius {mp.nstr(r, 8)} within relative 1e-3 of pole modulus "
                        f"{mp.nstr(m, 8)}"
                    )
        cache: dict[Fraction, mpf] = {}

        def node_value(j: int, n: int) -> mpf:
            key = Fraction(j, n)
            if key not in cache:
                z = r * mp.expjpi(2 * mpf(key.numerator) / key.denominator)
                cache[key] = _log_plus(fn(z))
            return cache[key]

        abs_tol = mpf("1e-6")
        max_nodes = 1 << 14
        estimates = []
        n = 32
        while n <= max_nodes:
            total = mpf(0)
            for j in range(n):
                total += node_value(j, n)
            estimates.append(total / n)
            if len(estimates) >= 2 and abs(estimates[-1] - estimates[-2]) < abs_tol:
                return estimates[-1]
            n *= 2
        raise QuadratureError(
            f"proximity quadrature did not converge below {abs_tol} within "
            f"{max_nodes} nodes",
            estimates=estimates[-2:],
        )
