"""Residue data and the rational interpolation series.

From the product f we build the meromorphic function

    g(z) = sum_k u_k / (z - z_k),        u_k = -f''(z_k) / f'(z_k)^2,

with one simple pole at every zero of f.  The residues are produced by
factor extraction (never by numerically dividing near the zeros), and
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

from .errors import DivergenceError, NearPoleError, QuadratureError, TailError
from .product import (
    DEFAULT_DPS,
    LacunaryConfig,
    derivative_ratio_bound,
    derivs_at_zero,
    zero_point,
)


@dataclass(frozen=True)
class RationalInterpolant:
    """Pole/residue pairs plus the certificates attached to them.

    ``pole_ids`` holds (block, index) labels for configuration-derived
    poles, or (0, i) for raw lists.  ``tail_sum_bound`` bounds the
    uncomputed part of sum |u/z| (None when no certificate exists, 0 for
    finite explicit products).
    """

    poles: tuple[mpc, ...]
    residues: tuple[mpc, ...]
    pole_ids: tuple[tuple[int, int], ...]
    dps: int
    c_bound: mpf
    sum_included: mpf
    tail_sum_bound: mpf | None
    tail_residue_bound: mpf | None
    cfg: LacunaryConfig | None

    def pole_index(self, k: int, m: int) -> int:
        if self.cfg is None:
            raise ValueError("pole_index needs a config-derived interpolant")
        offset = 0
        for j, (_, n) in enumerate(self.cfg.blocks, start=1):
            if j == k:
                if not 0 <= m < n:
                    raise ValueError(f"index {m} outside block {k}")
                return offset + m
            offset += n
        raise ValueError(f"block {k} outside config")

    def with_residue(self, index: int, value) -> "RationalInterpolant":
        """Copy with one residue replaced (fault injection / diagnostics)."""
        residues = list(self.residues)
        residues[index] = mpc(value)
        return RationalInterpolant(
            poles=self.poles,
            residues=tuple(residues),
            pole_ids=self.pole_ids,
            dps=self.dps,
            c_bound=max(self.c_bound, abs(mpc(value))),
            sum_included=self.sum_included,
            tail_sum_bound=self.tail_sum_bound,
            tail_residue_bound=self.tail_residue_bound,
            cfg=self.cfg,
        )


def _schedule_tail_sums(cfg: LacunaryConfig) -> tuple[mpf, mpf]:
    """(residue bound for poles past K, bound on sum_{k>K} n_k / r_k).

    Radii at least double at each step and n <= r^rho + 1.5, so the
    harmonic block sum past K is dominated by a geometric series.
    """
    if cfg.rule is None:
        return mpf(0), mpf(0)
    rho = cfg.rho_f
    r_next = cfg.next_radius()
    geo = 1 / (1 - mp.power(2, rho - 1))
    harmonic = mp.power(r_next, rho - 1) * geo + 3 / r_next
    return derivative_ratio_bound(cfg, cfg.K + 1), harmonic


def config_interpolant(cfg: LacunaryConfig, poles, residues, pole_ids) -> RationalInterpolant:
    """Interpolant for the zeros of ``cfg`` with their residues, certified.

    C_bound and the included sum |u/z| run over the poles in the given
    order; the tail bounds come from the schedule.  ``residues_from_f``
    and the CLI's artifact loader both build their interpolant here, so
    residues read back from disk get the same certificates.
    """
    with mp.workdps(cfg.dps):
        c_bound = mpf(0)
        total = mpf(0)
        for p, u in zip(poles, residues):
            c_bound = max(c_bound, abs(u))
            total += abs(u) / abs(p)
        tail_residue, harmonic = _schedule_tail_sums(cfg)
        return RationalInterpolant(
            poles=tuple(poles),
            residues=tuple(residues),
            pole_ids=tuple(pole_ids),
            dps=cfg.dps,
            c_bound=c_bound,
            sum_included=total,
            tail_sum_bound=tail_residue * harmonic,
            tail_residue_bound=tail_residue,
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
                f1, f2 = derivs_at_zero(cfg, k, m, order=2)
                poles.append(zero_point(cfg, k, m))
                residues.append(-f2 / (f1 * f1))
                ids.append((k, m))
        return config_interpolant(cfg, poles, residues, ids)


def from_poles(pairs, dps: int | None = None) -> RationalInterpolant:
    """Raw (pole, residue) list; no analytic certificate attaches to it."""
    dps = dps or DEFAULT_DPS
    with mp.workdps(dps):
        poles = tuple(mpc(p) for p, _ in pairs)
        residues = tuple(mpc(u) for _, u in pairs)
        if any(p == 0 for p in poles):
            raise ValueError("poles must be nonzero")
        if len(set((str(p) for p in poles))) != len(poles):
            raise ValueError("poles must be distinct")
        return RationalInterpolant(
            poles=poles,
            residues=residues,
            pole_ids=tuple((0, i) for i in range(len(poles))),
            dps=dps,
            c_bound=max((abs(u) for u in residues), default=mpf(0)),
            sum_included=sum((abs(u) / abs(p) for p, u in zip(poles, residues)), mpf(0)),
            tail_sum_bound=None,
            tail_residue_bound=None,
            cfg=None,
        )


def g_tail_bound(rat: RationalInterpolant, radius) -> mpf:
    """Bound on the omitted pole contributions to g, valid for |z| <= r_{K+1}/2."""
    if rat.cfg is None or rat.cfg.rule is None:
        return mpf(0)
    with mp.workdps(rat.dps):
        radius = mpf(radius)
        r_next = rat.cfg.next_radius()
        if radius > r_next / 2:
            raise TailError("radius outside the certified domain |z| <= r_{K+1}/2")
        tail_residue, harmonic = _schedule_tail_sums(rat.cfg)
        return 2 * tail_residue * harmonic


def _nearest_pole(rat: RationalInterpolant, z: mpc) -> tuple[int, mpf]:
    best_i, best = 0, None
    for i, p in enumerate(rat.poles):
        d = abs(z - p)
        if best is None or d < best:
            best_i, best = i, d
    return best_i, best


def eval_g(rat: RationalInterpolant, z, check_domain: bool = True) -> mpc:
    """Partial-fraction sum over the included poles, in stored order."""
    with mp.workdps(rat.dps):
        z = mpc(z)
        if check_domain and rat.cfg is not None and rat.cfg.rule is not None:
            if abs(z) > rat.cfg.next_radius() / 2:
                raise TailError("z outside the certified domain of g")
        i, dist = _nearest_pole(rat, z)
        if dist < abs(rat.poles[i]) * mp.power(10, -mpf(rat.dps) / 2):
            raise NearPoleError(
                f"z within relative 10^-{rat.dps // 2} of pole {rat.pole_ids[i]}"
            )
        total = mpc(0)
        for p, u in zip(rat.poles, rat.residues):
            total += u / (z - p)
        return total


def eval_g_prime(rat: RationalInterpolant, z) -> mpc:
    """g'(z) = -sum u_k/(z - z_k)^2."""
    with mp.workdps(rat.dps):
        z = mpc(z)
        i, dist = _nearest_pole(rat, z)
        if dist < abs(rat.poles[i]) * mp.power(10, -mpf(rat.dps) / 2):
            raise NearPoleError("z too close to a pole for g'")
        total = mpc(0)
        for p, u in zip(rat.poles, rat.residues):
            d = z - p
            total -= u / (d * d)
        return total


def g_regular_at(rat: RationalInterpolant, index: int) -> tuple[mpc, mpc]:
    """(g_r(z_i), g_r'(z_i)) of the regular part g - u_i/(z - z_i) at its pole."""
    with mp.workdps(rat.dps):
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


def recover_residue(rat: RationalInterpolant, index: int, nodes: int = 64) -> mpc:
    """Independent residue recovery: (1/2pi i) of g around pole ``index``.

    The contour radius is a quarter of the distance to the nearest other
    pole, so the regular part integrates to zero up to a spectrally small
    quadrature error.
    """
    with mp.workdps(rat.dps):
        xi = rat.poles[index]
        dist = min(
            (abs(xi - p) for i, p in enumerate(rat.poles) if i != index),
            default=abs(xi),
        )
        radius = dist / 4
        total = mpc(0)
        for j in range(nodes):
            w = mp.expjpi(2 * mpf(j) / nodes)
            z = xi + radius * w
            gz = mpc(0)
            for p, u in zip(rat.poles, rat.residues):
                gz += u / (z - p)
            total += gz * w
        return total * radius / nodes


@dataclass(frozen=True)
class SummabilityReport:
    per_block: dict
    included: mpf
    tail: mpf | None
    passed: bool
    empirical_exponent: float | None

    @property
    def total(self) -> mpf:
        return self.included + (self.tail or mpf(0))


def check_summability(rat: RationalInterpolant) -> SummabilityReport:
    """Certificate report for sum |u_k / z_k|.

    Config-derived interpolants always certify: included partial sums
    plus the analytic tail.  Raw pole lists are screened by a counting
    estimate of the convergence exponent; density exponent >= 1 means no
    finite certificate can exist (harmonic-type divergence).
    """
    with mp.workdps(rat.dps):
        per_block: dict = {}
        for (k, _), p, u in zip(rat.pole_ids, rat.poles, rat.residues):
            per_block[k] = per_block.get(k, mpf(0)) + abs(u) / abs(p)
        if rat.cfg is not None:
            return SummabilityReport(
                per_block=per_block,
                included=rat.sum_included,
                tail=rat.tail_sum_bound,
                passed=bool((rat.sum_included + (rat.tail_sum_bound or 0)) < mpf("inf")),
                empirical_exponent=None,
            )
        moduli = sorted(abs(p) for p in rat.poles)
        n = len(moduli)
        exponent = None
        if n >= 16 and moduli[n // 2] > 0 and moduli[-1] > moduli[n // 2]:
            exponent = float(mp.log(2) / mp.log(moduli[-1] / moduli[n // 2]))
            if exponent >= 0.98:
                raise DivergenceError(
                    f"pole counting exponent ~{exponent:.3f} >= 1: "
                    "sum |u_k/z_k| admits no finite certificate"
                )
        return SummabilityReport(
            per_block=per_block,
            included=rat.sum_included,
            tail=None,
            passed=bool(rat.sum_included < mpf("inf")),
            empirical_exponent=exponent,
        )


def _log_plus(value) -> mpf:
    mag = abs(mpc(value))
    if mag <= 1:
        return mpf(0)
    return mp.log(mag)


def proximity_m(
    fn,
    r,
    abs_tol=mpf("1e-6"),
    start_nodes: int = 32,
    max_nodes: int = 1 << 14,
    avoid_moduli=None,
) -> mpf:
    """(1/2pi) integral of log+ |fn(r e^{i theta})| by node-doubling trapezoid rule.

    Converged when two successive estimates differ by less than
    ``abs_tol``; raises QuadratureError (carrying the last two estimates)
    at the node cap.  ``avoid_moduli``: quadrature is refused within
    relative 10^-3 of a pole modulus, where log+ spikes void the rule.
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

        estimates = []
        n = start_nodes
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
