"""Residue data and the rational interpolation series.

From the product f we build the meromorphic function

    g(z) = sum_k u_k / (z - z_k),        u_k = -f''(z_k) / f'(z_k)^2,

with one simple pole at every zero of f, so that A0 = f g is entire.
Every interpolant belongs to a configuration: its poles are the zeros of
that configuration's product, in block order.  The residues are produced
by factor extraction (never by numerically dividing near the zeros), one
block at a time, and the interpolant carries two certificates:

- summability: sum |u_k / z_k| over the included poles (also per block)
  plus an analytic tail bound derived from the residue-ratio bound at
  block K+1 and the geometric radius growth of the schedule;
- C_bound: max |u_k|, finite by construction.

g is summed block by block: blocks 1..K-1 directly, and the top block K
in closed form where that is certified.  Every residue of block K is one
function sampled at the roots of unity, u_m = U(omega^m): the closed form
of ``_block_residues`` at xi = r_K zeta,
U(zeta) = (n - 1 + 2 sum_{j<K} n_j s_j) / (n prod_{j<K} (1 - w_j)).
So the trapezoid aliasing formula (Trefethen & Weideman, SIAM Review
56, 2014) gives the block's part of g as C(z) = U(z/r_K) (n/z) w/(w - 1),
w = (z/r_K)^n, up to an error that the contour |zeta| = rho bounds for
r_(K-1)/r_K < rho < 1 (``_aliasing_bound``).  C replaces the direct sum
where that bound is below the rounding level the direct sum already
has: on the headline schedule, block 4 (4096 poles) away from the zeros
of blocks 1-3.  There block K's part of g comes from the config, not
from the stored residues.

``proximity_m`` is the (1/2pi) integral of log+ |fn| over a circle,
computed by node-doubling trapezoid quadrature (spectrally accurate for
the periodic integrand away from poles).  ``g_proximity`` gives m(r, g)
for an interpolant: the per-block sums bound |g| on |z| = r by
B(r) = sum_k r_k S_k (1 + 4 n_k eps)/|r - r_k|, and where B < 1 the
integrand vanishes and m is exactly 0 without a sample of g; elsewhere
it runs the quadrature.

Interpolants are immutable and evaluation is pure: quadrature nodes can
be evaluated concurrently, and sums run in stored pole order so results
are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpc, mpf

from .errors import NearPoleError, QuadratureError
from .product import (
    LacunaryConfig,
    _block_residues,
    _check_domain,
    _jet,
    _near_zero_guard,
    _schedule_tail,
    derivative_ratio_bound,
    zeros,
)


@dataclass(frozen=True)
class RationalInterpolant:
    """The zeros of ``cfg`` as poles, their residues, and certificates.

    The poles come in the config's block order, so pole (k, m) sits at
    ``pole_index(k, m)``.  ``tail_sum_bound`` bounds the uncomputed part
    of sum |u/z| (0 for finite explicit products); ``block_sums`` holds
    the included sum |u/z| of each block and ``block_max`` its largest
    |u|.  Build interpolants with ``residues_from_f`` or
    ``config_interpolant``.
    """

    poles: tuple[mpc, ...]
    residues: tuple[mpc, ...]
    c_bound: mpf
    sum_included: mpf
    block_sums: tuple[mpf, ...]
    block_max: tuple[mpf, ...]
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
        return config_interpolant(self.cfg, self.poles, residues)


def _schedule_tail_sum(cfg: LacunaryConfig) -> mpf:
    """Bound on sum_{k>K} |u/z| over the poles past K: the residue-ratio
    bound of block K+1 times the schedule's bound on sum_{k>K} n_k/r_k."""
    if cfg.rule is None:
        return mpf(0)
    return derivative_ratio_bound(cfg, cfg.K + 1) * _schedule_tail(cfg.rho_f, cfg.next_radius(), 1)


def config_interpolant(cfg: LacunaryConfig, poles, residues) -> RationalInterpolant:
    """Interpolant for the zeros of ``cfg``, in block order, with their
    residues, certified.

    One pass over the residues, block by block, forms the largest |u|
    per block (C_bound is their max) and the included sum |u/z|, in
    total and per block, with |z| = r_k for every pole of block k; the
    tail bound comes from the schedule.
    ``residues_from_f``, ``with_residue`` and the CLI's artifact loader
    all build their interpolant here, so every interpolant carries
    certificates for the residues it holds.
    """
    with mp.workdps(cfg.dps):
        total = mpf(0)
        block_sums = [mpf(0)] * cfg.K
        block_max = [mpf(0)] * cfg.K
        blocks = (j for j, (_, n) in enumerate(cfg.blocks) for _ in range(n))
        for j, u in zip(blocks, residues):
            size = abs(u)
            block_max[j] = max(block_max[j], size)
            term = size / cfg.blocks[j][0]
            total += term
            block_sums[j] += term
        return RationalInterpolant(
            poles=tuple(poles),
            residues=tuple(residues),
            c_bound=max(block_max),
            sum_included=total,
            block_sums=tuple(block_sums),
            block_max=tuple(block_max),
            tail_sum_bound=_schedule_tail_sum(cfg),
            cfg=cfg,
        )


def residues_from_f(cfg: LacunaryConfig) -> RationalInterpolant:
    """u = -f''/f'^2 at every zero up to level K, by factor extraction,
    one block at a time.

    Each block's zeros are formed once, and ``product._block_residues``
    takes every residue of the block from them in closed form, with the
    other blocks' real powers formed once per block.  This route shares
    its per-block kernel ``_block_terms`` (factor, cancellation screen,
    terms) with ``derivs_at_zero``, but not the derivatives themselves:
    the interpolation check compares the stored residues with the f' and
    f'' of ``derivs_at_zero``.
    """
    with mp.workdps(cfg.dps):
        poles = []
        residues = []
        for k in range(1, cfg.K + 1):
            block = zeros(cfg, k)
            poles += block
            residues += _block_residues(cfg, k, block)
        return config_interpolant(cfg, poles, residues)


def g_tail_bound(rat: RationalInterpolant, radius) -> mpf:
    """Bound on the omitted pole contributions to g on the certified domain
    of f, |z| < r_{K+1}/2 (TailError beyond)."""
    cfg = rat.cfg
    with mp.workdps(cfg.dps):
        _check_domain(cfg, mpc(radius))
        return 2 * rat.tail_sum_bound


def eval_g(rat: RationalInterpolant, z) -> mpc:
    """g(z) over the included poles: the direct sum, with the top block in
    closed form where certified (:func:`_g_sum`).  TailError outside
    the certified domain of f, where the omitted poles are not bounded;
    NearPoleError within 10^(-P/2) (relative) of a pole."""
    cfg = rat.cfg
    with mp.workdps(cfg.dps):
        z = mpc(z)
        _check_domain(cfg, z)
        _near_zero_guard(cfg, z, NearPoleError)
        return _g_sum(rat, z)


def _g_sum(rat: RationalInterpolant, z: mpc) -> mpc:
    """:func:`eval_g` without its guards, at the working precision: blocks
    1..K-1 by their direct sum, block K by its closed form where
    :func:`_top_block` takes it and by its direct sum elsewhere."""
    top = _top_block(rat, z)
    count = len(rat.poles) - (0 if top is None else rat.cfg.blocks[-1][1])
    total = mpc(0)
    for p, u in zip(rat.poles[:count], rat.residues[:count]):
        total += u / (z - p)
    return total if top is None else total + top


def _top_block(rat: RationalInterpolant, z: mpc) -> mpc | None:
    """Block K's part of g at z in closed form,

        C(z) = (n - 1 + 2 z L) (w/z) / ((w - 1) P),   w = (z/r_K)^n,

    with (P, L) = (f, f'/f) over blocks 1..K-1: U(z/r_K) (n/z) w/(w - 1)
    of the module docstring.  None where its aliasing bound is not below
    eps * sum_j U_j/(|z| + r_j), the rounding level of the direct sum, with
    U_j the block's sum |u| of :func:`_masses`.  w and w/z = (z/r_K)^(n-1)/r_K
    take the guard bits of ``product._jet``, so C(0) is the limit."""
    blocks = rat.cfg.blocks
    r, n = blocks[-1]
    P, L, _ = _jet(blocks[:-1], z, 1, False)
    with mp.extraprec(n.bit_length() + 20):
        zeta = z / r
        head = mp.power(zeta, n - 1)
        w = head * zeta
    closed = (n - 1 + 2 * z * L) * head / (r * (w - 1) * P)
    a = abs(z)
    target = mp.eps * mp.fsum(mass / (a + rj) for (rj, _), mass in zip(blocks, _masses(rat)))
    return closed if _aliasing_bound(blocks, a / r, abs(closed)) < target else None


def _masses(rat: RationalInterpolant) -> list[mpf]:
    """U_k = r_k S_k (1 + 4 n_k eps) per block: sum |u| over block k's
    poles, all of modulus r_k, from its certified sum S_k of |u/z|,
    raised by a rounding allowance for the n_k-term sum."""
    return [rj * s * (1 + 4 * nj * mp.eps) for (rj, nj), s in zip(rat.cfg.blocks, rat.block_sums)]


def _aliasing_bound(blocks, x, size) -> mpf:
    """Bound on |G_K - C| at |z| = x r_K, G_K the direct sum over block K
    and |C| = ``size``.  On the contour |zeta| = rho, r_(K-1)/r_K < rho < 1,

        |G_K - C| <= n rho^n M / (r_K (1 - rho^n) |x - rho|),

    plus |C| when x < rho (the pole of C at zeta = x then lies inside),
    where M = (n - 1 + 2 sum n_j a_j/(a_j - 1)) / (n prod (a_j - 1)) bounds
    |U| there, a_j = (rho r_K/r_j)^{n_j} > 1.  rho is 2 and 4 times
    r_(K-1)/r_K, and the smaller bound counts (inf when neither rho is
    below 1 and apart from x); for K = 1, U is constant and C exact."""
    (r, n), lower = blocks[-1], blocks[:-1]
    if not lower:
        return mpf(0)
    best = mpf("inf")
    for c in (2, 4):
        rho = c * lower[-1][0] / r
        if rho >= 1 or rho == x:
            continue
        powers = [(nj, mp.power(rho * r / rj, nj)) for rj, nj in lower]
        numerator = n - 1 + 2 * mp.fsum(nj * aj / (aj - 1) for nj, aj in powers)
        M = numerator / (n * mp.fprod(aj - 1 for _, aj in powers))
        rn = mp.power(rho, n)
        bound = n * rn * M / (r * (1 - rn) * abs(x - rho))
        best = min(best, bound + size if x < rho else bound)
    return best


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
        per_block = dict(enumerate(rat.block_sums, start=1))
        per_block_max = dict(enumerate(rat.block_max, start=1))
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
        abs_tol = mpf("1e-6")
        max_nodes = 1 << 14
        estimates = []
        # log+ at the nodes j/n of the turn, in angle order: each doubling
        # evaluates only the n/2 new odd-index nodes and interleaves them
        n, nodes, samples = 32, range(32), []
        while n <= max_nodes:
            fresh = [_log_plus(fn(r * mp.expjpi(2 * mpf(j) / n))) for j in nodes]
            samples = [v for pair in zip(samples, fresh) for v in pair] if samples else fresh
            total = mpf(0)
            for v in samples:
                total += v
            estimates.append(total / n)
            if len(estimates) >= 2 and abs(estimates[-1] - estimates[-2]) < abs_tol:
                return estimates[-1]
            n *= 2
            nodes = range(1, n, 2)
        raise QuadratureError(
            f"proximity quadrature did not converge below {abs_tol} within "
            f"{max_nodes} nodes",
            estimates=estimates[-2:],
        )


def g_proximity(rat: RationalInterpolant, r) -> tuple[mpf, mpf]:
    """(m(r, g), B(r)) on the circle |z| = r, B of :func:`_sup_bound`.

    TailError first, as in :func:`eval_g`.  Where B < 1, log+ |g|
    vanishes on the whole circle and m is exactly 0, with no sample of g;
    elsewhere m is :func:`proximity_m` of :func:`eval_g`, which refuses a
    radius near a pole modulus."""
    cfg = rat.cfg
    with mp.workdps(cfg.dps):
        _check_domain(cfg, mpc(r))
        bound = _sup_bound(rat, r)
    if bound < 1:
        return mpf(0), bound
    moduli = [rj for rj, _ in cfg.blocks]
    return proximity_m(lambda z: eval_g(rat, z), r, avoid_moduli=moduli), bound


def _sup_bound(rat: RationalInterpolant, r) -> mpf:
    """B(r) = sum_k U_k / |r - r_k| >= max |g| on |z| = r, with U_k the
    block masses of :func:`_masses`: every pole p of block k has modulus
    r_k, so |z - p| >= |r - r_k| there (inf on a pole circle)."""
    return mp.fsum(
        mass / abs(r - rj) if r != rj else mp.inf
        for (rj, _), mass in zip(rat.cfg.blocks, _masses(rat))
    )
