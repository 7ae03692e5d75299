"""Residue data and the rational interpolation series.

From the product f we build the meromorphic function

    g(z) = sum_k u_k / (z - z_k),        u_k = -f''(z_k) / f'(z_k)^2,

with one simple pole at every zero of f, so that A0 = f g is entire.
Every interpolant belongs to a configuration, which fixes its poles: the
zeros of that configuration's product.  The interpolant's fields are only
the residues, one tuple per block (residue (k, m) is ``residues[k - 1][m]``,
at the pole ``zero_point(cfg, k, m)``), and their certificates; whoever
needs a pole forms it from the config with ``zero_point`` or ``zeros``.

The residues are produced by factor extraction (never by numerically
dividing near the zeros), one block at a time, and the interpolant
carries two certificates:

- summability: sum |u_k / z_k| over the included poles (also per block)
  plus an analytic tail bound derived from the residue-ratio bound at
  block K+1 and the geometric radius growth of the schedule, with the
  verdict ``summable``; block K's part is M_K = |U(1)|, its largest |u|
  for U below, times n_K/r_K (``_top_bound``);
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

``proximity_m`` is the (1/2pi) integral of log+ |fn| over a circle by
the nested trapezoid rule of ``product._circle_levels`` (spectrally
accurate for the periodic integrand away from poles) at the nodes j/n of
the turn, n doubling from 32 up to 2^14, each node sampled once.
``g_proximity`` gives m(r, g) for an interpolant: the per-block sums
bound |g| on |z| = r by B(r) = sum_k r_k S_k (1 + 4 n_k eps)/|r - r_k|,
and where B < 1 the integrand vanishes and m is exactly 0 without a
sample of g; elsewhere it runs the quadrature.

Interpolants are immutable and evaluation is pure: quadrature nodes can
be evaluated concurrently, and sums run in the config's zero order so
results are deterministic.  A deferred block K (``_TopBlock``) is formed
once, by its first read, and so are the terms of g that depend on the
config alone (the zeros of the directly summed blocks, the block masses
and the aliasing bound's constants); concurrent first reads compute the
same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from mpmath import mp, mpc, mpf

from .errors import ConfigError, NearPoleError, QuadratureError
from .product import (
    LacunaryConfig,
    _block_residues,
    _check_domain,
    _circle_levels,
    _jet,
    _modulus_within,
    _near_zero_guard,
    _other_blocks,
    _schedule_tail,
    _square,
    derivative_ratio_bound,
    zeros,
)


@dataclass(frozen=True)
class RationalInterpolant:
    """Residues at the zeros of ``cfg``, and their certificates.

    ``residues`` holds one tuple per block, in block order: residue
    (k, m) is ``residues[k - 1][m]``, at the zero ``zero_point(cfg, k, m)``.
    Block K may be a :class:`_TopBlock` instead, formed on its first read.
    ``block_sums`` holds the included sum |u/z| of each block,
    ``block_max`` its largest |u|, and ``tail_sum_bound`` bounds the
    uncomputed part of sum |u/z| (0 for finite explicit products).
    Build with ``residues_from_f`` or ``config_interpolant``.
    """

    residues: tuple[tuple[mpc, ...], ...]
    sum_included: mpf
    block_sums: tuple[mpf, ...]
    block_max: tuple[mpf, ...]
    tail_sum_bound: mpf
    cfg: LacunaryConfig

    @property
    def c_bound(self) -> mpf:
        return max(self.block_max)

    # The config-only terms of g's kernel :func:`_g_sum`, formed once per
    # interpolant at the config's precision, which every caller runs at.

    @cached_property
    def _poles(self) -> tuple[tuple[mpc, ...], ...]:
        """The zeros of blocks 1..K-1, which g sums directly at every point."""
        return tuple(tuple(zeros(self.cfg, k)) for k in range(1, self.cfg.K))

    @cached_property
    def _top_poles(self) -> tuple[mpc, ...]:
        """The zeros of block K, formed at the first point where g sums
        that block directly."""
        return tuple(zeros(self.cfg, self.cfg.K))

    @cached_property
    def _masses(self) -> tuple[mpf, ...]:
        """U_k = r_k S_k (1 + 4 n_k eps) per block: sum |u| over block k's
        poles, all of modulus r_k, from its certified sum S_k of |u/z|,
        raised by a rounding allowance for the n_k-term sum."""
        with mp.workdps(self.cfg.dps):
            pairs = zip(self.cfg.blocks, self.block_sums)
            return tuple(rj * s * (1 + 4 * nj * mp.eps) for (rj, nj), s in pairs)

    @cached_property
    def _contours(self) -> tuple[tuple[mpf, mpf, mpf], ...] | None:
        """(rho, n rho^n M, r_K (1 - rho^n)) for each contour of
        :func:`_aliasing_bound` with rho < 1; None for K = 1."""
        (r, n), lower = self.cfg.blocks[-1], self.cfg.blocks[:-1]
        if not lower:
            return None
        contours = []
        with mp.workdps(self.cfg.dps):
            for c in (2, 4):
                rho = c * lower[-1][0] / r
                if rho < 1:
                    M = _closed_form_max(n, [(nj, mp.power(rho * r / rj, nj)) for rj, nj in lower])
                    rn = mp.power(rho, n)
                    contours.append((rho, n * rn * M, r * (1 - rn)))
        return tuple(contours)

    @property
    def residue_bounds(self) -> tuple[mpf, ...]:
        """``derivative_ratio_bound(cfg, k)`` of each block k: the bound
        that ``summable`` holds its largest |u| to."""
        return tuple(derivative_ratio_bound(self.cfg, k) for k in range(1, self.cfg.K + 1))

    @property
    def summable(self) -> bool:
        """The summability verdict: no :attr:`unsummable` reason."""
        return self.unsummable is None

    @property
    def unsummable(self) -> str | None:
        """Why the verdict fails, or None: sum |u/z| with its tail must be
        finite, every block's largest |u| within its residue bound, and
        block K's within M_K (1 + delta) of :func:`_top_bound`."""
        if not self.sum_included + self.tail_sum_bound < mpf("inf"):
            return "sum |u/z| is not finite"
        limits = [(k, b, "its residue bound") for k, b in enumerate(self.residue_bounds, 1)]
        for k, b, name in [*limits, (self.cfg.K, _top_bound(self.cfg)[1], "M_K (1 + delta)")]:
            top = self.block_max[k - 1]
            if not top <= b:
                return f"block {k}: largest |u| {mp.nstr(top, 8)} exceeds {name} {mp.nstr(b, 8)}"
        return None


def _schedule_tail_sum(cfg: LacunaryConfig) -> mpf:
    """Bound on sum_{k>K} |u/z| over the poles past K: the residue-ratio
    bound of block K+1 times the schedule's bound on sum_{k>K} n_k/r_k."""
    if cfg.rule is None:
        return mpf(0)
    return derivative_ratio_bound(cfg, cfg.K + 1) * _schedule_tail(cfg.rho_f, cfg.block(cfg.K + 1)[0], 1)


def config_interpolant(cfg: LacunaryConfig, residues) -> RationalInterpolant:
    """Interpolant for the zeros of ``cfg`` with their residues, one list
    per block in block order, certified.

    One pass over the residues, block by block, forms the largest |u|
    per block and the included sum |u/z|, in total and per block, with
    |z| = r_k for every pole of block k; the tail bound comes from the
    schedule.  Block K reports the closed form of :func:`_top_bound`, as
    :func:`residues_from_f` does, unless a held |u| exceeds M_K (1 + delta),
    tested exactly on squared moduli, or is no number.  The CLI's artifact
    loader builds its interpolant here, so it certifies the residues it
    holds.  ConfigError unless there is one list per block, of n_k
    residues for block k.
    """
    if len(residues) != cfg.K:
        raise ConfigError(f"{len(residues)} residue lists for {cfg.K} blocks")
    for k, ((_, n), block) in enumerate(zip(cfg.blocks, residues), start=1):
        if len(block) != n:
            raise ConfigError(f"block {k}: {len(block)} residues for its {n} zeros")
    return _certified(cfg, [tuple(block) for block in residues])


def _certified(cfg: LacunaryConfig, residues) -> RationalInterpolant:
    """:func:`config_interpolant`; a :class:`_TopBlock` takes block K's closed form unseen."""
    with mp.workdps(cfg.dps):
        M, limit = _top_bound(cfg)
        square = _square(limit)
        block_sums, block_max = [], []
        for k, ((r, n), block) in enumerate(zip(cfg.blocks, residues), start=1):
            unseen = isinstance(block, _TopBlock)
            # a NaN or infinite u fails the test and takes the pass below
            if k == cfg.K and (unseen or all(_modulus_within(u, square) for u in block)):
                top, block_sum = M, n * M / r
            else:
                # a running max from 0 skips a NaN |u|; the sum keeps it
                top = block_sum = mpf(0)
                for u in block:
                    size = abs(u)
                    top = max(top, size)
                    block_sum += size / r
            block_sums.append(block_sum)
            block_max.append(top)
        return RationalInterpolant(
            residues=tuple(residues),
            sum_included=mp.fsum(block_sums),
            block_sums=tuple(block_sums),
            block_max=tuple(block_max),
            tail_sum_bound=_schedule_tail_sum(cfg),
            cfg=cfg,
        )


def _top_bound(cfg: LacunaryConfig) -> tuple[mpf, mpf]:
    """(M_K, M_K (1 + delta)) at the config's precision: block K's largest
    |u| by :func:`_closed_form_max` at a_j = (r_K/r_j)^{n_j}, and the most
    a computed one may reach, delta = 64 K eps max_j (a_j/(a_j - 1))^2
    (derived in CHANGES.md)."""
    with mp.workdps(cfg.dps):
        powers = _other_blocks(cfg, cfg.K)
        q = max((a / (a - 1) for _, a in powers), default=mpf(1))
        M = _closed_form_max(cfg.blocks[-1][1], powers)
        return M, M * (1 + 64 * cfg.K * mp.eps * q * q)


@dataclass(frozen=True, eq=False)
class _TopBlock:
    """Block K's residues of ``cfg``, formed by ``_block_residues(cfg, K)``
    on the first read (index, iteration, len, == or hash) and kept; it
    compares and hashes as that tuple, so a deferred interpolant equals
    the formed one."""

    cfg: LacunaryConfig

    @cached_property
    def held(self) -> tuple[mpc, ...]:
        return tuple(_block_residues(self.cfg, self.cfg.K))

    def __getitem__(self, m):
        return self.held[m]

    def __len__(self) -> int:
        return len(self.held)

    def __eq__(self, other) -> bool:
        return self.held == other

    def __hash__(self) -> int:
        return hash(self.held)


def _top_deferred(cfg: LacunaryConfig) -> RationalInterpolant:
    """:func:`residues_from_f` with block K a :class:`_TopBlock`: a block K
    past the enumeration cap raises ConfigError on its first read."""
    with mp.workdps(cfg.dps):
        residues = [tuple(_block_residues(cfg, k)) for k in range(1, cfg.K)]
        return _certified(cfg, [*residues, _TopBlock(cfg)])


def residues_from_f(cfg: LacunaryConfig) -> RationalInterpolant:
    """u = -f''/f'^2 at every zero up to level K, by factor extraction,
    one block at a time, block K included (:func:`_top_deferred` leaves
    it to its first read); block K is certified by its closed form alone.

    ``product._block_residues`` forms each block from the unit roots,
    forming no zero; ``derivs_at_zero`` is the other route, which the
    interpolation check holds the stored residues against.
    """
    rat = _top_deferred(cfg)
    return replace(rat, residues=(*rat.residues[:-1], tuple(rat.residues[-1])))


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
        _near_zero_guard(cfg, z, NearPoleError, cfg.dps / 2)
        return _g_sum(rat, z, _jet(cfg.blocks[:-1], z, 1)[:2])


def _g_sum(rat: RationalInterpolant, z: mpc, head: tuple[mpc, mpc]) -> mpc:
    """:func:`eval_g` without its guards, at the working precision: blocks
    1..K-1 by their direct sum over the zeros of the config, block K by
    its closed form where :func:`_top_block` takes it, with ``head`` =
    (f, f'/f) over blocks 1..K-1 at z, and by its direct sum elsewhere."""
    top = _top_block(rat, z, head)
    poles = rat._poles if top is not None else (*rat._poles, rat._top_poles)
    total = mpc(0)
    for block_poles, block in zip(poles, rat.residues):
        for p, u in zip(block_poles, block, strict=True):
            total += u / (z - p)
    return total if top is None else total + top


def _top_block(rat: RationalInterpolant, z: mpc, head: tuple[mpc, mpc]) -> mpc | None:
    """Block K's part of g at z in closed form,

        C(z) = (n - 1 + 2 z L) (w/z) / ((w - 1) P),   w = (z/r_K)^n,

    with ``head`` = (P, L) = (f, f'/f) over blocks 1..K-1, which the caller's
    pass has formed (``coefficients._direct`` reads it from its pass over
    all K blocks): U(z/r_K) (n/z) w/(w - 1) of the module docstring.  None
    where its aliasing bound is not below eps * sum_j U_j/(|z| + r_j), the
    rounding level of the direct sum, with U_j the block's sum |u| of
    ``RationalInterpolant._masses``.  w and w/z = (z/r_K)^(n-1)/r_K take
    the guard bits of ``product._jet``, so C(0) is the limit.

    The bound adds |C| >= 0 to some contours' terms, and a rounded
    addition of it never lowers a term, so where no term of
    :func:`_contour_bounds` is below the target the answer is None
    before C is formed; each term is formed once either way."""
    blocks = rat.cfg.blocks
    r, n = blocks[-1]
    a = abs(z)
    target = mp.eps * mp.fsum(mass / (a + rj) for (rj, _), mass in zip(blocks, rat._masses))
    bounds = _contour_bounds(rat, a / r)
    if not any(bound < target for bound, _ in bounds):
        return None
    P, L = head
    with mp.extraprec(n.bit_length() + 20):
        zeta = z / r
        power = mp.power(zeta, n - 1)
        w = power * zeta
    closed = (n - 1 + 2 * z * L) * power / (r * (w - 1) * P)
    return closed if _aliasing_bound(bounds, abs(closed)) < target else None


def _contour_bounds(rat: RationalInterpolant, x) -> list[tuple[mpf, bool]]:
    """(bound, x < rho) per contour for :func:`_aliasing_bound` at
    |z| = x r_K.  On the contour |zeta| = rho, r_(K-1)/r_K < rho < 1,

        |G_K - C| <= n rho^n M / (r_K (1 - rho^n) |x - rho|),

    G_K the direct sum over block K, plus |C| when x < rho (the pole of C
    at zeta = x then lies inside), where M of :func:`_closed_form_max`
    bounds |U| there, with a_j = (rho r_K/r_j)^{n_j} > 1.  rho is 2 and 4
    times r_(K-1)/r_K; a rho that is not below 1 or equals x gives no
    term, and for K = 1, U is constant and C exact: one term 0.
    Everything but |x - rho| is the config's, formed once per interpolant
    (``RationalInterpolant._contours``)."""
    if rat._contours is None:
        return [(mpf(0), False)]
    return [
        (numerator / (denominator * abs(x - rho)), x < rho)
        for rho, numerator, denominator in rat._contours
        if rho != x
    ]


def _aliasing_bound(bounds, size) -> mpf:
    """Bound on |G_K - C| from the terms of :func:`_contour_bounds`, with
    |C| = ``size``: the smallest term, inf when there is none."""
    best = mpf("inf")
    for bound, inside in bounds:
        best = min(best, bound + size if inside else bound)
    return best


def _closed_form_max(n: int, powers) -> mpf:
    """M = (n - 1 + 2 sum n_j a_j/(a_j - 1)) / (n prod (a_j - 1)) >= |U| on
    a circle where block j's power has modulus a_j > 1, (n_j, a_j) in
    ``powers``: there |1 - w_j| >= a_j - 1 and |s_j| <= a_j/(a_j - 1)."""
    numerator = n - 1 + 2 * mp.fsum(nj * aj / (aj - 1) for nj, aj in powers)
    return numerator / (n * mp.fprod(aj - 1 for _, aj in powers))


def _log_plus(value) -> mpf:
    mag = abs(mpc(value))
    if mag <= 1:
        return mpf(0)
    return mp.log(mag)


def proximity_m(fn, r, avoid_moduli) -> mpf:
    """(1/2pi) integral of log+ |fn(r e^{i theta})| by node-doubling trapezoid rule.

    Starts at 32 nodes; converged when two successive differences of the
    estimates, over three levels, are both below 10^-6 (one difference can
    dip below it by chance: m(6, g) of the headline moves 2.6e-5 past
    128 nodes after a step below 10^-6 there); raises QuadratureError
    (carrying the last two estimates) at 2^14 nodes.  ``avoid_moduli``, fn's pole moduli: the
    quadrature is refused within relative 10^-3 of one, where log+ spikes void the rule.
    """
    with mp.extraprec(10):
        r = mpf(r)
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
        # log+ at the nodes j/n of the turn; the += sum in angle order fixes m's bits
        for n, vals in _circle_levels(
            lambda ws: [_log_plus(fn(r * w)) for w in ws], {}, max_nodes, 0, {}
        ):
            total = mpf(0)
            for _, v in vals:
                total += v
            estimates.append(total / n)
            last = zip(estimates[-3:], estimates[-2:])
            if len(estimates) >= 3 and all(abs(b - a) < abs_tol for a, b in last):
                return estimates[-1]
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
    block masses ``RationalInterpolant._masses``: every pole p of block k
    has modulus r_k, so |z - p| >= |r - r_k| there (inf on a pole circle)."""
    return mp.fsum(
        mass / abs(r - rj) if r != rj else mp.inf
        for (rj, _), mass in zip(rat.cfg.blocks, rat._masses)
    )
