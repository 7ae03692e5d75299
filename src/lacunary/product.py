"""The lacunary canonical product and its derivatives.

The central object is the entire function

    f(z) = prod_k (1 - (z/r_k)^{n_k}),

with zeros on sparse circles |z| = r_k at the scaled n_k-th roots of
unity, n_k ~ r_k^rho.  A :class:`LacunaryConfig` fixes the target order
``rho_f``, the block schedule (r_k, n_k), the truncation level K and the
working precision.  Rule-based schedules (``factorial``: r_k = 2^(k!),
``doubly_exp``: r_k = 2^(2^k)) treat the K listed blocks as a truncation
of the infinite product, with a certified tail bound on the disk
|z| < r_{K+1}/2; explicit block lists define f as the finite product.

At an arbitrary point ``eval_f``, ``eval_f_scan``, ``log_derivative``
and ``f_jet`` (f, f') wrap one pass over the blocks, ``_jet``, that
forms each power (z/r_k)^{n_k} once, with n_k.bit_length() + 20 guard
bits that absorb the n_k-fold growth of rounding errors, so block
exponents up to 2^60 and radii up to 2^5040 stay exact; an exact zero
stays ``mpc(0)``.  The one exception is a trailing run of blocks whose
powers, bounded from binary exponents alone, lie below 2^-(2 prec + 64):
where f and the sums already exceed what the run could add by more than
prec + 4 bits in every component, the run is not formed, since libmp's
correctly rounded additions would give back the same bits (on f'
contours around blocks 1..3 of factorial K=4 that is block 4, n = 4096).
It evaluates H too, as degree-1 blocks.  Every pass screens: the first
factor 1 - w that loses more than P-5 digits raises once the product is
finished, carrying that lossy f.  No guarded pass (below) reaches it:
10^(-P/2) from a zero of block k, |1 - w| is about n_k 10^(-P/2).  Its
factors take no square root but within a few ulps of |w| = 1 or inside
the screen's band (``_block_terms``), and ``coefficients`` reads the
product over blocks 1..K-1 from the state of the same loop (``_sweep``)
after block K-1 (``_f_jet_and_head``).  Like the residue pass below, it
runs on mpmath's raw libmp tuples, making the calls that the mpc
operators would make, in the same order (``abs(w)`` only where it can
move a bit), so it gives their bits; values enter and leave it as mpc.
Its powers are not ``mp.power``'s ``mpc_pow_int`` call but ``_pow_int``,
which takes its routes and forms the same exact Gaussian-integer power
with no square after the last multiply, so the bits are the same.  Its
1/x is ``mpc_reciprocal``, the bits of the ``mpc_mpf_div(fone, x)`` of
``1/x``: that call's product with 1 is exact, and round-to-nearest is
symmetric under sign.  The near-zero guard of ``f_jet``,
``log_derivative``, g (margin 10^(-P/2)) and B0 (10^(-P/4)) decides
radially first and calls ``nearest_zero`` only within twice its margin,
relative, of some circle |z| = r_k; ``nearest_zero`` visits blocks by
radial distance and stops where no further block can be nearer.
At the zeros, f' and f'' come from factor extraction: write f = q*P with
q the vanishing factor; P' comes from the logarithmic derivative of the
remaining (nonvanishing) product.  Two routes reach the zeros.
``derivs_at_zero`` serves one zero, in a block of any size, and returns
(f', f''): it runs the one-pass kernel over the other blocks at the
rounded zero.  ``_block_residues`` serves a whole block, capped like
``zeros`` at ENUMERABLE_BLOCK_LIMIT zeros, and returns only the residues
u = -f''/f'^2, in closed form: it forms the other blocks' real powers
once per block (``_other_blocks``), reads each root of unity from the
table of ``_unit_roots``, which ``zeros`` reads too and which gives the
bits of ``_unit_root``, the helper behind ``zero_point``, from libmp's
trig call directly, and forms each factor once per conjugate pair of
root indices (``_extracted_raw``), taking the partner as its exact
conjugate.  That pass runs on mpmath's raw libmp tuples, making the
calls that the mpc operators of the closed form would make, in the same
order, so it gives the same bits, but for operations whose result is
known exactly: a product with a power of two is an exponent shift, and
a product with 1 or a sum with 0 is not formed.  Only this module
imports ``mpmath.libmp``.  The routes share the cancellation screen of
``_block_terms`` and nothing else: the pass tests the screen's first
clause (``_lossy_modulus``) once per other block and sends one factor
of each of a block's conjugate pairs through ``_block_terms`` only
where it holds.  So the interpolation check, which holds the stored
residues against the f' and f'' of ``derivs_at_zero``, compares two
routes.
f has real Taylor coefficients, so zero and residue n_k - m are the
conjugates of zero and residue m: for index m > n_k/2 ``_unit_root``,
``_unit_roots`` and ``_block_residues`` take the exact conjugate.

Configs and zero sets are immutable, but for each config's memo
(``LacunaryConfig._memo_of``): f' on its disk circles and their windings,
its grid directions, blocks past K and multiplicities, whose concurrent
fills form the same bits; every evaluation is a pure function, so points
can be evaluated concurrently without locks.  Two loops fork on their own,
the trig calls of ``_unit_roots`` and the zeros of ``_block_residues``:
``_in_ranges`` runs their index ranges on every CPU, serially where it
cannot fork or where another thread is alive, with the same bits at any
CPU count.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass, field

from mpmath import mp, mpc, mpf
from mpmath.libmp import (
    fone, from_int, from_man_exp, fzero, mpc_abs, mpc_add, mpc_add_mpf, mpc_div, mpc_div_mpf,
    mpc_mpf_div, mpc_mul, mpc_mul_int, mpc_mul_mpf, mpc_pow_int, mpc_reciprocal, mpc_shift,
    mpc_sub, mpf_abs, mpf_add, mpf_cos_sin_pi, mpf_div, mpf_gt, mpf_le, mpf_lt, mpf_mul, mpf_neg,
    mpf_pow_int, mpf_shift, mpf_sub, prec_to_dps, round_ceiling, round_floor, round_nearest
)

from .errors import (
    CancellationError, ConfigError, NearPoleError, NearZeroError, PrecisionInsufficient, TailError,
    ZeroOnContourError
)

DEFAULT_DPS = 100
MIN_DPS = 30

SCHEDULE_RULES = ("factorial", "doubly_exp")

# Largest block that ``zeros`` and the residue pass enumerate; ``zero_point`` takes any.
ENUMERABLE_BLOCK_LIMIT = 1_000_000


@dataclass(frozen=True)
class SummabilityCertificate:
    """Partial sum and analytic tail bound for sum_k n_k / r_k^s at s = (1+rho)/2."""

    s: mpf
    partial: mpf
    tail: mpf

    @property
    def total(self) -> mpf:
        return self.partial + self.tail


@dataclass(frozen=True)
class LacunaryConfig:
    rho_f: mpf
    blocks: tuple[tuple[mpf, int], ...]
    dps: int
    rule: str | None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def K(self) -> int:
        return len(self.blocks)

    def _memo_of(self, kind: str, key, build, *args):
        """The config's memo of ``kind`` at ``key``: ``build(*args)``, formed at
        the config's precision on the first read; a race keeps one value."""
        try:
            return self._memo[kind][key]
        except KeyError:
            with mp.workdps(self.dps):
                value = build(*args)
            return self._memo.setdefault(kind, {}).setdefault(key, value)

    def _disk_samples(self, k: int) -> dict:
        """f' on block k's disk circle |z - r_k| = r_k/n_k, as ``_circle_levels`` keeps it."""
        return self._memo_of("disk", k, dict)

    def _grid(self) -> dict:
        """The directions of the f' circles' ``_circle_levels`` grid (cap
        ``MAX_NODES``, offset 1) at the working precision, grid index ->
        direction: every f' circle of the config's checks starts at the
        same 32-node level, so each direction is formed once."""
        return self._memo_of("grid", mp.prec, dict)

    def block(self, k: int) -> tuple[mpf, int]:
        """Block k (1-based); ConfigError for k < 1.  Rule-based schedules
        extend past K on demand: each such block is formed once, at the
        config's precision, in the memo kind ``"past_K"``."""
        if 1 <= k <= self.K:
            return self.blocks[k - 1]
        if self.rule is None:
            raise ConfigError(f"explicit config has no block {k} (K={self.K})")
        if k < 1:
            raise ConfigError(f"block index {k}: blocks are numbered from 1")
        return self._memo_of("past_K", k, _rule_block, self.rule, self.rho_f, k)

    def _multiplicity(self, n: int) -> mpf:
        """The multiplicity n as an mpf at the config's precision, converted
        once per config: the growth scans multiply by n_8 = 2^20160 at
        every radius."""
        return self._memo_of("multiplicity", n, mpf, n)


def _rule_radius(rule: str, k: int) -> mpf:
    """r_k = 2^(k!) or 2^(2^k), formed exactly from its exponent."""
    if rule == "factorial":
        return mp.ldexp(1, math.factorial(k))
    if rule == "doubly_exp":
        return mp.ldexp(1, 2**k)
    raise ConfigError(f"unknown schedule rule {rule!r}")


def _round_power(r, rho) -> int:
    """round(r^rho) computed with enough digits that the rounding is exact."""
    r, rho = mpf(r), mpf(rho)
    digits = int(rho * mp.log(r, 10)) + 25
    with mp.workdps(max(mp.dps, digits)):
        return int(mp.nint(mp.power(r, rho)))


def _rule_block(rule: str, rho, k: int) -> tuple[mpf, int]:
    r = _rule_radius(rule, k)
    return r, _round_power(r, rho)


def _schedule_tail(rho, r_next, s) -> mpf:
    """Bound on sum_{k>K} n_k r_k^-s past block K of a rule schedule, s > rho,
    r_next = r_{K+1}.

    Both rules at least double the radius at every step and keep
    n_k <= r_k^rho + 1.5, so the sum is at most two geometric series:
    r^(rho-s) / (1 - 2^(rho-s)) + 1.5 r^-s / (1 - 2^-s) at r = r_next.
    """
    geo = 1 / (1 - mp.power(2, rho - s))
    return mp.power(r_next, rho - s) * geo + mpf("1.5") * mp.power(r_next, -s) / (
        1 - mp.power(2, -s)
    )


def sigma_certificate(cfg: LacunaryConfig) -> SummabilityCertificate:
    """Convergence-exponent surrogate: bound sum_k n_k/r_k^s at s=(1+rho_f)/2,
    the tail past K by :func:`_schedule_tail`.  Explicit lists are
    finite products: zero tail.
    """
    with mp.workdps(cfg.dps):
        s = (1 + cfg.rho_f) / 2
        partial = mpf(0)
        for r, n in cfg.blocks:
            partial += mpf(n) * mp.power(r, -s)
        if cfg.rule is None:
            tail = mpf(0)
        else:
            tail = _schedule_tail(cfg.rho_f, cfg.block(cfg.K + 1)[0], s)
        return SummabilityCertificate(s=s, partial=partial, tail=tail)


def _validate_blocks(rho, blocks) -> None:
    if not blocks:
        raise ConfigError("config needs at least one block")
    prev_r = mpf(0)
    n_sum = 0
    for k, (r, n) in enumerate(blocks, start=1):
        if isinstance(r, bool) or not (0 < r < mp.inf):
            raise ConfigError(f"block {k}: radius must be a positive finite number, got {r}")
        if r <= prev_r:
            raise ConfigError(f"block {k}: radii must be strictly increasing")
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ConfigError(f"block {k}: multiplicity must be a positive integer, got {n!r}")
        target = _round_power(r, rho)
        if abs(n - target) > 1:
            raise ConfigError(
                f"block {k}: n={n} is not within 1 of round(r^rho)={target}"
            )
        if k >= 2 and 2 * n_sum > n:
            raise ConfigError(
                f"block {k}: schedule too dense, sum of earlier multiplicities "
                f"{n_sum} exceeds n_k/2 = {n}/2"
            )
        prev_r = r
        n_sum += n


def _rho(value, dps: int, name: str, bound: str) -> mpf:
    """The order ``name`` (rho_f, or H's rho_H) read at the config's
    precision, so that a string such as "0.45" keeps all of its digits,
    and a float through its shortest decimal form: 0.45 reads as "0.45",
    not as its binary value.  ConfigError unless it is a number, not a bool, in (0, bound)."""
    if dps < MIN_DPS:
        raise ConfigError(f"precision must be at least {MIN_DPS} digits, got {dps}")
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    with mp.workdps(dps):
        try:
            rho = mpf(repr(value) if isinstance(value, float) else value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name} must be a number: {exc}") from exc
    if not (0 < rho < mpf(bound)):
        raise ConfigError(f"{name} must lie in (0, {bound}), got {rho}")
    return rho


def make_schedule(rho_f, K: int, rule: str = "factorial", dps: int = DEFAULT_DPS) -> LacunaryConfig:
    """Build a rule-based config: factorial r_k = 2^(k!), doubly_exp r_k = 2^(2^k)."""
    rho = _rho(rho_f, dps, "rho_f", "1")
    if K < 1:
        raise ConfigError(f"K must be >= 1, got {K}")
    if rule not in SCHEDULE_RULES:
        raise ConfigError(f"rule must be one of {SCHEDULE_RULES}, got {rule!r}")
    with mp.workdps(dps):
        blocks = tuple(_rule_block(rule, rho, k) for k in range(1, K + 1))
        _validate_blocks(rho, blocks)
        return LacunaryConfig(rho_f=rho, blocks=blocks, dps=dps, rule=rule)


def config_from_blocks(blocks, rho_f=mpf("0.5"), dps: int = DEFAULT_DPS) -> LacunaryConfig:
    """Explicit block list [(r_1, n_1), ...]; defines f as the finite product."""
    rho = _rho(rho_f, dps, "rho_f", "1")
    with mp.workdps(dps):
        try:
            # a JSON true stays a bool, which _validate_blocks refuses as it does inf
            blks = tuple((r if isinstance(r, bool) else mpf(r), n) for r, n in blocks)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"blocks must be a list of [r, n] pairs: {exc}") from exc
        _validate_blocks(rho, blks)
        return LacunaryConfig(rho_f=rho, blocks=blks, dps=dps, rule=None)


def _integer(value, key: str) -> int:
    """``value`` if it is an int: a JSON 4.5, true or Infinity is no count."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


# The keys of the JSON config schema.  rho_H, the order of the perturbation
# H, is no field of the config: ``coefficients.build_H`` reads it, as
# ``_rho`` reads rho_f.  An explicit config sets blocks, never rule or K.
CONFIG_KEYS = ("rho_f", "precision_digits", "rho_H", "rule", "K", "blocks")


def config_from_dict(d: dict) -> LacunaryConfig:
    """Parse the JSON config schema; ConfigError names any key outside it.

    Rule-based: {"rho_f": 0.5, "rule": "factorial", "K": 4, "precision_digits": 100}
    Explicit:   {"blocks": [[4, 2], [16, 4]], "rho_f": 0.5, "precision_digits": 100}
    """
    if not isinstance(d, dict):
        raise ConfigError("config must be a JSON object")
    unknown = [key for key in d if key not in CONFIG_KEYS]
    if unknown:
        raise ConfigError(f"unknown config key {', '.join(map(repr, unknown))}")
    clash = [key for key in ("rule", "K") if "blocks" in d and key in d]
    if clash:
        raise ConfigError(f"config key {', '.join(map(repr, clash))} cannot go with 'blocks'")
    try:
        dps = _integer(d.get("precision_digits", DEFAULT_DPS), "precision_digits")
        rule, K = (None, None) if "blocks" in d else (d["rule"], _integer(d["K"], "K"))
    except KeyError as exc:
        raise ConfigError(f"config missing required key {exc}") from exc
    rho = d.get("rho_f", "0.5")
    if "blocks" in d:
        return config_from_blocks(d["blocks"], rho_f=rho, dps=dps)
    return make_schedule(rho, K, rule=rule, dps=dps)


def config_to_dict(cfg: LacunaryConfig) -> dict:
    """The JSON config schema; every number reads back to the same value at
    the config's precision, which dps + 3 digits ensure.  rho_f is the
    float (0.5, 0.45) when that already does."""
    rho = float(cfg.rho_f)
    with mp.workdps(cfg.dps):
        if mpf(str(rho)) != cfg.rho_f:
            rho = mp.nstr(cfg.rho_f, cfg.dps + 3)
    if cfg.rule is not None:
        return {"rho_f": rho, "rule": cfg.rule, "K": cfg.K, "precision_digits": cfg.dps}
    return {
        "rho_f": rho,
        "blocks": [[mp.nstr(r, cfg.dps + 3), n] for r, n in cfg.blocks],
        "precision_digits": cfg.dps,
    }


# ---------------------------------------------------------------------------
# evaluation


def f_tail_log_bound(cfg: LacunaryConfig, radius) -> mpf:
    """ln of the truncation tail bound: sum_{k>K} |z/r_k|^{n_k} <= 2|z/r_{K+1}|^{n_{K+1}}.

    Valid for |z| < r_{K+1}/2.  Explicit configs are exact: returns -inf.
    """
    if cfg.rule is None:
        return mpf("-inf")
    with mp.workdps(cfg.dps):
        r_next, n_next = cfg.block(cfg.K + 1)
        radius = mpf(radius)
        _check_domain(cfg, mpc(radius))
        if radius == 0:
            return mpf("-inf")
        return mp.log(2) + mpf(n_next) * (mp.log(radius) - mp.log(r_next))


def _check_domain(cfg: LacunaryConfig, z: mpc) -> None:
    """TailError unless |z| < r_{K+1}/2, the certified domain that f, its
    tail bound, g and g's tail bound share (explicit configs: everywhere)."""
    if cfg.rule is None:
        return
    r_next = cfg.block(cfg.K + 1)[0]
    if abs(z) >= r_next / 2:
        raise TailError(
            f"|z| = {mp.nstr(abs(z), 8)} >= r_{{K+1}}/2 = {mp.nstr(r_next / 2, 8)}: "
            "truncation tail not certifiable here"
        )


# For w = (z/r)^n the term in f'/f is T = (n/z) * w/(w-1); differentiating,
#   T'  = -(n/z^2) (s + n t)
# with s = w/(w-1), t = w/(w-1)^2.
#
# The kernels below run on mpmath's raw libmp tuples: they make the libmp
# calls that the mpc operators of the same formulas make, in the same
# order, at the working precision and round-nearest, so every bit is the
# same without an mpc object per step.  Values cross the module boundary
# as mpc.
_ONE = (fone, fzero)
_ZERO = (fzero, fzero)
_MINUS_ONE = from_int(-1)
_RND = round_nearest


def _lossy_modulus(a: tuple, lossy: tuple, prec: int) -> bool:
    """The cancellation screen's first clause for a power of modulus a:
    |1 - a| < max(1, a) ``lossy``.  |1 - w| >= |1 - a| for every w with
    |w| = a, so where it fails no such factor 1 - w is lossy, and the
    screen needs no complex abs."""
    return mpf_lt(mpf_abs(mpf_sub(fone, a, prec, _RND)), _scaled(a, lossy, prec))


def _scaled(a: tuple, lossy: tuple, prec: int) -> tuple:
    """max(1, a) ``lossy``, the screen's threshold."""
    return mpf_mul(a, lossy, prec, _RND) if mpf_gt(a, fone) else lossy


def _square(limit: mpf) -> tuple:
    """limit^2 exactly, the bound that :func:`_modulus_within` takes."""
    return mpf_mul(limit._mpf_, limit._mpf_)


def _modulus_within(u, square: tuple) -> bool:
    """|u| <= limit for an mpc or mpf u, decided exactly as
    re^2 + im^2 <= limit^2 = ``square`` (:func:`_square`) with no square
    root; NaN and inf fail.

    The exact sum would span the gap between the exponents of the squares
    (gigabytes for a part like 2^-(2^34)), so the sum is bracketed at 64
    bits; only inside the bracket, where the larger square lies within a
    factor 2 of ``square``, is the test exact: smaller <= square - larger."""
    x, y = u._mpc_ if hasattr(u, "_mpc_") else (u._mpf_, fzero)
    x, y = mpf_mul(x, x), mpf_mul(y, y)
    if mpf_le(mpf_add(x, y, 64, round_ceiling), square):
        return True
    if not mpf_le(mpf_add(x, y, 64, round_floor), square):
        return False
    small, large = (x, y) if mpf_le(x, y) else (y, x)
    return mpf_le(small, mpf_sub(square, large))


# the values of _bands by prec, once per process, not in a config's memo:
# _sweep also runs H's blocks, which have no config; a build takes ~20 us
_BANDS: dict = {}


def _bands(prec: int) -> tuple:
    """(lossy, low, high, near) for :func:`_block_terms` at ``prec``, P its
    mp.dps: lossy = 10^(5-P), (low, high) = 1 -+ 4 lossy, near =
    1 + 2^(4-prec), kept in ``_BANDS``, a dict, not a ``functools.cache``:
    a cache hit never enters the def, hiding it from a profiler that
    records the defs a run enters once an earlier run filled the cache."""
    if prec not in _BANDS:
        lossy = mpf_pow_int(from_int(10), 5 - prec_to_dps(prec), prec, _RND)
        margin = mpf_shift(lossy, 2)
        low, high = mpf_sub(fone, margin, prec, _RND), mpf_add(fone, margin, prec, _RND)
        _BANDS[prec] = lossy, low, high, mpf_add(fone, mpf_shift(fone, 4 - prec), prec, _RND)
    return _BANDS[prec]


def _block_terms(w: tuple, terms: int, bands: tuple, prec: int) -> tuple:
    """(1 - w, s, t) for one block's power w: its factor of f and its first
    ``terms`` terms in the log-derivative sums (the rest None), with
    ``bands`` from :func:`_bands`.

    The screen: a factor below ``lossy`` = 10^(5-P) times max(1, a),
    a = |w| = ``mpc_abs(w)`` (more than P-5 digits lost), raises
    CancellationError carrying it; an exact zero is kept.  When
    a > 1 the terms go through v = 1/w so that huge powers never meet
    subtraction head-on.

    No factor takes a square root but near |w| = 1: the exact
    q = |w|^2 = re^2 + im^2 (``mpf_mul`` and ``mpf_add`` with no rounding)
    stands in for a, which ``mpc_abs`` rounds from sqrt(round(q, prec + 4))
    to ``prec`` bits.

    - q <= 1 gives a <= 1, and q >= near = 1 + 2^(4-prec) gives
      a >= 1 + 2^(2-prec) > 1 after both roundings; only for q between
      them, within a few ulps of 1, does the rounded a decide a > 1.
    - The screen's first clause, |1 - a| < max(1, a) L with L = ``lossy``
      (:func:`_lossy_modulus`), rounds |1 - a| exactly near 1 and
      max(1, a) L within 2^-prec, and a lies within 2^(1-prec) a of
      sqrt(q), far below L (L >= 10^5 10^-P, 2^-prec < 10^-P).  So where
      it holds, |1 - sqrt(q)| < 1.001 L max(1, sqrt(q)): below 1,
      q > (1 - 1.001 L)^2 > 1 - 2.1 L; above 1, q < (1 - 1.001 L)^-2
      < 1 + 2.1 L (L <= 10^-25 at P >= 30).  Outside low < q < high,
      1 -+ 4 L, the clause fails and no factor is lossy; inside, a is
      formed and the clause and the test run on it.
    """
    factor = mpc_sub(_ONE, w, prec, _RND)
    lossy, low, high, near = bands
    x, y = w
    q = mpf_add(mpf_mul(x, x), mpf_mul(y, y))
    a = None
    if factor != _ZERO and mpf_lt(low, q) and mpf_lt(q, high):
        a = mpc_abs(w, prec, _RND)
        limit = _lossy_modulus(a, lossy, prec) and _scaled(a, lossy, prec)
        if limit and mpf_lt(mpc_abs(factor, prec, _RND), limit):
            result = mp.make_mpc(factor)
            digits_lost = float(mp.log(max(1, mp.make_mpf(a)) / abs(result), 10))
            message = f"factor cancelled {digits_lost:.1f} of {mp.dps} digits"
            raise CancellationError(message, result=result, digits_lost=digits_lost)
    if not terms:
        return factor, None, None
    if mpf_gt(q, fone) and (
        not mpf_lt(q, near) or mpf_gt(a if a is not None else mpc_abs(w, prec, _RND), fone)
    ):
        v = mpc_reciprocal(w, prec, _RND)
        inv = mpc_reciprocal(mpc_sub(_ONE, v, prec, _RND), prec, _RND)
        s = inv
    else:
        v, inv = w, mpc_mpf_div(_MINUS_ONE, factor, prec, _RND)
        s = mpc_mul(w, inv, prec, _RND)
    t = mpc_mul(mpc_mul(v, inv, prec, _RND), inv, prec, _RND) if terms == 2 else None
    return factor, s, t


def _negligible_tail(blocks, zt: tuple, prec: int) -> tuple[int, int]:
    """(i, e): ``blocks[i:]`` is the longest trailing run whose powers at z
    are each below 2^-(2 prec + 64), and 2^e bounds what any block of the
    run could add to a component of the f'/f or (f'/f)' sum, or to a
    component of f relative to 2^(bits of |f|).  With no such run,
    (len(blocks), 0).

    Integer arithmetic on binary exponents, forming no power: |z| is below
    2^(m + 1/2) for m the larger bit size of its components and |r| at
    least 2^(bits of r - 1), so (z/r)^n as formed, guard bits and all, is
    below 2^b with b = n (m - bits of r + 2) + 1.  Such a power w makes
    the factor 1 - w round to (1, -Im w), |s| < 2^(b+2), |t| < 2^(b+3),
    and the sums' increments n s and n (s + n t) stay below
    2^(b + 2 bit_length(n) + 6)."""
    if not all(x[1] or x == fzero for x in zt) or zt == _ZERO:
        return len(blocks), 0
    m = max(x[2] + x[3] for x in zt if x[1])
    run = []
    for r, n in reversed(blocks):
        b = n * (m - r._mpf_[2] - r._mpf_[3] + 2) + 1
        if b > -(2 * prec + 64):
            break
        run.append(b + 2 * n.bit_length() + 6)
    return len(blocks) - len(run), max(run, default=0)


def _absorbs(x: tuple, above: int, prec: int) -> bool:
    """Each component of the raw mpc x is nonzero and more than prec + 4
    bits above 2^above, so that adding anything smaller to it, correctly
    rounded at ``prec``, gives it back bit for bit."""
    return all(c[1] and c[2] + c[3] - 1 > above + prec + 4 for c in x)


def _pow_int(x: tuple, n: int, prec: int) -> tuple:
    """``mpc_pow_int(x, n, prec)`` round-nearest, bit for bit, with less
    work on its exact route.

    Where neither part of x is zero (or not finite), n >= 3 and
    n (|de| + max bc) < 10000, de the parts' exponent difference and bc
    their bit sizes, ``mpc_pow_int`` forms the Gaussian integer
    (a + bi)^n exactly, then rounds each part once with ``from_man_exp``.
    Its ``complex_int_pow`` squares the base once more after its last
    multiply, on the largest operands of the loop.  Here the same integer
    comes from squarings by (a + b)(a - b) and 2ab, the first multiply a
    copy of the base and no square after the last one, and is rounded by
    the same calls.  Every other route (n < 3, x on an axis, and the
    log/exp route past that size) is ``mpc_pow_int``'s own."""
    (asign, a, aexp, abc), (bsign, b, bexp, bbc) = x
    de = aexp - bexp
    if n < 3 or not a or not b or n * (abs(de) + max(abc, bbc)) >= 10000:
        return mpc_pow_int(x, n, prec, _RND)
    if asign:
        a = -a
    if bsign:
        b = -b
    if de > 0:
        a <<= de
    else:
        b <<= -de
    exp = n * min(aexp, bexp)
    re = None
    while True:
        if n & 1:
            re, im = (a, b) if re is None else (re * a - im * b, im * a + re * b)
        n >>= 1
        if not n:
            return from_man_exp(re, exp, prec, _RND), from_man_exp(im, exp, prec, _RND)
        a, b = (a + b) * (a - b), 2 * a * b


def _jet(blocks, z: mpc, order: int) -> tuple[mpc, mpc, mpc]:
    """(f, f'/f, (f'/f)') over ``blocks`` in one pass, the sums up to ``order``.

    Each power (z/r_k)^{n_k} is formed with n_k.bit_length() + 20 guard
    bits, as ``mp.power`` forms it, so the rounding of z/r_k, amplified
    n_k-fold by the power, stays below the working precision; at n_k = 1
    nothing grows, and the power is the quotient z/r_k (H's factor
    1 + z/a is the block (-a, 1)).  The factors and terms come from
    :func:`_block_terms`, which takes no square root but within a few
    ulps of |w| = 1 or inside the cancellation screen's band.  Every pass
    screens: a lossy factor is kept, and the first one raises once the
    product is finished, carrying that lossy f.  At z = 0 the sums are
    their termwise limits (n = 1, n <= 2 blocks).

    The trailing run of :func:`_negligible_tail`, whose powers lie below
    2^-(2 prec + 64), is left out when, after the blocks before it, every
    component of f and of each sum that ``order`` asks for is nonzero and
    more than prec + 4 bits above what one block of the run could add
    (:func:`_absorbs`).  ``mpf_add`` and ``mpf_sub`` round correctly and
    ``mpc_mul`` forms exact products before it rounds, so each of those
    blocks would give back f and the sums bit for bit, and cannot raise.
    Otherwise (f still exactly 1, a component exactly 0 on the real axis
    or at an exact zero, a CancellationError pending) the run goes
    through the same loop as every other block.
    """
    zt = z._mpc_
    *_, state = _sweep(blocks, zt, order if zt != _ZERO else 0, mp.prec)
    return _finish(blocks, zt, order, state)


def _sweep(blocks, zt: tuple, terms: int, prec: int):
    """The product loop of :func:`_jet` at the raw point zt: yields the raw
    (f, l1, l2) before the first block and after each block it forms, l1
    and l2 the sums before :func:`_finish` divides them by z and z^2.  It
    raises the first CancellationError once f is finished; past that
    factor it forms f alone, a later lossy one entering as the 1 - w its
    error carries.  A pass that leaves out the trailing run yields its
    state at the break, which the run would give back bit for bit."""
    bands = _bands(prec)
    error = None
    f, l1, l2 = _ONE, _ZERO, _ZERO
    yield f, l1, l2
    tail, above = _negligible_tail(blocks, zt, prec)
    for i, (r, n) in enumerate(blocks):
        if i == tail and error is None:
            scales = (max(x[2] + x[3] for x in f) + 1 + above, above, above)
            if all(_absorbs(x, e, prec) for x, e in zip((f, l1, l2)[: terms + 1], scales)):
                break
        if n == 1:
            w = mpc_div_mpf(zt, r._mpf_, prec, _RND)
        else:
            wprec = prec + n.bit_length() + 20
            w = _pow_int(mpc_div_mpf(zt, r._mpf_, wprec, _RND), n, wprec)
        try:
            factor, s, t = _block_terms(w, terms, bands, prec)
        except CancellationError as exc:
            error, terms, factor = error or exc, 0, exc.result._mpc_
        f = mpc_mul(f, factor, prec, _RND)
        if terms:
            l1 = mpc_add(l1, mpc_mul_int(s, n, prec, _RND), prec, _RND)
            if terms == 2:
                t = mpc_add(s, mpc_mul_int(t, n, prec, _RND), prec, _RND)
                l2 = mpc_sub(l2, mpc_mul_int(t, n, prec, _RND), prec, _RND)
        yield f, l1, l2
    if error is not None:
        error.result = mp.make_mpc(f)
        raise error


def _finish(blocks, zt: tuple, order: int, state: tuple) -> tuple[mpc, mpc, mpc]:
    """(f, f'/f, (f'/f)') from a raw state of :func:`_sweep` over ``blocks``:
    the sums up to ``order`` divided by z and z^2, or at z = 0 their
    termwise limits."""
    f, l1, l2 = state
    if order and zt != _ZERO:
        prec = mp.prec
        l1 = mpc_div(l1, zt, prec, _RND)
        if order == 2:
            l2 = mpc_div(l2, mpc_mul(zt, zt, prec, _RND), prec, _RND)
    elif order:
        l1 = mpc(sum(-1 / r for r, n in blocks if n == 1))
        l2 = mpc(sum(-mpf(n) / (r * r) for r, n in blocks if n <= 2))
        return mp.make_mpc(f), l1, l2
    return mp.make_mpc(f), mp.make_mpc(l1), mp.make_mpc(l2)


def eval_f(cfg: LacunaryConfig, z) -> mpc:
    """f(z) as the product of the factors 1 - (z/r_k)^{n_k}.

    Rule-based configs are truncations: the omitted factors are bounded by
    :func:`f_tail_log_bound`, certified on |z| < r_{K+1}/2 (TailError
    beyond).  A factor cancelled near a zero raises CancellationError,
    which carries the lossy value.
    """
    with mp.workdps(cfg.dps):
        z = mpc(z)
        _check_domain(cfg, z)
        return _jet(cfg.blocks, z, 0)[0]


def _scan_blocks(cfg: LacunaryConfig, radius) -> list[tuple[mpf, int]]:
    """The blocks ``eval_f_scan`` takes on |z| = radius: rule-based schedules
    are extended past K until the omitted factors are below 10^-40."""
    with mp.workdps(cfg.dps):
        blocks = list(cfg.blocks)
        if cfg.rule is not None and radius != 0:
            # ln|z/r|^n of the last block taken
            log_abs = mp.log(radius)
            threshold = -mpf(40) * mp.log(10)
            while (
                cfg._multiplicity(blocks[-1][1]) * (log_abs - mp.log(blocks[-1][0]))
                >= threshold
            ):
                blocks.append(cfg.block(len(blocks) + 1))
        return blocks


def eval_f_scan(cfg: LacunaryConfig, z) -> mpc:
    """f(z) for growth scans over :func:`_scan_blocks`: no domain restriction."""
    with mp.workdps(cfg.dps):
        z = mpc(z)
        return _jet(_scan_blocks(cfg, abs(z)), z, 0)[0]


# ---------------------------------------------------------------------------
# zeros


def zero_count(cfg: LacunaryConfig) -> int:
    return sum(n for _, n in cfg.blocks)


def _listed_block(cfg: LacunaryConfig, k: int) -> tuple[mpf, int]:
    """(r_k, n_k) of block k; ConfigError unless 1 <= k <= K."""
    if not 1 <= k <= cfg.K:
        raise ConfigError(f"block index {k} outside 1..{cfg.K}")
    return cfg.blocks[k - 1]


def _check_enumerable(cfg: LacunaryConfig, k: int) -> int:
    """n_k, for the two functions that enumerate block k, :func:`zeros` and
    :func:`_block_residues`: ConfigError past ENUMERABLE_BLOCK_LIMIT."""
    n = _listed_block(cfg, k)[1]
    if n > ENUMERABLE_BLOCK_LIMIT:
        raise ConfigError(f"block {k} has {n} zeros; enumeration capped at {ENUMERABLE_BLOCK_LIMIT}")
    return n


# Fewest indices in one range of _in_ranges.  A fork with its pipe, the
# pickling of its list and its waitpid cost 1.4-1.9 ms per worker in a
# 25-35 MB process; the cheapest index of the split loops, one trig call of
# _unit_roots at 100 digits, costs 20-27 us.  256 of them take at least
# 5 ms, three round trips; 64 would take no more than one.
_RANGE_MIN = 256


def _in_ranges(start: int, stop: int, run) -> list:
    """``run(start, stop)``, a list of one value per index, computed on
    every CPU of the affinity mask in contiguous ranges of at least
    ``_RANGE_MIN`` indices and joined in index order.  This process runs
    the first range, a forked worker each later one, and ``run`` gives an
    index the same value in any range, so the list does not depend on the
    CPU count.  Serial where ``os.fork`` is missing, where another thread
    is alive (a fork copies only the calling thread) or below two ranges.
    A worker's exception is raised here with its type, args and
    attributes; on any failure every worker left is killed and reaped."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    count = min(cpus, (stop - start) // _RANGE_MIN)
    if count < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return run(start, stop)
    bounds = [start + (stop - start) * i // count for i in range(count + 1)]
    workers = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            workers.append(_fork(run, lo, hi))
        values = run(bounds[0], bounds[1])
        for worker in list(workers):
            pid, pipe = worker
            with pipe:
                data = pipe.read()
            os.waitpid(pid, 0)
            workers.remove(worker)
            if not data:
                raise ChildProcessError(f"worker {pid} ended with no result")
            done, result = pickle.loads(data)
            if not done:
                kind, args, state = result
                error = kind.__new__(kind, *args)
                error.args = args
                error.__dict__.update(state)
                raise error
            values += result
        return values
    finally:
        for pid, pipe in workers:
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)


def _fork(run, lo: int, hi: int) -> tuple:
    """(pid, read end of its pipe) of a worker that writes the pickled
    ``(True, run(lo, hi))``, or ``(False, (type, args, attributes))`` of
    its exception, and ends with ``os._exit``."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        try:
            os.close(read)
            try:
                data = pickle.dumps((True, run(lo, hi)), pickle.HIGHEST_PROTOCOL)
            except BaseException as exc:
                try:
                    data = pickle.dumps((False, (type(exc), exc.args, vars(exc))))
                except Exception:
                    data = pickle.dumps((False, (RuntimeError, (repr(exc),), {})))
            with os.fdopen(write, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)
    os.close(write)
    return pid, os.fdopen(read, "rb")


def _unit_root(m: int, n: int) -> mpc:
    """omega^m with omega = exp(2 pi i / n), at the working precision; for
    m > n/2 the exact conjugate of omega^(n - m)."""
    if m == 0:
        return mpc(1)
    if 2 * m > n:
        return mp.conj(_unit_root(n - m, n))
    return mp.expjpi(2 * mpf(m) / n)


def _conjugate(z: tuple) -> tuple:
    """The exact conjugate of a raw z already rounded at the working
    precision: ``mpc_conjugate``'s bits with no rounding call."""
    x, y = z
    return x, mpf_neg(y)


def _unit_roots(n: int, prec: int) -> list[tuple]:
    """omega^i of :func:`_unit_root` at ``prec``, as libmp tuples, for
    i = 0..n-1: the one table that :func:`zeros` and the residue pass read.

    Bit for bit ``_unit_root(i, n)``, with fewer trig calls.  Each trig
    call is the libmp call that ``mp.expjpi`` makes on the real argument
    2i/n, ``mpf_cos_sin_pi``, on the same quotient (2i is exact), at the
    same precision and rounding, with no mpf or mpc objects between.
    Index i > n/2 is the exact conjugate of n - i.  When n is a power of
    two of at least 4, omega^i for n/4 < i <= n/2 is the exact rotation
    (-Im, Re) of omega^(i - n/4): mpmath's ``mpf_cos_sin(x, pi=True)``
    takes out the nearest half-integer and turns the fixed-point pair by
    that quadrant count before it rounds, and 2(i + n/4)/n = 2i/n + 1/2
    is exact there, with the same binary exponent (x = 1/2 is its exact
    special case), so the reduced argument and the working precision
    match, and round-to-nearest is symmetric under sign.  For any other
    n, 2i/n is rounded and the shift moves its ulp, so every root up to
    n/2 is a trig call.  The trig calls run in index ranges on every CPU
    (:func:`_in_ranges`).

    The table takes no eighth-turn swap, omega^i = (Im, Re) of
    omega^(n/4 - i) for n/8 < i < n/4: there the reduced argument is
    negative, and mpmath's fixed-point path is not symmetric under its
    sign.  At n = 4096, 1 of the 512 swapped roots differs from
    ``expjpi`` at 100 and at 200 digits (none at 30)."""
    quarter = n // 4 if n >= 4 and not n & (n - 1) else n // 2
    whole = from_int(n)

    def trig(lo: int, hi: int) -> list[tuple]:
        return [
            mpf_cos_sin_pi(mpf_div(from_int(2 * i), whole, prec, _RND), prec, _RND)
            for i in range(lo, hi)
        ]

    roots = [_ONE] + _in_ranges(1, quarter + 1, trig)
    for i in range(quarter + 1, n // 2 + 1):
        x, y = roots[i - n // 4]
        roots.append((mpf_neg(y), x))
    roots += [_conjugate(roots[n - i]) for i in range(n // 2 + 1, n)]
    return roots


def zero_point(cfg: LacunaryConfig, k: int, m: int) -> mpc:
    """The zero r_k omega^m of :func:`_unit_root`: for m > n_k/2 the exact
    conjugate of the zero of index n_k - m, in a block of any size."""
    r, n = _listed_block(cfg, k)
    if not 0 <= m < n:
        raise ConfigError(f"zero index {m} outside 0..{n - 1}")
    with mp.workdps(cfg.dps):
        return r * _unit_root(m, n)


def zeros(cfg: LacunaryConfig, k: int) -> list[mpc]:
    """All n_k zeros of block k, r_k times each root of :func:`_unit_roots`:
    bit for bit :func:`zero_point`, as rounding commutes with conjugation."""
    n = _check_enumerable(cfg, k)
    r = cfg.blocks[k - 1][0]
    with mp.workdps(cfg.dps):
        return [r * mp.make_mpc(root) for root in _unit_roots(n, mp.prec)]


def nearest_zero(cfg: LacunaryConfig, z) -> tuple[int, int, mpf, mpf]:
    """(block k, index m, |z - xi|, |z - xi|/r_k) for the closest zero xi,
    the lowest k on a tie.

    Works without enumerating blocks: within block k the nearest zero has
    angular index round(theta * n_k / 2pi), and the chordal distance is
    sqrt((|z|-r_k)^2 + 4 |z| r_k sin^2(dtheta/2)).  Blocks are visited in
    order of their radial distance d_k = ||z| - r_k|, and the scan stops at
    the first d_k above the best chord times 1 + 2^(8-prec): the computed
    chord of block k is at least d_k (1 - 2^(1-prec)), as its sum only adds
    a square to the rounded d_k^2, so no block left out could reach the
    best chord, nor tie it.  The tuple keeps the bits of a full scan.
    """
    with mp.workdps(cfg.dps):
        return _nearest_in(cfg.blocks, mpc(z))


def _nearest_in(blocks, z: mpc) -> tuple[int, int, mpf, mpf]:
    """:func:`nearest_zero` over ``blocks`` at the working precision."""
    a = abs(z)
    if a == 0:
        r1, _ = blocks[0]
        return 1, 0, mpf(r1), mpf(1)
    theta = mp.arg(z)
    radial = [abs(a - r) for r, _ in blocks]
    slack = 1 + mp.ldexp(1, 8 - mp.prec)
    best = None
    for k in sorted(range(1, len(blocks) + 1), key=lambda k: radial[k - 1]):
        if best is not None and radial[k - 1] > best[2] * slack:
            break
        r, n = blocks[k - 1]
        m = int(mp.nint(theta * n / (2 * mp.pi)))
        dtheta = theta - 2 * mp.pi * mpf(m) / n
        chord2 = (a - r) ** 2 + 4 * a * r * mp.sin(dtheta / 2) ** 2
        dist = mp.sqrt(chord2)
        if best is None or dist < best[2] or (dist == best[2] and k < best[0]):
            best = (k, m % n, dist, dist / r)
    return best


# ---------------------------------------------------------------------------
# logarithmic derivatives


def _near_zero_guard(cfg: LacunaryConfig, z: mpc, error: type, digits: float) -> None:
    """Raise ``error`` within 10^-digits, relative, of a zero of f:
    NearZeroError for f's own guards (digits P/2) and for B0's quotient
    (P/4, ``coefficients._direct``), NearPoleError for g (P/2), whose
    poles they are.

    The chord to any zero of block k is at least ||z| - r_k|, so the guard
    decides radially first: where the exact |z|^2 lies outside
    (r_k (1 -+ 2 10^-digits))^2 for every block, the factor 2 covering
    rounding, no zero is that near, and only inside such a band does
    :func:`nearest_zero`, with its trig, pi and square root, decide."""
    margin = mp.power(10, -mpf(digits))
    x, y = z._mpc_
    size2 = mp.make_mpf(mpf_add(mpf_mul(x, x), mpf_mul(y, y)))
    inner, outer = (1 - 2 * margin) ** 2, (1 + 2 * margin) ** 2
    if not any(inner * r * r <= size2 <= outer * r * r for r, _ in cfg.blocks):
        return
    k, m, _, rel = nearest_zero(cfg, z)
    if rel < margin:
        if error is NearPoleError:
            raise error(f"z within relative 10^-{digits:g} of pole {(k, m)}")
        raise error(
            f"z within relative {mp.nstr(rel, 5)} of zero (block {k}, index {m}); "
            f"threshold 10^-{digits:g}"
        )


def _guarded(cfg: LacunaryConfig, z) -> mpc:
    """z as mpc, past the guards of f_jet and log_derivative."""
    z = mpc(z)
    _check_domain(cfg, z)
    _near_zero_guard(cfg, z, NearZeroError, cfg.dps / 2)
    return z


def _f_jet(cfg: LacunaryConfig, z: mpc) -> tuple[mpc, mpc]:
    """:func:`f_jet` without its guards, for callers that have checked the
    domain and found z at least 10^(-P/2) (relative) from every zero."""
    f, l1, _ = _jet(cfg.blocks, z, 1)
    return f, f * l1


def _f_jet_and_head(cfg: LacunaryConfig, z: mpc) -> tuple[tuple[mpc, ...], tuple[mpc, mpc]]:
    """((f, f', f''), (P, P'/P)) at z from one pass over the blocks:
    f' = f L1 and f'' = f (L1^2 + L1') with L1 = f'/f, and P the product
    over blocks 1..K-1 with its log-derivative, read from the pass's state
    after block K-1.  B0 reads f'' from here alone.

    Where the pass does not raise, that state is the one
    ``_jet(cfg.blocks[:-1], z, 1)`` ends in, bit for bit: (f'/f)' does not
    enter f or f'/f, and a pass that leaves a trailing run out stops on a
    state that the run would give back unchanged.

    f'' so formed has no relative accuracy where |f''| << |f'|^2/|f|,
    since L1^2 and L1' then cancel: on [[3.3,1],[1e30,32]] at |z| = 0.73
    it reads about 10^-P (8.7e-32 at 30 digits, 2.3e-102 at 100) where
    the true f'' is below 1e-960."""
    zt = z._mpc_
    states = list(_sweep(cfg.blocks, zt, 2 if zt != _ZERO else 0, mp.prec))
    f, l1, l2 = _finish(cfg.blocks, zt, 2, states[-1])
    P, S = states[min(cfg.K - 1, len(states) - 1)][:2]
    head = _finish(cfg.blocks[:-1], zt, 1, (P, S, _ZERO))[:2]
    return (f, f * l1, f * (l1 * l1 + l2)), head


def f_jet(cfg: LacunaryConfig, z) -> tuple[mpc, mpc]:
    """(f, f') from one pass: f' = f L1 with L1 = f'/f.  TailError and
    NearZeroError as log_derivative, CancellationError as eval_f."""
    with mp.workdps(cfg.dps):
        return _f_jet(cfg, _guarded(cfg, z))


def _circle_levels(batch, samples: dict, cap: int, offset: int, directions: dict):
    """The nested trapezoid rule on the unit circle: node i of ``cap`` (a power
    of 2 from 32) lies in the direction e^{i pi (2i + offset)/cap} (offset 1
    keeps f' circles off the real zeros neighbouring blocks may place there),
    and level n takes every (cap/n)-th node, in angle order.  Yields
    (n, [(direction, value)]) as n doubles from 32 up to ``cap``; ``batch``
    maps directions to values and sees only the nodes missing from
    ``samples`` (grid index -> pair), which keeps them.  Directions come
    from ``directions`` (grid index -> direction at the working
    precision), which keeps those it lacks: a config's circles share the
    table of ``LacunaryConfig._grid``."""
    n = 32
    while n <= cap:
        grid = range(0, cap, cap // n)
        fresh = [i for i in grid if i not in samples]
        for i in fresh:
            if i not in directions:
                directions[i] = mp.expjpi(mpf(2 * i + offset) / cap)
        dirs = [directions[i] for i in fresh]
        samples.update(zip(fresh, zip(dirs, batch(dirs))))
        yield n, [samples[i] for i in grid]
        n *= 2


def _fprime_on_circle(cfg: LacunaryConfig, k: int, radius, directions) -> list[mpc]:
    """f' at r_k + radius * w around block k's real zero r_k, for each unit
    direction w: the f' of ``f_jet``, with its guards checked once per circle.

    10^(-P/2) r_k <= radius <= r_k/n_k (ConfigError above; PrecisionInsufficient
    below, suggesting the 2 log10(r_k/radius) digits that resolve it), and
    r_k + radius < r_{K+1}/2 (TailError) bounds every node.  The near-zero
    guard then cannot fire: r_k is ``radius`` away, the other zeros of block
    k at least 2 r_k sin(pi/n_k) - radius >= 3 r_k/n_k, and every other
    block's circle at least 10^(-P/2) of its radius while the annulus
    ||z| - r_k| <= radius keeps that margin.  A circle that reaches a
    neighbouring one (nominal disks of the smallest blocks) keeps the guard.
    """
    with mp.workdps(cfg.dps):
        r_k, n_k = cfg.block(k)
        radius = mpf(radius)
        margin = mp.power(10, -mpf(cfg.dps) / 2)
        if not margin * r_k <= radius <= r_k / n_k:
            bounds = f"[10^-{cfg.dps // 2} r_{k}, r_{k}/n_{k}]"
            message = f"contour radius {mp.nstr(radius, 8)} outside {bounds}"
            if radius < margin * r_k:
                raise PrecisionInsufficient(message, int(mp.ceil(2 * mp.log10(r_k / radius))))
            raise ConfigError(message)
        _check_domain(cfg, mpc(r_k + radius))
        clear = (k == 1 or r_k - radius >= (1 + margin) * cfg.blocks[k - 2][0]) and (
            k == cfg.K or r_k + radius <= (1 - margin) * cfg.blocks[k][0]
        )
        xi = zero_point(cfg, k, 0)
        vals = []
        for j, w in enumerate(directions):
            z = xi + radius * w
            if not clear:
                _near_zero_guard(cfg, z, NearZeroError, cfg.dps / 2)
            fp = _f_jet(cfg, z)[1]
            if fp == 0:
                raise ZeroOnContourError(
                    f"f' vanishes on the contour around {mp.nstr(xi, 8)} at node {j}"
                )
            vals.append(fp)
        return vals


def log_derivative(cfg: LacunaryConfig, z) -> mpc:
    """f'/f, summed termwise over blocks."""
    with mp.workdps(cfg.dps):
        return _jet(cfg.blocks, _guarded(cfg, z), 1)[1]


def derivative_ratio_bound(cfg: LacunaryConfig, k: int) -> mpf:
    """2e * prod_{j<k} (r_j/r_k)^{n_j}: the finite-k bound on |f''/f'^2| at block-k zeros.

    The factor 2 absorbs the (1+o(1)) corrections at small k; the product is
    formed in the log domain so it survives exponents like 2^-211.
    """
    with mp.workdps(cfg.dps):
        r_k, _ = cfg.block(k)
        log_prod = mpf(0)
        for j in range(1, k):
            r_j, n_j = cfg.block(j)
            log_prod += mpf(n_j) * (mp.log(r_j) - mp.log(r_k))
        return 2 * mp.e * mp.exp(log_prod)


def _other_blocks(cfg: LacunaryConfig, k: int) -> list[tuple[int, mpf]]:
    """(n_j, (r_k/r_j)^{n_j}) for every block j != k: the real part of that
    block's power at any zero of block k, one ``mp.power`` each with
    n_j.bit_length() + 10 guard bits."""
    r = cfg.blocks[k - 1][0]
    others = []
    for j, (rj, nj) in enumerate(cfg.blocks, start=1):
        if j != k:
            with mp.extraprec(nj.bit_length() + 10):
                others.append((nj, mp.power(r / rj, nj)))
    return others


def _mul_int(x: tuple, n: int, prec: int) -> tuple:
    """``mpc_mul_int(x, n, prec)`` for a raw x already rounded at ``prec``:
    where n is a power of two the product is exact, an exponent shift."""
    if n & (n - 1):
        return mpc_mul_int(x, n, prec, _RND)
    return mpc_shift(x, n.bit_length() - 1)


def _pair_terms(rt: tuple, nj: int, a: tuple, big: bool, e: int | None, prec: int) -> tuple:
    """(1 - w, n_j s) of one other block at root rt = omega^i, i <= n/2,
    for :func:`_extracted_raw`: w = a_j rt, its factor 1 - w and term s
    as in :func:`_block_terms`, through v = conj(rt)/a_j when ``big``,
    a_j > 1.  a_j = (r/r_j)^{n_j} of :func:`_other_blocks` comes as a
    tuple, and e_j is its binary exponent where a_j = 2^e_j (every rule
    schedule), None elsewhere.  Only operations whose result is known
    exactly are skipped: w and v are exponent shifts when a_j = 2^e_j, and
    so is n_j s when n_j is a power of two (:func:`_mul_int`).  1/x is
    ``mpc_reciprocal``, which gives the bits of ``mpc_mpf_div(fone, x)``:
    that call's product with 1 is exact, and round-to-nearest is
    symmetric under sign.
    """
    w = mpc_mul_mpf(rt, a, prec, _RND) if e is None else mpc_shift(rt, e)
    factor = mpc_sub(_ONE, w, prec, _RND)
    if big:
        v = _conjugate(rt)
        v = mpc_div_mpf(v, a, prec, _RND) if e is None else mpc_shift(v, -e)
        s = mpc_reciprocal(mpc_sub(_ONE, v, prec, _RND), prec, _RND)
    else:
        s = mpc_mul(w, mpc_mpf_div(_MINUS_ONE, factor, prec, _RND), prec, _RND)
    return factor, _mul_int(s, nj, prec)


def _extracted_raw(others, m: int, n: int, roots, memo: dict, last: int, prec: int) -> tuple:
    """(P, S1) as libmp tuples for the block pass of :func:`_block_residues`:
    P is the product of the other blocks at the zero xi = r omega^m of a
    block with n zeros, and S1 = xi P'/P the sum of its log-derivative
    terms.

    ``others`` holds (n_j, a_j, a_j > 1, e_j, p) for :func:`_pair_terms`,
    with p = n/gcd(n_j, n).  Block j's power is a_j omega^i with
    i = (m n_j) mod n, its index reduced in integers, so the angle is
    exact for any n_j; ``roots[i]`` is omega^i.  Roots i and n - i are
    exact conjugates, and every step of :func:`_pair_terms` commutes with
    conjugation bit for bit (shifts, products with a real, differences,
    the reciprocal and complex products round symmetrically under sign),
    so the factor and term of index i > n/2 are the exact conjugates of
    those of n - i.  P and S1 start from the first block's factor and
    term, which a product with 1 and a sum with 0 would give back, each
    already rounded at ``prec``.

    A pass over a range of one block's zeros, m ascending up to ``last``,
    forms each conjugate pair once, at the folded index min(i, n - i):
    that index recurs at every m' = +-m (mod p), and ``memo`` keeps the
    pair under (j, folded index) only while a zero up to ``last`` still
    needs it, dropping it at its last use.  A pair that two ranges read
    is formed in each, with the same bits.
    """
    P, S1 = _ONE, _ZERO
    for j, (nj, a, big, e, period) in enumerate(others):
        index = m * nj % n
        folded = min(index, n - index)
        terms = memo.pop((j, folded), None)
        if terms is None:
            terms = _pair_terms(roots[folded], nj, a, big, e, prec)
        if m + ((-2 * m) % period or period) <= last:
            memo[j, folded] = terms
        if folded != index:
            terms = _conjugate(terms[0]), _conjugate(terms[1])
        if j:
            P = mpc_mul(P, terms[0], prec, _RND)
            S1 = mpc_add(S1, terms[1], prec, _RND)
        else:
            P, S1 = terms
    return P, S1


def _block_residues(cfg: LacunaryConfig, k: int) -> list[mpc]:
    """u = -f''/f'^2 at every zero of block k, in zero order.

    With f = q P as in :func:`derivs_at_zero`, q' = -n/xi,
    q'' = -n(n-1)/xi^2 and xi P'/P = S1 = sum_j n_j s_j, the residue is

        u = (n_k - 1 + 2 S1) / (n_k P),

    free of xi, so the pass needs only the unit roots of
    :func:`_unit_roots`, not the zeros.  The other blocks' real powers are
    formed once for the block, and each other block's factor and terms
    once per conjugate pair of root indices (m n_j) mod n_k
    (:func:`_extracted_raw`).  Every power of block j has modulus a_j, so
    the first clause of the cancellation screen (:func:`_lossy_modulus`)
    is tested once per block; only where it holds does one factor of each
    of that block's conjugate pairs (|1 - conj w| = |1 - w|) go through
    :func:`_block_terms`, which raises CancellationError on a lossy one.
    2 S1 is an exponent shift, and so is n_k P where n_k is a power of
    two.  Root and residue m > n_k/2 are the exact conjugates of those of
    n_k - m, and every step commutes with conjugation: the residue is
    bit for bit the closed form at that root.  The zeros up to n_k/2 run
    in index ranges on every CPU (:func:`_in_ranges`), each range with its
    own memo; the screen and the conjugate half stay in this process.
    """
    n = _check_enumerable(cfg, k)
    half = n // 2 + 1
    with mp.workdps(cfg.dps):
        prec = mp.prec
        bands = _bands(prec)
        roots = _unit_roots(n, prec)
        others = []
        for nj, a in _other_blocks(cfg, k):
            a = a._mpf_
            if _lossy_modulus(a, bands[0], prec):
                indices = {m * nj % n for m in range(half)}
                for index in sorted({min(i, n - i) for i in indices}):
                    _block_terms(mpc_mul_mpf(roots[index], a, prec, _RND), 0, bands, prec)
            e = a[2] if a[1] == 1 else None
            others.append((nj, a, mpf_gt(a, fone), e, n // math.gcd(nj, n)))
        n1 = from_int(n - 1)

        def closed_form(lo: int, hi: int) -> list[tuple]:
            residues, memo = [], {}
            for m in range(lo, hi):
                P, S1 = _extracted_raw(others, m, n, roots, memo, hi - 1, prec)
                top = mpc_add_mpf(mpc_shift(S1, 1), n1, prec, _RND)
                residues.append(mpc_div(top, _mul_int(P, n, prec), prec, _RND))
            return residues

        residues = _in_ranges(0, half, closed_form)
        residues += [_conjugate(residues[n - m]) for m in range(half, n)]
        return [mp.make_mpc(u) for u in residues]


def derivs_at_zero(cfg: LacunaryConfig, k: int, m: int) -> tuple[mpc, mpc]:
    """(f'(xi), f''(xi)) at the zero xi = :func:`zero_point` by factor
    extraction.

    f = q*P with q = 1-(z/r_k)^{n_k}; at xi the power is exactly 1, so
    q'(xi) = -n/xi and q''(xi) = -n(n-1)/xi^2, and f' = q' P,
    f'' = q'' P + 2 q' P'.  P and L = P'/P, which cannot vanish at xi
    (distinct block moduli), come from f's one-pass kernel :func:`_jet`
    over the other blocks at the rounded xi, so the residue pass, which
    forms the powers from exact roots of unity, is a second route.
    """
    with mp.workdps(cfg.dps):
        xi = zero_point(cfg, k, m)
        n = cfg.blocks[k - 1][1]
        inv_xi = 1 / xi
        q1 = -mpf(n) * inv_xi
        q2 = -(mpf(n) * (n - 1)) * inv_xi**2
        P, L, _ = _jet(cfg.blocks[: k - 1] + cfg.blocks[k:], xi, 1)
        return q1 * P, q2 * P + 2 * q1 * (P * L)
