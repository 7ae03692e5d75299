"""Coefficient reconstruction for f'' + A f' + B f = 0.

Base pair:  A0 = f*g  and  B0 = -(f'' + A0 f')/f.  At every zero z_k of
f the numerator of B0 vanishes by the interpolation identity
A0(z_k) f'(z_k) + f''(z_k) = 0 (the residues were chosen exactly so),
which makes B0 analytic there; the interpolation check certifies that
identity at the zeros.  Away from them B0 is the defining quotient
(``_direct``, which watches f'' + A0 f' for lost digits).  The quotient
loses about 10^-P/rel^2 at relative distance rel from the nearest zero
(z is rounded against the stored zero), so f's near-zero guard, at
s = 10^(-P/4), refuses every z within s of a zero with NearZeroError.

Perturbed pair:  A = A0 + H*f,  B = B0 - H*f', where H is a product
with zeros spread along the negative real axis at -m^{1/rho_H}, kept as
degree-1 blocks (-a_m, 1) that f's one-pass kernel evaluates; the
c*H*f*f' contributions cancel identically in the residual, so the ODE
survives the perturbation c*H for any scale c.

The contour check recovers f''/f'^2 at a zero through the derivative of
1/f' as a Cauchy integral on two concentric circles around the zero.  On
the winding circle an argument-principle winding count shows the disk of
radius R free of zeros of f'; R starts at the nominal r_k/n_k and halves
while the count is nonzero (at small block index that disk can hold one:
the claim behind its radius is asymptotic in k), and whether the
full-size disk was zero-free is reported, never silently patched.  The
integral is taken on the quadrature circle of radius R/32: 1/f' is
analytic on the disk of radius R, so the trapezoid error there falls at
least like 32^-n in the node count n (on the winding circle a zero of f'
just outside it slows convergence), and rounding grows only by
R/(R/32) = 32, about 1.5 digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from mpmath import mp, mpc, mpf

from .errors import (
    CancellationError,
    ConfigError,
    NearZeroError,
    QuadratureError,
    TailError,
    ZeroOnContourError,
)
from .interpolation import RationalInterpolant, _g_sum, _top_deferred, g_tail_bound, residues_from_f
from .product import (
    DEFAULT_DPS,
    LacunaryConfig,
    _check_domain,
    _circle_levels,
    _f_jet_and_head,
    _fprime_on_circle,
    _jet,
    _near_zero_guard,
    _rho,
    derivs_at_zero,
    f_jet,
    f_tail_log_bound,
    zero_point,
)

H_TRUNCATION = 64
# rho_H lies in (0, 1/2), where H is the constructive positive-indicator product
RHO_H_BOUND = "1/2"


@dataclass(frozen=True)
class HProduct:
    """H(z) = prod_{m<=M} (1 + z/a_m), zeros at -a_m = -m^{1/rho}, M = H_TRUNCATION.

    ``moduli`` holds a_1, ..., a_{M+1} (a_{M+1} for the exclusion disks),
    ``blocks`` H's factors as f's degree-1 blocks (-a_m, 1), m <= M, and
    ``max_radius`` a_M/2, all formed once by :func:`build_H`.  The
    truncation is certified on |z| <= max_radius, where the omitted
    log-factors sum to at most |z| * M^{1-1/rho} / (1/rho - 1).
    """

    rho: mpf
    dps: int
    moduli: tuple[mpf, ...]
    blocks: tuple[tuple[mpf, int], ...]
    max_radius: mpf

    def eval(self, z) -> mpc:
        """H(z) as one pass of f's kernel ``product._jet`` over ``blocks``:
        a factor that loses more than P-5 of the P digits of max(1, |z/a_m|)
        raises CancellationError, carrying the product finished with the
        lossy factor; an exact zero stays 0."""
        with mp.workdps(self.dps):
            z = mpc(z)
            if abs(z) > self.max_radius:
                raise TailError(
                    f"|z| = {mp.nstr(abs(z), 8)} outside H validity radius "
                    f"{mp.nstr(self.max_radius, 8)}"
                )
            return _jet(self.blocks, z, 0, True)[0]


def build_H(rho_H, *, dps: int = DEFAULT_DPS) -> HProduct:
    """H of order rho_H with H_TRUNCATION factors at ``dps`` digits.

    rho_H is read as ``product._rho`` reads rho_f, at ``dps``: the string
    "0.4" and the float 0.4 give one H, the one the CLI builds from a
    config's "rho_H"; ConfigError unless it lies in (0, RHO_H_BOUND)."""
    rho = _rho(rho_H, dps, "rho_H", RHO_H_BOUND)
    with mp.workdps(dps):
        moduli = tuple(mp.power(m, 1 / rho) for m in range(1, H_TRUNCATION + 2))
        blocks = tuple((-a, 1) for a in moduli[:H_TRUNCATION])
        max_radius = moduli[H_TRUNCATION - 1] / 2
    return HProduct(rho=rho, dps=dps, moduli=moduli, blocks=blocks, max_radius=max_radius)


@dataclass(frozen=True)
class CoefficientSystem:
    cfg: LacunaryConfig
    rat: RationalInterpolant
    h: HProduct | None

    @property
    def dps(self) -> int:
        return self.cfg.dps


def make_system(
    cfg: LacunaryConfig, rho_H=None, rat: RationalInterpolant | None = None, defer_top=False
) -> CoefficientSystem:
    """The residues of ``cfg`` (or ``rat``, ConfigError unless built for
    ``cfg``), and H = ``build_H(rho_H, dps=cfg.dps)`` when ``rho_H`` is set
    (a config's "rho_H" as it stands gives the CLI's H); ``defer_top``
    leaves block K's residues to their first read."""
    if rat is not None and rat.cfg != cfg:
        raise ConfigError("the interpolant was built for another config")
    with mp.workdps(cfg.dps):
        h = None if rho_H is None else build_H(rho_H, dps=cfg.dps)
        if rat is None:
            rat = _top_deferred(cfg) if defer_top else residues_from_f(cfg)
        return CoefficientSystem(cfg=cfg, rat=rat, h=h)


# ---------------------------------------------------------------------------
# A0 and B0


def _direct(sys: CoefficientSystem, z: mpc) -> tuple[mpc, mpc, mpc, mpc, mpc]:
    """(f, f', A0, B0, f'') at z, B0 by the defining quotient.

    f's near-zero guard at s = 10^(-P/4) raises NearZeroError within s
    (relative) of a zero; z needs no other guard: s exceeds f_jet's
    10^(-P/2), and g's poles are f's zeros.  One pass over f's blocks
    gives f, f', f'' and the (f, f'/f) over blocks 1..K-1 that g's closed
    form for block K reads.  Raises CancellationError when f'' + A0 f'
    loses more than P/2 digits (s is too small)."""
    _near_zero_guard(sys.cfg, z, NearZeroError, sys.dps / 4)
    _check_domain(sys.cfg, z)  # f's domain lies inside g's
    (f, fp, fpp), head = _f_jet_and_head(sys.cfg, z)
    a0 = f * _g_sum(sys.rat, z, head)
    num = fpp + a0 * fp
    scale = max(abs(fpp), abs(a0 * fp))
    if scale > 0 and num != 0:
        lost = mp.log(scale / abs(num), 10)
        if lost > mpf(sys.dps) / 2:
            raise CancellationError(
                f"B0 quotient lost {float(lost):.1f} digits at z={z}; "
                "the near-zero radius is too small",
                digits_lost=float(lost),
            )
    return f, fp, a0, -num / f, fpp


def eval_A0(sys: CoefficientSystem, z) -> mpc:
    """A0(z) = f(z) g(z); NearZeroError within s (relative) of a zero."""
    with mp.workdps(sys.dps):
        return _direct(sys, mpc(z))[2]


def eval_B0(sys: CoefficientSystem, z) -> mpc:
    """B0(z); NearZeroError within s (relative) of a zero."""
    with mp.workdps(sys.dps):
        return _direct(sys, mpc(z))[3]


def eval_AB(sys: CoefficientSystem, z) -> tuple[mpc, mpc]:
    """(A, B) = (A0 + H f, B0 - H f')."""
    if sys.h is None:
        raise ConfigError("no H configured: build the system with rho_H set")
    with mp.workdps(sys.dps):
        z = mpc(z)
        hval = sys.h.eval(z)
        f, fp, a0, b0, _ = _direct(sys, z)
        return a0 + hval * f, b0 - hval * fp


# ---------------------------------------------------------------------------
# residual


def residual(sys: CoefficientSystem, z, c_scales=()) -> list[mpf]:
    """[base, *perturbed]: |f'' + A f' + B f| / (|f''| + |A f'| + |B f|) for
    (A0, B0), then for (A0 + c H f, B0 - c H f') at each c of ``c_scales``,
    from one evaluation of f, f', f'', g and H at z (NearZeroError within
    s = 10^(-P/4), relative, of a zero).  Exact zero is unattainable; the honest
    target is the rounding floor quantified by :func:`residual_tolerance`.
    """
    with mp.workdps(sys.dps):
        z = mpc(z)
        f, fp, a0, b0, fpp = _direct(sys, z)
        pairs = [(a0, b0)]
        if c_scales:
            if sys.h is None:
                raise ConfigError("no H configured: build the system with rho_H set")
            hval = sys.h.eval(z)
            pairs += [(a0 + c * hval * f, b0 - c * hval * fp) for c in map(mpf, c_scales)]
        sums = [(fpp + a * fp + b * f, abs(fpp) + abs(a * fp) + abs(b * f)) for a, b in pairs]
        # a zero scale (f = 1 - z/r_1, whose residue is 0, has f'' = A0 = B0 = 0)
        # makes every term, and so the sum, exactly 0
        return [abs(num) / scale if scale else mpf(0) for num, scale in sums]


def residual_tolerance(sys: CoefficientSystem, radius) -> mpf:
    """10^(40-P) plus ten times the truncation-tail allowances at this radius."""
    with mp.workdps(sys.dps):
        tails = mpf(0)
        bound = f_tail_log_bound(sys.cfg, radius)
        if bound > mpf("-inf"):
            tails += mp.exp(bound)
        tails += g_tail_bound(sys.rat, radius)
        # H needs no allowance: A and B are defined with the truncated H,
        # so its omitted factors cancel from the residual identically.
        return mp.power(10, 40 - mpf(sys.dps)) + 10 * tails


# ---------------------------------------------------------------------------
# interpolation identity (the removable-singularity certificate)


IDENTITY_ZEROS_PER_BLOCK = 64


def interpolation_identity_residuals(sys: CoefficientSystem) -> list[tuple[int, int, mpf]]:
    """|A0(z_k) f'(z_k) + f''(z_k)| / |f''(z_k)| at every (subsampled) zero;
    where f''(z_k) is exactly 0 (a one-block f = 1 - z/r_1), relative to
    |A0 f'| instead, and 0 where that is exactly 0 too.

    A0 at a zero is its removable value u_k f'(z_k) with the *stored*
    residue, while f' and f'' are recomputed fresh by ``derivs_at_zero``,
    so a corrupted residue shows up directly.  The stored residues come
    from another route, the block pass of ``residues_from_f`` (closed
    form from exact root indices, no ``derivs_at_zero`` call), so a wrong
    f' or f'' shows up too, and so does a wrong block-pass kernel: the
    routes share only the cancellation screen of ``product._block_terms``.
    Blocks larger than IDENTITY_ZEROS_PER_BLOCK are strided down to that
    many zeros.
    """
    cap = IDENTITY_ZEROS_PER_BLOCK
    out = []
    with mp.workdps(sys.dps):
        for k, (_, n) in enumerate(sys.cfg.blocks, start=1):
            indices = range(n) if n <= cap else list(range(0, n, n // cap))[:cap]
            for m in indices:
                u = sys.rat.residues[k - 1][m]
                f1, f2 = derivs_at_zero(sys.cfg, k, m)
                a0f1 = u * f1 * f1
                scale = abs(f2) or abs(a0f1)
                out.append((k, m, abs(a0f1 + f2) / scale if scale else mpf(0)))
    return out


def reciprocal_derivative_fd(sys: CoefficientSystem, k: int, m: int) -> mpc:
    """-(1/f')' at the zero by central differences: equals f''/f'^2.

    Step 10^(-P/3) relative balances the h^2 truncation against the
    ~10^-P rounding in the quotient.
    """
    with mp.workdps(sys.dps):
        xi = zero_point(sys.cfg, k, m)
        h = abs(xi) * mp.power(10, -mpf(sys.dps) / 3)

        def inv_fp(z):
            return 1 / f_jet(sys.cfg, z, 1)[1]

        return -(inv_fp(xi + h) - inv_fp(xi - h)) / (2 * h)


# ---------------------------------------------------------------------------
# Cauchy contour cross-check


MAX_HALVINGS = 8
MAX_NODES = 4096
CONTOUR_AGREEMENT_THRESHOLD = mpf("1e-20")


@dataclass(frozen=True)
class CauchyRatio:
    direct: mpc
    contour: mpc
    contour_half: mpc
    quad_radius: mpf
    winding_at_full_radius: int
    halvings: int
    chain_bound: mpf
    winding_nodes: int
    nodes: int

    @property
    def agreement(self) -> mpf:
        return abs(self.direct - self.contour) / abs(self.direct)

    @property
    def agreement_half(self) -> mpf:
        return abs(self.direct - self.contour_half) / abs(self.direct)


def sample_winding(cfg: LacunaryConfig, k: int, radius, samples: dict) -> tuple[int, int]:
    """(n, winding of f') on the circle of ``radius`` around block k's zero r_k
    from n half-step nodes of :func:`_circle_levels`, keeping every node in
    ``samples``; n doubles from 32 to MAX_NODES while arguments jump by > pi/2.
    The directions come from the config's table (``LacunaryConfig._grid``)."""
    fprime = partial(_fprime_on_circle, cfg, k, radius)
    for n, vals in _circle_levels(fprime, samples, MAX_NODES, 1, cfg._grid()):
        fps = [fp for _, fp in vals]
        steps = [mp.arg(b / a) for a, b in zip(fps, fps[1:] + fps[:1])]
        if all(abs(d) <= mp.pi / 2 for d in steps):
            return n, int(mp.nint(mp.fsum(steps) / (2 * mp.pi)))
    raise QuadratureError("winding nodes too sparse: argument jumped by more than pi/2")


def disk_winding(cfg: LacunaryConfig, k: int) -> tuple[int, int]:
    """:func:`sample_winding` on block k's disk circle |z - r_k| = r_k/n_k, on
    the config's disk samples (``LacunaryConfig._disk_samples``), summed once
    per config: the contour check and asymptotics (iv) read one memo kind,
    ``"winding"`` (``LacunaryConfig._memo_of``), kept apart from the samples."""
    with mp.workdps(cfg.dps):
        r_k, n_k = cfg.block(k)
        return cfg._memo_of("winding", k, sample_winding, cfg, k, r_k / n_k, cfg._disk_samples(k))


def cauchy_ratio(cfg: LacunaryConfig, k: int) -> CauchyRatio:
    """f''/f'^2 at block k's zero r_k, directly and via the Cauchy integral for (1/f')'.

    The winding circle of radius R (the module docstring) is sampled by
    :func:`sample_winding`, on the disk samples and winding that
    asymptotics shares while R = r_k/n_k (:func:`disk_winding`).  The
    quadrature circle of radius R/32 has its own nested grid: n doubles from 32 until the estimates from n and n/2 nodes differ
    by less than CONTOUR_AGREEMENT_THRESHOLD/10 of the direct value, or n
    reaches MAX_NODES; a direct value of exactly 0 leaves no relative
    agreement to reach, and n stays 32.  ``chain_bound`` is max 1/|f'|
    on the winding circle over R.

    Why R/32: 1/f' is analytic on the disk of radius R, so the trapezoid
    rule with n nodes on the circle of radius rho < R errs by about
    (rho/R)^n relative (Trefethen and Weideman, SIAM Review 56, 2014).
    At rho = R/32 and the starting 32 nodes the half-count estimate errs
    by about 32^-16 = 2^-80, or 8e-25, below the 1e-21 stopping tolerance
    (R/16 gives 2^-64, or 5e-20, and needs 64 nodes on some blocks).  The
    terms 1/(rho w f') grow by R/rho = 32 against the winding circle, so
    rounding grows by about 1.5 digits.
    """
    with mp.workdps(cfg.dps):
        r_k, n_k = cfg.block(k)
        f1, f2 = derivs_at_zero(cfg, k, 0)
        direct = f2 / (f1 * f1)
        tol = CONTOUR_AGREEMENT_THRESHOLD / 10 * abs(direct)
        radius, winding = r_k / n_k, cfg._disk_samples(k)
        # guard the quadrature circle first: its precision covers the winding circle's
        _fprime_on_circle(cfg, k, radius / 32, ())
        winding_nodes, winding_full = disk_winding(cfg, k)
        w, halvings = winding_full, 0
        while w != 0:
            halvings += 1
            if halvings > MAX_HALVINGS:
                raise ZeroOnContourError(
                    f"no zero-free contour found around zero ({k}, 0) after "
                    f"{MAX_HALVINGS} halvings"
                )
            radius, winding = radius / 2, {}
            winding_nodes, w = sample_winding(cfg, k, radius, winding)
        quad_radius = radius / 32
        fprime = partial(_fprime_on_circle, cfg, k, quad_radius)
        for n, vals in _circle_levels(fprime, {}, MAX_NODES, 1, cfg._grid()):
            terms = [1 / (quad_radius * w_j * fp) for w_j, fp in vals]
            integral = mp.fsum(terms) / n
            integral_half = mp.fsum(terms[::2]) * 2 / n
            if not direct or abs(integral - integral_half) < tol:
                break
        return CauchyRatio(
            direct=direct,
            contour=-integral,
            contour_half=-integral_half,
            quad_radius=quad_radius,
            winding_at_full_radius=winding_full,
            halvings=halvings,
            chain_bound=max(1 / abs(fp) for _, fp in winding.values()) / radius,
            winding_nodes=winding_nodes,
            nodes=n,
        )
