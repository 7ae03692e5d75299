"""Coefficient reconstruction for f'' + A f' + B f = 0.

Base pair:  A0 = f*g  and  B0 = -(f'' + A0 f')/f.  Away from the zeros
f, f' and f'' come from one pass of ``product.f_jet``, and one quotient
(``_base_pair``, which watches f'' + A0 f' for lost digits) serves
``eval_B0_direct``, ``eval_AB`` and the residual check.  At every zero
z_k of f the numerator of B0 vanishes by the interpolation identity
A0(z_k) f'(z_k) + f''(z_k) = 0 (the residues were chosen exactly so),
which makes B0 analytic there; near zeros we therefore switch from the
direct quotient to the removable-singularity expansion

    B0(xi)  = -(f''' + A0' f' + A0 f'')/f'        (L'Hopital at xi)
    B0(z)  ~= B0(xi) + (z - xi) B0'(xi),

with A0(xi) = u f', A0'(xi) = u f''/2 + f' g_r, A0''(xi) = u f'''/3
+ 2 f' g_r' + f'' g_r (g_r the regular part of g at the pole) and
B0'(xi) = N''/(2f') - N' f''/(2 f'^2) for N = -(f'' + A0 f').

Perturbed pair:  A = A0 + c*H*f,  B = B0 - c*H*f', where H is a product
with zeros spread along the negative real axis at -m^{1/rho_H}; the
c*H*f*f' contributions cancel identically in the residual, so the ODE
survives the perturbation for any scale c.

The contour check recovers f''/f'^2 at a zero through the derivative of
1/f' as a Cauchy integral over a circle around the zero.  That identity
requires 1/f' analytic in the punctured disk, which at small block index
can fail at the nominal radius r_k/n_k (the claim behind that radius is
asymptotic in k): the contour is validated by an argument-principle
winding count and halved until the enclosed disk is free of zeros of
f'.  Whether the full-size disk was already zero-free is reported as a
finding, never silently patched.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpc, mpf

from .errors import (
    CancellationError,
    ConfigError,
    NearZeroError,
    QuadratureError,
    TailError,
    ZeroOnContourError,
)
from .interpolation import (
    RationalInterpolant,
    eval_g,
    g_regular_at,
    g_tail_bound,
    residues_from_f,
)
from .product import (
    DEFAULT_DPS,
    LacunaryConfig,
    _fprime_on_circle,
    _half_step_directions,
    derivs_at_zero,
    eval_f,
    f_jet,
    f_tail_log_bound,
    nearest_zero,
    zero_point,
)


@dataclass(frozen=True)
class HProduct:
    """H(z) = prod_{m<=M} (1 + z / m^{1/rho}); zeros at -m^{1/rho}.

    The truncation is certified on |z| <= M^{1/rho}/2, where the omitted
    log-factors sum to at most |z| * M^{1-1/rho} / (1/rho - 1).
    """

    rho: mpf
    truncation: int
    dps: int

    def zero_modulus(self, m: int) -> mpf:
        with mp.workdps(self.dps):
            return mp.power(m, 1 / self.rho)

    @property
    def max_radius(self) -> mpf:
        with mp.workdps(self.dps):
            return mp.power(self.truncation, 1 / self.rho) / 2

    def tail_log_bound(self, radius) -> mpf:
        with mp.workdps(self.dps):
            inv = 1 / self.rho
            return mpf(radius) * mp.power(self.truncation, 1 - inv) / (inv - 1)

    def eval(self, z) -> mpc:
        """H(z) as a plain product of the factors 1 + z/a_m.

        A factor that loses more than P-5 of the P digits of max(1, |z/a_m|)
        to cancellation raises CancellationError; one below the rounding
        level of that scale is the exact zero (z sits on a zero of H).
        """
        with mp.workdps(self.dps):
            z = mpc(z)
            if abs(z) > self.max_radius:
                raise TailError(
                    f"|z| = {mp.nstr(abs(z), 8)} outside H validity radius "
                    f"{mp.nstr(self.max_radius, 8)}"
                )
            lossy = mp.power(10, 5 - self.dps)
            acc = mpc(1)
            for m in range(1, self.truncation + 1):
                w = z / mp.power(m, 1 / self.rho)
                factor = 1 + w
                scale = max(1, abs(w))
                mag = abs(factor)
                if mag <= scale * mp.eps:
                    factor = mpc(0)
                elif mag < scale * lossy:
                    digits_lost = float(mp.log(scale / mag, 10))
                    raise CancellationError(
                        f"H factor {m} cancelled {digits_lost:.1f} of {self.dps} digits",
                        result=factor,
                        digits_lost=digits_lost,
                    )
                acc *= factor
            return acc


def build_H(rho_H, truncation: int, dps: int = None) -> HProduct:
    rho = mpf(rho_H)
    if not (0 < rho < mpf("0.5")):
        raise ConfigError(
            f"rho_H must lie in (0, 1/2) for the constructive positive-indicator "
            f"product, got {rho}"
        )
    if truncation < 1:
        raise ConfigError("H truncation must be >= 1")
    return HProduct(rho=rho, truncation=int(truncation), dps=dps or DEFAULT_DPS)


@dataclass(frozen=True)
class CoefficientSystem:
    cfg: LacunaryConfig
    rat: RationalInterpolant
    h: HProduct | None
    c_scale: mpf
    near_zero_delta: mpf
    # Order of H above the convergence exponent of the zeros is what the
    # regular-growth conclusion needs; recorded, not enforced (the ODE
    # residual identity holds either way).
    theorem_hypothesis_met: bool | None

    @property
    def dps(self) -> int:
        return self.cfg.dps


def make_system(
    cfg: LacunaryConfig,
    rho_H=None,
    h_truncation: int = 64,
    c_scale=1,
    near_zero_delta=mpf("1e-8"),
    rat: RationalInterpolant | None = None,
) -> CoefficientSystem:
    with mp.workdps(cfg.dps):
        delta = mpf(near_zero_delta)
        lo = mp.power(10, -mpf(cfg.dps) / 2)
        if not (lo <= delta <= mpf("1e-4")):
            raise ConfigError(
                f"near_zero_delta must lie in [10^-{cfg.dps // 2}, 1e-4], got {delta}"
            )
        h = None
        hypothesis = None
        if rho_H is not None:
            h = build_H(rho_H, h_truncation, dps=cfg.dps)
            hypothesis = bool(mpf(rho_H) > cfg.rho_f)
        if rat is None:
            rat = residues_from_f(cfg)
        return CoefficientSystem(
            cfg=cfg,
            rat=rat,
            h=h,
            c_scale=mpf(c_scale),
            near_zero_delta=delta,
            theorem_hypothesis_met=hypothesis,
        )


# ---------------------------------------------------------------------------
# A0 and B0


def _pole_threshold(sys: CoefficientSystem) -> mpf:
    return mp.power(10, -mpf(sys.dps) / 2)


def eval_A0(sys: CoefficientSystem, z) -> mpc:
    """A0(z) = f(z) g(z); at zeros of f the removable value u_k f'(z_k)."""
    with mp.workdps(sys.dps):
        z = mpc(z)
        k, m, _, rel = nearest_zero(sys.cfg, z)
        if rel < _pole_threshold(sys):
            i = sys.rat.pole_index(k, m)
            f1 = derivs_at_zero(sys.cfg, k, m, order=1)[0]
            return sys.rat.residues[i] * f1
        return eval_f(sys.cfg, z) * eval_g(sys.rat, z)


def _base_pair(sys: CoefficientSystem, z: mpc) -> tuple[mpc, mpc, mpc, mpc, mpc]:
    """(f, f', f'', A0, B0) at z away from the zeros, B0 by the defining
    quotient; raises CancellationError when f'' + A0 f' loses more than
    P/2 digits (the near-zero switch radius is then too small)."""
    f, fp, fpp = f_jet(sys.cfg, z, 2)
    a0 = f * eval_g(sys.rat, z)
    num = fpp + a0 * fp
    scale = max(abs(fpp), abs(a0 * fp))
    if scale > 0 and num != 0:
        lost = mp.log(scale / abs(num), 10)
        if lost > mpf(sys.dps) / 2:
            raise CancellationError(
                f"B0 quotient lost {float(lost):.1f} digits at z={z}; "
                "the near-zero switch radius is too small",
                digits_lost=float(lost),
            )
    return f, fp, fpp, a0, -num / f


def eval_B0_direct(sys: CoefficientSystem, z) -> mpc:
    """B0 by the defining quotient; monitors the cancellation in f'' + A0 f'."""
    with mp.workdps(sys.dps):
        return _base_pair(sys, mpc(z))[4]


def eval_B0_series(sys: CoefficientSystem, z) -> mpc:
    """B0 near a zero: removable value at the nearest zero plus one Taylor step."""
    with mp.workdps(sys.dps):
        z = mpc(z)
        k, m, _, _ = nearest_zero(sys.cfg, z)
        xi = zero_point(sys.cfg, k, m)
        i = sys.rat.pole_index(k, m)
        u = sys.rat.residues[i]
        f1, f2, f3, f4 = derivs_at_zero(sys.cfg, k, m, order=4)
        g_r, g_rp = g_regular_at(sys.rat, i)
        a0 = u * f1
        a0p = u * f2 / 2 + f1 * g_r
        a0pp = u * f3 / 3 + 2 * f1 * g_rp + f2 * g_r
        n1 = -(f3 + a0p * f1 + a0 * f2)
        n2 = -(f4 + a0pp * f1 + 2 * a0p * f2 + a0 * f3)
        b0 = n1 / f1
        b0p = n2 / (2 * f1) - n1 * f2 / (2 * f1 * f1)
        return b0 + (z - xi) * b0p


def eval_B0(sys: CoefficientSystem, z) -> mpc:
    """B0(z), switching to the removable-singularity series within
    ``near_zero_delta`` (relative) of a zero."""
    with mp.workdps(sys.dps):
        z = mpc(z)
        _, _, _, rel = nearest_zero(sys.cfg, z)
        if rel < sys.near_zero_delta:
            return eval_B0_series(sys, z)
        return eval_B0_direct(sys, z)


def eval_AB(sys: CoefficientSystem, z) -> tuple[mpc, mpc]:
    """(A, B) = (A0 + c H f, B0 - c H f')."""
    if sys.h is None:
        raise ConfigError("no H configured: build the system with rho_H set")
    with mp.workdps(sys.dps):
        z = mpc(z)
        hval = sys.h.eval(z)
        k, m, _, rel = nearest_zero(sys.cfg, z)
        if rel >= sys.near_zero_delta:
            f, fp, _, a0, b0 = _base_pair(sys, z)
        elif rel >= _pole_threshold(sys):
            f, fp = f_jet(sys.cfg, z, 1)
            a0, b0 = eval_A0(sys, z), eval_B0_series(sys, z)
        else:
            f = eval_f(sys.cfg, z, strict=False)
            fp = derivs_at_zero(sys.cfg, k, m, order=1)[0]
            a0, b0 = eval_A0(sys, z), eval_B0_series(sys, z)
        return a0 + sys.c_scale * hval * f, b0 - sys.c_scale * hval * fp


# ---------------------------------------------------------------------------
# residual


def residual(sys: CoefficientSystem, z, which: str = "perturbed", c_scale=None) -> mpf:
    """Relative ODE residual |f'' + A f' + B f| / (|f''| + |A f'| + |B f|).

    ``which`` = 'base' uses (A0, B0); 'perturbed' uses (A, B) with the
    system's (or an overriding) c_scale.  Exact zero is unattainable;
    the honest target is the rounding floor quantified by
    :func:`residual_tolerance`.
    """
    if which not in ("base", "perturbed"):
        raise ConfigError(f"which must be 'base' or 'perturbed', got {which!r}")
    if which == "base":
        return residuals_at(sys, z)[0]
    return residuals_at(sys, z, (sys.c_scale if c_scale is None else c_scale,))[1]


def residuals_at(sys: CoefficientSystem, z, c_scales=()) -> list[mpf]:
    """The base residual, then the perturbed residual at each of ``c_scales``,
    all from one evaluation of f, f', f'', g and H at z."""
    with mp.workdps(sys.dps):
        z = mpc(z)
        _, _, _, rel = nearest_zero(sys.cfg, z)
        if rel < sys.near_zero_delta:
            raise NearZeroError(
                "residual sampling point within near_zero_delta of a zero"
            )
        f, fp, fpp, a0, b0 = _base_pair(sys, z)
        if c_scales:
            if sys.h is None:
                raise ConfigError("no H configured: build the system with rho_H set")
            hval = sys.h.eval(z)
        out = []
        for c in (None, *c_scales):
            a, b = a0, b0
            if c is not None:
                c = mpf(c)
                a = a + c * hval * f
                b = b - c * hval * fp
            num = fpp + a * fp + b * f
            den = abs(fpp) + abs(a * fp) + abs(b * f)
            out.append(abs(num) / den)
        return out


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
    """|A0(z_k) f'(z_k) + f''(z_k)| / |f''(z_k)| at every (subsampled) zero.

    A0 at a zero is its removable value u_k f'(z_k) with the *stored*
    residue, while f' and f'' are recomputed fresh by factor extraction,
    so a corrupted residue shows up directly.  Blocks larger than
    IDENTITY_ZEROS_PER_BLOCK are strided down to that many zeros.
    """
    cap = IDENTITY_ZEROS_PER_BLOCK
    out = []
    with mp.workdps(sys.dps):
        for k, (_, n) in enumerate(sys.cfg.blocks, start=1):
            indices = range(n) if n <= cap else list(range(0, n, n // cap))[:cap]
            for m in indices:
                i = sys.rat.pole_index(k, m)
                u = sys.rat.residues[i]
                f1, f2 = derivs_at_zero(sys.cfg, k, m, order=2)
                value = abs(u * f1 * f1 + f2) / abs(f2)
                out.append((k, m, value))
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
    radius: mpf
    full_radius_zero_free: bool
    winding_at_full_radius: int
    halvings: int
    chain_bound: mpf
    nodes: int

    @property
    def agreement(self) -> mpf:
        return abs(self.direct - self.contour) / abs(self.direct)

    @property
    def agreement_half(self) -> mpf:
        return abs(self.direct - self.contour_half) / abs(self.direct)


def sample_winding(
    cfg: LacunaryConfig, zero: tuple[int, int], radius, n: int, samples: dict
) -> tuple[int, int]:
    """(n, winding of f') on the circle of ``radius`` around ``zero`` = (k, m),
    from n nodes of the nested grid: every (MAX_NODES/n)-th half-step node
    of MAX_NODES.  n doubles, up to MAX_NODES, while consecutive arguments
    jump by more than pi/2.  ``samples`` maps grid index -> (direction, f')
    and keeps every node taken, so no node is sampled twice.
    """
    while True:
        grid = range(0, MAX_NODES, MAX_NODES // n)
        fresh = [i for i in grid if i not in samples]
        dirs = _half_step_directions(MAX_NODES, fresh)
        samples.update(zip(fresh, zip(dirs, _fprime_on_circle(cfg, zero, radius, dirs))))
        vals = [samples[i][1] for i in grid]
        steps = [mp.arg(b / a) for a, b in zip(vals, vals[1:] + vals[:1])]
        if all(abs(d) <= mp.pi / 2 for d in steps):
            return n, int(mp.nint(mp.fsum(steps) / (2 * mp.pi)))
        if n == MAX_NODES:
            raise QuadratureError("winding nodes too sparse: argument jumped by more than pi/2")
        n *= 2


def cauchy_ratio(cfg: LacunaryConfig, k: int, m: int, nodes: int = 32) -> CauchyRatio:
    """f''/f'^2 at a zero, directly and via the Cauchy integral for (1/f')'.

    The radius starts at r_k/n_k and halves while the winding of f' along
    the circle is nonzero (see the module docstring).  On each radius the
    node count starts at ``nodes`` and doubles on the nested grid of
    :func:`sample_winding` until the trapezoid estimates from n and n/2
    nodes differ by less than CONTOUR_AGREEMENT_THRESHOLD/10 of the direct
    value, or n reaches MAX_NODES.
    """
    if nodes < 2 or MAX_NODES % nodes:
        raise ConfigError(f"nodes must divide {MAX_NODES} and exceed 1, got {nodes}")
    with mp.workdps(cfg.dps):
        r_k, n_k = cfg.block(k)
        f1, f2 = derivs_at_zero(cfg, k, m, order=2)
        direct = f2 / (f1 * f1)
        tol = CONTOUR_AGREEMENT_THRESHOLD / 10 * abs(direct)
        radius = r_k / n_k
        winding_full = None
        halvings = 0
        n, samples = nodes, {}
        while True:
            n, w = sample_winding(cfg, (k, m), radius, n, samples)
            if winding_full is None:
                winding_full = w
            if w != 0:
                halvings += 1
                if halvings > MAX_HALVINGS:
                    raise ZeroOnContourError(
                        f"no zero-free contour found around zero ({k}, {m}) after "
                        f"{MAX_HALVINGS} halvings"
                    )
                radius = radius / 2
                n, samples = nodes, {}
                continue
            ws, vals = zip(*(samples[i] for i in range(0, MAX_NODES, MAX_NODES // n)))
            terms = [1 / (radius * w_j * fp) for w_j, fp in zip(ws, vals)]
            integral = mp.fsum(terms) / n
            integral_half = mp.fsum(terms[::2]) * 2 / n
            if abs(integral - integral_half) < tol or n == MAX_NODES:
                break
            n *= 2
        return CauchyRatio(
            direct=direct,
            contour=-integral,
            contour_half=-integral_half,
            radius=radius,
            full_radius_zero_free=(winding_full == 0),
            winding_at_full_radius=winding_full,
            halvings=halvings,
            chain_bound=max(1 / abs(fp) for fp in vals) / radius,
            nodes=n,
        )
