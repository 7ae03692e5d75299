"""Residues, the rational series g, summability certificates, proximity quadrature."""

import random

import pytest
from mpmath import mp, mpc, mpf

from lacunary import (
    NearPoleError,
    QuadratureError,
    config_from_blocks,
    interpolation,
    make_schedule,
    product,
)
from lacunary.interpolation import (
    _g_sum,
    _sup_bound,
    _top_block,
    check_summability,
    config_interpolant,
    eval_g,
    g_proximity,
    g_regular_at,
    g_tail_bound,
    proximity_m,
    residues_from_f,
)
from lacunary.product import derivative_ratio_bound, derivs_at_zero, zero_point, zeros

from helpers import block_residues_per_zero, direct_g, recover_residue, rel_err


def pole_labels(cfg):
    """(k, m) of every zero of ``cfg``, in the interpolant's pole order."""
    return [(k, m) for k, (_, n) in enumerate(cfg.blocks, start=1) for m in range(n)]


def one_minus_z_squared():
    """f = 1 - z^2: residue 0.5 at +-1, so g(z) = z/(z^2 - 1)."""
    return residues_from_f(config_from_blocks([(1, 2)]))


class TestResidues:
    def test_one_minus_z_squared(self):
        """f = 1 - z^2: u = 1/(2 z^2) at z = +-1, i.e. 0.5 at both poles."""
        rat = one_minus_z_squared()
        assert len(rat.poles) == 2
        for u in rat.residues:
            assert rel_err(u, mpf("0.5")) < mpf("1e-95")

    def test_linear_factor_zero_residue(self):
        """f = 1 - z: f'' vanishes identically, so u = 0."""
        rat = residues_from_f(config_from_blocks([(1, 1)]))
        assert abs(rat.residues[0]) < mpf("1e-95")
        assert rat.c_bound < mpf("1e-95")

    def test_two_block_value(self):
        """xi = 16 in [[4,2],[16,4]]: u = -f''/f'^2 = -1.703125/14.0625."""
        rat = residues_from_f(config_from_blocks([(4, 2), (16, 4)]))
        i = rat.pole_index(2, 0)
        assert rel_err(rat.poles[i], 16) < mpf("1e-95")
        assert rel_err(rat.residues[i], mpf("-1.703125") / mpf("14.0625")) < mpf("1e-90")

    def test_conjugate_zero_pairs_have_conjugate_residues(self):
        cfg = make_schedule(0.5, 3, "factorial")
        rat = residues_from_f(cfg)
        i = rat.pole_index(3, 1)
        j = rat.pole_index(3, 7)  # conjugate of index 1 in an 8-block
        assert abs(rat.poles[i] - mp.conj(rat.poles[j])) < mpf("1e-90")
        assert abs(rat.residues[i] - mp.conj(rat.residues[j])) < mpf("1e-85")

    def test_residues_shrink_blockwise(self, factorial_k4_rat):
        """max |u| per block decreases from block 2 on (visible o(1) decay)."""
        rat = factorial_k4_rat
        buckets = {}
        for (k, _), u in zip(pole_labels(rat.cfg), rat.residues):
            buckets[k] = max(buckets.get(k, mpf(0)), abs(u))
        assert buckets[2] > buckets[3] > buckets[4]
        assert buckets[4] < mpf("1e-60")

    def test_block_ratio_bound_honoured(self, factorial_k4_rat):
        """|u| <= 2e prod_{j<k} (r_j/r_k)^{n_j} for k >= 2."""
        rat = factorial_k4_rat
        cfg = rat.cfg
        for (k, _), u in zip(pole_labels(cfg), rat.residues):
            if k >= 2:
                assert abs(u) <= derivative_ratio_bound(cfg, k)

    def test_c_bound_covers_all(self, factorial_k4_rat):
        rat = factorial_k4_rat
        assert all(abs(u) <= rat.c_bound for u in rat.residues)

    def test_with_residue_recertifies(self):
        """A replaced residue carries the certificates a fresh build gives it."""
        rat = residues_from_f(make_schedule(0.5, 3, "factorial"))
        i = rat.pole_index(2, 0)
        bad = rat.with_residue(i, rat.residues[i] + mpf("1e-3"))
        fresh = config_interpolant(rat.cfg, rat.poles, bad.residues)
        assert bad.sum_included == fresh.sum_included != rat.sum_included
        assert bad.c_bound == fresh.c_bound
        assert bad.tail_sum_bound == fresh.tail_sum_bound


class TestEvalG:
    def test_partial_fraction_oracle(self):
        """poles {(1, .5), (-1, .5)}: g(z) = z/(z^2-1), so g(2) = 2/3."""
        rat = one_minus_z_squared()
        assert rel_err(eval_g(rat, 2), mpf(2) / 3) < mpf("1e-95")

    def test_symmetry_cancellation_at_origin(self):
        rat = one_minus_z_squared()
        assert abs(eval_g(rat, 0)) < mpf("1e-95")

    def test_residue_recovery_by_limit(self):
        rat = one_minus_z_squared()
        z = 1 + mpf(10) ** -20
        assert abs((z - 1) * eval_g(rat, z) - mpf("0.5")) < mpf("1e-18")

    def test_near_pole_error(self, factorial_k4_rat):
        rat = one_minus_z_squared()
        with pytest.raises(NearPoleError):
            eval_g(rat, 1 + mpf(10) ** -60)
        # a zero of the 4096-zero block: relative 10^-60 is refused,
        # 10^-40 is evaluated
        rat = factorial_k4_rat
        xi = zero_point(rat.cfg, 4, 17)
        with pytest.raises(NearPoleError, match=r"\(4, 17\)"):
            eval_g(rat, xi * (1 + mpf(10) ** -60))
        eval_g(rat, xi * (1 + mpf(10) ** -40))

    def test_conjugate_symmetry(self):
        rat = residues_from_f(make_schedule(0.5, 3, "factorial"))
        rng = random.Random(5)
        for _ in range(10):
            z = mpc(rng.uniform(-50, 50), rng.uniform(5, 50))
            assert abs(eval_g(rat, mp.conj(z)) - mp.conj(eval_g(rat, z))) < mpf("1e-85")

    def test_g_regular_part(self):
        rat = one_minus_z_squared()
        val, der = g_regular_at(rat, 0)  # at pole z=1: 0.5/(1+1), -0.5/(1+1)^2
        assert rel_err(val, mpf("0.25")) < mpf("1e-95")
        assert rel_err(der, mpf("-0.125")) < mpf("1e-95")

    def test_tail_bound_finite_and_small(self):
        cfg = make_schedule(0.5, 3, "factorial")
        rat = residues_from_f(cfg)
        # 2 * 2e*2^-211 * (2^-12/(1-2^-0.5) + 3*2^-24) ~ 2.8e-66
        bound = g_tail_bound(rat, 1000)
        assert 0 < bound < mpf("1e-60")

    @pytest.mark.parametrize(
        "cfg",
        [make_schedule(0.5, 4, "factorial"), make_schedule(0.45, 4, "factorial"),
         make_schedule(0.55, 3, "doubly_exp")],
        ids=["headline", "theorem", "doubly_exp"],
    )
    def test_tail_sum_keeps_its_arithmetic(self, cfg):
        """The shared schedule tail at s = 1 is geo r^(rho-1) + 3/r, bit for
        bit: r_{K+1} is a power of 2, so 1.5 r^-1 / (1 - 2^-1) is 3/r exactly."""
        r = cfg.next_radius()
        geo = 1 / (1 - mp.power(2, cfg.rho_f - 1))
        harmonic = mp.power(r, cfg.rho_f - 1) * geo + 3 / r
        expected = derivative_ratio_bound(cfg, cfg.K + 1) * harmonic
        assert config_interpolant(cfg, [], []).tail_sum_bound == expected


class TestResidueRecoveryContour:
    def test_all_poles_recovered(self):
        """Contour quadrature of g recovers each stored residue: a route
        independent of factor extraction."""
        cfg = make_schedule(0.5, 3, "factorial")
        rat = residues_from_f(cfg)
        tol = mpf(10) ** (-rat.cfg.dps // 4)
        for i in range(len(rat.poles)):
            got = recover_residue(rat, i)
            assert rel_err(got, rat.residues[i]) < tol

    def test_tiny_block4_residue_recovered(self, factorial_k4_rat):
        """Around zero (4, 17) the contour integrates block 4's closed form
        from the config: its residue there is the stored residue."""
        rat = factorial_k4_rat
        i = rat.pole_index(4, 17)
        got = recover_residue(rat, i)
        assert rel_err(got, rat.residues[i]) < mpf(10) ** (-rat.cfg.dps // 4)


class TestSummability:
    def test_single_pole(self):
        rep = check_summability(one_minus_z_squared())
        assert rel_err(rep.included, 1) < mpf("1e-95")
        assert rep.passed

    def test_factorial_certificate_finite_and_first_block_dominated(self, factorial_k4_rat):
        rep = check_summability(factorial_k4_rat)
        assert rep.passed
        # frozen from exact-fraction differentiation of the 3-block truncation
        # (the block-4 factor shifts these below 10^-10000):
        #   u(2)  = -238800161901575072120832/134325091068047794605625
        #   u(4)  = -46116860139176722432/18446744065119617025
        #   u(-4) =  7173733793319092224/18446744065119617025
        u2 = mpf("1.777777777798797210885455549525705531271")
        u4 = mpf("2.499999998719431459171880574316541355562")
        u4m = mpf("0.3888888883585524225203691969752262313266")
        assert rel_err(rep.per_block[1], u2 / 2) < mpf("1e-35")
        assert rel_err(rep.per_block[2], (u4 + u4m) / 4) < mpf("1e-35")
        # blocks 3, 4 and the analytic tail add a sliver on top of ~29/18
        assert 0 < rep.total - (u2 / 2 + (u4 + u4m) / 4) < mpf("1e-4")
        assert set(rep.per_block) == {1, 2, 3, 4}
        # dominated by the first blocks
        assert rep.per_block[1] + rep.per_block[2] > rep.per_block[3] + rep.per_block[4]
        for k in (1, 2, 3, 4):
            assert rep.per_block_bound[k] == derivative_ratio_bound(factorial_k4_rat.cfg, k)
            assert rep.per_block_max[k] <= rep.per_block_bound[k]

    def test_finite_residue_beyond_block_bound_fails(self, factorial_k4_rat):
        """A finite but wrong residue: sum |u/z| stays finite, the block-4
        residue bound does not hold."""
        rat = factorial_k4_rat
        i = rat.pole_index(4, 1234)
        bad = check_summability(rat.with_residue(i, 1000 * rat.residues[i]))
        assert bad.total < mpf("inf")
        assert bad.per_block_max[4] > bad.per_block_bound[4]
        assert not bad.passed


def _agrees_with_direct(rat, z):
    """_g_sum(z) within 10^(10-P) of the plain partial-fraction sum over the
    stored poles and residues, summed at 2P digits."""
    with mp.workdps(rat.cfg.dps):
        z = mpc(z)
        got = _g_sum(rat, z)
        with mp.workdps(2 * rat.cfg.dps):
            ref = direct_g(rat, z)
        return abs(got - ref) <= mp.power(10, 10 - rat.cfg.dps) * abs(ref)


def _top_block_points(cfg):
    """Seeded points with |z| <= r_(K-1), z = 0, 10, 100 and 1000 r_K,
    0.5, 1.0001 and 2 r_K, and a quarter of the pole spacing from zero
    (K, 5 mod n_K), along the circle."""
    r_low, r = cfg.blocks[-2][0], cfg.blocks[-1][0]
    n = cfg.blocks[-1][1]
    rng = random.Random(9)
    points = [mpc(0)]
    for _ in range(4):
        points.append(r_low * mpf(rng.random()) * mp.expjpi(2 * mpf(rng.random())))
    for scale, angle in ((10, "0.13"), (100, "0.71"), (1000, "-0.4"), ("0.5", "0.3")):
        points.append(mpf(scale) * r * mp.expjpi(mpf(angle)))
    points.append(mpf("1.0001") * r * mp.expjpi(mpf("0.7")))
    points.append(2 * r * mp.expjpi(mpf("-0.2")))
    points.append(zero_point(cfg, cfg.K, 5 % n) * (1 + 1j * mp.pi / (2 * n)))
    return points


@pytest.fixture(scope="module")
def factorial_k4_rat_200():
    with mp.workdps(200):
        return residues_from_f(make_schedule(0.5, 4, "factorial", dps=200))


# The configs of the residue comparison: the headline schedule, two other
# rules and densities, and an explicit list whose block sizes share no factor.
RESIDUE_CONFIGS = {
    "factorial-0.5-K4": lambda dps: make_schedule(0.5, 4, "factorial", dps=dps),
    "doubly_exp-0.55-K3": lambda dps: make_schedule(0.55, 3, "doubly_exp", dps=dps),
    "factorial-0.45-K4": lambda dps: make_schedule(0.45, 4, "factorial", dps=dps),
    "explicit": lambda dps: config_from_blocks([[4, 2], [16, 4], [300, 17]], dps=dps),
}


@pytest.fixture(scope="module")
def residue_rats(factorial_k4_rat, factorial_k4_rat_200):
    """(name, dps) -> the interpolant that ``residues_from_f`` builds."""
    built = {("factorial-0.5-K4", 100): factorial_k4_rat, ("factorial-0.5-K4", 200): factorial_k4_rat_200}

    def get(name, dps):
        if (name, dps) not in built:
            with mp.workdps(dps):
                built[name, dps] = residues_from_f(RESIDUE_CONFIGS[name](dps))
        return built[name, dps]

    return get


class TestBlockResidues:
    """The block-by-block residue pass against the per-zero route, -f''/f'^2
    from ``derivs_at_zero(order=2)`` at each zero, and its conjugate half
    against its own closed form run on every zero."""

    @pytest.mark.parametrize("dps", [100, 200])
    @pytest.mark.parametrize("name", sorted(RESIDUE_CONFIGS))
    def test_agrees_with_per_zero_route(self, residue_rats, name, dps):
        rat = residue_rats(name, dps)
        cfg = rat.cfg
        tol = mpf(10) ** (10 - dps)
        with mp.workdps(dps):
            for k, (_, n) in enumerate(cfg.blocks, start=1):
                # every zero of small blocks; a prime stride (and the last
                # zero) through large ones still meets many root indices
                for m in sorted({*range(0, n, 1 if n <= 64 else 37), n - 1}):
                    f1, f2 = derivs_at_zero(cfg, k, m, order=2)
                    want = -f2 / (f1 * f1)
                    got = rat.residues[rat.pole_index(k, m)]
                    assert abs(got - want) <= tol * abs(want), (k, m)

    @pytest.mark.parametrize("dps", [100, 200])
    @pytest.mark.parametrize("name", sorted(RESIDUE_CONFIGS))
    def test_zeros_are_exact_conjugate_pairs(self, name, dps):
        """``zeros`` is ``zero_point`` index by index, and zero n_k - m is
        the conjugate of zero m, bit for bit."""
        cfg = RESIDUE_CONFIGS[name](dps)
        with mp.workdps(dps):
            for k, (_, n) in enumerate(cfg.blocks, start=1):
                block = zeros(cfg, k)
                assert len(block) == n
                for m in range(n):
                    assert block[m] == zero_point(cfg, k, m), (k, m)
                    assert block[-m % n] == mp.conj(block[m]), (k, m)

    @pytest.mark.parametrize("dps", [100, 200])
    @pytest.mark.parametrize("name", sorted(RESIDUE_CONFIGS))
    def test_mirrored_half_equals_full_loop(self, residue_rats, name, dps):
        """Residues of m > n_k/2, taken as conjugates, are bit for bit the
        closed form run on every zero of the same poles (tests/helpers.py)."""
        rat = residue_rats(name, dps)
        for k, (_, n) in enumerate(rat.cfg.blocks, start=1):
            start = rat.pole_index(k, 0)
            got = rat.residues[start : start + n]
            want = block_residues_per_zero(rat.cfg, k, rat.poles[start : start + n])
            assert [m for m in range(n) if got[m] != want[m]] == [], k

    def test_every_factor_is_screened(self, monkeypatch):
        """Each distinct factor 1 - w of the pass goes through
        ``_block_terms`` once, with the cancellation screen at 10^(5-P):
        for block k and each other block j, one factor per distinct root
        index (m n_j) mod n_k over m <= n_k/2, the other residues being
        conjugates."""
        cfg = RESIDUE_CONFIGS["explicit"](100)
        real = product._block_terms
        screens = []

        def screened(w, a, v, terms, lossy):
            screens.append(lossy)
            return real(w, a, v, terms, lossy)

        monkeypatch.setattr(product, "_block_terms", screened)
        residues_from_f(cfg)
        distinct = sum(
            len({m * nj % n for m in range(n // 2 + 1)})
            for k, (_, n) in enumerate(cfg.blocks)
            for j, (_, nj) in enumerate(cfg.blocks)
            if j != k
        )
        assert len(screens) == distinct
        assert set(screens) == {mpf(10) ** -95}


# Configs whose top block takes the closed form at every point of
# ``_top_block_points``, and configs where its aliasing bound sits above
# rounding, so that block K is summed directly.
CLOSED_FORM_CONFIGS = ("factorial-0.5-K4", "factorial-0.45-K4")
DIRECT_CONFIGS = {
    "doubly_exp-0.55-K3": lambda dps: make_schedule(0.55, 3, "doubly_exp", dps=dps),
    "factorial-0.5-K3": lambda dps: make_schedule(0.5, 3, "factorial", dps=dps),
    "explicit-two-blocks": lambda dps: config_from_blocks([[4, 2], [16, 4]], dps=dps),
}


class TestTopBlockClosedForm:
    """Block K's part of g in closed form against the 2P-digit direct sum
    (tests/helpers.py), and the route its aliasing bound picks."""

    @staticmethod
    def _check_closed_form(rat):
        with mp.workdps(rat.cfg.dps):
            for z in _top_block_points(rat.cfg):
                assert _top_block(rat, mpc(z)) is not None, z
                assert _agrees_with_direct(rat, z), z

    def test_agrees_with_direct_sum_at_100_digits(self, residue_rats):
        for name in CLOSED_FORM_CONFIGS:
            self._check_closed_form(residue_rats(name, 100))

    def test_agrees_with_direct_sum_at_200_digits(self, residue_rats):
        for name in CLOSED_FORM_CONFIGS:
            self._check_closed_form(residue_rats(name, 200))

    def test_explicit_blocks(self):
        """A finite product whose 256-pole top block takes the closed form
        inside and outside its circle, at 100 and 200 digits (the single
        pole at 2 keeps g(0) away from 0)."""
        blocks = [(2, 1), (4, 2), (64, 8), (65536, 256)]
        for dps in (100, 200):
            with mp.workdps(dps):
                self._check_closed_form(residues_from_f(config_from_blocks(blocks, dps=dps)))

    @pytest.mark.parametrize("dps", [100, 200])
    def test_direct_sum_where_bound_is_above_rounding(self, dps):
        """Top blocks too close to the block below for the bound: block K
        joins the direct sum (z = 0 left out where g(0) = 0 by symmetry)."""
        for name, make in DIRECT_CONFIGS.items():
            with mp.workdps(dps):
                rat = residues_from_f(make(dps))
                for z in _top_block_points(rat.cfg)[1:]:
                    assert _top_block(rat, mpc(z)) is None, (name, z)
                    assert _agrees_with_direct(rat, z), (name, z)

    def test_with_residue_reaches_far_field(self, factorial_k4_rat):
        """A replaced residue of a directly summed block moves g at 100 r_4
        by (u' - u)/(z - xi), and the original keeps its value.  Block 4's
        part comes from the config, so only blocks 1..K-1 are reached."""
        rat = factorial_k4_rat
        i = rat.pole_index(3, 5)
        z = 100 * rat.cfg.blocks[3][0] * mp.expjpi(mpf("0.71"))
        before = _g_sum(rat, z)
        delta = mpf("1e-40")
        bad = rat.with_residue(i, rat.residues[i] + delta)
        assert _top_block(bad, z) is not None
        after = _g_sum(bad, z)
        change = delta / (z - rat.poles[i])
        assert abs(after - before - change) <= mpf("1e-90") * abs(after)
        assert _g_sum(rat, z) == before


class TestProximity:
    def test_bounded_function_gives_zero(self):
        rat = one_minus_z_squared()
        m = proximity_m(lambda z: eval_g(rat, z), 2)
        assert m == 0

    def test_constant_function(self):
        c = mpc(5, 1)
        m = proximity_m(lambda z: c, 3)
        assert rel_err(m, mp.log(abs(c))) < mpf("1e-12")
        assert proximity_m(lambda z: mpf("0.25"), 3) == 0

    def test_inside_pole_circle_against_reference_quadrature(self):
        """g = 1/(z-1) at r = 0.5: positive, matches a 4096-node reference."""
        fn = lambda z: 1 / (z - 1)
        m = proximity_m(fn, mpf("0.5"))
        ref = mpf(0)
        n = 4096
        for j in range(n):
            z = mpf("0.5") * mp.expjpi(2 * mpf(j) / n)
            mag = abs(fn(z))
            ref += mp.log(mag) if mag > 1 else mpf(0)
        ref /= n
        assert m > 0
        assert abs(m - ref) < mpf("1e-6")

    def test_mirror_identity(self):
        """For r < 1, m(r, 1/(z-1)) = m(r, z-1): the circle mean of ln|z-1|
        vanishes, so positive and negative parts coincide."""
        m_inv = proximity_m(lambda z: 1 / (z - 1), mpf("0.5"))
        m_fwd = proximity_m(lambda z: z - 1, mpf("0.5"))
        assert abs(m_inv - m_fwd) < mpf("2e-6")

    def test_avoided_radius(self):
        with pytest.raises(QuadratureError):
            proximity_m(lambda z: z, 1, avoid_moduli=[mpf("1.0000001")])

    def test_nonincreasing_along_decades_and_final_small(self):
        cfg = make_schedule(0.5, 3, "factorial")
        rat = residues_from_f(cfg)
        r3 = cfg.blocks[-1][0]
        values = [
            proximity_m(lambda z: eval_g(rat, z), scale * r3)
            for scale in (10, 100, 1000)
        ]
        assert values[0] >= values[1] >= values[2]
        assert values[2] < mpf("0.01")


def max_abs_g(rat, r, n=64):
    """max |g| over n equispaced nodes of the circle |z| = r."""
    return max(abs(eval_g(rat, r * mp.expjpi(2 * mpf(j) / n))) for j in range(n))


class TestProximityCertificate:
    """``g_proximity``: m(r, g) = 0 from B(r) = sum_k U_k/|r - r_k| >= max |g|
    where B < 1, the quadrature of ``proximity_m`` elsewhere."""

    @pytest.fixture(scope="class")
    def rats(self, residue_rats):
        return {
            "headline": residue_rats("factorial-0.5-K4", 100),
            "theorem": residue_rats("factorial-0.45-K4", 100),
            "two-block": residues_from_f(config_from_blocks([[4, 2], [16, 4]])),
        }

    @pytest.mark.parametrize("name", ["headline", "theorem", "two-block"])
    def test_bound_dominates_g_in_the_far_field(self, rats, name):
        rat = rats[name]
        r_top = rat.cfg.blocks[-1][0]
        for scale in (10, 100, 1000):
            r = scale * r_top
            m, bound = g_proximity(rat, r)
            assert m == 0 and bound < 1
            assert max_abs_g(rat, r) <= bound

    @pytest.mark.parametrize("name", ["headline", "theorem", "two-block"])
    def test_bound_dominates_g_next_to_each_circle(self, rats, name):
        """At 10^-6 r_k off pole (k, 0), that pole's term outweighs the rest
        of B, so B without block k's term would fall below |g| there: for
        both blocks of two-block and blocks 1-3 of the headline (block 4's
        residues are about 10^-64)."""
        rat = rats[name]
        for k in range(1, rat.cfg.K + 1):
            z = rat.poles[rat.pole_index(k, 0)] * (1 + mpf("1e-6"))
            assert abs(eval_g(rat, z)) <= _sup_bound(rat, abs(z)), k

    def test_quadrature_where_bound_reaches_one(self):
        """factorial K=3 at r = 6 (between r_2 = 4 and r_3 = 64): B is about
        1.9, and m is the quadrature's, bit for bit."""
        cfg = make_schedule(0.5, 3, "factorial")
        rat = residues_from_f(cfg)
        m, bound = g_proximity(rat, 6)
        assert 1 < bound < 2
        assert max_abs_g(rat, 6) <= bound
        moduli = [r for r, _ in cfg.blocks]
        assert m == proximity_m(lambda z: eval_g(rat, z), 6, avoid_moduli=moduli)
        assert m > 0

    def test_bound_within_rounding_of_one_takes_the_quadrature(self, monkeypatch):
        """Two residues 2 - 4 eps at r_1 = 4 give S_1 = 1 - 2 eps, so at r = 8
        r_1 S_1/|r - r_1| is one rounding step below 1.  The allowance
        (1 + 8 eps) lifts B above 1, and the quadrature decides: m = 0,
        since |g| <= 2/3 on that circle."""
        cfg = config_from_blocks([[4, 2]])
        rat = config_interpolant(cfg, zeros(cfg, 1), [2 - 4 * mp.eps] * 2)
        assert rat.block_sums[0] == 1 - 2 * mp.eps
        calls = []
        quadrature = interpolation.proximity_m

        def spy(*args, **kwargs):
            calls.append(args[1])
            return quadrature(*args, **kwargs)

        monkeypatch.setattr(interpolation, "proximity_m", spy)
        m, bound = g_proximity(rat, 8)
        assert bound >= 1 and calls == [8] and m == 0
