"""Residues, the rational series g, summability certificates, proximity quadrature."""

import random

import pytest
from mpmath import mp, mpc, mpf

from lacunary import (
    CancellationError,
    ConfigError,
    NearPoleError,
    QuadratureError,
    config_from_blocks,
    interpolation,
    make_schedule,
    product,
)
from lacunary.coefficients import interpolation_identity_residuals, make_system
from lacunary.interpolation import (
    RationalInterpolant,
    _g_sum,
    _sup_bound,
    _top_block,
    _top_bound,
    config_interpolant,
    eval_g,
    g_proximity,
    g_tail_bound,
    proximity_m,
    residues_from_f,
)
from lacunary.product import derivative_ratio_bound, derivs_at_zero, zero_point, zeros

from helpers import (
    block_residues_per_zero, direct_g, lower_jet, recover_residue, rel_err, with_residue
)


def one_minus_z_squared():
    """f = 1 - z^2: residue 0.5 at +-1, so g(z) = z/(z^2 - 1)."""
    return residues_from_f(config_from_blocks([(1, 2)]))


class TestResidues:
    def test_one_minus_z_squared(self):
        """f = 1 - z^2: u = 1/(2 z^2) at z = +-1, i.e. 0.5 at both poles."""
        rat = one_minus_z_squared()
        assert len(rat.residues[0]) == 2
        for u in rat.residues[0]:
            assert rel_err(u, mpf("0.5")) < mpf("1e-95")

    def test_linear_factor_zero_residue(self):
        """f = 1 - z: f'' vanishes identically, so u = 0."""
        rat = residues_from_f(config_from_blocks([(1, 1)]))
        assert abs(rat.residues[0][0]) < mpf("1e-95")
        assert rat.c_bound < mpf("1e-95")

    def test_two_block_value(self):
        """xi = 16 in [[4,2],[16,4]]: u = -f''/f'^2 = -1.703125/14.0625."""
        rat = residues_from_f(config_from_blocks([(4, 2), (16, 4)]))
        assert rel_err(zero_point(rat.cfg, 2, 0), 16) < mpf("1e-95")
        assert rel_err(rat.residues[1][0], mpf("-1.703125") / mpf("14.0625")) < mpf("1e-90")

    def test_conjugate_zero_pairs_have_conjugate_residues(self):
        cfg = make_schedule(0.5, 3, "factorial")
        rat = residues_from_f(cfg)
        poles, residues = zeros(cfg, 3), rat.residues[2]
        # index 7 is the conjugate of index 1 in an 8-block
        assert abs(poles[1] - mp.conj(poles[7])) < mpf("1e-90")
        assert abs(residues[1] - mp.conj(residues[7])) < mpf("1e-85")

    def test_residues_shrink_blockwise(self, factorial_k4_rat):
        """max |u| per block decreases from block 2 on (visible o(1) decay)."""
        rat = factorial_k4_rat
        buckets = {}
        for k, block in enumerate(rat.residues, start=1):
            for u in block:
                buckets[k] = max(buckets.get(k, mpf(0)), abs(u))
        assert buckets[2] > buckets[3] > buckets[4]
        assert buckets[4] < mpf("1e-60")

    def test_block_ratio_bound_honoured(self, factorial_k4_rat):
        """|u| <= 2e prod_{j<k} (r_j/r_k)^{n_j} for k >= 2."""
        rat = factorial_k4_rat
        cfg = rat.cfg
        for k, block in enumerate(rat.residues[1:], start=2):
            for u in block:
                assert abs(u) <= derivative_ratio_bound(cfg, k)

    def test_c_bound_covers_all(self, factorial_k4_rat):
        rat = factorial_k4_rat
        assert all(abs(u) <= rat.c_bound for block in rat.residues for u in block)

    def test_with_residue_recertifies(self):
        """A replaced residue carries the certificates a fresh build gives it."""
        rat = residues_from_f(make_schedule(0.5, 3, "factorial"))
        bad = with_residue(rat, 2, 0, rat.residues[1][0] + mpf("1e-3"))
        fresh = config_interpolant(rat.cfg, bad.residues)
        assert bad.sum_included == fresh.sum_included != rat.sum_included
        assert bad.c_bound == fresh.c_bound
        assert bad.tail_sum_bound == fresh.tail_sum_bound

    def test_with_residue_refuses_a_zero_outside_the_config(self):
        rat = one_minus_z_squared()
        for k, m in ((0, 0), (2, 0), (1, 2), (1, -1)):
            with pytest.raises(ValueError):
                with_residue(rat, k, m, 1)

    def test_interpolant_from_residues_alone_is_the_same(self):
        """An interpolant built from the residues of ``residues_from_f``
        alone is equal to it, and so is every value of g."""
        cfg = make_schedule(0.5, 3, "factorial")
        rat = residues_from_f(cfg)
        rebuilt = config_interpolant(cfg, rat.residues)
        assert rebuilt == rat
        assert eval_g(rebuilt, 5) == eval_g(rat, 5)

    def test_residues_that_do_not_fit_the_config_are_refused(self):
        """One list per block, of n_k residues: a missing pole would drop
        out of g unseen, and no list at all leaves no verdict."""
        cfg = config_from_blocks([[4, 2], [16, 4]])
        residues = [list(block) for block in residues_from_f(cfg).residues]
        cases = [
            ([residues[0], residues[1][:3]], "block 2: 3 residues for its 4 zeros"),
            ([residues[0], residues[1] + [mpc(0)]], "block 2: 5 residues for its 4 zeros"),
            ([], "0 residue lists for 2 blocks"),
            ([*residues, []], "3 residue lists for 2 blocks"),
        ]
        for bad, message in cases:
            with pytest.raises(ConfigError, match=message):
                config_interpolant(cfg, bad)


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

    def test_a_block_short_of_a_residue_raises(self, factorial_k4_rat):
        """A hand-built interpolant whose block 2 holds one residue fewer
        than its zeros makes g's direct sum raise, not drop a pole."""
        rat = factorial_k4_rat
        short = RationalInterpolant(
            residues=(rat.residues[0], rat.residues[1][:-1], *rat.residues[2:]),
            sum_included=rat.sum_included,
            block_sums=rat.block_sums,
            block_max=rat.block_max,
            tail_sum_bound=rat.tail_sum_bound,
            cfg=rat.cfg,
        )
        eval_g(rat, 30 + 7j)
        with pytest.raises(ValueError):
            eval_g(short, 30 + 7j)

    def test_conjugate_symmetry(self):
        rat = residues_from_f(make_schedule(0.5, 3, "factorial"))
        rng = random.Random(5)
        for _ in range(10):
            z = mpc(rng.uniform(-50, 50), rng.uniform(5, 50))
            assert abs(eval_g(rat, mp.conj(z)) - mp.conj(eval_g(rat, z))) < mpf("1e-85")

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
        residues = [[mpc(0)] * n for _, n in cfg.blocks]
        assert config_interpolant(cfg, residues).tail_sum_bound == expected


class TestResidueRecoveryContour:
    def test_all_poles_recovered(self):
        """Contour quadrature of g recovers each stored residue: a route
        independent of factor extraction."""
        cfg = make_schedule(0.5, 3, "factorial")
        rat = residues_from_f(cfg)
        tol = mpf(10) ** (-rat.cfg.dps // 4)
        for k, block in enumerate(rat.residues, start=1):
            for m, u in enumerate(block):
                assert rel_err(recover_residue(rat, k, m), u) < tol

    def test_tiny_block4_residue_recovered(self, factorial_k4_rat):
        """Around zero (4, 17) the contour integrates block 4's closed form
        from the config: its residue there is the stored residue."""
        rat = factorial_k4_rat
        got = recover_residue(rat, 4, 17)
        assert rel_err(got, rat.residues[3][17]) < mpf(10) ** (-rat.cfg.dps // 4)


class TestSummability:
    def test_single_pole(self):
        rat = one_minus_z_squared()
        assert rel_err(rat.sum_included, 1) < mpf("1e-95")
        assert rat.summable

    def test_factorial_certificate_finite_and_first_block_dominated(self, factorial_k4_rat):
        rat = factorial_k4_rat
        assert rat.summable
        # frozen from exact-fraction differentiation of the 3-block truncation
        # (the block-4 factor shifts these below 10^-10000):
        #   u(2)  = -238800161901575072120832/134325091068047794605625
        #   u(4)  = -46116860139176722432/18446744065119617025
        #   u(-4) =  7173733793319092224/18446744065119617025
        u2 = mpf("1.777777777798797210885455549525705531271")
        u4 = mpf("2.499999998719431459171880574316541355562")
        u4m = mpf("0.3888888883585524225203691969752262313266")
        per_block = rat.block_sums
        assert rel_err(per_block[0], u2 / 2) < mpf("1e-35")
        assert rel_err(per_block[1], (u4 + u4m) / 4) < mpf("1e-35")
        # blocks 3, 4 and the analytic tail add a sliver on top of ~29/18
        total = rat.sum_included + rat.tail_sum_bound
        assert 0 < total - (u2 / 2 + (u4 + u4m) / 4) < mpf("1e-4")
        assert len(per_block) == 4
        # dominated by the first blocks
        assert per_block[0] + per_block[1] > per_block[2] + per_block[3]
        for k in (1, 2, 3, 4):
            assert rat.residue_bounds[k - 1] == derivative_ratio_bound(rat.cfg, k)
            assert rat.block_max[k - 1] <= rat.residue_bounds[k - 1]

    def test_top_block_residue_beyond_closed_form_fails(self, factorial_k4_rat):
        """Residue (4, 1234) doubled is within block 4's residue-ratio
        bound, but not within M_4: the verdict fails and says why, and
        block 4 reports the stored numbers instead of the closed form."""
        rat = factorial_k4_rat
        bad = with_residue(rat, 4, 1234, 2 * rat.residues[3][1234])
        assert bad.block_max[3] <= bad.residue_bounds[3]
        assert bad.block_max[3] == 2 * abs(rat.residues[3][1234]) > rat.block_max[3]
        assert not bad.summable
        assert bad.unsummable == (
            "block 4: largest |u| 6.1083205e-64 exceeds M_K (1 + delta) 3.0541607e-64"
        )
        assert rat.summable and rat.unsummable is None

    def test_finite_residue_beyond_block_bound_fails(self, factorial_k4_rat):
        """A finite but wrong residue: sum |u/z| stays finite, the block-4
        residue bound does not hold."""
        rat = factorial_k4_rat
        bad = with_residue(rat, 4, 1234, 1000 * rat.residues[3][1234])
        assert bad.sum_included + bad.tail_sum_bound < mpf("inf")
        assert bad.block_max[3] > bad.residue_bounds[3]
        assert not bad.summable


def _agrees_with_direct(rat, z):
    """_g_sum(z) within 10^(10-P) of the plain partial-fraction sum over the
    config's zeros and the stored residues, summed at 2P digits."""
    with mp.workdps(rat.cfg.dps):
        z = mpc(z)
        got = _g_sum(rat, z, lower_jet(rat, z))
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


class TestTopBlockCertificate:
    """Block K's certificates come from its closed form: M_K = |U_K(1)|
    and n_K M_K / r_K, which every enumerated residue and their sum
    respect to within the rounding delta of ``_top_bound``."""

    @pytest.mark.parametrize("dps", [100, 200])
    @pytest.mark.parametrize(
        "name",
        ["factorial-0.5-K4", "factorial-0.45-K4", "doubly_exp-0.55-K3", "readme-blocks"],
    )
    def test_enumerated_residues_within_the_closed_form(self, residue_rats, name, dps):
        if name == "readme-blocks":
            with mp.workdps(dps):
                rat = residues_from_f(config_from_blocks([[4, 2], [16, 4]], dps=dps))
        else:
            rat = residue_rats(name, dps)
        cfg = rat.cfg
        r, n = cfg.blocks[-1]
        with mp.workdps(dps):
            M, limit = _top_bound(cfg)
            delta = limit / M - 1
            assert 0 < delta < mp.power(10, 3 - dps)
            assert rat.block_max[-1] == M and rat.block_sums[-1] == n * M / r
            sizes = [abs(u) for u in rat.residues[-1]]
            # the bound is reached at m = 0 (and, on [[4,2],[16,4]], at m = 2)
            tops = [m for m, size in enumerate(sizes) if size >= M * (1 - delta)]
            assert tops == ([0, 2] if name == "readme-blocks" else [0])
            assert max(sizes) <= limit
            assert mp.fsum(sizes) / r <= rat.block_sums[-1] * (1 + delta)
            assert rat.summable
            assert config_interpolant(cfg, rat.residues) == rat

    @pytest.mark.parametrize("name", ["factorial-0.5-K4", "factorial-0.45-K4", "doubly_exp-0.55-K3"])
    def test_verdict_does_not_depend_on_the_ambient_precision(self, residue_rats, name):
        """Block K's limit is formed at the config's precision, so the
        verdict holds whatever precision reads it: an interpolant built
        and read at 15 digits, and a 200-digit one read at 15, 30 and
        100 digits (each of these cases failed when the limit was formed
        at the reader's precision)."""
        with mp.workdps(15):
            assert residues_from_f(RESIDUE_CONFIGS[name](100)).summable
        rat = residue_rats(name, 200)
        for dps in (15, 30, 100):
            with mp.workdps(dps):
                assert rat.summable and rat.unsummable is None

    def test_residue_pass_takes_no_abs_of_the_top_block(self, monkeypatch):
        """``residues_from_f`` certifies block K without |u| of any of its
        residues: neither abs nor the squared-modulus test
        ``_modulus_within`` sees one.  ``config_interpolant``, which holds
        the residues it is given, puts every one of block K's through that
        test, and takes abs of none."""

        class Untouchable(mpc):
            def __abs__(self):
                raise AssertionError("|u| of a block-K residue taken")

        real = interpolation._block_residues

        def probed(cfg, k):
            residues = real(cfg, k)
            if k < cfg.K:
                return residues
            return [Untouchable(u.real, u.imag) for u in residues]

        tested = []
        within = interpolation._modulus_within

        def spy(u, limit):
            tested.append(u)
            return within(u, limit)

        monkeypatch.setattr(interpolation, "_block_residues", probed)
        monkeypatch.setattr(interpolation, "_modulus_within", spy)
        cfg = make_schedule(0.5, 4, "factorial")
        rat = residues_from_f(cfg)
        assert rat.block_max[-1] == _top_bound(cfg)[0] and tested == []
        assert config_interpolant(cfg, rat.residues) == rat
        assert tested == list(rat.residues[-1]) and len(tested) == cfg.blocks[-1][1]
        assert all(isinstance(u, Untouchable) for u in tested)


class TestDeferredTopBlock:
    """``make_system(cfg, defer_top=True)`` leaves block K unformed: its
    certificates come from the closed form, and its first read forms it
    once, bit for bit the block of ``residues_from_f``, whatever the
    ambient precision."""

    @pytest.fixture
    def formed(self, monkeypatch):
        """The block index of every residue pass."""
        calls = []
        real = interpolation._block_residues

        def counted(cfg, k):
            calls.append(k)
            return real(cfg, k)

        monkeypatch.setattr(interpolation, "_block_residues", counted)
        return calls

    @pytest.mark.parametrize("ambient", [15, 53, 200])
    @pytest.mark.parametrize("reader", ["identity", "proximity"])
    def test_first_read_forms_the_eager_block_once(self, formed, reader, ambient):
        """factorial K=3: the interpolation identity reads block 3 by index,
        and g_proximity at r = 6 (B about 1.9) by g's direct sum, which
        takes every block there."""
        cfg = make_schedule(0.5, 3, "factorial")
        eager = make_system(cfg)
        assert formed == [1, 2, 3]
        deferred = make_system(cfg, defer_top=True)
        rat = deferred.rat
        assert formed == [1, 2, 3, 1, 2]
        assert (rat.block_sums, rat.block_max) == (eager.rat.block_sums, eager.rat.block_max)
        assert rat.summable and rat.sum_included == eager.rat.sum_included
        assert _sup_bound(rat, 6) == _sup_bound(eager.rat, 6) and formed == [1, 2, 3, 1, 2]
        with mp.workdps(ambient):
            if reader == "identity":
                read = [interpolation_identity_residuals(s) for s in (deferred, eager)]
            else:
                read = [g_proximity(s.rat, 6) for s in (deferred, eager)]
                assert read[0][1] >= 1
        assert read[0] == read[1]
        assert formed == [1, 2, 3, 1, 2, 3]
        top = rat.residues[-1]
        assert [u._mpc_ for u in top] == [u._mpc_ for u in eager.rat.residues[-1]]
        assert len(top) == 8 and top[5] == eager.rat.residues[-1][5]
        assert formed == [1, 2, 3, 1, 2, 3]

    def test_deferred_interpolant_equals_the_formed_one(self, formed):
        """A deferred block compares and hashes as the tuple it forms:
        before its first read (== forms it) and after it, the deferred
        interpolant equals ``residues_from_f``'s, with the same hash."""
        cfg = make_schedule(0.5, 3, "factorial")
        eager = residues_from_f(cfg)
        unread, read = (make_system(cfg, defer_top=True).rat for _ in range(2))
        read.residues[-1][0]
        assert formed == [1, 2, 3, 1, 2, 1, 2, 3]
        assert unread == eager and eager == unread
        assert formed == [1, 2, 3, 1, 2, 1, 2, 3, 3]
        assert read == eager and hash(read) == hash(eager) == hash(unread)
        assert unread.residues[-1] == read.residues[-1] == eager.residues[-1]
        assert len(formed) == 9


def _folded_indices(n: int, nj: int) -> set[int]:
    """The folded root indices min(i, n - i), i = (m nj) mod n, that the
    residue pass reads for an other block of multiplicity nj over the
    zeros m <= n/2 of a block with n zeros."""
    return {min(i, n - i) for i in (m * nj % n for m in range(n // 2 + 1))}


class TestBlockResidues:
    """The block-by-block residue pass against the per-zero route, -f''/f'^2
    from ``derivs_at_zero`` at each zero, and its conjugate half
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
                    f1, f2 = derivs_at_zero(cfg, k, m)
                    want = -f2 / (f1 * f1)
                    got = rat.residues[k - 1][m]
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
    def test_pass_equals_object_level_formula(self, residue_rats, name, dps):
        """The pass on raw tuples, with its shared factors and its mirrored
        half, is bit for bit the closed form in plain mpc arithmetic run on
        every zero of the same unit roots (tests/helpers.py)."""
        rat = residue_rats(name, dps)
        for k, (_, n) in enumerate(rat.cfg.blocks, start=1):
            got = rat.residues[k - 1]
            want = block_residues_per_zero(rat.cfg, k)
            assert [m for m in range(n) if got[m] != want[m]] == [], k

    @pytest.mark.parametrize("name", sorted(RESIDUE_CONFIGS))
    def test_each_conjugate_pair_formed_once(self, monkeypatch, name):
        """The pass forms block j's factor and term once per conjugate pair
        of root indices within block k (``_pair_terms``): once per folded
        index min(i, n_k - i) of i = (m n_j) mod n_k over m <= n_k/2.  On
        the headline's block 4 that is 2,049 + 1,025 + 257 = 3,331
        formations; one per distinct index would be 4,609."""
        cfg = RESIDUE_CONFIGS[name](100)
        formed, real = [], product._pair_terms

        def counted(rt, nj, *args):
            formed.append(nj)
            return real(rt, nj, *args)

        monkeypatch.setattr(product, "_pair_terms", counted)
        for k, (_, n) in enumerate(cfg.blocks, start=1):
            formed.clear()
            product._block_residues(cfg, k)
            want = sum(
                len(_folded_indices(n, nj))
                for j, (_, nj) in enumerate(cfg.blocks, start=1)
                if j != k
            )
            assert len(formed) == want, k
            if (name, k) == ("factorial-0.5-K4", 4):
                assert want == 3331

    def test_every_factor_is_screened(self, monkeypatch):
        """The screen's first clause runs once per other block, at 10^(5-P);
        where it holds, one factor 1 - w of each conjugate pair of that
        block goes through ``_block_terms``: one per folded root index
        min(i, n_k - i) of i = (m n_j) mod n_k over m <= n_k/2, the other
        residues being conjugates.  A block of modulus 1 + 10^-99 raises."""
        cfg = RESIDUE_CONFIGS["explicit"](100)
        real_clause, real_terms = product._lossy_modulus, product._block_terms
        clauses, screens = [], []

        def clause(a, lossy, prec):
            clauses.append(lossy)
            return real_clause(a, lossy, prec)

        def screened(w, terms, bands, prec):
            screens.append(bands[0])
            return real_terms(w, terms, bands, prec)

        monkeypatch.setattr(product, "_lossy_modulus", clause)
        monkeypatch.setattr(product, "_block_terms", screened)
        residues_from_f(cfg)
        assert len(clauses) == cfg.K * (cfg.K - 1) and screens == []
        assert set(clauses) == {(mpf(10) ** -95)._mpf_}

        monkeypatch.setattr(product, "_lossy_modulus", lambda a, lossy, prec: True)
        residues_from_f(cfg)
        folded = sum(
            len(_folded_indices(n, nj))
            for k, (_, n) in enumerate(cfg.blocks)
            for j, (_, nj) in enumerate(cfg.blocks)
            if j != k
        )
        assert len(screens) == folded
        assert set(screens) == {(mpf(10) ** -95)._mpf_}

        monkeypatch.setattr(product, "_lossy_modulus", real_clause)
        near_one = mpf(1) + mpf(10) ** -99
        monkeypatch.setattr(
            product, "_other_blocks", lambda cfg, k: [(n, near_one) for _, n in cfg.blocks[1:]]
        )
        with pytest.raises(CancellationError):
            residues_from_f(cfg)


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
                assert _top_block(rat, mpc(z), lower_jet(rat, z)) is not None, z
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
                    assert _top_block(rat, mpc(z), lower_jet(rat, z)) is None, (name, z)
                    assert _agrees_with_direct(rat, z), (name, z)

    def test_bound_above_rounding_forms_no_closed_form(self, monkeypatch):
        """Where no contour term of the aliasing bound is below rounding
        (doubly_exp 0.55 K=3), ``_top_block`` returns None before it forms
        (z/r_K)^(n-1) or C, and g's kernel is the direct sum over every
        block, bit for bit."""
        rat = residues_from_f(DIRECT_CONFIGS["doubly_exp-0.55-K3"](100))
        cfg = rat.cfg
        powers, power = [], mp.power

        def counted(*args):
            powers.append(args)
            return power(*args)

        with mp.workdps(cfg.dps):
            points = [mpc(z) for z in _top_block_points(cfg)[1:]]
            heads = [lower_jet(rat, z) for z in points]
            rat._contours  # the bound's per-interpolant constants, formed once
            with monkeypatch.context() as patch:
                patch.setattr(mp, "power", counted)
                tops = [_top_block(rat, z, head) for z, head in zip(points, heads)]
            assert tops == [None] * len(points) and powers == []
            poles = [zeros(cfg, k) for k in range(1, cfg.K + 1)]
            for z, head in zip(points, heads):
                direct = mpc(0)
                for block_poles, block in zip(poles, rat.residues):
                    for p, u in zip(block_poles, block):
                        direct += u / (z - p)
                assert _g_sum(rat, z, head) == direct, z

    def test_directly_summed_zeros_are_formed_once(self, monkeypatch):
        """Where block K joins the direct sum (doubly_exp 0.55 K=3), the first
        g call forms the zeros of every block; later calls form none."""
        rat = residues_from_f(DIRECT_CONFIGS["doubly_exp-0.55-K3"](100))
        points = [mpc(3, 5), mpc(-7, 20)]
        first = [eval_g(rat, points[0])]
        roots, unit_root = [], product._unit_root

        def counted(*args):
            roots.append(args)
            return unit_root(*args)

        monkeypatch.setattr(product, "_unit_root", counted)
        assert [eval_g(rat, z) for z in points[:1]] == first
        eval_g(rat, points[1])
        assert roots == []
        assert all(_top_block(rat, z, lower_jet(rat, z)) is None for z in points)

    def test_with_residue_reaches_far_field(self, factorial_k4_rat):
        """A replaced residue of a directly summed block moves g at 100 r_4
        by (u' - u)/(z - xi), and the original keeps its value.  Block 4's
        part comes from the config, so only blocks 1..K-1 are reached."""
        rat = factorial_k4_rat
        z = 100 * rat.cfg.blocks[3][0] * mp.expjpi(mpf("0.71"))
        head = lower_jet(rat, z)
        before = _g_sum(rat, z, head)
        delta = mpf("1e-40")
        bad = with_residue(rat, 3, 5, rat.residues[2][5] + delta)
        assert _top_block(bad, z, head) is not None
        after = _g_sum(bad, z, head)
        change = delta / (z - zero_point(rat.cfg, 3, 5))
        assert abs(after - before - change) <= mpf("1e-90") * abs(after)
        assert _g_sum(rat, z, head) == before


def _closed_form(rat, z):
    """C(z) = (n - 1 + 2 z L) (w/z) / ((w - 1) P) of ``_top_block``, formed
    whatever its bound, at the working precision."""
    r, n = rat.cfg.blocks[-1]
    P, L = lower_jet(rat, z)
    zeta = z / r
    return (n - 1 + 2 * z * L) * zeta ** (n - 1) / (r * (zeta**n - 1) * P)


def _formula_bound(blocks, x, size):
    """``_aliasing_bound`` with every term formed at the point, as the
    docstring states it: the oracle for the constants held per interpolant."""
    (r, n), lower = blocks[-1], blocks[:-1]
    if not lower:
        return mpf(0)
    best = mpf("inf")
    for c in (2, 4):
        rho = c * lower[-1][0] / r
        if rho >= 1 or rho == x:
            continue
        M = interpolation._closed_form_max(
            n, [(nj, mp.power(rho * r / rj, nj)) for rj, nj in lower]
        )
        rn = mp.power(rho, n)
        bound = n * rn * M / (r * (1 - rn) * abs(x - rho))
        best = min(best, bound + size if x < rho else bound)
    return best


def _aliasing_bound_at(rat, x, size):
    """``_aliasing_bound`` at |z| = x r_K from the interpolant's held terms."""
    return interpolation._aliasing_bound(interpolation._contour_bounds(rat, x), size)


ALIASING_RADII = ("0.05", "0.1", "0.3", "0.6", "0.9", "1.5", "3", "10")


class TestAliasingBound:
    """``_aliasing_bound`` against the aliasing error it bounds."""

    @pytest.mark.parametrize("name", list(DIRECT_CONFIGS))
    def test_bounds_the_measured_error(self, name):
        """|G_K - C|, block K's direct sum minus its closed form, both at 200
        digits, on the configs whose bound sits above rounding: the bound
        at 100 digits holds it at |z| from 0.05 to 10 r_K, inside and
        outside the contours, and exceeds it by less than 10^7."""
        make = DIRECT_CONFIGS[name]
        rat, fine = residues_from_f(make(100)), residues_from_f(make(200))
        r = rat.cfg.blocks[-1][0]
        for x in map(mpf, ALIASING_RADII):
            z = x * r * mp.expjpi(mpf("0.37"))
            with mp.workdps(200):
                zf = mpc(z)
                poles = zeros(fine.cfg, fine.cfg.K)
                direct = mp.fsum(u / (zf - p) for p, u in zip(poles, fine.residues[-1]))
                measured = abs(direct - _closed_form(fine, zf))
            bound = _aliasing_bound_at(rat, x, abs(_closed_form(rat, mpc(z))))
            assert measured <= bound <= mpf(10) ** 7 * measured, (name, x, measured, bound)

    @pytest.mark.parametrize("name", ["headline", *DIRECT_CONFIGS])
    def test_held_constants_give_the_formula(self, name, factorial_k4_rat):
        """The bound from the constants each interpolant holds is the formula
        formed at the point, bit for bit, on both sides of each contour.  On
        the headline no precision reaches the error itself: the bound is
        below 10^-19000 at every radius."""
        rat = factorial_k4_rat if name == "headline" else residues_from_f(DIRECT_CONFIGS[name](100))
        r = rat.cfg.blocks[-1][0]
        rhos = [c * rat.cfg.blocks[-2][0] / r for c in (2, 4)]
        for x in [*map(mpf, ALIASING_RADII), *(rho * mpf(s) for rho in rhos for s in ("0.5", "2"))]:
            size = abs(_closed_form(rat, x * r * mp.expjpi(mpf("0.37"))))
            got = _aliasing_bound_at(rat, x, size)
            assert got == _formula_bound(rat.cfg.blocks, x, size), (name, x)
            if name == "headline":
                assert got < size + mpf(10) ** -19000


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

    def test_raises_at_the_cap_sampling_each_node_once(self):
        """A pole 1e-7 outside |z| = 1 leaves the rule unconverged at 2^14
        nodes: it raises after one call of fn per node, carrying the last two
        estimates."""
        calls = [0]

        def fn(z):
            calls[0] += 1
            return 1 / (z - mpf("1.0000001"))

        with mp.workdps(15), pytest.raises(QuadratureError) as info:
            proximity_m(fn, 1)
        assert calls[0] == 1 << 14
        assert len(info.value.estimates) == 2

    def test_stops_only_after_two_small_steps(self, factorial_k4_rat):
        """m(6, g) on the headline: the estimates from 64 and 128 nodes differ
        by 5.6e-7, yet 256 nodes move the estimate by 3.8e-5.  The rule
        waits for two successive steps below 10^-6 and lands within 10^-6
        of the 4096-node trapezoid estimate on the same nodes."""
        rat, values = factorial_k4_rat, {}

        def g(z):
            if z not in values:
                values[z] = eval_g(rat, z)
            return values[z]

        m = proximity_m(g, 6)
        with mp.extraprec(10):
            nodes = [mpf(6) * mp.expjpi(2 * mpf(j) / 4096) for j in range(4096)]
            reference = mp.fsum(interpolation._log_plus(g(z)) for z in nodes) / 4096
        assert abs(m - reference) < mpf("1e-6")

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
            z = zero_point(rat.cfg, k, 0) * (1 + mpf("1e-6"))
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
        rat = config_interpolant(cfg, [[2 - 4 * mp.eps] * 2])
        assert rat.block_sums[0] == 1 - 2 * mp.eps
        calls = []
        quadrature = interpolation.proximity_m

        def spy(*args, **kwargs):
            calls.append(args[1])
            return quadrature(*args, **kwargs)

        monkeypatch.setattr(interpolation, "proximity_m", spy)
        m, bound = g_proximity(rat, 8)
        assert bound >= 1 and calls == [8] and m == 0
