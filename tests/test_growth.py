"""Growth scans: max modulus, characteristic functions, order/witness/indicator."""

import pytest
from mpmath import mp, mpc, mpf

from lacunary import config_from_blocks, make_schedule
from lacunary.coefficients import build_H
from lacunary.growth import (
    HZeroDiskFamily,
    ZeroDiskFamily,
    _softplus,
    counting_N,
    crg_witness,
    indicator_scan,
    log_max_modulus_bound,
    nevanlinna,
    order_scan,
    verify_thm2_asymptotics,
)
from lacunary.interpolation import eval_g, residues_from_f
from lacunary import product
from lacunary.errors import CancellationError, ZeroOnContourError
from lacunary.product import (
    _fprime_on_circle,
    _jet,
    _scan_blocks,
    eval_f,
    eval_f_scan,
)

from helpers import alignment_correction, log_max_modulus, rel_err


@pytest.fixture(scope="module")
def factorial_cfg():
    mp.dps = 100
    return make_schedule(0.5, 4, "factorial")


class TestLogMaxModulus:
    def test_one_minus_z_squared(self):
        cfg = config_from_blocks([(1, 2)])
        value, theta = log_max_modulus(lambda z: eval_f(cfg, z), 2)
        assert rel_err(value, mp.log(5)) < mpf("1e-10")
        # maximum sits at +-i directions
        assert min(abs(theta - mp.pi / 2), abs(theta - 3 * mp.pi / 2)) < mpf("1e-5")

    def test_scaled_single_block(self):
        cfg = config_from_blocks([(4, 2)])
        value, _ = log_max_modulus(lambda z: eval_f(cfg, z), 8)
        assert rel_err(value, mp.log(5)) < mpf("1e-10")

    def test_term_sum_matches_direct_evaluation(self, factorial_cfg):
        """Formula vs golden-section search at r = e*r_3: inside 1 percent,
        and inside the alignment correction."""
        r = mp.e * 64
        formula = log_max_modulus_bound(factorial_cfg, r)
        direct, _ = log_max_modulus(lambda z: eval_f(factorial_cfg, z), r, n_theta=128)
        assert abs(formula - direct) / direct < mpf("0.01")
        assert direct <= formula
        assert formula - direct <= alignment_correction(factorial_cfg, r)


@pytest.mark.parametrize(
    "cfg",
    [
        make_schedule(0.5, 4, "factorial"),
        make_schedule(0.55, 3, "doubly_exp"),
        make_schedule(0.5, 2, "factorial"),
        config_from_blocks([(4, 2), (16, 4)]),
    ],
    ids=["factorial-K4", "doubly_exp-K3", "factorial-K2", "explicit"],
)
def test_term_sum_runs_over_scan_blocks(cfg):
    """At every dip and peak radius the formula is the term sum over
    ``_scan_blocks``, bit for bit, and so is the sum taken past K until a
    term falls below 10^-90: the blocks that the 10^-40 cutoff of
    ``_scan_blocks`` leaves out do not reach the working precision."""

    def exponent(block, r):  # ln (r/r_j)^{n_j}
        return mpf(block[1]) * (mp.log(r) - mp.log(block[0]))

    def term_sum(blocks, r):
        return sum((_softplus(exponent(b, r)) for b in blocks), mpf(0))

    with mp.workdps(cfg.dps):
        for r_k, _ in cfg.blocks:
            for r in (r_k, mp.e * r_k):
                formula = log_max_modulus_bound(cfg, r)
                assert formula == term_sum(_scan_blocks(cfg, r), r), r
                blocks = list(cfg.blocks)
                while cfg.rule is not None and exponent(blocks[-1], r) >= -90 * mp.log(10):
                    blocks.append(cfg.block(len(blocks) + 1))
                assert formula == term_sum(blocks, r), r


def _every_exp_bound(cfg, r):
    """``log_max_modulus_bound`` as it stood with an exp for every block:
    the oracle that the absorbed terms must match bit for bit."""
    with mp.workdps(cfg.dps):
        r = mpf(r)
        log_r = mp.log(r)
        total = mpf(0)
        for r_k, n_k in _scan_blocks(cfg, r):
            total += _softplus(cfg._multiplicity(n_k) * (log_r - mp.log(r_k)))
        return total


@pytest.mark.parametrize("dps, top", [(30, 7), (100, 7), (200, 6)])
def test_term_sum_forms_no_exp_that_rounding_absorbs(monkeypatch, dps, top):
    """At the dip and peak radii of blocks 1..``top`` of factorial K=4,
    between them, and below r_1, the formula keeps the bits of an exp for
    every block, while no exp of an exponent beyond 2^20
    is formed: each such term is absorbed by what it joins.  (At 200
    digits the oracle's exps past block 6 take minutes.)"""
    cfg = make_schedule(0.5, 4, "factorial", dps=dps)
    exp, huge = mp.exp, []

    def watched(x, **kwargs):
        if abs(x) > 2**20:
            huge.append(x)
        return exp(x, **kwargs)

    with mp.workdps(dps):
        radii = [mpf("0.01"), mpf("0.5"), mpf(1)]
        for k in range(1, top + 1):
            r_k = cfg.block(k)[0]
            radii += [r_k, mp.e * r_k, mp.sqrt(r_k * cfg.block(k + 1)[0])]
        want = [_every_exp_bound(cfg, r) for r in radii]
        monkeypatch.setattr(mp, "exp", watched)
        got = [log_max_modulus_bound(cfg, r) for r in radii]
    assert [x._mpf_ for x in got] == [x._mpf_ for x in want]
    assert huge == []


class TestNevanlinna:
    def test_counting_closed_form(self):
        # N(e, poles at +-1) = 2 ln(e) = 2
        assert rel_err(counting_N([1, 1], mp.e), 2) < mpf("1e-95")
        assert counting_N([1, 1], mpf("0.5")) == 0

    def test_nonnegative_proximity(self):
        cfg = config_from_blocks([(1, 2)])
        m, n, t = nevanlinna(lambda z: eval_f(cfg, z), [1, 1], 5)
        assert m >= 0
        assert t == m + n

    def test_characteristic_vs_counting_for_g(self, factorial_cfg):
        """|T(r,g) - N(r,g)| = m(r,g) < 0.05 at r = 100 r_3 for K=3."""
        cfg = make_schedule(0.5, 3, "factorial")
        rat = residues_from_f(cfg)
        moduli = [abs(p) for k in range(1, cfg.K + 1) for p in product.zeros(cfg, k)]
        r = 100 * cfg.blocks[-1][0]
        m, n, t = nevanlinna(lambda z: eval_g(rat, z), moduli, r)
        assert n > 0
        assert abs(t - n) < mpf("0.05")
        # N(r, g) grows strictly along the decades 10, 100, 1000 r_3
        ns = [counting_N(moduli, scale * cfg.blocks[-1][0]) for scale in (10, 100, 1000)]
        assert 0 < ns[0] < ns[1] < ns[2]

    def test_counting_nondecreasing(self):
        moduli = [1, 2, 4, 8]
        values = [counting_N(moduli, r) for r in (mpf("0.5"), 1, 3, 10, 100)]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestOrderScan:
    def test_peak_ratios_in_band_and_converging(self, factorial_cfg):
        scan = order_scan(factorial_cfg, range(4, 8))
        peaks = scan.ratios("peak")
        assert len(peaks) == 4
        for ratio in peaks:
            assert mpf("0.40") <= ratio <= mpf("0.70")
        gaps = [abs(r - mpf("0.5")) for r in peaks]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_dip_ratios_strictly_decreasing(self, factorial_cfg):
        scan = order_scan(factorial_cfg, range(4, 8))
        dips = scan.ratios("dip")
        assert all(a > b for a, b in zip(dips, dips[1:]))
        assert dips[0] < mpf("0.31")

    def test_single_block_ratios_decay(self):
        """Polynomial-like config: lnln M / ln r decreasing toward 0."""
        cfg = config_from_blocks([(4, 2)])
        ratios = []
        for r in (mpf(100), mpf(10) ** 4, mpf(10) ** 8):
            log_max = log_max_modulus_bound(cfg, r)
            ratios.append(mp.log(log_max) / mp.log(r))
        assert ratios[0] > ratios[1] > ratios[2]

    def test_frozen_peak_value(self, factorial_cfg):
        """ln M(e r_4) ~ n_4 + sum_{j<4} n_j (1 + ln(r_4/r_j)) ~ 4253.25."""
        scan = order_scan(factorial_cfg, [4])
        peak_row = [row for row in scan.rows if row.kind == "peak"][0]
        expected = 4096 + sum(
            n * (1 + (24 - e) * mp.log(2)) for n, e in ((1, 1), (2, 2), (8, 6))
        )
        assert abs(peak_row.log_max - expected) < mpf("0.01")
        assert mpf("4253") < peak_row.log_max < mpf("4254")


class TestWitness:
    def test_factorial_violation(self, factorial_cfg):
        rep = crg_witness(factorial_cfg, range(4, 8))
        assert rep.verdict == "violation"
        assert rep.a[1] < mpf("0.05")  # a_5
        assert all(x1 > x2 for x1, x2 in zip(rep.a, rep.a[1:]))
        for bk in rep.b:
            assert mpf("0.3") <= bk <= mpf("1.5")
        # b stabilizes near e^{-1/2}
        assert abs(rep.b[-1] - mp.exp(mpf("-0.5"))) < mpf("1e-3")

    def test_dip_to_peak_separation_grows(self, factorial_cfg):
        """The normalized dip value collapses relative to the peak value
        from block 5 on (the visible growth irregularity)."""
        rep = crg_witness(factorial_cfg, range(5, 8))
        for a_k, b_k in zip(rep.a, rep.b):
            assert b_k / a_k > 5

    def test_single_block_no_violation(self):
        rep = crg_witness(config_from_blocks([(4, 2)]), [1])
        assert rep.verdict == "no violation"
        rep2 = crg_witness(config_from_blocks([(1, 2)]), [1])
        assert rep2.verdict == "no violation"

    @pytest.mark.parametrize(
        "cfg, ks, verdict",
        [
            (make_schedule(0.5, 4, "factorial"), range(4, 8), "violation"),
            (make_schedule(0.45, 4, "factorial"), range(4, 8), "violation"),
            (make_schedule(0.5, 4, "doubly_exp"), range(4, 8), "no violation"),
            (config_from_blocks([(4, 2), (16, 4)]), range(1, 3), "no violation"),
        ],
        ids=["factorial-0.5", "factorial-0.45", "doubly_exp-0.5", "explicit"],
    )
    def test_verdict_holds_for_ln_m_itself(self, cfg, ks, verdict):
        """a and b come from the term sum, an upper bound for ln M.  With
        the side that the verdict needs lowered by the alignment correction
        (b for a violation, a for none), the comparison still comes out the
        same way, so the verdict holds for ln M and not only for its bound."""
        rep = crg_witness(cfg, ks)
        assert rep.verdict == verdict
        with mp.workdps(cfg.dps):
            low = [
                (row.log_max - alignment_correction(cfg, row.r)) / mp.power(row.r, cfg.rho_f)
                for row in rep.rows
            ]
            if verdict == "violation":
                assert max(rep.a) < min(low[1::2]) / rep.threshold_factor
            else:
                assert max(low[::2]) >= min(rep.b) / rep.threshold_factor

    def test_verdict_threshold_recorded(self, factorial_cfg):
        rep = crg_witness(factorial_cfg, range(5, 8))
        assert rep.threshold_factor == 3
        assert max(rep.a) < min(rep.b) / rep.threshold_factor


class TestIndicatorScan:
    def test_conjugate_symmetry_of_samples(self, factorial_cfg):
        thetas = [mpf("0.7"), -mpf("0.7")]
        scan = indicator_scan(
            lambda z: eval_f_scan(factorial_cfg, z),
            factorial_cfg.rho_f,
            thetas,
            [mpf(16) * 64],
            exclusion=ZeroDiskFamily(factorial_cfg),
        )
        s1, s2 = scan.samples
        assert abs(s1.log_abs - s2.log_abs) < mpf("1e-80") * max(1, abs(s1.log_abs))

    def test_h_positivity_at_large_radius(self):
        h = build_H(0.25)
        thetas = [2 * mp.pi * j / 72 for j in range(72)]
        scan = indicator_scan(
            h.eval, h.rho, thetas, [mpf(10) ** 6], exclusion=HZeroDiskFamily(h)
        )
        assert scan.budget_ok
        assert scan.min_ratio() > 0

    def test_exclusion_marks_samples_on_zero(self):
        h = build_H(0.25)
        r = h.moduli[19]  # circle through the 20th zero
        scan = indicator_scan(
            h.eval, h.rho, [mp.pi], [r], exclusion=HZeroDiskFamily(h)
        )
        assert scan.samples[0].excluded

    def test_budget_flag_trips_at_dip_radius(self, factorial_cfg):
        """At r = r_3 the block-3 disks alone sum to r_3: budget must flag."""
        fam = ZeroDiskFamily(factorial_cfg)
        scan = indicator_scan(
            lambda z: eval_f_scan(factorial_cfg, z),
            factorial_cfg.rho_f,
            [mpf("0.1")],
            [mpf(64)],
            exclusion=fam,
        )
        assert not scan.budget_ok
        scan_far = indicator_scan(
            lambda z: eval_f_scan(factorial_cfg, z),
            factorial_cfg.rho_f,
            [mpf("0.1")],
            [mpf(16) * 64],
            exclusion=fam,
        )
        assert scan_far.budget_ok

    def test_excluded_cancelling_samples_record_the_whole_product(self):
        """On zeros of factorial K=2's rule-extended block 3 the scan keeps
        log|f| of the lossy product over every scanned block, not of the
        one factor that cancelled."""
        cfg = make_schedule(0.5, 2, "factorial")
        r = 16 * cfg.blocks[-1][0]
        thetas = [2 * mp.pi * j / 8 for j in range(8)]
        fn = lambda z: eval_f_scan(cfg, z)
        scan = indicator_scan(fn, cfg.rho_f, thetas, [r], exclusion=ZeroDiskFamily(cfg))
        cancelling = 0
        for s in scan.samples:
            z = s.r * mp.exp(mpc(0, 1) * s.theta)
            try:
                fn(z)
                continue
            except CancellationError:
                cancelling += 1
            assert s.excluded
            with mp.workdps(cfg.dps), pytest.raises(CancellationError) as info:
                _jet(_scan_blocks(cfg, s.r), z, 0)
            whole = info.value.result
            assert s.log_abs == mp.log(abs(whole))
        assert cancelling >= 2  # theta = 0 and theta = pi sit on zeros

    def test_dip_vs_peak_along_zero_direction(self, factorial_cfg):
        """ln M at r_k vs e r_k differ by a factor > 5 from k = 5 on."""
        for k in (5, 6, 7):
            r_k, _ = factorial_cfg.block(k)
            dip = log_max_modulus_bound(factorial_cfg, r_k)
            peak = log_max_modulus_bound(factorial_cfg, mp.e * r_k)
            assert peak / dip > 5


class TestThm2Asymptotics:
    def test_factorial_k3_all_checks(self, factorial_cfg):
        rep = verify_thm2_asymptotics(factorial_cfg, 3, seed=0)
        assert rep.partial_pass and rep.logderiv_pass and rep.fprime_pass
        assert rep.disks_pass and rep.passed
        by_block = {d.block: d for d in rep.disks}
        assert not by_block[1].applicable
        assert not by_block[2].applicable
        assert by_block[3].applicable and by_block[3].winding == 0

    def test_zero_fprime_on_contour_raises(self, factorial_cfg, monkeypatch):
        """A node where f' is exactly 0 stops the disk check: the winding of
        f' is undefined there, so ``_fprime_on_circle`` raises."""
        real = product._f_jet
        nodes = []

        def vanishing_at_node_2(cfg, z):
            nodes.append(z)
            f, fp = real(cfg, z)
            return f, (mpc(0) if len(nodes) == 3 else fp)

        monkeypatch.setattr(product, "_f_jet", vanishing_at_node_2)
        r_3, n_3 = factorial_cfg.block(3)
        directions = [mp.expjpi(mpf(2 * j + 1) / 8) for j in range(8)]
        with pytest.raises(ZeroOnContourError, match="at node 2"):
            _fprime_on_circle(factorial_cfg, 3, r_3 / n_3, directions)
        assert len(nodes) == 3

    def test_factorial_k4_passes(self, factorial_cfg):
        rep = verify_thm2_asymptotics(factorial_cfg, 4, seed=2)
        assert rep.passed
        by_block = {d.block: d for d in rep.disks}
        assert by_block[4].applicable and by_block[4].winding == 0

    def test_two_block_exact_partial_product(self):
        cfg = config_from_blocks([(4, 2), (16, 4)])
        rep = verify_thm2_asymptotics(cfg, 2, seed=1)
        assert rep.partial_dev_max == 0
        assert rep.partial_pass

    def test_doubly_exp_small_block_disk_finding(self):
        """At this scale block 2's disk does contain a zero of f' (the
        asymptotic claim has not kicked in); the check must say so."""
        cfg = config_from_blocks([(4, 2), (16, 4)])
        rep = verify_thm2_asymptotics(cfg, 2, seed=1)
        by_block = {d.block: d for d in rep.disks}
        assert by_block[1].applicable and by_block[1].winding == 0
        assert by_block[2].applicable and by_block[2].winding == 1
        assert not rep.disks_pass

    def test_doubly_exp_disks_confirmed(self):
        """doubly_exp rho=0.55 K=3: a fixed 64-node winding of the disks
        raised QuadratureError (the argument of f' around block 2, r=16,
        n=5, jumped by more than pi/2); the nested grid, which doubles on
        such a jump, confirms both disks zero-free."""
        cfg = make_schedule(0.55, 3, "doubly_exp")
        rep = verify_thm2_asymptotics(cfg, 2)
        by_block = {d.block: d for d in rep.disks}
        for j in (1, 2):
            assert by_block[j].applicable and by_block[j].winding == 0, j
        assert rep.disks_pass

    def test_logderiv_bound_counts_the_blocks_above_k(self):
        """On [[4,2],[16,4]] at k = 1 no block lies below, and block 2 adds
        4 w/(w - 1) to z f'/f, |w| <= a = (4.4/16)^4 on the annulus: the
        bound is 4 a/(1 - a) / 2 over the rounding floor, and holds."""
        cfg = config_from_blocks([(4, 2), (16, 4)])
        rep = verify_thm2_asymptotics(cfg, 1, seed=0)
        a = (mpf("4.4") / 16) ** 4
        assert rel_err(rep.logderiv_bound, 4 * a / (1 - a) / 2) < mpf("1e-85")
        assert mpf("0.011") < rep.logderiv_dev_max <= rep.logderiv_bound
        assert rep.logderiv_pass and rep.logderiv_reason == ""

    @pytest.mark.parametrize("r_2", ["4.3", "4.6"])
    def test_logderiv_not_applicable_where_a_block_above_is_close(self, r_2):
        """On [[4,1],[r_2,2]] block 2 lies close above block 1: at 4.3 its
        zeros are inside 1.1 r_1 (a >= 1), at 4.6 its term can reach
        2 a/(1 - a) = 21.5, over n_1 = 1.  Either way the two-term form
        at k = 1 cannot resolve block 1's term, so (ii) does not apply."""
        cfg = config_from_blocks([(4, 1), (mpf(r_2), 2)], rho_f=mpf("0.47"))
        rep = verify_thm2_asymptotics(cfg, 1, seed=0)
        a = (mpf("4.4") / mpf(r_2)) ** 2
        if a >= 1:
            assert rep.logderiv_bound == mp.inf
        else:
            assert rel_err(rep.logderiv_bound, 2 * a / (1 - a)) < mpf("1e-85")
            assert 21 < rep.logderiv_bound < 22
        assert rep.logderiv_reason == "blocks above 1 can move z f'/f by n_k or more"
        assert rep.logderiv_pass

    def test_anchor_config_passes(self):
        rep = verify_thm2_asymptotics(config_from_blocks([(1, 2)]), 1, seed=0)
        assert rep.passed


class TestMaxModulusAtPeakRadius:
    def test_term_sum_matches_direct_at_peak_of_block4(self):
        """At r = e r_4 the angular profile is flat to ~e^-4096, so the
        search and the formula agree far inside 1 percent."""
        cfg = make_schedule(0.5, 4, "factorial")
        r = mp.e * cfg.blocks[3][0]
        formula = log_max_modulus_bound(cfg, r)
        direct, _ = log_max_modulus(lambda z: eval_f(cfg, z), r, n_theta=32)
        assert abs(formula - direct) / direct < mpf("0.01")
        assert mpf("4253") < direct < mpf("4254")
