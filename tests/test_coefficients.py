"""Coefficient pair (A0, B0), perturbation H, residuals, contour cross-checks."""

import json
import random
import sys

import pytest
from mpmath import mp, mpc, mpf

from lacunary import (
    CancellationError,
    ConfigError,
    NearZeroError,
    PrecisionInsufficient,
    QuadratureError,
    TailError,
    config_from_blocks,
    config_from_dict,
    make_schedule,
)
from lacunary import checks, cli, coefficients, interpolation, product
from lacunary.checks import check_cauchy, check_interpolation
from lacunary.coefficients import (
    H_TRUNCATION,
    build_H,
    cauchy_ratio,
    eval_A0,
    eval_AB,
    eval_B0,
    interpolation_identity_residuals,
    make_system,
    reciprocal_derivative_fd,
    residual,
    residual_tolerance,
)
from lacunary.product import (
    derivative_ratio_bound,
    derivs_at_zero,
    f_jet,
    nearest_zero,
    zero_point,
)

from helpers import h_product_oracle, h_tail_log_bound, rel_err, with_residue


@pytest.fixture(scope="module")
def anchor_system():
    """f = 1 - z^2, the fully hand-checkable case: A0 = -z, B0 = 2."""
    mp.dps = 100
    return make_system(config_from_blocks([(1, 2)]))


@pytest.fixture(scope="module")
def factorial_system(factorial_k4_rat):
    mp.dps = 100
    cfg = factorial_k4_rat.cfg
    return make_system(cfg, rho_H=0.4, rat=factorial_k4_rat)


class TestA0:
    def test_symbolic_anchor(self, anchor_system):
        assert rel_err(eval_A0(anchor_system, 2), -2) < mpf("1e-95")
        assert rel_err(eval_A0(anchor_system, mpc(1, 1)), mpc(-1, -1)) < mpf("1e-95")

    def test_origin_symmetry(self, anchor_system):
        assert abs(eval_A0(anchor_system, 0)) < mpf("1e-95")

    def test_removable_value_next_to_pole(self, anchor_system):
        """A0 = f g just outside s = 10^(-P/4) of the pole z = 1 of g meets
        -z, whose value -1 at the pole is u f'(1) = 0.5 * (-2); at the pole
        itself A0 raises NearZeroError."""
        z = 1 + 2 * mp.power(10, -mpf(anchor_system.dps) / 4)
        assert rel_err(eval_A0(anchor_system, z), -z) < mpf("1e-70")
        with pytest.raises(NearZeroError):
            eval_A0(anchor_system, 1)


class TestB0:
    def test_constant_two_everywhere(self, anchor_system):
        rng = random.Random(3)
        for _ in range(10):
            z = mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if min(abs(z - 1), abs(z + 1)) < mpf("0.2"):
                continue
            assert rel_err(eval_B0(anchor_system, z), 2) < mpf("1e-90")

    def test_removable_value_next_to_zero(self, anchor_system):
        """The quotient -(f'' + A0 f')/f just outside s of the zero z = 1
        loses about 10^-P/s^2 = 10^(-P/2) and still meets B0 = 2 within
        10^(-P/3); at the zero itself B0 raises NearZeroError."""
        z = 1 + 2 * mp.power(10, -mpf(anchor_system.dps) / 4)
        assert rel_err(eval_B0(anchor_system, z), 2) < mpf(10) ** (-anchor_system.dps / 3)
        with pytest.raises(NearZeroError):
            eval_B0(anchor_system, 1)

    def test_refuses_too_close_points(self):
        """Within s = 10^(-P/4) (relative) of a zero B0 must signal, never
        return a silently cancelled quotient: s is 1e-15 at 60 digits."""
        sys60 = make_system(config_from_blocks([(1, 2)], dps=60))
        for eps in (mpf(10) ** -40, mpf(10) ** -31, mpf(10) ** -16):
            with pytest.raises(NearZeroError):
                eval_B0(sys60, 1 + eps)


@pytest.fixture(scope="module")
def reference_system():
    """The headline schedule at 200 digits, twice the working precision."""
    return make_system(make_schedule(0.5, 4, "factorial", dps=200))


class TestNearZeroAccuracy:
    def test_against_the_quotient_at_twice_the_precision(self, factorial_system, reference_system):
        """eval_A0 and eval_B0 within 10^(-P/3) of the defining quotient at
        2P at relative distance 0.99e-8 and just outside s = 10^(-P/4) from
        a zero, where the quotient loses about 10^-P/rel^2; inside s (0.99 s
        and 1e-60) both raise NearZeroError."""
        cfg = factorial_system.cfg
        s = mp.power(10, -mpf(cfg.dps) / 4)
        tol = mpf(10) ** (-cfg.dps / 3)
        for k, m in ((1, 0), (3, 5), (4, 1234)):
            for rel in (mpf("0.99e-8"), mpf("1.01") * s, mpf("0.99") * s, mpf(10) ** -60):
                z = zero_point(cfg, k, m) + rel * cfg.blocks[k - 1][0] * mp.expjpi(mpf("0.3"))
                if rel < s:
                    for evaluate in (eval_A0, eval_B0):
                        with pytest.raises(NearZeroError):
                            evaluate(factorial_system, z)
                    continue
                with mp.workdps(reference_system.dps):
                    _, _, a0, b0, _ = coefficients._direct(reference_system, z)
                assert rel_err(eval_A0(factorial_system, z), a0) < tol, (k, m, rel)
                assert rel_err(eval_B0(factorial_system, z), b0) < tol, (k, m, rel)

    @pytest.mark.parametrize(
        "evaluate",
        [
            eval_A0,
            eval_B0,
            eval_AB,
            lambda sys, z: residual(sys, z, (1,)),
        ],
        ids=["eval_A0", "eval_B0", "eval_AB", "residual"],
    )
    def test_one_guard_radius_for_every_evaluator(self, factorial_system, evaluate):
        """Every public evaluator of the coefficients refuses inside the same
        relative radius s = 10^(-P/4) of a zero and answers just outside it."""
        cfg = factorial_system.cfg
        s = mp.power(10, -mpf(cfg.dps) / 4)
        for k, m in ((1, 0), (3, 5)):  # inside H's validity radius
            step = cfg.blocks[k - 1][0] * mp.expjpi(mpf("0.3"))
            with pytest.raises(NearZeroError):
                evaluate(factorial_system, zero_point(cfg, k, m) + mpf("0.99") * s * step)
            outside = evaluate(factorial_system, zero_point(cfg, k, m) + mpf("1.01") * s * step)
            values = outside if isinstance(outside, (list, tuple)) else [outside]
            assert all(mp.isfinite(v) for v in values), (k, m)


def _bits(h):
    """H's order, moduli and blocks as raw mpmath tuples."""
    return h.rho._mpf_, [a._mpf_ for a in h.moduli], [(a._mpf_, n) for a, n in h.blocks]


class TestOneHPerConfig:
    @pytest.mark.parametrize("x", [0.4, "0.4", 0.48], ids=["float", "string", "theorem"])
    def test_library_builds_the_cli_h(self, x, tmp_path, monkeypatch):
        """``make_system(cfg, rho_H=x).h`` and ``build_H(x, dps=cfg.dps)``,
        at ambient 15, 53 and 200 digits, hold the order, moduli and blocks
        of the H that construct, verify and the indicator scan build from
        {"rho_H": x}, bit for bit."""
        payload = {"rho_f": 0.5, "rule": "factorial", "K": 2, "rho_H": x, "precision_digits": 100}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload), encoding="utf-8")
        built = []

        def spy(make):
            def made(*args, **kwargs):
                result = make(*args, **kwargs)
                built.append(getattr(result, "h", result))
                return result

            return made

        monkeypatch.setattr(cli, "make_system", spy(cli.make_system))
        monkeypatch.setattr(cli, "build_H", spy(cli.build_H))
        for argv, codes in (
            (["construct"], (0,)),
            (["verify", "--checks", "residual", "--points", "1"], (0,)),
            (["scan", "--scan", "indicator", "--angles", "4"], (0, 3)),
        ):
            out = tmp_path / argv[0]
            assert cli.main([*argv, "--config", str(config), "--out", str(out)]) in codes
        assert len(built) == 3
        cfg = config_from_dict(payload)
        library = []
        for dps in (15, 53, 200):
            with mp.workdps(dps):
                library += [make_system(cfg, rho_H=x).h, build_H(x, dps=cfg.dps)]
        assert all(_bits(h) == _bits(built[0]) for h in built + library)

    def test_build_H_takes_no_truncation(self):
        """A leftover positional truncation is refused, never read as dps."""
        with pytest.raises(TypeError):
            build_H(0.25, 64)


class TestH:
    def test_value_at_origin(self):
        h = build_H(0.25)
        v = h.eval(0)
        assert v == 1

    def test_real_and_above_one_on_positive_axis(self):
        h = build_H(0.25)
        for x in (mpf("0.1"), mpf(1), mpf(100), mpf(10) ** 6):
            v = h.eval(x)
            assert v.imag == 0 and v.real > 0
            assert abs(v) > 1

    def test_value_against_ten_fold_truncation_oracle(self):
        h = build_H(0.25)
        v = h.eval(1).real
        v10 = h_product_oracle(h, 1, 10 * H_TRUNCATION).real
        assert abs(v - mpf("2.1668")) < mpf("1e-3")
        assert abs(v10 - mpf("2.1668")) < mpf("1e-3")
        # truncation difference itself is far below the acceptance window
        assert abs(v - v10) < mpf("1e-5")
        # cross-check against independent summation of sum ln(1 + m^-4)
        direct = mp.exp(mp.fsum(mp.log(1 + mpf(m) ** -4) for m in range(1, 65)))
        assert rel_err(v, direct) < mpf("1e-90")

    def test_cancellation_carries_the_whole_product(self):
        """A factor that cancels to 10^-97 raises, carrying H itself: the
        product of all 64 factors, the lossy one included."""
        h = build_H(0.25)
        z = -h.moduli[19] * (1 + mpf(10) ** -97)
        with pytest.raises(CancellationError) as info:
            h.eval(z)
        whole = mpc(1)
        for a in h.moduli[:H_TRUNCATION]:
            whole *= 1 + z / a
        assert info.value.result == whole
        assert abs(whole) < mpf(10) ** -50

    def test_rho_range_enforced(self):
        with pytest.raises(ConfigError):
            build_H(0.5)
        with pytest.raises(ConfigError):
            build_H(-0.1)

    def test_validity_domain(self):
        h = build_H(0.25)
        with pytest.raises(TailError):
            h.eval(mpf(10) ** 7)
        # tail bound formula: r * M^(1-1/rho) / (1/rho - 1)
        bound = h_tail_log_bound(h, 100)
        assert rel_err(bound, 100 * mpf(64) ** -3 / 3) < mpf("1e-90")


class TestEvalAB:
    def test_b_differs_from_b0_near_zeros(self, factorial_system):
        """B - B0 = -H f' stays of order one next to a zero, where f vanishes
        and A - A0 = H f does not show H."""
        z = 4 * (1 + mpf("1e-20"))
        _, b = eval_AB(factorial_system, z)
        b0 = eval_B0(factorial_system, z)
        f1 = mpf("0.5")  # f'(4) for the factorial config, up to 2^-32 corrections
        h4 = factorial_system.h.eval(4).real
        assert abs(b - b0) > 1
        assert rel_err(abs(b - b0), h4 * f1) < mpf("1e-6")

    def test_a_meets_a0_near_zeros(self, factorial_system):
        """A - A0 = H f shrinks with f next to a zero: at relative distance
        1e-20 it is below 10^-10 |A0| and still equals H f to 60 digits."""
        cfg = factorial_system.cfg
        for k, m in ((1, 0), (2, 0), (3, 3)):
            z = zero_point(cfg, k, m) * (1 + mpf("1e-20"))
            a, _ = eval_AB(factorial_system, z)
            a0 = eval_A0(factorial_system, z)
            hf = factorial_system.h.eval(z) * f_jet(cfg, z)[0]
            assert abs(a - a0) <= mpf("1e-10") * max(1, abs(a0)), (k, m)
            assert rel_err(a - a0, hf) < mpf("1e-60"), (k, m)

    def test_perturbation_is_h_times_f(self):
        """A - A0 = H f and B - B0 = -H f' away from the zeros."""
        cfg = config_from_blocks([(4, 2), (16, 4)])
        sys1 = make_system(cfg, rho_H=mpf("0.25"))
        z = mpc(3, 5)
        a, b = eval_AB(sys1, z)
        hval = sys1.h.eval(z)
        f, fp = f_jet(cfg, z)
        assert rel_err(a - eval_A0(sys1, z), hval * f) < mpf("1e-95")
        assert rel_err(b - eval_B0(sys1, z), -hval * fp) < mpf("1e-95")

    def test_requires_h(self, anchor_system):
        with pytest.raises(ConfigError):
            eval_AB(anchor_system, 2)


@pytest.fixture
def call_counts(monkeypatch):
    """Counts nearest_zero scans and derivs_at_zero calls, patched under every
    name by which the coefficient layer and its guards reach them."""
    counts = {"nearest_zero": 0, "derivs_at_zero": 0}
    for name in counts:
        real = getattr(product, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        for module in (product, interpolation, coefficients):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    return counts


class TestOneScanPerPoint:
    """The route of each point comes from at most one nearest-zero scan,
    and from none where |z| lies outside every block's near-zero band."""

    def test_residual_point(self, factorial_system, call_counts):
        residual(factorial_system, mpc(30, 7), (1, 10))
        assert call_counts["nearest_zero"] == 0

    def test_eval_ab_away_from_zeros(self, factorial_system, call_counts):
        eval_AB(factorial_system, mpc(30, 7))
        assert call_counts["nearest_zero"] == 0

    def test_eval_ab_near_a_zero(self, factorial_system, call_counts):
        with pytest.raises(NearZeroError):
            eval_AB(factorial_system, 4 * (1 + mpf("1e-30")))
        assert call_counts["nearest_zero"] == 1
        assert call_counts["derivs_at_zero"] == 0

    def test_eval_ab_at_a_zero(self, factorial_system, call_counts):
        with pytest.raises(NearZeroError):
            eval_AB(factorial_system, zero_point(factorial_system.cfg, 2, 0))
        assert call_counts["nearest_zero"] == 1
        assert call_counts["derivs_at_zero"] == 0


class TestOnePassPerPoint:
    """One residual point runs the product loop ``product._sweep`` twice,
    once over f's blocks and once over H's: g's closed form for block K
    reads f and f'/f over blocks 1..K-1 from f's pass.  The zeros that g
    sums directly are formed once per interpolant."""

    def test_residual_point(self, factorial_system, monkeypatch):
        residual(factorial_system, mpc(30, 7), (1, 10))
        swept, roots = [], []
        sweep, unit_root = product._sweep, product._unit_root

        def counted_sweep(blocks, *args):
            swept.append(blocks)
            return sweep(blocks, *args)

        def counted_root(*args):
            roots.append(args)
            return unit_root(*args)

        monkeypatch.setattr(product, "_sweep", counted_sweep)
        monkeypatch.setattr(product, "_unit_root", counted_root)
        z = mpc(-20, 41)
        residual(factorial_system, z, (1, 10))
        assert swept == [factorial_system.cfg.blocks, factorial_system.h.blocks]
        assert roots == []
        head = product._jet(factorial_system.cfg.blocks[:-1], z, 1)[:2]
        assert interpolation._top_block(factorial_system.rat, z, head) is not None


class TestResidual:
    def test_base_residual_symbolic(self, anchor_system):
        # -2 + (-z)(-2z) + 2(1 - z^2) = 0 identically
        tol = mpf(10) ** (-anchor_system.dps + 5)
        assert residual(anchor_system, 3)[0] <= tol
        assert residual(anchor_system, mpc(2, 2))[0] <= tol

    def test_perturbed_residual_and_scale_invariance(self, factorial_system):
        rng = random.Random(11)
        tol = residual_tolerance(factorial_system, 64)
        tested = 0
        while tested < 8:
            z = mpc(rng.uniform(-60, 60), rng.uniform(-60, 60))
            if not (1 < abs(z) < 64):
                continue
            if nearest_zero(factorial_system.cfg, z)[3] < mpf("0.01"):
                continue
            values = residual(factorial_system, z, (1, 2, 10))
            assert len(values) == 4
            assert all(value <= tol for value in values)
            tested += 1

    def test_tolerance_model(self, factorial_system):
        tol = residual_tolerance(factorial_system, 64)
        assert mpf("1e-61") < tol < mpf("1e-59")

    def test_near_zero_sampling_rejected(self, factorial_system):
        with pytest.raises(NearZeroError):
            residual(factorial_system, 4 * (1 + mpf(10) ** -30))


class TestInterpolationIdentity:
    def test_residual_identity_below_model(self, factorial_system):
        rows = interpolation_identity_residuals(factorial_system)
        model = mpf(10) ** (-factorial_system.dps / 2)
        assert rows
        for _, _, value in rows:
            assert value < model

    def test_detects_corrupted_residue(self, factorial_system):
        rat = factorial_system.rat
        bad = with_residue(rat, 2, 0, rat.residues[1][0] + mpf("1e-3"))
        sys_bad = make_system(factorial_system.cfg, rho_H=0.4, rat=bad)
        rows = interpolation_identity_residuals(sys_bad)
        worst = max(value for _, _, value in rows)
        assert worst > mpf("1e-5")

    def test_wrong_second_derivative_fails_every_record(self, monkeypatch):
        """Mutation gate: f'' off by one part in 10^30 in ``derivs_at_zero``,
        patched under every name before the system is built, must fail every
        3f record.  The stored residues come from the block pass, which makes
        no ``derivs_at_zero`` call, so only the check's f'' is wrong."""
        real = product.derivs_at_zero
        calls = []

        def mutated(cfg, k, m):
            calls.append((k, m))
            f1, f2 = real(cfg, k, m)
            return f1, f2 * (1 + mpf(10) ** -30)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("lacunary") and hasattr(
                module, "derivs_at_zero"
            ):
                monkeypatch.setattr(module, "derivs_at_zero", mutated)
        sys_mut = make_system(make_schedule(0.5, 4, "factorial", dps=100), rho_H=0.4)
        assert calls == []
        records = check_interpolation(sys_mut, 0)
        assert len(records) == len(calls) == 75
        assert all(r["eq"] == "3f" and not r["pass"] for r in records)


class TestReciprocalDerivativeIdentity:
    def test_matches_direct_ratio(self, factorial_system):
        """The finite difference against f''/f'^2 by factor extraction, the
        value cauchy_ratio reports as ``direct``."""
        cfg = factorial_system.cfg
        tol = mpf(10) ** (-factorial_system.dps / 4)
        for k, m in ((1, 0), (2, 1), (3, 0), (3, 5)):
            fd = reciprocal_derivative_fd(factorial_system, k, m)
            with mp.workdps(cfg.dps):
                f1, f2 = derivs_at_zero(cfg, k, m)
                direct = f2 / (f1 * f1)
            assert rel_err(fd, direct) < tol


class TestCauchyRatio:
    def test_symbolic_anchor(self):
        cr = cauchy_ratio(config_from_blocks([(1, 2)]), 1)
        assert rel_err(cr.direct, mpf("-0.5")) < mpf("1e-90")
        assert cr.winding_at_full_radius == 0
        assert cr.agreement < mpf("1e-20")

    def test_exact_zero_direct_stops_at_the_first_level(self):
        """On f = 1 - z/2, f'' = 0, so the direct ratio is exactly 0 and no
        relative agreement can stop the doubling; check_cauchy writes such
        a zero's records as not applicable, so 32 nodes are all it forms."""
        cr = cauchy_ratio(config_from_blocks([(2, 1)]), 1)
        assert cr.direct == 0
        assert cr.nodes == 32

    def test_doubly_exp_direct_value_and_bound(self):
        cfg = config_from_blocks([(4, 2), (16, 4)])
        cr = cauchy_ratio(cfg, 2)
        assert rel_err(cr.direct, mpf(109) / 900) < mpf("1e-20")
        assert abs(cr.direct) <= mp.e * (mpf(4) / 16) ** 2

    def test_doubly_exp_contour_agreement_on_zero_free_disk(self):
        """The nominal disk contains a zero of f' (winding 1); one halving
        restores the hypothesis and the two routes then agree to 1e-20."""
        cfg = config_from_blocks([(4, 2), (16, 4)])
        cr = cauchy_ratio(cfg, 2)
        assert cr.winding_at_full_radius == 1
        assert cr.halvings == 1
        assert cr.agreement < mpf("1e-20")
        assert cr.chain_bound >= abs(cr.direct)

    def test_factorial_ratios_decreasing_and_bounded(self):
        """The ratios decrease over k = 2..4 and each 2f route agrees: the
        quadrature circle has 1/32 the radius of the zero-free winding
        circle, so its trapezoid error falls at least like 32^-n in the
        node count n."""
        cfg = make_schedule(0.5, 4, "factorial")
        crs = {}
        for k in (2, 3, 4):
            cr = cauchy_ratio(cfg, k)
            assert abs(cr.direct) <= derivative_ratio_bound(cfg, k)
            assert cr.agreement < mpf("1e-20")
            assert cr.chain_bound >= abs(cr.direct)
            crs[k] = cr
        assert abs(crs[2].direct) > abs(crs[3].direct) > abs(crs[4].direct)
        # blocks 3 and 4 are far enough apart for the nominal disk itself
        assert crs[3].winding_at_full_radius == 0


@pytest.fixture(scope="module")
def headline_block1():
    """cauchy_ratio at zero (1, 0) of factorial K=4 from 32 nodes, with the
    number of f' evaluations counted at the sampler."""
    mp.dps = 100
    cfg = make_schedule(0.5, 4, "factorial")
    real = coefficients._fprime_on_circle
    count = [0]

    def counting(cfg, k, radius, directions):
        count[0] += len(directions)
        return real(cfg, k, radius, directions)

    coefficients._fprime_on_circle = counting
    try:
        cr = cauchy_ratio(cfg, 1)
    finally:
        coefficients._fprime_on_circle = real
    return cr, count[0]


class TestContourNodeDoubling:
    def test_block_one_agrees(self, headline_block1):
        """On the winding circle block 1 needed 2048 nodes (a zero of f' lies
        just outside it); on the quadrature circle of 1/32 its radius the
        1e-20 threshold is met from the first 32."""
        cr, _ = headline_block1
        assert cr.agreement < mpf("1e-20")
        assert cr.nodes == 32
        assert cr.agreement_half > cr.agreement

    def test_no_level_sampled_twice(self, headline_block1):
        """Each circle is sampled from 32 nodes up, keeping the nodes it has:
        a discarded winding radius costs its 32 starting nodes, the accepted
        one its winding node count and the quadrature circle exactly its
        final node count."""
        cr, evaluations = headline_block1
        assert cr.halvings >= 1
        assert evaluations == 32 * cr.halvings + cr.winding_nodes + cr.nodes

    def test_one_precision_suggestion_covers_both_circles(self):
        """At factorial 0.5 K = 6 the quadrature circle r_6/(32 n_6) needs
        220 digits and the winding circle r_6/n_6 217: from 100 digits the
        first suggestion is 220, not 217, and at 220 the ratio is formed."""
        with pytest.raises(PrecisionInsufficient) as exc:
            cauchy_ratio(make_schedule(0.5, 6, "factorial", dps=100), 6)
        assert exc.value.suggested_dps == 220
        cr = cauchy_ratio(make_schedule(0.5, 6, "factorial", dps=220), 6)
        assert cr.agreement < mpf("1e-80") and cr.halvings == 0

    def test_winding_raises_at_the_cap_sampling_each_node_once(self, monkeypatch):
        """f' = w^1365 turns by 1/3 or 2/3 of a circle per step at every level
        from 32 to 4096 nodes: the winding raises at the cap, having sampled
        f' once at each of the 4096 nodes."""
        count = [0]

        def turning(cfg, k, radius, directions):
            count[0] += len(directions)
            return [w**1365 for w in directions]

        monkeypatch.setattr(coefficients, "_fprime_on_circle", turning)
        cfg = make_schedule(0.5, 4, "factorial")
        r_3, n_3 = cfg.block(3)
        samples = {}
        with pytest.raises(QuadratureError):
            coefficients.sample_winding(cfg, 3, r_3 / n_3, samples)
        assert count[0] == len(samples) == coefficients.MAX_NODES

    def test_winding_doubles_on_an_argument_jump(self, monkeypatch):
        """f' = w^12 turns by 3 pi/4 per step at the first 32 nodes, more than
        pi/2: the sampler doubles to 64 nodes, where it turns by 3 pi/8, and
        counts 12, sampling none of the first 32 again."""
        count = [0]

        def turning(cfg, k, radius, directions):
            count[0] += len(directions)
            return [w**12 for w in directions]

        monkeypatch.setattr(coefficients, "_fprime_on_circle", turning)
        cfg = make_schedule(0.5, 4, "factorial")
        r_3, n_3 = cfg.block(3)
        samples = {}
        assert coefficients.sample_winding(cfg, 3, r_3 / n_3, samples) == (64, 12)
        assert count[0] == len(samples) == 64

    def test_wrong_second_derivative_fails_every_contour_record(
        self, factorial_system, monkeypatch
    ):
        """Mutation gate: f'' off by one part in 10^15 at every zero must fail
        every 2f record of the cauchy check."""
        real = coefficients.derivs_at_zero

        def mutated(cfg, k, m):
            f1, f2 = real(cfg, k, m)
            return f1, f2 * (1 + mpf(10) ** -15)

        monkeypatch.setattr(coefficients, "derivs_at_zero", mutated)
        contour = [r for r in check_cauchy(factorial_system, 0) if r["eq"] == "2f"]
        assert len(contour) == factorial_system.cfg.K + 1
        assert not any(r["pass"] for r in contour)
        for r in contour[:-1]:
            assert 32 <= r["nodes"] <= coefficients.MAX_NODES
            assert r["agreement_half"] > 0


class TestContourAtThreePrecisions:
    @pytest.mark.parametrize("dps", [40, 100, 200])
    @pytest.mark.parametrize(
        "rho_f, rho_H, samples",
        [("0.5", "0.4", 352), ("0.45", "0.48", None)],
        ids=["headline", "theorem"],
    )
    def test_every_block_converges_on_its_first_nodes(
        self, rho_f, rho_H, samples, dps, monkeypatch
    ):
        """Every per-block 2f record passes on the quadrature circle of
        1/32 the winding radius from its first 32 nodes, with the chain
        bound holding on the winding circle.  On the headline the check
        samples f' exactly 352 times: winding circles of 64, 96, 32 and 32
        nodes, 32 for the discarded winding radius of block 1, and 32
        quadrature nodes per block (672 on half the winding radius, 3488
        on the winding circle itself)."""
        real = coefficients._fprime_on_circle
        real_ratio = checks.cauchy_ratio
        count = [0]
        per_block = []

        def counting(cfg, xi, radius, directions):
            count[0] += len(directions)
            return real(cfg, xi, radius, directions)

        def ratio(cfg, k):
            before = count[0]
            cr = real_ratio(cfg, k)
            per_block.append((cr, count[0] - before))
            return cr

        monkeypatch.setattr(coefficients, "_fprime_on_circle", counting)
        monkeypatch.setattr(checks, "cauchy_ratio", ratio)
        cfg = make_schedule(mpf(rho_f), 4, "factorial", dps=dps)
        system = make_system(cfg, rho_H=rho_H)
        records = [r for r in check_cauchy(system, 0) if r["eq"] == "2f" and r["zero"]]
        assert len(records) == len(per_block) == cfg.K
        for r in records:
            assert r["pass"], r
            assert r["chain_bound_ok"]
            assert r["nodes"] == 32
            r_k, n_k = cfg.block(r["zero"][0])
            with mp.workdps(dps):
                radius = r_k / n_k / 2 ** r["halvings"]
                assert r["quad_radius"] == float(radius / 32)
        if samples is not None:
            for cr, evaluations in per_block:
                assert evaluations == 32 * cr.halvings + cr.winding_nodes + cr.nodes
            assert count[0] == samples


class TestRecordsAtAnyAmbientPrecision:
    def test_records_identical_at_ambient_15_53_and_200(self, factorial_system):
        """run_checks enters the system's precision: the headline's records
        of every check (5 residual points) are the same whatever the
        caller's precision, the annulus points included."""
        runs = []
        for dps in (15, 53, 200):
            with mp.workdps(dps):
                runs.append(checks.run_checks(factorial_system, checks.CHECK_NAMES, 0, 5))
        records, _ = runs[0]
        assert len(records) == 113 and sum(r["check"] == "residual" for r in records) == 15
        assert runs[1] == runs[0] and runs[2] == runs[0]


class TestSystemConstruction:
    def test_hypothesis_flag(self, tmp_path):
        """construct records whether rho_H exceeds rho_f in system.json."""
        configs = {
            "factorial": ({"rho_f": 0.5, "rule": "factorial", "K": 2, "rho_H": 0.4}, False),
            "explicit": ({"blocks": [[8, 1]], "rho_f": 0.05, "rho_H": 0.4}, True),
        }
        for name, (payload, met) in configs.items():
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps(payload))
            out = tmp_path / name
            assert cli.main(["construct", "--config", str(config), "--out", str(out)]) == 0
            system = json.loads((out / "system.json").read_text())
            assert system["H"]["theorem_hypothesis_met"] is met, name

    def test_interpolant_of_another_config_is_refused(self):
        """A system holds one config: residues on the zeros of another
        config would give a residual of 0 there, a pass."""
        rat = interpolation.residues_from_f(make_schedule(0.45, 3))
        with pytest.raises(ConfigError, match="another config"):
            make_system(make_schedule(0.5, 3), rat=rat)

    def test_system_built_directly_holds_its_interpolants_config(self):
        """A system built without ``make_system`` takes its config from its
        interpolant: it has no second config to disagree with, and its
        residual at 30+7j and its interpolation identity read the zeros
        the residues were formed on."""
        cfg = make_schedule(0.45, 3)
        rat = interpolation.residues_from_f(cfg)
        with pytest.raises(TypeError):
            coefficients.CoefficientSystem(cfg=make_schedule(0.5, 3), rat=rat, h=None)
        system = coefficients.CoefficientSystem(rat=rat, h=None)
        assert system.cfg is cfg and system.dps == cfg.dps
        assert residual(system, mpc(30, 7)) == residual(make_system(cfg, rat=rat), mpc(30, 7))
        worst = max(r for _, _, r in interpolation_identity_residuals(system))
        assert worst < mpf(10) ** (10 - cfg.dps)

    def test_block_past_the_enumeration_cap_is_formed_on_its_first_read(self):
        """At factorial K = 5 a deferred block 5 builds a system, and its first
        read meets the cap, as ``residues_from_f`` does at once."""
        cfg = make_schedule(0.5, 5, "factorial")
        cap = "block 5 has 1152921504606846976 zeros; enumeration capped at 1000000"
        with pytest.raises(ConfigError, match=cap):
            interpolation.residues_from_f(cfg)
        system = make_system(cfg, rho_H=0.4, defer_top=True)
        with pytest.raises(ConfigError, match=cap):
            system.rat.residues[4][0]
