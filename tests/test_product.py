"""Lacunary product: schedules, evaluation, zeros, factor-extraction derivatives.

Oracles used here are independent of the evaluation path under test:
explicit polynomial expansion evaluated by Horner with exact dyadic
fractions, exact-fraction polynomial differentiation, and central finite
differences of ln f.
"""

import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp, mp, mpc, mpf

from lacunary import (
    CancellationError,
    ConfigError,
    NearZeroError,
    TailError,
    config_from_blocks,
    make_schedule,
    make_system,
)
from lacunary import product
from lacunary.coefficients import build_H, disk_winding, sample_winding
from lacunary.product import (
    config_from_dict,
    config_to_dict,
    derivs_at_zero,
    eval_f,
    eval_f_scan,
    f_jet,
    f_tail_log_bound,
    log_derivative,
    nearest_zero,
    sigma_certificate,
    zero_count,
    zero_point,
    zeros,
)

from helpers import nearest_zero_scan, reference_jet, rel_err


def horner_eval(coeffs, z):
    """Oracle: evaluate a polynomial given by exact Fraction coefficients."""
    acc = mpc(0)
    for c in reversed(coeffs):
        acc = acc * z + mpf(c.numerator) / mpf(c.denominator)
    return acc


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_diff(p):
    return [k * c for k, c in enumerate(p)][1:]


def product_poly(blocks):
    """Exact coefficients of prod (1 - (z/r)^n) for small explicit blocks."""
    poly = [Fraction(1)]
    for r, n in blocks:
        factor = [Fraction(0)] * (n + 1)
        factor[0] = Fraction(1)
        factor[n] = -Fraction(1, r) ** n
        poly = poly_mul(poly, factor)
    return poly


class TestSchedules:
    def test_factorial_example(self):
        cfg = make_schedule(0.5, 3, "factorial")
        assert [int(r) for r, _ in cfg.blocks] == [2, 4, 64]
        assert [n for _, n in cfg.blocks] == [1, 2, 8]

    def test_doubly_exp_example(self):
        cfg = make_schedule(0.5, 3, "doubly_exp")
        assert [int(r) for r, _ in cfg.blocks] == [4, 16, 256]
        assert [n for _, n in cfg.blocks] == [2, 4, 16]

    def test_rho_out_of_range(self):
        with pytest.raises(ConfigError):
            make_schedule(1.2, 3, "factorial")
        with pytest.raises(ConfigError):
            make_schedule(0, 3, "factorial")

    def test_unknown_rule(self):
        with pytest.raises(ConfigError):
            make_schedule(0.5, 3, "geometric")

    def test_explicit_too_dense(self):
        # equal multiplicities violate sum_{j<k} n_j <= n_k / 2
        with pytest.raises(ConfigError):
            config_from_blocks([(1, 1), (2, 1), (3, 1)])

    def test_explicit_wrong_multiplicity(self):
        with pytest.raises(ConfigError):
            config_from_blocks([(4, 7)], rho_f=0.5)

    def test_large_k_blocks_exact(self):
        cfg = make_schedule(0.5, 7, "factorial")
        r7, n7 = cfg.blocks[6]
        assert r7 == mpf(2) ** 5040
        assert n7 == 2**2520
        assert sigma_certificate(cfg).total < mpf("inf")

    def test_rule_extension_past_K(self):
        cfg = make_schedule(0.5, 3, "factorial")
        r4, n4 = cfg.block(4)
        assert r4 == 2**24 and n4 == 4096
        explicit = config_from_blocks([(4, 2), (16, 4)])
        with pytest.raises(ConfigError):
            explicit.block(3)

    @pytest.mark.parametrize("rule, K", [("factorial", 4), ("doubly_exp", 3)])
    @pytest.mark.parametrize("k", [0, -1])
    def test_rule_block_below_one_is_refused(self, rule, K, k):
        cfg = make_schedule(0.5, K, rule)
        with pytest.raises(ConfigError, match=f"block index {k}"):
            cfg.block(k)
        assert cfg._memo.get("past_K", {}) == {}

    @pytest.mark.parametrize(
        "rho, rule, K",
        [(0.45, "factorial", 4), (0.5, "factorial", 4), ("0.55", "factorial", 4),
         (0.5, "doubly_exp", 3), (0.55, "doubly_exp", 3)],
    )
    def test_blocks_past_K_match_the_integer_formula(self, rho, rule, K):
        """Each block past K has the bits of the formula that converts the
        integer 2^E: the radius from mpf(2^E), n_k from mp.power at enough
        digits.  It is formed once; the memo leaves equality, hash and
        repr of the config as they were."""
        cfg = make_schedule(rho, K, rule)
        for k in range(K + 1, 9):
            with mp.workdps(cfg.dps):
                r = 2 ** (math.factorial(k) if rule == "factorial" else 2**k)
                digits = int(cfg.rho_f * mp.log(mpf(r), 10)) + 25
                with mp.workdps(max(mp.dps, digits)):
                    n = int(mp.nint(mp.power(mpf(r), cfg.rho_f)))
                r = mpf(r)
                mpf_n = mpf(n)
            got = cfg.block(k)
            assert got[0]._mpf_ == r._mpf_ and got[1] == n and type(got[1]) is int, k
            assert cfg.block(k) is got
            assert cfg._multiplicity(n)._mpf_ == mpf_n._mpf_
            assert cfg._multiplicity(n) is cfg._multiplicity(n)
        fresh = make_schedule(rho, K, rule)
        assert not fresh._memo.get("past_K") and cfg._memo.get("past_K")
        assert cfg == fresh and hash(cfg) == hash(fresh) and repr(cfg) == repr(fresh)
        assert cfg.next_radius()._mpf_ == fresh.next_radius()._mpf_

    def test_config_is_its_definition(self):
        """A config compares, hashes and replaces on rho_f, blocks, dps and
        rule alone: a factorial schedule given an explicit config's blocks
        and no rule is that config, certificate included."""
        compared = [f.name for f in dataclasses.fields(product.LacunaryConfig) if f.compare]
        assert compared == ["rho_f", "blocks", "dps", "rule"]
        b = config_from_blocks([(4, 2), (16, 4)])
        a = dataclasses.replace(make_schedule(0.5, 4), blocks=b.blocks, rule=None)
        assert a == b and hash(a) == hash(b)
        assert sigma_certificate(a) == sigma_certificate(b)

    def test_certificate_partial_sums_bounded(self):
        cfg = make_schedule(0.5, 4, "factorial")
        cert = sigma_certificate(cfg)
        assert cert.s == mpf("0.75")
        assert 0 < cert.tail < cert.partial
        assert cert.total < 2

    @pytest.mark.parametrize(
        "rho, K, rule",
        [(0.5, 4, "factorial"), (0.45, 4, "factorial"), (0.5, 3, "factorial"),
         (0.55, 3, "doubly_exp")],
    )
    def test_certificate_tail_bounds_the_next_blocks(self, rho, K, rule):
        """The tail bound of sum_{k>K} n_k/r_k^s is positive, below the partial
        sum, at least its first two terms, and below the bound that let the
        1.5 r^-s term decay only like 2^(rho-s)."""
        cfg = make_schedule(rho, K, rule)
        cert = sigma_certificate(cfg)
        s = cert.s
        first_two = sum(mpf(n) * mp.power(r, -s) for r, n in (cfg.block(K + 1), cfg.block(K + 2)))
        assert 0 < first_two <= cert.tail < cert.partial
        r = cfg.next_radius()
        geo = 1 / (1 - mp.power(2, cfg.rho_f - s))
        assert cert.tail < (mp.power(r, cfg.rho_f - s) + mpf("1.5") * mp.power(r, -s)) * geo


class TestEvalF:
    def test_f_at_origin_is_exactly_one(self):
        for cfg in (
            make_schedule(0.5, 4, "factorial"),
            make_schedule(0.55, 3, "doubly_exp"),
            config_from_blocks([(4, 2), (16, 4)]),
        ):
            out = eval_f(cfg, 0)
            assert out == 1

    def test_single_block(self):
        cfg = config_from_blocks([(4, 2)])
        assert rel_err(eval_f(cfg, 2), mpf("0.75")) < mpf("1e-95")

    def test_two_blocks_against_horner_oracle(self):
        cfg = config_from_blocks([(4, 2), (16, 4)])
        poly = product_poly([(4, 2), (16, 4)])
        val = eval_f(cfg, 2)
        assert rel_err(val, horner_eval(poly, mpc(2))) < mpf("1e-95")
        assert rel_err(val, mpf("0.74981689453125")) < mpf("1e-95")
        # a few more points, including complex ones
        for z in (mpc("0.5", "1.5"), mpc(-3, 2), mpc(10, -7)):
            assert rel_err(eval_f(cfg, z), horner_eval(poly, z)) < mpf("1e-90")

    def test_tail_error_outside_certified_domain(self):
        cfg = make_schedule(0.5, 2, "factorial")  # r_3 = 64
        with pytest.raises(TailError):
            eval_f(cfg, 40)
        with pytest.raises(TailError):
            f_tail_log_bound(cfg, 40)
        bound = f_tail_log_bound(cfg, 16)
        # 2 * (16/64)^8 = 2^-15
        assert rel_err(bound, mp.log(mpf(2) ** -15)) < mpf("1e-30")

    def test_explicit_config_has_no_tail(self):
        cfg = config_from_blocks([(4, 2), (16, 4)])
        assert f_tail_log_bound(cfg, mpf(10) ** 6) == mpf("-inf")
        eval_f(cfg, 1000)  # no TailError

    def test_scan_evaluator_extends_schedule(self):
        cfg = make_schedule(0.5, 2, "factorial")
        big = make_schedule(0.5, 4, "factorial")
        z = mpc(40, 1)
        assert rel_err(eval_f_scan(cfg, z), eval_f(big, z)) < mpf("1e-80")

    def test_conjugate_symmetry(self):
        cfg = make_schedule(0.5, 4, "factorial")
        rng = random.Random(7)
        for _ in range(20):
            z = mpc(rng.uniform(-60, 60), rng.uniform(-60, 60))
            a = eval_f(cfg, z)
            b = eval_f(cfg, mp.conj(z))
            log_a, log_b = mp.log(abs(a)), mp.log(abs(b))
            assert abs(log_a - log_b) < mpf("1e-90") * max(1, abs(log_a))
            assert abs(mp.arg(a * b)) < mpf("1e-90")

    def test_near_zero_cancellation_strict_and_lossy(self):
        cfg = config_from_blocks([(4, 2), (16, 4)])
        z = mpf(4) * (1 + mpf(10) ** -98)
        with pytest.raises(CancellationError):
            eval_f(cfg, z)
        with mp.workdps(cfg.dps):
            lossy = product._jet(cfg.blocks, mpc(z), 0, False)[0]
        assert abs(lossy) < mpf(10) ** -90

    def test_numerically_zero_at_zeros(self):
        """At an n_k-th root of unity zero, |f| collapses to rounding level
        relative to the nonvanishing cofactor P(xi) = f'(xi) xi / -n_k."""
        cfg = make_schedule(0.5, 3, "factorial")
        for k in (1, 2, 3):
            r, n = cfg.blocks[k - 1]
            for m in range(min(n, 3)):
                xi = zero_point(cfg, k, m)
                with mp.workdps(cfg.dps):
                    out = product._jet(cfg.blocks, xi, 0, False)[0]
                f1 = derivs_at_zero(cfg, k, m)[0]
                cofactor = abs(f1) * r / n
                assert abs(out) <= cofactor * mpf(10) ** -(cfg.dps - 10)


class TestLogDerivative:
    def test_single_block_closed_form(self):
        cfg = config_from_blocks([(4, 2)])
        val = log_derivative(cfg, 2)
        assert rel_err(val, mpf(-1) / 3) < mpf("1e-95")

    def test_at_origin(self):
        cfg = config_from_blocks([(4, 2)])
        assert log_derivative(cfg, 0) == 0
        cfg2 = config_from_blocks([(2, 1), (8, 3)], rho_f=0.5)
        assert rel_err(log_derivative(cfg2, 0), mpf(-1) / 2) < mpf("1e-95")
        # the limit of (f'/f)' picks up n=1 and n=2 blocks: for (2,1),(4,2)
        # f'' = f ((f'/f)^2 + (f'/f)') = 1/4 - 1/4 - 2/16 = -1/8 at 0
        cfg3 = config_from_blocks([(2, 1), (4, 2)], rho_f=0.5)
        assert rel_err(f_jet(cfg3, 0, 2)[2], mpf(-1) / 8) < mpf("1e-95")

    def _fd_log_derivative(self, cfg, z, h):
        up = eval_f(cfg, z + h)
        dn = eval_f(cfg, z - h)
        return mp.log(up / dn) / (2 * h)

    def test_against_finite_difference_oracle(self):
        cfg = config_from_blocks([(4, 2), (16, 4)])
        z = mpc(2)
        h = mpf(10) ** (-mp.dps // 4)
        fd = self._fd_log_derivative(cfg, z, h)
        assert rel_err(log_derivative(cfg, z), fd) < mpf(10) ** (-mp.dps // 4)

    def test_termwise_vs_fd_at_random_points(self):
        """100 seeded points away from zeros, factorial K=3."""
        cfg = make_schedule(0.5, 3, "factorial")
        rng = random.Random(20260810)
        tol = mpf(10) ** (-cfg.dps // 4)
        h_rel = mpf(10) ** (-cfg.dps // 3)
        count = 0
        while count < 100:
            z = mpc(rng.uniform(-100, 100), rng.uniform(-100, 100))
            if abs(z) < mpf("0.5") or abs(z) > 120:
                continue
            _, _, dist, _ = nearest_zero(cfg, z)
            if dist < mpf("0.05") * abs(z):
                continue
            h = abs(z) * h_rel
            fd = self._fd_log_derivative(cfg, z, h)
            assert rel_err(log_derivative(cfg, z), fd) < tol
            count += 1

    def test_second_order_vs_fd(self):
        """(f'/f)' = f''/f - (f'/f)^2 from f_jet against the finite
        difference of log_derivative."""
        cfg = config_from_blocks([(4, 2), (16, 4)])
        z = mpc("2.5", "1.25")
        h = abs(z) * mpf(10) ** (-mp.dps // 3)
        fd = (log_derivative(cfg, z + h) - log_derivative(cfg, z - h)) / (2 * h)
        f, fp, fpp = f_jet(cfg, z, 2)
        assert rel_err(fpp / f - (fp / f) ** 2, fd) < mpf(10) ** (-mp.dps // 4)

    def test_near_zero_guard(self):
        from lacunary import NearZeroError

        cfg = config_from_blocks([(4, 2)])
        with pytest.raises(NearZeroError):
            log_derivative(cfg, mpf(4) + mpf(10) ** -60)


class TestFJet:
    """(f, f', f'') from the one-pass kernel against routes that share no
    code with it: exact polynomial coefficients, and Cauchy integrals of
    eval_f."""

    # f as exact coefficients, lowest degree first
    POLYNOMIALS = (
        (
            [(4, 2), (16, 4)],
            [1, 0, Fraction(-1, 16), 0, Fraction(-1, 65536), 0, Fraction(1, 1048576)],
        ),
        ([(1, 2)], [1, 0, -1]),
    )

    def test_against_exact_polynomials(self):
        rng = random.Random(20261018)
        for blocks, coeffs in self.POLYNOMIALS:
            cfg = config_from_blocks(blocks)
            tol = mpf(10) ** (10 - cfg.dps)
            jets = [coeffs, poly_diff(coeffs), poly_diff(poly_diff(coeffs))]
            # at z = 0 the kernel takes the termwise limits of its sums
            at_zero = tuple(mpf(p[0].numerator) / p[0].denominator for p in jets)
            assert f_jet(cfg, 0, 2) == at_zero
            count = 0
            while count < 10:
                z = mpc(rng.uniform(-20, 20), rng.uniform(-20, 20))
                if nearest_zero(cfg, z)[3] < mpf("0.1"):
                    continue
                got = f_jet(cfg, z, 2)
                for value, poly in zip(got, jets):
                    want = mp.polyval([mpf(c.numerator) / c.denominator for c in reversed(poly)], z)
                    assert rel_err(value, want) < tol, (blocks, z)
                assert f_jet(cfg, z, 1) == got[:2]
                count += 1

    def test_against_contour_integrals_of_f(self):
        """64-node trapezoid rule for f^(p)(z0)/p! on |z - z0| = r_k/(4 n_k),
        z0 halfway in angle between two zeros of block k, off their circle."""
        cfg = make_schedule(0.5, 4, "factorial")
        nodes = 64
        tol = mpf(10) ** (10 - cfg.dps)
        for k, m in TestDerivsAtZero.HEADLINE_ZEROS:
            r_k, n_k = cfg.blocks[k - 1]
            z0 = zero_point(cfg, k, m) * mp.expjpi(mpf(1) / n_k) * (1 + mpf(1) / (4 * n_k))
            rho = r_k / (4 * n_k)
            c0 = c1 = c2 = mpc(0)
            for j in range(nodes):
                h = rho * mp.expjpi(2 * mpf(j) / nodes)
                fz = eval_f(cfg, z0 + h)
                c0 += fz
                c1 += fz / h
                c2 += fz / (h * h)
            f, f1, f2 = f_jet(cfg, z0, 2)
            assert rel_err(f, c0 / nodes) < tol, (k, m)
            assert rel_err(f1, c1 / nodes) < tol, (k, m)
            assert rel_err(f2, 2 * c2 / nodes) < tol, (k, m)

    def test_agrees_with_twice_the_precision_near_huge_blocks(self):
        """f, f' and f'' within 10^-18 relative of |z| = r_5 of factorial
        K=5 (n_5 = 2^60) and near r_4 of K=4 agree with the same call at
        2P to 10^(10-P): the power keeps its n-fold amplified rounding
        below the working precision."""
        points = []
        for K in (5, 4):
            cfg = make_schedule(0.5, K, "factorial")
            r, n = cfg.blocks[K - 1]
            if K == 5:
                # generic angles: the power's rounding grows with |ln(z/r)|
                near = [("3e-19", "1"), ("-7e-19", "2.5"), ("9e-19", "-0.7")]
                zs = [r * (1 + mpf(a)) * mp.expj(mpf(b)) for a, b in near]
            else:
                near = [("0.25", "1"), ("-0.3", "0.5"), ("0.1", "-1.7")]
                zs = [r * (1 + mpf(a) / n) * mp.expjpi(mpf(b) / n) for a, b in near]
            points += [(K, z) for z in zs]
        tol = mpf(10) ** (10 - mp.dps)
        for K, z in points:
            got = f_jet(make_schedule(0.5, K, "factorial"), z, 2)
            want = f_jet(make_schedule(0.5, K, "factorial", dps=2 * mp.dps), z, 2)
            for a, b in zip(got, want):
                assert rel_err(a, b) < tol, (K, z)

    def test_guards(self):
        from lacunary import NearZeroError

        with pytest.raises(NearZeroError):
            f_jet(config_from_blocks([(4, 2)]), mpf(4) + mpf(10) ** -60, 2)
        with pytest.raises(TailError):
            f_jet(make_schedule(0.5, 2, "factorial"), 40, 1)
        with pytest.raises(ConfigError):
            f_jet(config_from_blocks([(4, 2)]), 1, 3)


def _outcome(jet, blocks, z, order, strict):
    """What a kernel gives at z: its three values as raw tuples, or the
    type, message, carried result and digits lost of what it raises."""
    try:
        return tuple(x._mpc_ for x in jet(blocks, z, order, strict))
    except (CancellationError, ZeroDivisionError) as exc:
        result = getattr(exc, "result", None)
        carried = None if result is None else result._mpc_
        return type(exc), str(exc), carried, getattr(exc, "digits_lost", None)


def _kernel_points(blocks, zeros_of, count, seed):
    """z = 0, the points r, -r and i r of every block (exact zeros where
    the block's degree allows), the rounded zeros in ``zeros_of``, and
    ``count`` seeded points at uniform angles: a third within 10^-1 to
    10^(1-P) (relative) of a block's circle, the rest at 0.05 to 3 times
    its radius."""
    rng = random.Random(seed)
    points = [mpc(0)]
    for r, _ in blocks:
        points += [mpc(abs(r)), mpc(-abs(r)), mpc(0, abs(r))]
    points += zeros_of
    for _ in range(count):
        r = abs(rng.choice(blocks)[0])
        if rng.random() < 1 / 3:
            offset = mpf(rng.uniform(-1, 1)) * mpf(10) ** -rng.randrange(1, mp.dps)
            modulus = r * (1 + offset)
        else:
            modulus = r * mpf(rng.uniform(0.05, 3))
        points.append(modulus * mp.expjpi(2 * mpf(rng.random())))
    return points


class TestRawKernel:
    """``product._jet`` on raw libmp tuples gives the bits of the plain mpc
    kernel of ``helpers.reference_jet``: the same values, and the same
    CancellationError (message, lossy f, digits lost) or ZeroDivisionError."""

    @pytest.mark.parametrize(
        "name, count",
        [("headline", 350), ("readme", 300), ("radius-3.3", 300), ("H", 100)],
    )
    def test_bit_identity_with_the_mpc_kernel(self, name, count):
        """1,050 seeded points over the four block lists; H's first 16
        degree-1 blocks have exact zeros at -a, and points 10^-97 off the
        first eight of them stand in for rounded zeros."""
        if name == "H":
            blocks = build_H("0.4", dps=100).blocks[:16]
            zeros_of = [mpc(r * (1 + mpf(10) ** -97)) for r, _ in blocks[:8]]
        else:
            cfg = {
                "headline": lambda: make_schedule(0.5, 4, "factorial"),
                "readme": lambda: config_from_blocks([[4, 2], [16, 4]]),
                "radius-3.3": lambda: config_from_blocks([[3.3, 1], [1e30, 32]], rho_f=0.05),
            }[name]()
            blocks = cfg.blocks
            zeros_of = [
                zero_point(cfg, k, m)
                for k, (_, n) in enumerate(blocks, start=1)
                for m in sorted({0, 1 % n, n // 3, n // 2, n - 1})
            ]
        raised = set()
        for z in _kernel_points(blocks, zeros_of, count, seed=len(name)):
            for order in (0, 1, 2):
                for strict in (True, False):
                    got = _outcome(product._jet, blocks, z, order, strict)
                    assert got == _outcome(reference_jet, blocks, z, order, strict), (z, order)
                    if not isinstance(got[0], tuple):
                        raised.add(got[0])
        # an exact zero with a derivative asked for divides by its factor;
        # [[4,2],[16,4]] has only exact zeros, the others rounded ones
        assert raised == {ZeroDivisionError} | ({CancellationError} if name != "readme" else set())

    @pytest.mark.parametrize("dps", [30, 200])
    def test_bit_identity_at_other_precisions(self, dps):
        with mp.workdps(dps):
            cfg = make_schedule(0.5, 4, "factorial", dps=dps)
            zeros_of = [zero_point(cfg, k, 1 % n) for k, (_, n) in enumerate(cfg.blocks, start=1)]
            for z in _kernel_points(cfg.blocks, zeros_of, 40, seed=dps):
                for order in (0, 1, 2):
                    for strict in (True, False):
                        assert _outcome(product._jet, cfg.blocks, z, order, strict) == _outcome(
                            reference_jet, cfg.blocks, z, order, strict
                        ), (z, order)

    @pytest.mark.parametrize("name", ["headline", "H"])
    def test_bit_identity_within_ulps_of_the_unit_circle(self, name):
        """Points where one block's power w has |w| within a few ulps of 1,
        off the exact zeros (|1 - w| above 0.2), on both sides of 1: there
        the exact |w|^2 does not decide a = |w| > 1 alone, and the rounded
        a decides as in the mpc kernel, strict or not.  |w|^2 > 1 with a
        rounding to 1 occurs, as do |w|^2 < 1 and a > 1."""
        if name == "H":
            blocks = build_H("0.4", dps=100).blocks[:16]
        else:
            blocks = make_schedule(0.5, 4, "factorial").blocks
        ulp = mpf(2) ** -mp.prec
        seen = set()
        for r, n in blocks:
            for k in range(-4, 5):
                for turn in ("0.05", "0.3", "0.55", "0.8"):
                    zeta = (1 + k * ulp / n) * mp.expjpi(2 * mpf(turn) / n)
                    z = abs(r) * zeta
                    with mp.extraprec(n.bit_length() + 20):
                        w = mp.power(z / r, n)
                    x, y = w._mpc_
                    q = mp.make_mpf(libmp.mpf_add(libmp.mpf_mul(x, x), libmp.mpf_mul(y, y)))
                    seen.add((mp.sign(q - 1), mp.sign(abs(w) - 1)))
                    for order in (0, 1, 2):
                        for strict in (True, False):
                            got = _outcome(product._jet, blocks, z, order, strict)
                            want = _outcome(reference_jet, blocks, z, order, strict)
                            assert got == want, (z, order, strict)
                            assert isinstance(got[0], tuple), (z, got)
        assert {(-1, -1), (1, 0), (1, 1)} <= seen, seen

    @pytest.mark.parametrize("name", ["headline", "H"])
    def test_bit_identity_at_the_edge_of_the_screen(self, name):
        """Points where one block's power is w = (1 + c L) times a rounded
        root of unity, L = 10^(5-P), for c on both sides of the screen's
        limit |1 - w| < max(1, |w|) L and well inside it: the exact |w|^2
        band of ``_block_terms`` sends each lossy factor to the test on the
        rounded |w|, and the outcome is the mpc kernel's, raised or not."""
        if name == "H":
            blocks = build_H("0.4", dps=100).blocks[:8]
        else:
            blocks = make_schedule(0.5, 4, "factorial").blocks
        L = mpf(10) ** (5 - mp.dps)
        raised = []
        for r, n in blocks:
            for m in sorted({0, 1 % n, n // 2}):
                for c in ("-3", "-1.01", "-0.99", "-0.5", "0.5", "0.99", "1.01", "3"):
                    z = r * mp.root(1 + mpf(c) * L, n) * mp.expjpi(2 * mpf(m) / n)
                    for order in (0, 1, 2):
                        got = _outcome(product._jet, blocks, z, order, True)
                        assert got == _outcome(reference_jet, blocks, z, order, True), (z, order)
                        raised.append(not isinstance(got[0], tuple))
        assert any(raised) and not all(raised)

    @pytest.mark.parametrize("name", ["headline", "readme", "factorial-K1"])
    def test_strict_pass_reads_the_lower_blocks_of_the_lower_pass(self, name):
        """``_f_jet_and_head``'s (f, f'/f) over blocks 1..K-1, read from its
        strict pass over all K blocks, is the non-strict pass over blocks
        1..K-1 bit for bit, and its f, f', f'' are ``_f_jet``'s, wherever
        the strict pass does not raise: at z = 0, on the real axis, near
        the circles, and on f' contours where block 4's power is left out."""
        cfg = {
            "headline": lambda: make_schedule(0.5, 4, "factorial"),
            "readme": lambda: config_from_blocks([[4, 2], [16, 4]]),
            "factorial-K1": lambda: make_schedule(0.5, 1, "factorial"),
        }[name]()
        points = _kernel_points(cfg.blocks, [], 120, seed=7) + [mpc(3), mpc(-5), mpc(0, 70)]
        points += [r + r / n * mp.expjpi(mpf(2 * i + 1) / 8) for r, n in cfg.blocks for i in range(8)]
        checked = 0
        for z in points:
            try:
                jet, head = product._f_jet_and_head(cfg, z)
            except (CancellationError, ZeroDivisionError):
                continue
            lower = product._jet(cfg.blocks[:-1], z, 1, False)[:2]
            assert [x._mpc_ for x in head] == [x._mpc_ for x in lower], z
            assert [x._mpc_ for x in jet] == [x._mpc_ for x in product._f_jet(cfg, z, 2)], z
            checked += 1
        assert checked > 100

    # The negligible tail: ``_jet`` leaves out a trailing run of blocks whose
    # powers are below 2^-(2 prec + 64) where f and the sums absorb them, and
    # runs them where they do not.  Each test checks both the bits, against
    # the full loop of ``reference_jet``, and which powers were formed.

    @staticmethod
    def _formed(monkeypatch):
        """The exponents of the powers that ``product._jet`` forms, in order,
        as a patched ``_pow_int`` records them."""
        formed = []
        pow_int = product._pow_int

        def recording(w, n, prec):
            formed.append(n)
            return pow_int(w, n, prec)

        monkeypatch.setattr(product, "_pow_int", recording)
        return formed

    @staticmethod
    def _check(formed, blocks, points, expected, stricts=(True, False)):
        """At every point, order and strictness: the outcome of the full loop,
        and the powers of ``expected(strict)`` formed."""
        for z in points:
            for order in (0, 1, 2):
                for strict in stricts:
                    formed.clear()
                    got = _outcome(product._jet, blocks, z, order, strict)
                    assert formed == expected(strict), (z, order, strict)
                    assert got == _outcome(reference_jet, blocks, z, order, strict), (z, order)

    @staticmethod
    def _circle(center, radius, nodes):
        return [center + radius * mp.expjpi(mpf(2 * i + 1) / nodes) for i in range(nodes)]

    @pytest.mark.parametrize("dps", [100, 200])
    def test_tail_left_out_on_the_contours_of_blocks_1_to_3(self, monkeypatch, dps):
        """On |z - r_k| = r_k/n_k and r_k/(2 n_k) around (k, 0), k = 1..3, of
        the headline, block 4's power is below 2^-65000: it is not formed,
        and f, f'/f and (f'/f)' keep the bits of the full loop."""
        formed = self._formed(monkeypatch)
        with mp.workdps(dps):
            cfg = make_schedule(0.5, 4, "factorial", dps=dps)
            points = [
                z
                for r, n in cfg.blocks[:3]
                for radius in (r / n, r / (2 * n))
                for z in self._circle(r, radius, 16)
            ]
            self._check(formed, cfg.blocks, points, lambda strict: [2, 8])

    def test_tail_left_out_below_r4_at_factorial_k5(self, monkeypatch):
        """At factorial K = 5 block 5 (n_5 = 2^60) is left out below r_4,
        and so is block 4 on the contours of blocks 1..3."""
        formed = self._formed(monkeypatch)
        cfg = make_schedule(0.5, 5, "factorial")
        r4, n4 = cfg.blocks[3]
        self._check(formed, cfg.blocks, self._circle(r4, r4 / n4, 8), lambda strict: [2, 8, 4096])
        self._check(formed, cfg.blocks, self._circle(mpf(4), mpf(2), 8), lambda strict: [2, 8])

    def test_one_block_list_runs_its_block(self, monkeypatch):
        """``cfg.blocks[3:]`` holds only block 4: near r_3 its power is
        negligible, but f is still exactly 1 before it, so the block runs and
        f - 1 is the power, as asymptotics 2a (i) reads it, not 0."""
        formed = self._formed(monkeypatch)
        cfg = make_schedule(0.5, 4, "factorial")
        points = self._circle(mpf(64), mpf(8), 8)
        self._check(formed, cfg.blocks[3:], points, lambda strict: [4096])
        assert 0 < abs(product._jet(cfg.blocks[3:], points[0], 0, True)[0] - 1) < mpf(10) ** -20000

    def test_tail_runs_on_the_real_axis_and_at_zero(self, monkeypatch):
        """A real z leaves f and the sums with an exact zero imaginary part,
        and z = 0 has no binary exponent: the tail runs."""
        formed = self._formed(monkeypatch)
        cfg = make_schedule(0.5, 4, "factorial")
        points = [mpc(0)] + [mpc(x) for x in (3, -3, 5, 63, -64.5, 65, 1000)]
        self._check(formed, cfg.blocks, points, lambda strict: [2, 8, 4096])

    def test_tail_runs_while_a_cancellation_is_pending(self, monkeypatch):
        """At a rounded zero of block 2 a strict pass holds a
        CancellationError when it reaches block 4, so block 4 runs and the
        error carries the lossy f of the full loop; a non-strict pass keeps
        the factor and leaves block 4 out."""
        formed = self._formed(monkeypatch)
        cfg = make_schedule(0.5, 4, "factorial")
        points = [mpc(4, mpf(10) ** -97), mpc(-4, mpf(10) ** -97)]
        self._check(formed, cfg.blocks, points, lambda strict: [2, 8, 4096] if strict else [2, 8])
        for z in points:
            with pytest.raises(CancellationError) as info:
                product._jet(cfg.blocks, z, 0, True)
            assert info.value.result == reference_jet(cfg.blocks, z, 0, False)[0]

    @pytest.mark.parametrize("k, powers", [(3, 64), (4, 96)])
    def test_contour_forms_block_4_only_near_r4(self, monkeypatch, k, powers):
        """A 32-node f' contour around (k, 0) forms two powers per node
        (blocks 2 and 3) around (3, 0), and three around (4, 0), where block
        4's power is of order 1."""
        formed = self._formed(monkeypatch)
        cfg = make_schedule(0.5, 4, "factorial")
        r, n = cfg.blocks[k - 1]
        directions = [mp.expjpi(mpf(2 * i + 1) / 32) for i in range(32)]
        product._fprime_on_circle(cfg, k, r / n, directions)
        assert len(formed) == powers


class TestPowInt:
    """``product._pow_int`` gives the bits of ``mpc_pow_int`` on both of its
    routes: the exact Gaussian-integer power and the log/exp route, and
    the axes, which it hands to ``mpc_pow_int``."""

    EXPONENTS = (3, 4, 5, 7, 8, 9, 12, 16, 27, 64, 4096)

    @staticmethod
    def _points(rng, dps):
        """Seeded points of both signs, with parts from far apart to equal
        binary exponents, at the working precision, and their axis cases."""
        for _ in range(12):
            x = mpf(rng.uniform(-4, 4)) * mpf(2) ** rng.randint(-60, 60)
            y = mpf(rng.uniform(-4, 4)) * mpf(2) ** rng.randint(-60, 60)
            x += mpf(rng.random()) * mpf(10) ** -rng.randint(0, dps)
            yield from (mpc(x, y), mpc(-x, y), mpc(x, -y), mpc(-x, -y), mpc(x, 0), mpc(0, y))
        yield from (mpc(0), mpc(1, 1), mpc(-3, 5) / 7, mpc(0, -2))

    @pytest.mark.parametrize("dps", [30, 100, 200])
    def test_bit_identity_with_mpc_pow_int(self, dps):
        rng = random.Random(dps)
        routes = set()
        with mp.workdps(dps):
            for n in self.EXPONENTS:
                prec = mp.prec + n.bit_length() + 20
                for z in self._points(rng, dps):
                    (_, _, aexp, abc), (_, _, bexp, bbc) = z._mpc_
                    if z.real and z.imag:
                        routes.add(n * (abs(aexp - bexp) + max(abc, bbc)) < 10000)
                    want = libmp.mpc_pow_int(z._mpc_, n, prec, libmp.round_nearest)
                    assert product._pow_int(z._mpc_, n, prec) == want, (z, n)
        assert routes == {True, False}


class TestRadialGuard:
    """The near-zero guard decides radially before it looks for the
    nearest zero, with the same decisions and messages."""

    def test_near_zero_3_5_raises_the_same_message(self, monkeypatch):
        """Points within 10^-50 (relative) of zero (3, 5) of the headline,
        off it radially (up to 0.95 of the margin, inside and out), in
        angle and in both, reach ``nearest_zero`` and raise as before; so
        does a point inside the band 2 10^-50 but outside the margin, which
        then passes."""
        cfg = make_schedule(0.5, 4, "factorial")
        xi = zero_point(cfg, 3, 5)
        lookups, lookup = [], product.nearest_zero
        monkeypatch.setattr(product, "nearest_zero", lambda *a: lookups.append(a) or lookup(*a))
        cases = [
            (xi * (1 + mpf("3e-51")), "3.0e-51"),
            (xi * (1 + mpf("9.5e-51")), "9.5e-51"),
            (xi * (1 - mpf("9.5e-51")), "9.5e-51"),
            (xi * mp.expjpi(mpf("-1e-51")), "3.1416e-51"),
            (xi + mpc("2e-50", "-3e-50") * 16, "9.0139e-51"),
        ]
        for z, rel in cases:
            message = f"z within relative {rel} of zero (block 3, index 5); threshold 10^-50"
            for evaluate in (lambda z: f_jet(cfg, z, 2), lambda z: log_derivative(cfg, z)):
                with pytest.raises(NearZeroError) as info:
                    evaluate(z)
                assert str(info.value) == message
        assert len(lookups) == 2 * len(cases)
        f_jet(cfg, xi * (1 + mpf("1.5e-50")), 1)
        assert len(lookups) == 2 * len(cases) + 1

    def test_circle_nodes_outside_every_band_skip_nearest_zero(self, monkeypatch):
        """On [[2,1],[4,2]] the circle of radius 2 around zero (1, 0)
        reaches block 2's circle, so every node keeps the guard; no node
        lies within a band, so none calls ``nearest_zero``."""
        cfg = config_from_blocks([[2, 1], [4, 2]])
        guards, lookups = [], []
        guard, lookup = product._near_zero_guard, product.nearest_zero
        monkeypatch.setattr(product, "_near_zero_guard", lambda *a: guards.append(a) or guard(*a))
        monkeypatch.setattr(product, "nearest_zero", lambda *a: lookups.append(a) or lookup(*a))
        directions = [mp.expjpi(mpf(2 * i + 1) / 16) for i in range(16)]
        values = product._fprime_on_circle(cfg, 1, 2, directions)
        assert len(values) == len(guards) == 16 and lookups == []
        assert values[0] == f_jet(cfg, guards[0][1], 1)[1]


def _sampled_disk(cfg):
    """Block 2's disk samples, with its circle sampled."""
    r, n = cfg.block(2)
    sample_winding(cfg, 2, r / n, cfg._disk_samples(2))
    return cfg._disk_samples(2)


MEMO_CONFIGS = {
    "readme": lambda: config_from_dict(json.loads('{"blocks": [[4, 2], [16, 4]], "rho_f": 0.5}')),
    "factorial": lambda: make_schedule(0.5, 3, "factorial"),
}
# one read of each memo kind, which builds one entry of it
MEMO_READS = {
    "disk": _sampled_disk,
    "winding": lambda cfg: disk_winding(cfg, 2),
    "grid": lambda cfg: cfg._grid(),
    "past_K": lambda cfg: cfg.block(cfg.K + 1),
    "multiplicity": lambda cfg: cfg._multiplicity(cfg.blocks[-1][1]),
}
MEMO_CASES = [
    (name, kind) for name in MEMO_CONFIGS for kind in MEMO_READS
    if not (name == "readme" and kind == "past_K")  # an explicit list ends at K
]


class TestConfigMemo:
    """Each config object keeps one memo of five kinds, which the checks
    share: f' on its disk circles, their windings, its grid directions,
    the blocks past K of a rule schedule and its multiplicities as mpf.
    The memo is no part of the config's value."""

    def _pair(self, name):
        """Two configs from one definition."""
        return MEMO_CONFIGS[name](), MEMO_CONFIGS[name]()

    @pytest.mark.parametrize("name, kind", MEMO_CASES)
    def test_a_second_read_is_the_same_object(self, name, kind):
        a, _ = self._pair(name)
        first = MEMO_READS[kind](a)
        assert MEMO_READS[kind](a) is first and len(a._memo[kind]) == 1

    @pytest.mark.parametrize("name, kind", MEMO_CASES)
    def test_each_config_object_holds_its_own(self, name, kind):
        a, b = self._pair(name)
        read = MEMO_READS[kind]
        first = read(a)
        assert kind not in b._memo
        other = read(b)
        assert other is not first and other == first
        assert read(a) is first and read(b) is other

    @pytest.mark.parametrize("name, kind", MEMO_CASES)
    def test_a_replaced_config_starts_empty(self, name, kind):
        a, _ = self._pair(name)
        first = MEMO_READS[kind](a)
        variant = dataclasses.replace(a, blocks=a.blocks)
        assert variant == a and variant._memo == {}
        assert MEMO_READS[kind](variant) is not first and MEMO_READS[kind](a) is first

    def test_the_grid_is_keyed_by_the_working_precision(self):
        """The grid's directions are formed at the precision of the call,
        so another precision reads a table of its own."""
        a, _ = self._pair("factorial")
        first = a._grid()
        with mp.workprec(mp.prec + 64):
            other = a._grid()
            assert a._grid() is other
        assert other is not first and a._grid() is first
        assert len(a._memo["grid"]) == 2

    @pytest.mark.parametrize("name, kind", MEMO_CASES)
    def test_fills_leave_equality_hash_and_repr(self, name, kind):
        a, b = self._pair(name)
        MEMO_READS[kind](a)
        assert a._memo and not b._memo
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)

    def test_each_entry_is_built_once_at_the_config_precision(self):
        cfg = make_schedule(0.5, 3, "factorial", dps=30)
        builds = []

        def build(*args):
            builds.append((args, mp.dps))
            return object()

        first = cfg._memo_of("probe", 1, build, "a")
        assert cfg._memo_of("probe", 1, build, "a") is first and mp.dps == 100
        assert cfg._memo_of("probe", 2, build, "b") is not first
        assert builds == [(("a",), 30), (("b",), 30)]

    def test_disk_samples_fill_one_config_alone(self):
        a, b = self._pair("readme")
        _sampled_disk(a)
        assert len(a._disk_samples(2)) >= 32 and b._disk_samples(2) == {}
        variant = dataclasses.replace(a, blocks=a.blocks)
        assert variant._disk_samples(2) == {} and len(a._disk_samples(2)) >= 32

    def test_interpolants_compare_and_hash_without_it(self):
        """The README's ``deferred == rat, hash(deferred) == hash(rat)``
        reads True True when only one config has sampled its circles."""
        a, b = self._pair("readme")
        _sampled_disk(a)
        deferred, rat = make_system(a, defer_top=True).rat, make_system(b).rat
        assert (deferred == rat, hash(deferred) == hash(rat)) == (True, True)


class TestZeros:
    def test_square_roots_block(self):
        cfg = config_from_blocks([(4, 2)])
        zs = zeros(cfg, 1)
        assert rel_err(zs[0], 4) < mpf("1e-98")
        assert rel_err(zs[1], -4) < mpf("1e-98")

    def test_fourth_roots_block(self):
        cfg = config_from_blocks([(4, 2), (16, 4)])
        zs = zeros(cfg, 2)
        expected = [mpc(16), mpc(0, 16), mpc(-16), mpc(0, -16)]
        for got, want in zip(zs, expected):
            assert abs(got - want) < mpf("1e-95")

    def test_moduli_preserved(self):
        cfg = make_schedule(0.5, 3, "factorial")
        for k in (1, 2, 3):
            r, _ = cfg.blocks[k - 1]
            for xi in zeros(cfg, k):
                assert rel_err(abs(xi), r) < mpf("1e-95")

    def test_zero_count(self):
        assert zero_count(make_schedule(0.5, 3, "factorial")) == 11

    def test_nearest_zero(self):
        cfg = make_schedule(0.5, 3, "factorial")
        k, m, dist, rel = nearest_zero(cfg, mpf("4.001"))
        assert (k, m) == (2, 0)
        assert abs(dist - mpf("0.001")) < mpf("1e-90")
        k, m, dist, _ = nearest_zero(cfg, 64 * mp.expjpi(mpf(2) / 8) * (1 + mpf("1e-30")))
        assert (k, m) == (3, 1)
        assert rel_err(dist, 64 * mpf("1e-30")) < mpf("1e-60")

    def test_nearest_zero_huge_block(self):
        cfg = make_schedule(0.5, 7, "factorial")
        r7 = cfg.blocks[6][0]
        k, m, dist, rel = nearest_zero(cfg, r7 * (1 + mpf("1e-10")))
        assert k == 7 and m == 0
        assert rel_err(rel, mpf("1e-10")) < mpf("1e-60")

    def test_enumeration_cap(self):
        cfg = make_schedule(0.5, 5, "factorial")  # n_5 = 2^60
        with pytest.raises(ConfigError):
            zeros(cfg, 5)

    @pytest.mark.parametrize("dps", [15, 30, 100, 200])
    def test_root_table_is_unit_root_bit_for_bit(self, dps):
        """``_unit_roots`` gives ``_unit_root(i, n)`` at every index, also
        where it rotates a root of the first quarter (n a power of two from
        4), which holds only while mpmath reduces pi-multiple arguments by
        quarter turns before it rounds."""
        sizes = [1, 2, 3, *(2**e for e in range(2, 13)), 12, 17, 50]
        with mp.workdps(dps):
            for n in sizes:
                want = [product._unit_root(i, n)._mpc_ for i in range(n)]
                assert product._unit_roots(n, mp.prec) == want, n

    def test_headline_top_block_takes_a_quarter_of_its_roots_from_trig(self, monkeypatch):
        """The residue pass over the 4096 zeros of the headline's block 4
        calls libmp's ``mpf_cos_sin_pi`` for omega^1..omega^1024 alone
        (omega^0 is 1), half of the 2048 roots up to n/2; no factor of that
        block is lossy, so the screen forms no root of its own."""
        cfg = make_schedule(0.5, 4, "factorial")
        calls, cos_sin_pi = [], product.mpf_cos_sin_pi

        def counted(x, *args):
            calls.append(x)
            return cos_sin_pi(x, *args)

        def unscreened(*args):
            raise AssertionError("the headline's screen clause holds")

        monkeypatch.setattr(product, "mpf_cos_sin_pi", counted)
        monkeypatch.setattr(product, "_block_terms", unscreened)
        product._block_residues(cfg, 4)
        assert len(calls) == 1024

    def test_zero_point_past_the_enumeration_cap(self):
        """One zero of block 5 enumerates nothing: zero_point forms it for any
        index, zero n_5 - 1 as the conjugate of zero 1, and refuses only an
        index outside the block or a block outside 1..K."""
        cfg = make_schedule(0.5, 5, "factorial")
        r5, n5 = cfg.blocks[4]
        assert zero_point(cfg, 5, 0) == r5
        with mp.workdps(100):
            assert rel_err(zero_point(cfg, 5, 1), r5 * mp.expjpi(mpf(2) / n5)) < mpf("1e-98")
            assert zero_point(cfg, 5, n5 - 1) == mp.conj(zero_point(cfg, 5, 1))
        for k, m in ((5, n5), (5, -1), (6, 0), (0, 0)):
            with pytest.raises(ConfigError, match="outside"):
                zero_point(cfg, k, m)


class TestNearestZeroParity:
    """``nearest_zero`` visits blocks by radial distance and stops early; its
    tuple is that of the full scan ``helpers.nearest_zero_scan`` bit for
    bit, the lowest k on a tie."""

    CONFIGS = {
        "headline": lambda dps: make_schedule(0.5, 4, "factorial", dps=dps),
        "readme": lambda dps: config_from_blocks([[4, 2], [16, 4]], dps=dps),
        "K=7": lambda dps: make_schedule(0.5, 7, "factorial", dps=dps),
    }

    @staticmethod
    def _same(cfg, z):
        got = nearest_zero(cfg, z)
        with mp.workdps(cfg.dps):
            want = nearest_zero_scan(cfg.blocks, mpc(z))
        assert got == want, (z, got, want)
        return got

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("dps", [30, 100])
    def test_seeded_points_axes_and_circles(self, name, dps):
        cfg = self.CONFIGS[name](dps)
        rng = random.Random(dps + len(name))
        with mp.workdps(dps):
            top = cfg.blocks[-1][0]
            points = [mpc(0)]
            for _ in range(60):
                # log-uniform moduli across every block's circle
                size = mp.exp(mpf(rng.uniform(-2, 1.05)) * mp.log(top))
                points.append(size * mp.expjpi(2 * mpf(rng.random())))
            for r, n in cfg.blocks:
                points += [mpc(r * 1.5), mpc(-r / 3), mpc(0, r), mpc(0, -r * 0.7)]
                for _ in range(6):
                    u = mpf(rng.uniform(-1, 1)) * mpf(10) ** (1 - dps)
                    points.append(r * (1 + u) * mp.expjpi(2 * mpf(rng.random())))
        for z in points:
            self._same(cfg, z)

    @pytest.mark.parametrize(
        "name, z, k, m",
        [("readme", 10, 1, 0), ("readme", -10, 1, 1), ("headline", 3, 1, 0),
         ("headline", 34, 2, 0), ("headline", -34, 2, 1)],
    )
    def test_equidistant_circles_go_to_the_lower_block(self, name, z, k, m):
        """Midway between zeros of two blocks on an axis, as between 4 and
        16 or -4 and -64, the two chords are equal to the last bit: the
        lower block wins the tie."""
        cfg = self.CONFIGS[name](100)
        z = mpc(z)
        got = self._same(cfg, z)
        assert got[:2] == (k, m)
        with mp.workdps(cfg.dps):
            chords = sorted(nearest_zero_scan([block], z)[2] for block in cfg.blocks)
        assert chords[0] == chords[1] == got[2]


class TestDerivsAtZero:
    def test_one_minus_z_squared(self):
        cfg = config_from_blocks([(1, 2)])
        f1, f2 = derivs_at_zero(cfg, 1, 0)
        assert rel_err(f1, -2) < mpf("1e-95")
        assert rel_err(f2, -2) < mpf("1e-95")

    def test_single_block_prime(self):
        cfg = config_from_blocks([(4, 2)])
        f1 = derivs_at_zero(cfg, 1, 0)[0]
        assert rel_err(f1, mpf("-0.5")) < mpf("1e-95")

    def test_two_blocks_against_fraction_oracle(self):
        """Exact-fraction polynomial differentiation as the oracle."""
        blocks = [(4, 2), (16, 4)]
        cfg = config_from_blocks(blocks)
        poly = product_poly(blocks)
        d1 = poly_diff(poly)
        d2 = poly_diff(d1)
        f1, f2 = derivs_at_zero(cfg, 2, 0)
        assert rel_err(f1, horner_eval(d1, mpc(16))) < mpf("1e-90")
        assert rel_err(f2, horner_eval(d2, mpc(16))) < mpf("1e-90")
        # frozen values from the oracle
        assert rel_err(f1, mpf("3.75")) < mpf("1e-90")
        assert rel_err(f2, mpf("1.703125")) < mpf("1e-90")

    def test_complex_zero_against_fraction_oracle(self):
        blocks = [(4, 2), (16, 4)]
        cfg = config_from_blocks(blocks)
        poly = product_poly(blocks)
        xi = zero_point(cfg, 2, 1)  # 16i
        f1, f2 = derivs_at_zero(cfg, 2, 1)
        assert rel_err(f1, horner_eval(poly_diff(poly), xi)) < mpf("1e-90")
        assert rel_err(f2, horner_eval(poly_diff(poly_diff(poly)), xi)) < mpf("1e-90")

    def test_derivative_nonzero_at_every_zero(self):
        cfg = make_schedule(0.5, 3, "factorial")
        for k in (1, 2, 3):
            for m in range(cfg.blocks[k - 1][1]):
                f1 = derivs_at_zero(cfg, k, m)[0]
                assert f1 != 0

    # one zero per block of the factorial K=4 headline schedule
    HEADLINE_ZEROS = ((1, 0), (2, 1), (3, 5), (4, 1234))

    def test_against_contour_integrals_of_f(self):
        """Second route (Trefethen & Weideman, SIAM Review 56, 2014): the
        64-node trapezoid rule for f^(p)(xi)/p! = (1/2 pi i) oint f/(z-xi)^(p+1)
        on |z - xi| = r_k/(4 n_k), sampling eval_f around the zero: it
        integrates the whole product, where derivs_at_zero extracts the
        vanishing factor and runs the one-pass kernel over the others."""
        cfg = make_schedule(0.5, 4, "factorial")
        nodes = 64
        tol = mpf(10) ** (10 - cfg.dps)
        for k, m in self.HEADLINE_ZEROS:
            r_k, n_k = cfg.blocks[k - 1]
            xi = zero_point(cfg, k, m)
            rho = r_k / (4 * n_k)
            c1 = c2 = mpc(0)
            for j in range(nodes):
                h = rho * mp.expjpi(2 * mpf(j) / nodes)
                fz = eval_f(cfg, xi + h)
                c1 += fz / h
                c2 += fz / (h * h)
            f1, f2 = derivs_at_zero(cfg, k, m)
            assert rel_err(f1, c1 / nodes) < tol, (k, m)
            assert rel_err(f2, 2 * c2 / nodes) < tol, (k, m)

    def test_extreme_exponent_block_matches_truncation(self):
        """With n_5 = 2^60 in the product, block 5 contributes
        (r_k/r_5)^{2^60}, far below the last digit: the derivatives equal
        the K=4 ones.  Guards the kernel at that exponent (the one-pass
        power (xi/r_5)^{2^60} stays finite and below the last digit); the
        angle accuracy itself is checked by the contour route above."""
        k5 = make_schedule(0.5, 5, "factorial")
        k4 = make_schedule(0.5, 4, "factorial")
        assert k5.blocks[4][1] == 2**60
        tol = mpf(10) ** (10 - k5.dps)
        for k, m in ((1, 0), (3, 5), (4, 1234)):
            got = derivs_at_zero(k5, k, m)
            want = derivs_at_zero(k4, k, m)
            for a, b in zip(got, want):
                assert rel_err(a, b) < tol, (k, m)

    def test_factorial_block4_magnitude(self):
        """f'(r_4) ~ (n_4/r_4) * prod_{j<4} (r_4/r_j)^{n_j} = 2^199 * (1+o(1))."""
        cfg = make_schedule(0.5, 4, "factorial")
        f1 = derivs_at_zero(cfg, 4, 0)[0]
        assert rel_err(mp.log(abs(f1)), 199 * mp.log(2)) < mpf("1e-5")


@given(
    st.floats(min_value=0.1, max_value=0.9),
    st.integers(min_value=1, max_value=5),
    st.sampled_from(["factorial", "doubly_exp"]),
)
@settings(max_examples=40, deadline=None)
def test_schedule_invariants_hold_or_config_rejected(rho, K, rule):
    """Small-k schedules may violate the density surrogate; then the builder
    must reject them.  Accepted configs must satisfy every invariant."""
    try:
        cfg = make_schedule(rho, K, rule)
    except ConfigError:
        return
    rs = [r for r, _ in cfg.blocks]
    ns = [n for _, n in cfg.blocks]
    assert all(a < b for a, b in zip(rs, rs[1:]))
    for k in range(1, K):
        assert 2 * sum(ns[:k]) <= ns[k]
    assert sigma_certificate(cfg).total < mpf("inf")
    # a float rho is read through its shortest decimal form, not its binary value
    with mp.workdps(cfg.dps):
        assert cfg.rho_f == mpf(repr(rho))
    assert all(abs(n - mp.power(r, cfg.rho_f)) <= mpf("1.5") for r, n in cfg.blocks)


@given(
    st.one_of(
        st.lists(st.integers(min_value=2, max_value=2**200), min_size=1, max_size=4),
        st.lists(st.floats(min_value=1, max_value=1e60), min_size=1, max_size=4),
    ),
    st.sampled_from([30, 100, 200]),
)
@settings(max_examples=60, deadline=None)
def test_config_dict_round_trips_explicit_radii(radii, dps):
    """config_from_dict reads back from config_to_dict the blocks of an
    explicit config, bit for bit, for integer radii up to 2^200 and float
    radii.  The radii kept are each at least 16 times the one before, with
    n = round(r^0.5), which the schedule's validation accepts."""
    kept = []
    for r in sorted(radii):
        if not kept or r >= 16 * kept[-1]:
            kept.append(r)
    with mp.workdps(dps):
        blocks = [(r, product._round_power(mpf(r), 0.5)) for r in kept]
    cfg = config_from_blocks(blocks, dps=dps)
    assert config_from_dict(config_to_dict(cfg)).blocks == cfg.blocks


def test_float_rho_f_reads_as_the_json_config_does():
    """make_schedule(0.45, 4) is the config {"rho_f": 0.45, ...}: the same
    rho_f, and the same blocks past K, where n_k = round(r_k^rho) is
    large enough to tell 0.45 from its binary value."""
    built = make_schedule(0.45, 4, "factorial")
    parsed = config_from_dict({"rho_f": 0.45, "rule": "factorial", "K": 4})
    assert built.rho_f == parsed.rho_f
    for k in (5, 6):
        assert built.block(k) == parsed.block(k), k


def test_rho_f_keeps_the_config_precision():
    """rho_f is read at the config's precision by each entry point, not at
    mpmath's 15 digits, and config_to_dict writes it back to the same value;
    0.5 and 0.45 keep their short float form."""
    rho = "0.50000000000000000001"
    rule = {"rho_f": rho, "rule": "factorial", "K": 2, "precision_digits": 100}
    explicit = {"blocks": [[4, 2], [16, 4]], "rho_f": rho, "precision_digits": 100}
    for cfg in (
        config_from_dict(rule),
        config_from_dict(explicit),
        make_schedule(rho, 2),
        config_from_blocks([(4, 2), (16, 4)], rho_f=rho),
    ):
        assert cfg.rho_f > mpf("0.5")
        assert config_from_dict(config_to_dict(cfg)).rho_f == cfg.rho_f
    for short in (0.5, 0.45):
        cfg = config_from_dict({**rule, "rho_f": short})
        with mp.workdps(100):
            assert cfg.rho_f == mpf(str(short))
        written = config_to_dict(cfg)["rho_f"]
        assert type(written) is float and written == short
