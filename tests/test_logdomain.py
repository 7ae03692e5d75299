"""Log-domain arithmetic (internal to lacunary.product): examples, round trips,
and algebraic properties."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from lacunary import CancellationError, PrecisionError
from lacunary.logdomain import (
    LOG_ONE,
    LOG_ZERO,
    LogComplex,
    log_add,
    log_add_ex,
    log_from_value,
    log_mul,
    log_neg,
    log_pow_int,
    principal_arg,
    to_value,
)

from helpers import rel_err


class TestLogFromValue:
    def test_one(self):
        lc = log_from_value(1)
        assert lc.logmag == 0
        assert lc.arg == 0

    def test_negative_real(self):
        lc = log_from_value(-4)
        assert rel_err(lc.logmag, mp.log(4)) < mpf("1e-98")
        assert lc.arg == mp.pi

    def test_three_four_five(self):
        lc = log_from_value(mpc(3, 4))
        assert rel_err(lc.logmag, mp.log(5)) < mpf("1e-98")
        assert rel_err(lc.arg, mp.atan2(4, 3)) < mpf("1e-98")

    def test_zero_maps_to_log_zero(self):
        lc = log_from_value(0)
        assert lc.is_zero
        assert lc.arg == 0
        assert to_value(lc) == 0

    def test_nan_rejected(self):
        with pytest.raises(PrecisionError):
            log_from_value(mpc(mpf("nan"), 0))
        with pytest.raises(PrecisionError):
            LogComplex(mpf("nan"), mpf(0))


class TestLogMul:
    def test_identity(self):
        out = log_mul(LOG_ONE, LogComplex(mp.log(2), mpf(0)))
        assert out.logmag == mp.log(2)
        assert out.arg == 0

    def test_rotation_like_i_squared(self):
        a = LogComplex(mp.log(3), mp.pi / 2)
        out = log_mul(a, a)
        assert rel_err(out.logmag, mp.log(9)) < mpf("1e-98")
        assert rel_err(out.arg, mp.pi) < mpf("1e-98")

    def test_zero_absorbs(self):
        assert log_mul(LOG_ZERO, LogComplex(mpf(123), mpf(1))).is_zero
        assert log_mul(LogComplex(mpf(123), mpf(1)), LOG_ZERO).is_zero


class TestLogAdd:
    def test_total_cancellation_returns_exact_zero(self):
        out, status = log_add_ex(LOG_ONE, LogComplex(mpf(0), +mp.pi))
        assert out.is_zero
        assert status == "cancelled"

    def test_two_plus_one(self):
        out = log_add(LogComplex(mp.log(2), mpf(0)), LOG_ONE)
        assert rel_err(out.logmag, mp.log(3)) < mpf("1e-98")
        assert out.arg == 0

    def test_absorption_below_precision(self):
        big = LogComplex(mpf(10) ** 6, mpf(0))
        out, status = log_add_ex(big, LOG_ONE)
        assert status == "absorbed"
        assert out == big

    def test_zero_operand_is_identity(self):
        a = LogComplex(mpf(2), mpf("0.5"))
        assert log_add(a, LOG_ZERO) == a
        assert log_add(LOG_ZERO, a) == a

    def test_catastrophic_inexact_cancellation_raises(self):
        a = LOG_ONE
        b = log_neg(log_from_value(1 + mpf(10) ** (-98)))
        with pytest.raises(CancellationError) as exc_info:
            log_add(a, b)
        err = exc_info.value
        assert err.digits_lost > mp.dps - 5
        # the lossy partial result still carries the right magnitude scale
        assert err.result.logmag < -90 * mp.log(10)

    def test_moderate_cancellation_is_fine(self):
        a = LOG_ONE
        b = log_neg(log_from_value(1 + mpf(10) ** (-50)))
        out = log_add(a, b)
        assert rel_err(out.logmag, -50 * mp.log(10)) < mpf("1e-40")


class TestPow:
    def test_large_exponent_argument_reduction(self):
        base = log_from_value(mpc(0, 1))  # arg pi/2
        out = log_pow_int(base, 4)
        assert out.logmag == 0
        assert abs(out.arg) < mpf("1e-95")

    def test_huge_exponent(self):
        n = 2**60
        base = LogComplex(mpf("1e-3"), mpf("1e-20"))
        out = log_pow_int(base, n)
        assert rel_err(out.logmag, mpf("1e-3") * n) < mpf("1e-90")

    def test_zero_powers(self):
        assert log_pow_int(LOG_ZERO, 3).is_zero
        with pytest.raises(ZeroDivisionError):
            log_pow_int(LOG_ZERO, 0)


def test_round_trip_relative_error():
    rng = random.Random(20260810)
    for _ in range(500):
        w = mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) * mpf(10) ** rng.randint(-200, 200)
        if w == 0:
            continue
        back = to_value(log_from_value(w))
        assert rel_err(back, w) < mpf("1e-97")


def test_bulk_agreement_with_direct_arithmetic():
    """10^5 random pairs with |logmag| <= 50: log-domain add/mul match mpc."""
    rng = random.Random(1234)
    tol = mpf(10) ** (-mp.dps + 3)
    for _ in range(100_000):
        la = LogComplex(mpf(rng.uniform(-50, 50)), mpf(rng.uniform(-3.14159, 3.14159)))
        lb = LogComplex(mpf(rng.uniform(-50, 50)), mpf(rng.uniform(-3.14159, 3.14159)))
        va, vb = to_value(la), to_value(lb)
        prod = to_value(log_mul(la, lb))
        assert rel_err(prod, va * vb) < tol
        direct_sum = va + vb
        if abs(direct_sum) > mpf("1e-20") * max(abs(va), abs(vb)):
            assert rel_err(to_value(log_add(la, lb)), direct_sum) < tol


finite_logmags = st.floats(min_value=-50, max_value=50, allow_nan=False)
angles = st.floats(min_value=-3.14159, max_value=3.14159, allow_nan=False)


@st.composite
def log_values(draw):
    return LogComplex(mpf(draw(finite_logmags)), mpf(draw(angles)))


@given(log_values(), log_values(), log_values())
@settings(max_examples=200, deadline=None)
def test_mul_associative_commutative(a, b, c):
    tol = mpf(10) ** (-mp.dps + 3)
    ab_c = log_mul(log_mul(a, b), c)
    a_bc = log_mul(a, log_mul(b, c))
    assert abs(ab_c.logmag - a_bc.logmag) <= tol * max(1, abs(ab_c.logmag))
    assert abs(principal_arg(ab_c.arg - a_bc.arg)) <= tol
    ab = log_mul(a, b)
    ba = log_mul(b, a)
    assert ab.logmag == ba.logmag
    assert abs(principal_arg(ab.arg - ba.arg)) <= tol


@given(log_values(), log_values())
# conjugates whose sum is a negative real: its argument, just above -pi,
# must not round to -pi at the working precision
@example(LogComplex(mpf(2.00001), mpf(-2.00001)), LogComplex(mpf(2.00001), mpf(2.00001)))
@settings(max_examples=200, deadline=None)
def test_argument_always_principal(a, b):
    for out in (log_mul(a, b), log_neg(a), log_pow_int(a, 7)):
        assert -mp.pi < out.arg <= mp.pi
    try:
        out = log_add(a, b)
    except CancellationError as exc:
        out = exc.result
    assert -mp.pi < out.arg <= mp.pi


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_principal_arg_range_and_congruence(x):
    x = mpf(x)
    r = principal_arg(x)
    assert -mp.pi < r <= mp.pi
    k = (x - r) / (2 * mp.pi)
    assert abs(k - mp.nint(k)) < mpf("1e-80")
