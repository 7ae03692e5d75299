"""Log-domain arithmetic, which only the benchmark's traced run keeps:
examples, round trips and properties of the traced names and what they reach."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from lacunary import CancellationError, PrecisionError
from lacunary.logdomain import (
    LOG_ZERO,
    LogComplex,
    log_add,
    log_add_ex,
    log_from_value,
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

    def test_infinite_value_rejected(self):
        with pytest.raises(PrecisionError):
            log_from_value(mpc(mpf("inf"), 0))
        with pytest.raises(PrecisionError):
            log_from_value(mpc(0, mpf("-inf")))


class TestLogComplexFields:
    def test_infinite_magnitude_rejected(self):
        with pytest.raises(PrecisionError, match="infinite magnitude"):
            LogComplex(mpf("inf"), mpf(0))

    def test_infinite_argument_rejected(self):
        with pytest.raises(PrecisionError):
            LogComplex(mpf(0), mpf("inf"))

    def test_zero_with_an_argument_rejected(self):
        with pytest.raises(PrecisionError, match="exact zero"):
            LogComplex(mpf("-inf"), mpf("0.5"))


class TestLogAdd:
    def test_total_cancellation_returns_exact_zero(self):
        out, status = log_add_ex(log_from_value(1), LogComplex(mpf(0), +mp.pi))
        assert out.is_zero
        assert status == "cancelled"

    def test_two_plus_one(self):
        out = log_add(LogComplex(mp.log(2), mpf(0)), log_from_value(1))
        assert rel_err(out.logmag, mp.log(3)) < mpf("1e-98")
        assert out.arg == 0

    def test_absorption_below_precision(self):
        big = LogComplex(mpf(10) ** 6, mpf(0))
        out, status = log_add_ex(big, log_from_value(1))
        assert status == "absorbed"
        assert out == big

    def test_zero_operand_is_identity(self):
        a = LogComplex(mpf(2), mpf("0.5"))
        assert log_add(a, LOG_ZERO) == a
        assert log_add(LOG_ZERO, a) == a

    def test_catastrophic_inexact_cancellation_raises(self):
        a = log_from_value(1)
        b = log_from_value(-(1 + mpf(10) ** (-98)))
        with pytest.raises(CancellationError) as exc_info:
            log_add(a, b)
        err = exc_info.value
        assert err.digits_lost > mp.dps - 5
        # the lossy partial result still carries the right magnitude scale
        assert err.result.logmag < -90 * mp.log(10)

    def test_absorption_keeps_the_larger_operand_in_either_order(self):
        big = LogComplex(mpf(10) ** 6, mpf("0.25"))
        small = LogComplex(mpf(0), mpf(1))
        assert log_add_ex(small, big) == (big, "absorbed")
        assert log_add_ex(big, small) == (big, "absorbed")

    def test_moderate_cancellation_is_fine(self):
        a = log_from_value(1)
        b = log_from_value(-(1 + mpf(10) ** (-50)))
        out = log_add(a, b)
        assert rel_err(out.logmag, -50 * mp.log(10)) < mpf("1e-40")


def test_round_trip_relative_error():
    rng = random.Random(20260810)
    for _ in range(500):
        w = mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) * mpf(10) ** rng.randint(-200, 200)
        if w == 0:
            continue
        back = to_value(log_from_value(w))
        assert rel_err(back, w) < mpf("1e-97")


def test_bulk_agreement_with_direct_arithmetic():
    """10^5 random pairs with |logmag| <= 50: log-domain add matches mpc."""
    rng = random.Random(1234)
    tol = mpf(10) ** (-mp.dps + 3)
    for _ in range(100_000):
        la = LogComplex(mpf(rng.uniform(-50, 50)), mpf(rng.uniform(-3.14159, 3.14159)))
        lb = LogComplex(mpf(rng.uniform(-50, 50)), mpf(rng.uniform(-3.14159, 3.14159)))
        va, vb = to_value(la), to_value(lb)
        direct_sum = va + vb
        if abs(direct_sum) > mpf("1e-20") * max(abs(va), abs(vb)):
            assert rel_err(to_value(log_add(la, lb)), direct_sum) < tol


finite_logmags = st.floats(min_value=-50, max_value=50, allow_nan=False)
angles = st.floats(min_value=-3.14159, max_value=3.14159, allow_nan=False)


@st.composite
def log_values(draw):
    return LogComplex(mpf(draw(finite_logmags)), mpf(draw(angles)))


@given(log_values(), log_values())
# conjugates whose sum is a negative real: its argument, just above -pi,
# must not round to -pi at the working precision
@example(LogComplex(mpf(2.00001), mpf(-2.00001)), LogComplex(mpf(2.00001), mpf(2.00001)))
@settings(max_examples=200, deadline=None)
def test_argument_always_principal(a, b):
    try:
        out = log_add(a, b)
    except CancellationError as exc:
        out = exc.result
    assert -mp.pi < out.arg <= mp.pi


@given(log_values(), log_values())
# 1 + (nearly -1): the sum keeps about 94 of the 100 digits
@example(LogComplex(mpf(0), mpf(0)), LogComplex(mpf(0), mpf(3.14159)))
@settings(max_examples=200, deadline=None)
def test_add_commutative(a, b):
    """Both orders give one sum, up to rounding of the larger operand: a
    cancelling sum keeps fewer digits of its own."""
    try:
        ab, ba = log_add(a, b), log_add(b, a)
    except CancellationError:
        return
    scale = max(abs(to_value(a)), abs(to_value(b)))
    assert abs(to_value(ab) - to_value(ba)) < mpf(10) ** (-mp.dps + 3) * scale


def test_principal_arg_maps_minus_pi_to_pi():
    assert principal_arg(-mp.pi) == mp.pi
    assert principal_arg(mp.pi) == mp.pi
    assert principal_arg(0) == 0


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_principal_arg_range_and_congruence(x):
    x = mpf(x)
    r = principal_arg(x)
    assert -mp.pi < r <= mp.pi
    k = (x - r) / (2 * mp.pi)
    assert abs(k - mp.nint(k)) < mpf("1e-80")
