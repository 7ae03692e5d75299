"""Overflow-safe complex arithmetic in the log domain, internal to ``product``.

Only :mod:`lacunary.product` imports this module; every value it hands
to the rest of the package is a plain ``mpc``.

A ``LogComplex`` stores a complex number w as ``(logmag, arg)`` with
``logmag = ln|w|`` and ``arg`` the principal argument in (-pi, pi].
Quantities of size exp(+-10^6) and far beyond stay representable, and
products of huge factors become exact additions of ``logmag`` fields.
The exact zero is encoded as ``logmag = -inf`` (with ``arg = 0``); it is
the only way to represent a vanishing value, and converts losslessly to
and from ``mpc(0)``.

All values are mpmath numbers evaluated at the *current* mpmath working
precision; higher-level operations wrap themselves in
``mp.workdps(config.precision)`` so results carry the minimum precision
of the pipeline that produced them.  Values are immutable and every
operation is pure, so concurrent use needs no locking.

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


def _require_finite(x: mpc, what: str = "value") -> mpc:
    if mp.isnan(x.real) or mp.isnan(x.imag) or mp.isinf(x.real) or mp.isinf(x.imag):
        raise PrecisionError(f"non-finite {what}: {x}")
    return x


def principal_arg(x) -> mpf:
    """Reduce an angle to the principal range (-pi, pi].

    Done with 80 guard bits: arguments arrive as n*arg(z) with n up to
    ~2^60, so the reduction must survive ~19 digits of cancellation.
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

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"LogComplex(logmag={mp.nstr(self.logmag, 12)}, arg={mp.nstr(self.arg, 12)})"


LOG_ZERO = LogComplex(_NEG_INF, mpf(0))
LOG_ONE = LogComplex(mpf(0), mpf(0))


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


def log_mul(*factors: LogComplex) -> LogComplex:
    """Product: logmag fields add exactly, arguments add and reduce to (-pi, pi].

    Zero absorbs.
    """
    lm = mpf(0)
    ar = mpf(0)
    for f in factors:
        if f.is_zero:
            return LOG_ZERO
        lm = lm + f.logmag
        ar = ar + f.arg
    return LogComplex(lm, principal_arg(ar))


def log_neg(a: LogComplex) -> LogComplex:
    if a.is_zero:
        return LOG_ZERO
    return LogComplex(a.logmag, principal_arg(a.arg + mp.pi))


def log_pow_int(a: LogComplex, n: int) -> LogComplex:
    """Integer power: n * logmag, n * arg reduced once at full precision.

    This is the only sanctioned way to form (z/r)^n for large n; repeated
    multiplication would reduce the argument n times and lose the n-fold
    amplified angular information.
    """
    if a.is_zero:
        if n <= 0:
            raise ZeroDivisionError("zero to a non-positive power")
        return LOG_ZERO
    if n == 0:
        return LOG_ONE
    return LogComplex(mpf(n) * a.logmag, principal_arg(mpf(n) * a.arg))


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
