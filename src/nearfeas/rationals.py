"""Exact rational scalars, their text form, and the integers beneath them.

Everything numeric in this package is an exact rational; no floating point
ever enters a computation.  ``Rat`` is the scalar constructor,
``fractions.Fraction``: values stay in lowest terms with a positive
denominator and print as "p/q" (or "p" for integers).  It holds parsed
instance data, LP inputs and reported fields; the layers between work on
ints: the tableau, every matrix (``linalg.Matrix`` stores only integer
rows), residuals, the mixed optimum's numerators and the roundings.

This module owns both crossings of that boundary.  ``as_rat`` is the one
coercion into ``Rat`` (a ``Rat`` passes through unchanged, so coercing
exact data costs nothing); ``integer_row`` is the one way any layer (a
matrix's ``from_rows``, the simplex's bounds, right-hand sides and
objective, the costs, the scheduling reduction) turns rationals into
integers over a shared scale.  Both reject a float or a bool with the same
``TypeError``; ``integer_row`` also rejects a string, which ``as_rat`` parses.
"""

import math
import re
import sys
from fractions import Fraction

Rat = Fraction
RAT_BACKEND = "fraction"

ZERO = Rat(0)
ONE = Rat(1)

_RAT_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))$|^([+-]?\d+)$")


def parse_rat(text):
    """Parse "p/q" or "p"; the sign may only sit on the numerator."""
    if not isinstance(text, str):
        raise ValueError(f"expected rational string, got {text!r}")
    m = _RAT_RE.match(text.strip())
    if m is None:
        raise ValueError(f"malformed rational {text!r}")
    if m.group(3) is not None:
        return Rat(int(m.group(3)))
    num, den = int(m.group(1)), int(m.group(2))
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Rat(num, den)


def format_rat(value):
    """Render as "p/q", or "p" when the denominator is 1, at any length: past
    the interpreter's digit limit for int-to-text conversion, the limit is
    lifted for this conversion alone."""
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(value)
        finally:
            sys.set_int_max_str_digits(limit)


def _exact(value):
    """``value`` itself; a bool or a float raises TypeError."""
    if isinstance(value, bool):
        raise TypeError("boolean values are not allowed")
    if isinstance(value, float):
        raise TypeError("floating-point values are not allowed")
    return value


def as_rat(value):
    """Coerce an int, rational, or "p/q" string to Rat; floats and booleans
    are rejected, and a Rat is returned as it is."""
    if type(value) is Rat:
        return value
    if isinstance(_exact(value), str):
        return parse_rat(value)
    if isinstance(value, int):
        return Rat(value)
    try:
        return Rat(value.numerator, value.denominator)
    except AttributeError:
        raise TypeError(f"expected a rational, got {value!r}") from None


def integer_row(values):
    """``(L, ints)`` for a sequence of values: L is the least positive integer
    with L * v integral for every v (the lcm of the denominators; 1 for no
    values), and ints lists every L * v as an int, read in one pass.  A value
    that is not a rational raises ``as_rat``'s TypeError."""
    try:
        pairs = [_exact(v).as_integer_ratio() for v in values]
    except AttributeError:
        bad = next(v for v in values if not hasattr(v, "as_integer_ratio"))
        raise TypeError(f"expected a rational, got {bad!r}") from None
    L = math.lcm(*[d for _, d in pairs])
    return L, [n * (L // d) for n, d in pairs]


def is_integral(value):
    return value.denominator == 1


def to_float(value):
    """Decimal approximation for report readability only; None for a value
    outside the float range."""
    try:
        return int(value.numerator) / int(value.denominator)
    except OverflowError:
        return None
