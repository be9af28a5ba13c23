"""The rounding-depth mechanism (paper §3, Table 1).

    "Rounding depth defines the position of a non-zero digit, counting
    from the left, to which we will round."

The crucial property is that a measurement's rounding is decided *before
seeing it* — the depth refers to significant digits, not absolute
decimal places, so the same rule applies across metrics whose magnitudes
differ by orders of magnitude.  Reproduces Table 1 exactly:

    value     depth 1   depth 2   depth 3   depth 4
    1358.0    1000.0    1400.0    1360.0    1358.0
    5.28      5.0       5.3       5.28      5.28
    0.038     0.04      0.038     0.038     0.038
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np


def _check_depth(depth: int) -> None:
    """Shared depth validation: raises before *any* coercion work, with
    identical error text on the scalar and the vectorized path — callers
    (and the cascade's coarse/fine depth pair) rely on catching one
    message."""
    if depth < 1:
        raise ValueError(f"rounding depth must be >= 1, got {depth}")


#: Largest ``k`` for which ``10.0 ** k`` is a finite double.  Scaling a
#: subnormal up to the units position needs shifts beyond this (down to
#: ``5e-324`` the shift reaches ``depth + 323``), so those are applied
#: in two finite steps instead of overflowing to ``inf``.
_MAX_POW10 = 308

#: Significant digits a double always holds exactly (``DBL_DIG``).
#: Below this depth the value is first rounded to this many digits, so
#: a decimal tie such as ``0.95`` is seen as a tie however many ulps of
#: binary noise the value carries: ``0.95`` and ``0.95 * 1e-6`` (which
#: is ``9.499999999999999e-07``) then round alike at depth 1.
_GUARD_DIGITS = 15

#: Depth at which rounding any double is the identity: the quantum
#: ``10**(magnitude - depth + 1)`` is then at least ~200x below half an
#: ulp, so the nearest double to the rounded real value is the input
#: itself.  Short-circuiting here also keeps the scaled magnitude
#: (``< 10**depth``) comfortably finite on both paths.
_IDENTITY_DEPTH = 19


def round_depth(value: float, depth: int) -> float:
    """Round ``value`` to ``depth`` significant digits.

    Depth 1 keeps only the left-most non-zero digit's position; larger
    depths keep more.  Zero rounds to zero at every depth; NaN and
    infinities propagate (a missing or saturated interval mean must not
    silently become a fingerprint).
    """
    _check_depth(depth)
    if value != value:  # NaN
        return float("nan")
    if value == 0.0:
        return 0.0
    if math.isinf(value):
        return value
    if depth >= _IDENTITY_DEPTH:
        return value
    magnitude = math.floor(math.log10(abs(value)))
    # Scale so the target digit sits at the units position, round to the
    # nearest integer (ties to even, as NumPy does), and scale back.
    # Dividing by a positive power of ten on the way back keeps large
    # magnitudes exact (10**k is exact for k >= 0; 10**-k is not).  The
    # vectorized path applies _round_at_shift per shift group so both
    # paths share the exact same power-of-ten constants and operation
    # order — ``10.0 ** k`` and ``np.power(10.0, k)`` differ by an ulp
    # at large ``k``, enough to break bit-for-bit agreement.
    return _round_at_shift(value, depth, depth - 1 - magnitude, round)


def _round_at_shift(value, depth: int, shift: int, round_fn):
    """Round ``value`` (scalar or ndarray) to ``depth`` digits at an
    integral decimal shift.

    Below ``_GUARD_DIGITS`` the value is first rounded to an integral
    ``_GUARD_DIGITS``-digit mantissa (``< 10**15``, exact in a double),
    and that mantissa is rounded to ``depth`` digits by one division by
    an exact power of ten: a decimal tie divides to exactly ``k + 0.5``
    and a non-tie stays several ulps away from it.

    With ``depth < _IDENTITY_DEPTH`` the shifts are bounded to
    ``[-294, 341]`` and the scaled magnitude to ``< 10**18``, so the
    only possible overflow is a value legitimately rounding up past the
    largest double (to ``inf``) on the way back down.
    """
    if depth < _GUARD_DIGITS:
        guard = _GUARD_DIGITS - depth
        digits = round_fn(_scale(value, shift + guard))
        units = round_fn(digits / 10.0 ** guard)
    else:
        units = round_fn(_scale(value, shift))
    return _unscale(units, shift)


def _scale(value, shift: int):
    """``value * 10**shift``, multiplying by an exact positive power of
    ten or dividing by one, in two finite steps past ``_MAX_POW10``."""
    if shift > _MAX_POW10:
        return value * 10.0 ** _MAX_POW10 * 10.0 ** (shift - _MAX_POW10)
    if shift >= 0:
        return value * 10.0 ** shift
    # shift >= 14 - 308 here, so 10.0 ** (-shift) never overflows.
    return value / 10.0 ** (-shift)


def _unscale(value, shift: int):
    """Inverse of :func:`_scale`: dividing by a positive power of ten
    keeps large magnitudes exact (``10**k`` is exact for ``k >= 0``;
    ``10**-k`` is not)."""
    if shift > _MAX_POW10:
        return value / 10.0 ** (shift - _MAX_POW10) / 10.0 ** _MAX_POW10
    if shift >= 0:
        return value / 10.0 ** shift
    return value * 10.0 ** (-shift)


def round_depth_array(values, depth: int) -> np.ndarray:
    """Vectorized :func:`round_depth` over an array.

    Agrees with the scalar path bit-for-bit on every input (NaN results
    are canonicalized the same way the scalar path's ``float("nan")``
    is) — a property-tested contract, see ``tests/test_family_cascade``.
    """
    _check_depth(depth)
    values = np.asarray(values, dtype=float)
    out = np.array(values, dtype=float, copy=True)
    out[values == 0.0] = 0.0  # scalar path maps -0.0 to +0.0 too
    out[np.isnan(values)] = float("nan")  # canonical NaN, like the scalar
    if depth >= _IDENTITY_DEPTH:
        return out
    finite = np.isfinite(values) & (values != 0.0)
    if not finite.any():
        return out
    v = values[finite]
    magnitude = np.floor(np.log10(np.abs(v)))
    shift = (depth - 1 - magnitude).astype(np.int64)
    rounded = np.empty_like(v)
    # Group by shift so each group scales by the same Python-float
    # power of ten the scalar path would use.  Telemetry arrays span a
    # handful of decades, so the group count stays tiny.
    # Rounding the very top of the double range up past the largest
    # representable value overflows to inf on both paths; the scalar one
    # does so silently, so suppress NumPy's warning for the same case.
    with np.errstate(over="ignore"):
        for s in np.unique(shift):
            group = shift == s
            rounded[group] = _round_at_shift(v[group], depth, int(s), np.round)
    out[finite] = rounded
    return out


def bucket_width(value: float, depth: int) -> float:
    """Width of the rounding bucket ``value`` falls into at ``depth``.

    Useful for reasoning about pruning: fingerprints within half a bucket
    of each other collapse onto the same key.
    """
    _check_depth(depth)
    if value == 0.0 or value != value:
        return 0.0
    magnitude = math.floor(math.log10(abs(value)))
    return 10.0 ** (magnitude - depth + 1)


def significant_digits(value: float) -> int:
    """Number of significant digits in ``value``'s shortest decimal form.

    Table 1 marks depths beyond a value's precision with "-": rounding at
    or past this depth leaves the value unchanged.
    """
    if value == 0.0:
        return 1
    if value != value or math.isinf(value):
        raise ValueError(f"value must be finite, got {value}")
    text = np.format_float_positional(abs(value), trim="-")
    digits = text.replace(".", "").lstrip("0")
    digits = digits.rstrip("0") or "0"
    return max(len(digits), 1)
