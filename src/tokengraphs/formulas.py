"""Closed-form independence numbers for the supported family/operator
pairs, plus the quarter-squares sequence helpers.

Every evaluator uses exact integer arithmetic and rejects an m below
its accepted minimum instead of extrapolating. That minimum is sometimes
lower than the one the paper states; the wider range is the one the
exhaustive solver confirms in the test suite, and the evaluator's
docstring records the paper's minimum.
"""

from __future__ import annotations

from .graphs import _require


def dv_path(m: int) -> int:
    """alpha of the double vertex graph of P_m: floor(m^2/4)."""
    _require("dv_path", m, 2)
    return m * m // 4


def dv_cycle(m: int) -> int:
    """alpha of the double vertex graph of C_m: floor(m*floor(m/2)/2)."""
    _require("dv_cycle", m, 3)
    return m * (m // 2) // 2


def dv_fan(m: int) -> int:
    """alpha of the double vertex graph of the fan on m+1 vertices:
    the path value, except 1 at m = 1, the single token. The
    paper states it from m = 2; it holds from m = 1."""
    _require("dv_fan", m, 1)
    if m == 1:
        return 1
    return dv_path(m)


def dv_wheel(m: int) -> int:
    """alpha of the double vertex graph of the wheel on m+1 vertices:
    the cycle value, except 2 at m = 3, certified by {1,2}, {3,4}. The
    paper states it from m = 4; it holds from m = 3."""
    _require("dv_wheel", m, 3)
    if m == 3:
        return 2
    return dv_cycle(m)


def pair_path(m: int) -> int:
    """alpha of the pair graph of P_m: floor((m+1)^2/4). The paper states
    it from m = 3; it holds from m = 1."""
    _require("pair_path", m, 1)
    return (m + 1) * (m + 1) // 4


def pair_fan(m: int) -> int:
    """alpha of the pair graph of the fan on m+1 vertices: one more than
    the path value (the apex diagonal joins any maximum set)."""
    _require("pair_fan", m, 1)
    return pair_path(m) + 1


def pair_cycle(m: int) -> int:
    """alpha of the pair graph of C_m: k(k+1) for m = 2k, and
    k(k+1) + floor((k+1)/2) for m = 2k+1."""
    _require("pair_cycle", m, 3)
    k = m // 2
    if m % 2 == 0:
        return k * (k + 1)
    return k * (k + 1) + (k + 1) // 2


def pair_wheel(m: int) -> int:
    """alpha of the pair graph of the wheel on m+1 vertices: one more
    than the cycle value."""
    _require("pair_wheel", m, 3)
    return pair_cycle(m) + 1


def grid_alpha(r: int, s: int) -> int:
    """alpha of the grid P_r x P_s (checkerboard count)."""
    if r < 1 or s < 1:
        raise ValueError(f"grid needs r, s >= 1, got ({r}, {s})")
    rc = (r + 1) // 2
    sc = (s + 1) // 2
    return rc * sc + (r - rc) * (s - sc)


def alpha_path(m: int) -> int:
    """alpha of P_m: ceil(m/2)."""
    _require("alpha_path", m, 1)
    return (m + 1) // 2


def alpha_cycle(m: int) -> int:
    """alpha of C_m: floor(m/2)."""
    _require("alpha_cycle", m, 3)
    return m // 2


def a002620(n: int) -> int:
    """Quarter-squares: floor(n^2/4)."""
    if n < 0:
        raise ValueError(f"a002620 needs n >= 0, got {n}")
    return n * n // 4


def a002620_recurrence_checks(n_max: int) -> bool:
    """Check the quarter-squares identities up to n_max:

    1. floor(n/2) * ceil(n/2) = floor(n^2/4)
    2. a(n) = a(n-1) + floor(n/2) = a(n-1) + ceil((n-1)/2), a(0) = 0
    3. a(n) = a(n-2) + n - 1 for n >= 2
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    for n in range(n_max + 1):
        if (n // 2) * ((n + 1) // 2) != a002620(n):
            return False
        # floor(n/2) and ceil((n-1)/2) coincide, so one check covers both
        # stated forms of the first-order recurrence.
        if n >= 1 and a002620(n) != a002620(n - 1) + n // 2:
            return False
        if n >= 2 and a002620(n) != a002620(n - 2) + n - 1:
            return False
    return True

