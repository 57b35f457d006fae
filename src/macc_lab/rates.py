"""Closed-form transmission-rate calculators for cyclic multi-access caching.

Each calculator answers, for a memory corner ``M = i*N/K`` of a ``(K, L)``
cyclic multi-access system, the broadcast rate (in file units) a given
delivery strategy guarantees under worst-case distinct demands, plus the
subpacketization it needs. Rates are exact :class:`fractions.Fraction`
values; a strategy that does not cover the requested corner says so with no
rate, so its report reads ``applicable`` False, instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import ParameterError, as_int
from .icp import StructuredIcpDesc, UnionIcpDesc
from .macc import mod1

__all__ = [
    "RateReport",
    "UnionBounds",
    "single_icp_bound",
    "union_bounds",
    "smallest_valid_divisor",
    "corner_points",
    "rate_prior_restricted",
    "rate_prior_general",
    "rate_divisor",
    "rate_linear",
    "rate_quadratic",
    "compare",
    "memory_share",
]


@dataclass(frozen=True)
class RateReport:
    """Outcome of one rate calculator at one memory corner.

    ``rate`` is in file units per demand round; ``subpacketization`` counts
    the parts each file is cut into overall (``None`` when the scheme does
    not pin one down). ``note`` carries human-oriented detail such as the
    divisor actually chosen.
    """

    scheme: str
    rate: Fraction | None
    subpacketization: int | None
    note: str = ""

    @property
    def applicable(self) -> bool:
        """Whether the scheme covers the corner, which is when it has a rate."""
        return self.rate is not None


class UnionBounds(NamedTuple):
    """Transmission-count bounds for a two-sided cyclic union instance."""

    lower: int
    scalar: int
    divisor: int
    fractional: Fraction


def single_icp_bound(desc: StructuredIcpDesc) -> int:
    """Scalar transmissions sufficient for one cyclic single-unicast instance."""
    return desc.a1 + desc.a2 + 1


def smallest_valid_divisor(k: int, minimum: int) -> int:
    """Smallest divisor of ``k`` that is at least ``minimum``.

    ``k`` itself always qualifies when ``minimum <= k``.
    """
    if k < 1:
        raise ParameterError(f"need a positive modulus, got {k}")
    if minimum > k:
        raise ParameterError(f"no divisor of {k} reaches {minimum}")
    for t in range(max(1, minimum), k + 1):
        if k % t == 0:
            return t
    raise AssertionError("unreachable: k divides k")


def _require_divisor(k: int, s: int, x: int | None) -> int | None:
    """``x`` as a Python int, or ``None``; :class:`ParameterError` unless an
    explicit divisor ``x`` is an integer with ``x | k`` and ``x >= s = K-iL+1``."""
    if x is None:
        return None
    x = as_int(x, "divisor")
    if x < s or x > k or k % x:
        raise ParameterError(f"divisor must divide K={k} and be at least K-iL+1={s}, got {x}")
    return x


def union_bounds(desc: UnionIcpDesc) -> UnionBounds:
    """Lower bound plus the three constructive upper bounds for a union instance.

    ``lower`` is information-theoretic, ``scalar`` comes from the one-shot
    coloring, ``divisor`` from the smallest usable divisor palette, and
    ``fractional`` from the column-split coloring (a rational count).
    """
    k = desc.k
    s = desc.a1 + desc.a2 + 2
    scalar = s if k % s == 0 else min(desc.a1 + 2 * desc.a2 + 2, k)
    m = k // s
    fractional = Fraction(min(m * s + desc.a2, k), m)
    return UnionBounds(
        lower=s,
        scalar=scalar,
        divisor=smallest_valid_divisor(k, s),
        fractional=fractional,
    )


def _check_corner(k: int, l: int, i: int) -> tuple[int, int, int, int]:
    """Validate a (K, L, i) corner of integers; return it as Python ints and
    the coverage i*L."""
    k, l, i = as_int(k, "K"), as_int(l, "L"), as_int(i, "i")
    if k < 1:
        raise ParameterError(f"need at least one cache, got K={k}")
    if not (1 <= l <= k):
        raise ParameterError(f"access degree must lie in [1, {k}], got {l}")
    ceil_kl = -(-k // l)
    if not (0 <= i <= ceil_kl):
        raise ParameterError(f"memory index must lie in [0, {ceil_kl}], got {i}")
    return k, l, i, i * l


_ZERO_MEMORY_NOTE = "zero-memory corner: plain broadcast costs K file units"
_FULL_COVERAGE_NOTE = "every user already sees every subfile"


def rate_prior_restricted(k: int, l: int, i: int) -> RateReport:
    """Earlier scheme that needs both ``i`` and ``K-iL+i`` to divide ``K``."""
    k, l, i, cov = _check_corner(k, l, i)
    name = "prior_restricted"
    if i == 0:
        return RateReport(name, None, None, _ZERO_MEMORY_NOTE)
    if cov > k:
        return RateReport(name, None, None, "corner beyond the divisible family")
    d = k - cov
    if k % i or k % (d + i):
        return RateReport(
            name, None, None,
            f"needs i | K and K-iL+i | K; got i={i}, K-iL+i={d + i}",
        )
    return RateReport(name, Fraction(d * (d + i), 2 * k), None, "")


def rate_prior_general(k: int, l: int, i: int) -> RateReport:
    """Earlier unrestricted scheme; subpacketization can grow past linear."""
    k, l, i, cov = _check_corner(k, l, i)
    name = "prior_general"
    if i == 0:
        return RateReport(name, None, None, _ZERO_MEMORY_NOTE)
    if cov > k:
        return RateReport(name, Fraction(0), k, _FULL_COVERAGE_NOTE)
    d = k - cov
    s = d + 1
    m = k // s
    if d == 1 or k % s == 0:
        return RateReport(name, Fraction(d * s, 2 * k), k, "")
    if mod1(k, s) == d:
        return RateReport(name, Fraction(d, 2 * m + 1), (2 * m + 1) * k, "")
    return RateReport(name, Fraction(d, 2 * m), 2 * m * k, "")


def rate_divisor(k: int, l: int, i: int, divisor: int | None = None) -> RateReport:
    """Pair-and-pad scheme: any divisor ``X | K`` with ``X >= K-iL+1`` works.

    Defaults to the smallest usable divisor. Linear subpacketization:
    ``K`` parts when ``K-iL`` is even, ``K+1`` (one subfile halved) when odd.
    """
    k, l, i, cov = _check_corner(k, l, i)
    name = "divisor"
    if i == 0:
        if divisor is not None:
            as_int(divisor, "divisor")
        return RateReport(name, None, None, _ZERO_MEMORY_NOTE)
    divisor = _require_divisor(k, max(k - cov, 0) + 1, divisor)
    if cov > k:
        return RateReport(name, Fraction(0), k, _FULL_COVERAGE_NOTE)
    d = k - cov
    x = smallest_valid_divisor(k, d + 1) if divisor is None else divisor
    f = k if d % 2 == 0 else k + 1
    return RateReport(name, Fraction(d * x, 2 * k), f, f"X={x}")


def rate_linear(k: int, l: int, i: int) -> RateReport:
    """Scalar per-column-pair scheme; always linear subpacketization."""
    k, l, i, cov = _check_corner(k, l, i)
    name = "linear"
    if i == 0:
        return RateReport(name, None, None, _ZERO_MEMORY_NOTE)
    if cov > k:
        return RateReport(name, Fraction(0), k, _FULL_COVERAGE_NOTE)
    d = k - cov
    s = d + 1
    if d == 1 or k % s == 0:
        rate = Fraction(d * s, 2 * k)
    elif d % 2 == 0:
        if k >= 3 * cov:
            rate = Fraction(k * d - cov * (cov - 1), 2 * k)
        else:
            rate = Fraction(d * (5 * k - 5 * cov + 2), 8 * k)
    else:
        if k >= 3 * cov + 1:
            rate = Fraction(k * s - cov * (cov + 1), 2 * k)
        else:
            rate = Fraction((d - 1) * (5 * k - 5 * cov + 9), 8 * k) + 1
    f = k if (d % 2 == 0 or d == 1) else k + 1
    return RateReport(name, rate, f, "")


def rate_quadratic(k: int, l: int, i: int) -> RateReport:
    """Column-split scheme; best of the family at O(K^2) subpacketization.

    Even deficit: sum of per-pair fractional counts. Odd deficit: the
    leftover middle column rides at twice the split of everything else.
    """
    k, l, i, cov = _check_corner(k, l, i)
    name = "quadratic"
    if i == 0:
        return RateReport(name, None, None, _ZERO_MEMORY_NOTE)
    if cov > k:
        return RateReport(name, Fraction(0), k, _FULL_COVERAGE_NOTE)
    d = k - cov
    s = d + 1
    m = k // s
    pair_terms = sum(
        (Fraction(min(m * s + j, k), m * k) for j in range(d // 2)), Fraction(0)
    )
    if d % 2 == 0:
        rate = pair_terms
    else:
        rate = pair_terms + Fraction(min(m * s + (d - 1) // 2, k), 2 * m * k)
    ktil = k if (d % 2 == 0 or d == 1) else k + 1
    f = ktil if (d == 1 or k % s == 0) else ktil * m
    return RateReport(name, rate, f, "")


def compare(k: int, l: int, i: int, divisor: int | None = None) -> dict[str, RateReport]:
    """All five calculators at one corner, keyed by scheme name."""
    reports = (
        rate_prior_restricted(k, l, i),
        rate_prior_general(k, l, i),
        rate_divisor(k, l, i, divisor=divisor),
        rate_linear(k, l, i),
        rate_quadratic(k, l, i),
    )
    return {r.scheme: r for r in reports}


def _cross(o: tuple[Fraction, Fraction], a: tuple[Fraction, Fraction],
           b: tuple[Fraction, Fraction]) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def corner_points(
    k: int,
    l: int,
    calculator: Callable[[int, int, int], RateReport] = rate_quadratic,
) -> tuple[tuple[Fraction, Fraction], ...]:
    """All (mu, rate) corner points for one calculator, mu = M/N = i/K.

    The trivial anchors (0, K) and (1, 0) are always included; corners the
    calculator cannot price are dropped.
    """
    k, l, _, _ = _check_corner(k, l, 0)
    ceil_kl = -(-k // l)
    pts: dict[Fraction, Fraction] = {Fraction(0): Fraction(k), Fraction(1): Fraction(0)}
    for idx in range(1, ceil_kl + 1):
        rep = calculator(k, l, idx)
        if rep.rate is None:
            continue
        x = Fraction(idx, k)
        if x not in pts or rep.rate < pts[x]:
            pts[x] = rep.rate
    return tuple(sorted(pts.items()))


def memory_share(
    points,
    memory_fraction: Fraction | int | str | float,
) -> Fraction:
    """Rate at an arbitrary normalized memory ``mu = M/N`` in [0, 1].

    Between corners, files are split between two corner placements in
    proportion, so the achievable curve is the lower convex envelope of the
    given (mu, rate) points.
    """
    mu = Fraction(memory_fraction)
    if not 0 <= mu <= 1:
        raise ParameterError(f"memory fraction must lie in [0, 1], got {mu}")
    pts: dict[Fraction, Fraction] = {}
    for raw_x, raw_y in points:
        x, y = Fraction(raw_x), Fraction(raw_y)
        if not 0 <= x <= 1:
            raise ParameterError(f"memory share must lie in [0, 1], got {x}")
        if x not in pts or y < pts[x]:
            pts[x] = y
    if len(pts) < 2 or min(pts) > 0 or max(pts) < 1:
        raise ParameterError("corner points must span memory shares 0 and 1")
    ordered = sorted(pts.items())
    hull: list[tuple[Fraction, Fraction]] = []
    for p in ordered:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        if x0 <= mu <= x1:
            return y0 + (mu - x0) / (x1 - x0) * (y1 - y0)
    raise AssertionError("unreachable: [0, 1] is covered by the hull")
