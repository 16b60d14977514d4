"""Exact arithmetic in the min-plus and max-plus tropical semirings.

Values are exact extended rationals: a reduced Fraction, +inf, or -inf.
+inf is the additive identity of min-plus, -inf of max-plus.  A single
value type carries both infinities; which one is admissible in a given
representation is policed at the representation level, not here.

Everything in this module is immutable and pure.  The realization kernel
at the end decides "does u.v reach t" for all pairs at once.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from .errors import BadParameter, DimensionMismatch, MixedInfinity


class Algebra(Enum):
    """Which tropical semiring an operation runs in."""

    MIN_PLUS = "min-plus"
    MAX_PLUS = "max-plus"


MIN_PLUS = Algebra.MIN_PLUS
MAX_PLUS = Algebra.MAX_PLUS

Rationalish = Union[int, Fraction, str]

_FINITE = 0
_POS = 1
_NEG = -1


def as_fraction(x: Rationalish) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction.

    Floats are rejected on purpose: every computation in this package is
    exact, and a float would smuggle rounding error into strict
    inequalities.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise BadParameter(f"not an exact rational: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise BadParameter(f"not an exact rational: {x!r}") from exc
    raise BadParameter(f"not an exact rational: {x!r}")


@dataclass(frozen=True, order=True)
class TropicalValue:
    """An exact rational, +inf, or -inf, ordered by (kind, frac): -inf < rationals < +inf."""

    kind: int
    frac: Fraction

    @staticmethod
    def finite(x: Rationalish) -> "TropicalValue":
        return TropicalValue(_FINITE, as_fraction(x))

    @staticmethod
    def parse(text: str) -> "TropicalValue":
        s = text.strip()
        if s == "inf":
            return POS_INF
        if s == "-inf":
            return NEG_INF
        return TropicalValue.finite(s)

    @property
    def is_finite(self) -> bool:
        return self.kind == _FINITE

    @property
    def is_pos_inf(self) -> bool:
        return self.kind == _POS

    @property
    def is_neg_inf(self) -> bool:
        return self.kind == _NEG

    def __str__(self) -> str:
        if self.kind == _POS:
            return "inf"
        if self.kind == _NEG:
            return "-inf"
        return f"{self.frac.numerator}/{self.frac.denominator}"

    def __repr__(self) -> str:
        return f"TropicalValue({self})"


POS_INF = TropicalValue(_POS, Fraction(0))
NEG_INF = TropicalValue(_NEG, Fraction(0))


def tv(x) -> TropicalValue:
    """Coerce a TropicalValue, exact rational, or string to a TropicalValue."""
    if isinstance(x, TropicalValue):
        return x
    if isinstance(x, str):
        return TropicalValue.parse(x)
    return TropicalValue.finite(x)


def trop_add(a: TropicalValue, b: TropicalValue, alg: Algebra) -> TropicalValue:
    """Tropical addition: min in min-plus, max in max-plus.

    Total on all values; the semiring identities (+inf for min-plus,
    -inf for max-plus) fall out of the total order.
    """
    if alg is MIN_PLUS:
        return a if a <= b else b
    return a if a >= b else b


def trop_mul(a: TropicalValue, b: TropicalValue) -> TropicalValue:
    """Tropical multiplication: classical addition, with absorbing infinities.

    +inf * -inf is undefined and raises MixedInfinity.
    """
    if a.kind != _FINITE:
        if b.kind == -a.kind:
            raise MixedInfinity("cannot multiply +inf with -inf")
        return a
    if b.kind != _FINITE:
        return b
    return TropicalValue(_FINITE, a.frac + b.frac)


def trop_sub(a: TropicalValue, b: TropicalValue) -> TropicalValue:
    """Tropical division, i.e. classical subtraction, on finite values only."""
    if not (a.is_finite and b.is_finite):
        raise BadParameter("tropical division is defined on finite values only")
    return TropicalValue(_FINITE, a.frac - b.frac)


@dataclass(frozen=True)
class TropicalVector:
    """A fixed-length, immutable sequence of tropical values."""

    entries: tuple[TropicalValue, ...]

    def __post_init__(self) -> None:
        if len(self.entries) < 1:
            raise BadParameter("tropical vectors must have dimension >= 1")

    @staticmethod
    def of(values: Iterable) -> "TropicalVector":
        return TropicalVector(tuple(tv(x) for x in values))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[TropicalValue]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> TropicalValue:
        return self.entries[i]

    def to_json(self) -> list[str]:
        return [str(x) for x in self.entries]

    @staticmethod
    def from_json(data: list[str]) -> "TropicalVector":
        return TropicalVector.of(data)

    def __repr__(self) -> str:
        return f"TropicalVector([{', '.join(str(x) for x in self.entries)}])"


def trop_scale(c, u: TropicalVector) -> TropicalVector:
    """Tropical scalar multiple: add the finite scalar c to every entry."""
    cv = tv(c)
    if not cv.is_finite:
        raise BadParameter("tropical scaling requires a finite scalar")
    return TropicalVector(tuple(trop_mul(cv, x) for x in u))


def trop_dot(u: TropicalVector, v: TropicalVector, alg: Algebra) -> TropicalValue:
    """Tropical dot product: tropical sum of coordinate-wise tropical products."""
    if u.dim != v.dim:
        raise DimensionMismatch(f"dimension {u.dim} vs {v.dim}")
    best = None
    for a, b in zip(u, v):
        s = trop_mul(a, b)
        best = s if best is None else trop_add(best, s, alg)
    assert best is not None
    return best


# -- realization kernel ----------------------------------------------------------


def slice_masks(column: Sequence[TropicalValue], t: Fraction) -> list[int]:
    """Adjacency bitmasks of the threshold graph that one coordinate induces.

    Bit v of mask u is set iff u != v and column[u] * column[v] >= t.  The
    finite entries are sorted once; the finite partners of a finite x_u are
    the suffix at or above t - x_u, found by one bisect.  A +inf entry
    partners every other vertex and a -inf entry none; a column holding
    both is undefined and raises MixedInfinity.
    """
    finite = [(x.frac, v) for v, x in enumerate(column) if x.kind == _FINITE]
    finite.sort(key=lambda p: p[0])
    pos_inf = sum(1 << v for v, x in enumerate(column) if x.kind == _POS)
    if pos_inf and any(x.kind == _NEG for x in column):
        raise MixedInfinity("cannot multiply +inf with -inf")
    keys = [x for x, _ in finite]
    suffix = [pos_inf] * (len(finite) + 1)
    for i in range(len(finite) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | 1 << finite[i][1]
    everyone = (1 << len(column)) - 1
    masks = [everyone if x.kind == _POS else 0 for x in column]
    for x, v in finite:
        masks[v] = suffix[bisect_left(keys, t - x)]
    return [m & ~(1 << v) for v, m in enumerate(masks)]


def realize_masks(vectors: Sequence[TropicalVector], t: Fraction, alg: Algebra) -> list[int]:
    """Adjacency bitmasks of the graph the equal-length vectors realize at t.

    The slice law: a min-plus dot reaches t iff every coordinate sum does,
    a max-plus dot iff some coordinate sum does, so the realized graph is
    the AND, or the OR, of the slice masks.
    """
    fold = int.__and__ if alg is MIN_PLUS else int.__or__
    columns = zip(*(vec.entries for vec in vectors))
    out = slice_masks(next(columns), t)
    for column in columns:
        out = list(map(fold, out, slice_masks(column, t)))
    return out
