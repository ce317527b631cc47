"""Restrictions of the determinant along m x i matrices and witness search.

An m x i matrix A sends the determinant to the product-form polynomial
prod_p (sum_j x_j * A[p][j]) of degree m in i variables, whose coefficient at
exponent d equals Perm(A with column j repeated d_j times) / prod_j d_j!.
Points of this shape are used to certify that the degree-i invariant of
:mod:`detorbit.invariant` does not vanish on the restriction family: a single
matrix A with nonzero invariant value is a witness.

The permanent is a Ryser-style inclusion-exclusion with row-sum updates
along a Gray-code walk of the column subsets; the factorial-sum definition
it is tested against lives in :mod:`detorbit.oracles`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial
from random import Random
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import DEFAULT_BUDGET, BudgetExceeded
from .invariant import HomPoly, _product_form, det_power_invariant

__all__ = [
    "RestrictionMatrix",
    "WitnessResult",
    "permanent",
    "det_restriction",
    "content_coefficient",
    "candidate_schedule",
    "witness_search",
    "matrix_from_csv",
]

MAX_PERMANENT_SIZE = 20
# Candidates in the witness schedule (:func:`candidate_schedule`).
MAX_CANDIDATES = 40
_CSV_CELL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _gray_steps(k: int) -> Iterator[tuple[int, bool, int]]:
    """Visit the nonempty subsets of k items in Gray-code order.

    Each step flips one item; yields (item, whether it entered, subset size).
    Drives :func:`permanent` and :func:`detorbit.oracles.polarized_det_power`.
    """
    prev = size = 0
    for s in range(1, 1 << k):
        gray = s ^ (s >> 1)
        bit = gray ^ prev
        prev = gray
        added = bool(gray & bit)
        size += 1 if added else -1
        yield bit.bit_length() - 1, added, size


def permanent(mat: Sequence[Sequence[Fraction | int]]) -> Fraction:
    """Exact permanent by inclusion-exclusion over column subsets.

    Gray-code updates keep one running row-sum vector; supports n <= 20.
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix must be square")
    if n == 0:
        return Fraction(1)
    if n > MAX_PERMANENT_SIZE:
        raise BudgetExceeded(f"permanent of size {n} > {MAX_PERMANENT_SIZE}")
    rows = [[Fraction(x) for x in row] for row in mat]
    sums = [Fraction(0)] * n
    total = Fraction(0)
    for j, added, popcount in _gray_steps(n):
        if added:
            for p in range(n):
                sums[p] += rows[p][j]
        else:
            for p in range(n):
                sums[p] -= rows[p][j]
        prod = Fraction(1)
        for p in range(n):
            prod *= sums[p]
            if not prod:
                break
        if prod:
            total += prod if (n - popcount) % 2 == 0 else -prod
    return total


class RestrictionMatrix(
    NamedTuple("RestrictionMatrix", [("rows", tuple[tuple[Fraction, ...], ...])])
):
    """An m x i matrix of exact rationals, columns indexed by the i variables."""

    __slots__ = ()

    def __new__(cls, rows: tuple[tuple[Fraction, ...], ...]) -> "RestrictionMatrix":
        if not rows or not rows[0]:
            raise ValueError("empty matrix")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("ragged rows")
        if width > len(rows):
            raise ValueError("need at least as many rows as columns")
        for row in rows:
            for x in row:
                if not isinstance(x, Fraction):
                    raise ValueError("entries must be Fractions")
        return super().__new__(cls, rows)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction | int | str]]) -> "RestrictionMatrix":
        return cls(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def i(self) -> int:
        return len(self.rows[0])

    def column_repeated(self, d: Sequence[int]) -> list[list[Fraction]]:
        """The m x m matrix with column j repeated d_j times."""
        if len(d) != self.i or sum(d) != self.m or any(e < 0 for e in d):
            raise ValueError("content must have length i and total m")
        cols = []
        for j, e in enumerate(d):
            cols.extend([j] * e)
        return [[row[j] for j in cols] for row in self.rows]

    def to_json_rows(self) -> list[list[str]]:
        return [
            [f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator) for x in row]
            for row in self.rows
        ]


def det_restriction(A: RestrictionMatrix) -> HomPoly:
    """Expand prod_p (sum_j x_j A[p][j]) into a degree-m form in i variables."""
    return _product_form(A.rows, A.i)


def content_coefficient(A: RestrictionMatrix, d: Sequence[int]) -> Fraction:
    """Perm(A with column j repeated d_j times) / prod_j d_j!.

    Independent permanent route for the coefficient of x^d in
    :func:`det_restriction`.
    """
    if sum(d) != A.m:
        raise ValueError("content must sum to the row count")
    denom = 1
    for e in d:
        denom *= factorial(e)
    return permanent(A.column_repeated(d)) / denom


# ---------------------------------------------------------------------------
# Witness search.
# ---------------------------------------------------------------------------


class WitnessResult(NamedTuple):
    """First matrix in the schedule whose restriction has nonzero invariant."""

    m: int
    i: int
    matrix: RestrictionMatrix
    value: Fraction
    schedule_index: int
    label: str
    seed: int


def candidate_schedule(
    m: int, i: int, seed: int = 0
) -> Iterator[tuple[str, RestrictionMatrix]]:
    """The :data:`MAX_CANDIDATES` deterministic candidates: structured integer
    matrices, then seeded rationals."""
    yield (
        "cyclic-identity",
        RestrictionMatrix.from_rows(
            [[1 if j == p % i else 0 for j in range(i)] for p in range(m)]
        ),
    )
    yield ("all-ones", RestrictionMatrix.from_rows([[1] * i for _ in range(m)]))
    yield (
        "vandermonde",
        RestrictionMatrix.from_rows(
            [[(p + 1) ** j for j in range(i)] for p in range(m)]
        ),
    )
    yield (
        "ones-plus-identity",
        RestrictionMatrix.from_rows(
            [[2 if j == p % i else 1 for j in range(i)] for p in range(m)]
        ),
    )
    rng = Random(seed)
    emitted = 4
    while emitted < MAX_CANDIDATES:
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(i)]
            for _ in range(m)
        ]
        yield (f"random-{emitted}", RestrictionMatrix.from_rows(rows))
        emitted += 1


def witness_search(
    m: int,
    i: int,
    *,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> Optional[WitnessResult]:
    """Scan the candidate schedule for a nonzero invariant value.

    Returns the first hit (schedule order fixes the winner) or None when the
    schedule is exhausted; ``budget`` caps each invariant evaluation.
    """
    if m % 2:
        raise ValueError("the invariant requires even m")
    if not 1 <= i <= m:
        raise ValueError("need 1 <= i <= m")
    for index, (label, A) in enumerate(candidate_schedule(m, i, seed)):
        value = det_power_invariant(m, i, det_restriction(A), budget=budget)
        if value:
            return WitnessResult(
                m=m,
                i=i,
                matrix=A,
                value=value,
                schedule_index=index,
                label=label,
                seed=seed,
            )
    return None


def matrix_from_csv(text: str) -> RestrictionMatrix:
    """Rows of comma-separated integers or p/q rationals; a cell that is
    neither (such as 1e999999999, which ``Fraction`` would expand to a
    billion digits), or has a zero denominator, is a ``ValueError``."""
    rows = []
    for line in text.strip().splitlines():
        line = line.strip()
        if not line:
            continue
        cells = [cell.strip() for cell in line.split(",")]
        if not all(map(_CSV_CELL.fullmatch, cells)):
            raise ValueError(f"matrix row {line[:40]!r} has a cell not an integer or p/q")
        try:
            rows.append([Fraction(cell) for cell in cells])
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in matrix row {line!r}") from None
    return RestrictionMatrix.from_rows(rows)
