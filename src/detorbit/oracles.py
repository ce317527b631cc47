"""Independent oracles: slower routes the tests check the fast kernels against.

No production path of the library or the CLI imports this module.  Each
function is a deliberate second route built from other ingredients:
:func:`elementary_matrix_expansion` (over the polarization
:func:`polarized_coefficient`) and :func:`polarized_det_power`
(Gray-code inclusion-exclusion over :func:`exact_det`) against the pruned
P^i expansion and :func:`~detorbit.invariant.elementary_det_power`,
:func:`permanent_naive` against Ryser's :func:`~detorbit.orbit.permanent`,
and :func:`latin_sign_sum_pairing` (the expanded symmetrizer image of the
tableau word) against the signed square count of the Latin DFS.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import factorial, lcm, prod
from operator import add, sub
from typing import NamedTuple, Sequence

from . import latin
from .errors import BudgetExceeded
from .invariant import HomPoly
from .orbit import _gray_steps
from .tensors import SparseTensor, apply_symmetrizer, symmetrized_power_pairing

__all__ = [
    "MatrixTensorTerm",
    "elementary_matrix_expansion",
    "exact_det",
    "latin_sign_sum_pairing",
    "polarized_coefficient",
    "polarized_det_power",
    "permanent_naive",
    "word_tensor",
]

Matrix = tuple[tuple[Fraction, ...], ...]

MAX_NAIVE_PERMANENT_SIZE = 12


class MatrixTensorTerm(NamedTuple):
    """One elementary-matrix word with its polarized coefficient."""

    coefficient: Fraction
    matrices: tuple[Matrix, ...]


def polarized_coefficient(f: HomPoly, word: Sequence[int]) -> Fraction:
    """Full polarization of f evaluated on a basis word (1-based symbols):
    coeff(exponent = content of word) * prod_j content_j! / m!."""
    content = [0] * f.nvars
    for s in word:
        content[s - 1] += 1
    c = f.coeffs.get(tuple(content))
    if c is None:
        return Fraction(0)
    return c * Fraction(prod(map(factorial, content)), factorial(f.degree))


def _elementary(i: int, r: int, c: int) -> Matrix:
    return tuple(
        tuple(Fraction(1) if (a, b) == (r, c) else Fraction(0) for b in range(i))
        for a in range(i)
    )


def elementary_matrix_expansion(f: HomPoly) -> list[MatrixTensorTerm]:
    """Expand the polarized form into elementary-matrix words of length m/2.

    Each index word (l_1..l_m) with nonzero polarized coefficient contributes
    that coefficient times E(l_1,l_2) ox ... ox E(l_{m-1},l_m).  Zero terms
    are omitted; all i^m words are scanned.
    """
    if f.degree % 2:
        raise ValueError("the invariant requires even degree")
    i = f.nvars
    terms = []
    for word in product(range(1, i + 1), repeat=f.degree):
        coeff = polarized_coefficient(f, word)
        if coeff:
            mats = (
                _elementary(i, r - 1, c - 1) for r, c in zip(word[0::2], word[1::2])
            )
            terms.append(MatrixTensorTerm(coeff, tuple(mats)))
    return terms


def exact_det(mat: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant by fraction-free (Bareiss) elimination on cleared rows."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix must be square")
    if n == 0:
        return Fraction(1)
    denom = 1
    rows: list[list[int]] = []
    for row in mat:
        scale = lcm(*(Fraction(x).denominator for x in row))
        denom *= scale
        rows.append([int(Fraction(x) * scale) for x in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for r in range(k + 1, n):
                if rows[r][k]:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = rows[k][k]
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                rows[r][c] = (rows[r][c] * pivot - rows[r][k] * rows[k][c]) // prev
            rows[r][k] = 0
        prev = pivot
    return Fraction(sign * rows[n - 1][n - 1], denom)


def polarized_det_power(
    size: int, power: int, matrices: Sequence[Matrix]
) -> Fraction:
    """Full polarization of A |-> det(A)^power at the given size x size matrices.

    Computed by subset inclusion-exclusion over the size*power arguments with
    Gray-code updates of the running sum.  Symmetric and multilinear; at
    equal arguments (X,..,X) it returns det(X)^power.
    """
    k = size * power
    if len(matrices) != k:
        raise ValueError(f"expected {k} matrices")
    for mat in matrices:
        if len(mat) != size or any(len(row) != size for row in mat):
            raise ValueError("matrix of wrong size")
    cur = [[Fraction(0)] * size for _ in range(size)]
    total = Fraction(0)
    for j, added, popcount in _gray_steps(k):
        step = add if added else sub
        cur = [list(map(step, row, mrow)) for row, mrow in zip(cur, matrices[j])]
        d = exact_det(cur)
        if d:
            term = d**power
            total += term if (k - popcount) % 2 == 0 else -term
    return total / factorial(k)


def permanent_naive(mat: Sequence[Sequence[Fraction | int]]) -> Fraction:
    """Permanent straight from the definition (n <= 12)."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix must be square")
    if n > MAX_NAIVE_PERMANENT_SIZE:
        raise BudgetExceeded(f"naive permanent of size {n} > {MAX_NAIVE_PERMANENT_SIZE}")
    total = Fraction(0)
    for sigma in permutations(range(n)):
        prod = Fraction(1)
        for p in range(n):
            prod *= Fraction(mat[p][sigma[p]])
            if not prod:
                break
        total += prod
    return total


def word_tensor(i: int, m: int) -> SparseTensor:
    """Basis word of the i x m rectangle: slot r*m + c carries its row r."""
    word = bytes(r for r in range(i) for _ in range(m))
    return SparseTensor(i * m, m, {word: Fraction(1)})


def latin_sign_sum_pairing(m: int) -> int:
    """Pairing of the symmetrized word power against the symmetrized tableau word.

    Equals the sum of sign products over all m-tuples of column permutations
    whose matrix is a Latin square, i.e. the signed Latin square count.  The
    symmetrizer image of the m x m tableau word is materialized and
    contracted: the tensor-side oracle of the identity.  Past m = 4 it is
    refused with :class:`BudgetExceeded`: at m >= 6 before the image is
    built, as the Latin squares exceed
    :data:`~detorbit.latin.MAX_SQUARE_VISITS`, and at m = 5 by the cap of
    :func:`~detorbit.tensors.apply_symmetrizer`.
    """
    if m < 1:
        raise ValueError("m must be positive")
    latin._check_square_visits(m, 1)
    image = apply_symmetrizer(m, m, word_tensor(m, m))
    value = symmetrized_power_pairing(image, m, m)
    if value.denominator != 1:
        raise RuntimeError("internal error: non-integer sign sum")
    return value.numerator
