"""Exact sparse tensors over the symbol alphabet {1..m}, and the Young
symmetrizer of the i x m rectangle.

Tensors are sparse maps from fixed-length index words (stored as ``bytes`` of
0-based symbols) to rationals.  Permutations of {0..k-1} act on tensor slots
from the left: sigma moves the content of slot j to slot sigma[j].  The
rectangle symmetrizer applied to the i-th power of the symmetrized word gives
the pairing identity that ties this module to the signed Latin tallies of
:mod:`detorbit.latin`: the rectangle symmetrizer pairing, by the Latin route
(:func:`rectangle_symmetrizer_pairing`) or by full expansion
(:func:`full_symmetrizer_pairing`), equals (1/m!)^i * sum over patterns of
(plus - minus)^2.  At i = m the pairing against the tableau word is the
signed Latin square count (:func:`detorbit.oracles.latin_sign_sum_pairing`).

Every pairing with the power of the symmetrized word is one scan,
:func:`symmetrized_power_pairing`: the power is the same in the dual and
the primal basis, so the pairing is the plain coefficient contraction.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import permutations, product
from math import factorial, lcm
from operator import itemgetter
from typing import Sequence

from .errors import BudgetExceeded
from . import latin

__all__ = [
    "SparseTensor",
    "apply_symmetrizer",
    "symmetrized_power_pairing",
    "rectangle_symmetrizer_pairing",
    "full_symmetrizer_pairing",
    "pattern_imbalance_pairing",
]

DEFAULT_WORK_CAP = 2 * 10**6


class SparseTensor:
    """Rank-k tensor over an m-symbol alphabet with exact rational entries.

    Keys are length-k ``bytes`` of 0-based symbols; zero coefficients are
    never stored.
    """

    __slots__ = ("rank", "m", "data")

    def __init__(self, rank: int, m: int, data: dict[bytes, Fraction]):
        self.rank, self.m = rank, m
        self.data = {}  # the caller's mapping is left as it was
        for key, coeff in data.items():
            if len(key) != rank or any(s >= m for s in key):
                raise ValueError("index word out of range")
            if coeff != 0:
                self.data[key] = coeff

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.rank, self.m, self.data) == (other.rank, other.m, other.data)

    @classmethod
    def _trusted(cls, rank: int, m: int, data: dict[bytes, Fraction]) -> "SparseTensor":
        """Wrap keys and non-zero coefficients the library built, unchecked."""
        out = cls.__new__(cls)
        out.rank, out.m, out.data = rank, m, data
        return out

    def nnz(self) -> int:
        return len(self.data)


def _slot_mover(perm: Sequence[int]) -> itemgetter:
    """Getter whose ``bytes`` of a key is the key moved by the left action of perm.

    Slot perm[j] of the image carries slot j, so the getter reads the key at
    the inverse permutation.  Below rank 2 only the identity exists, and a
    slice getter keeps the image a ``bytes``.
    """
    if len(perm) < 2:
        return itemgetter(slice(None))
    return itemgetter(*sorted(range(len(perm)), key=perm.__getitem__))


def symmetrized_power_pairing(t: SparseTensor, m: int, i: int) -> Fraction:
    """Pairing of t against the i-th tensor power of the symmetrized word.

    The power gives every key whose i consecutive length-m blocks are
    permutation words the coefficient 1/m!^i, so the pairing scans t and
    never builds the m!^i support.  Keys hold symbols below m, so a block
    is a permutation word exactly when its m symbols are distinct.
    """
    if t.rank != i * m:
        raise ValueError("rank mismatch")
    total = Fraction(0)
    for key, coeff in t.data.items():
        if all(len(set(key[b * m : (b + 1) * m])) == m for b in range(i)):
            total += coeff
    return total / factorial(m) ** i


# ---------------------------------------------------------------------------
# Young symmetrizers of rectangles.
# ---------------------------------------------------------------------------


def _symmetrizer_stage(
    k: int, blocks: list[range], signed: bool, data: dict[bytes, int]
) -> dict[bytes, int]:
    """sum over the block group of sign * g acting on data, zeros dropped.

    The group is the direct product of the blocks' symmetric groups, so the
    sum is taken one block at a time: every permutation of a block's slots,
    the identity off the block, acts on the previous block's output, and
    every key moves sum_b b! times rather than prod_b b! times.  With
    ``signed`` the sign is the parity of the permutation of positions within
    the block, otherwise +1.  Zeros are dropped after each block.
    """
    for block in blocks:
        out: dict[bytes, int] = defaultdict(int)
        for pos in permutations(range(len(block))):
            perm = list(range(k))
            for src, p in zip(block, pos):
                perm[src] = block[p]
            sign = latin.column_sign(pos) if signed else 1
            move = _slot_mover(perm)
            for key, num in data.items():
                out[bytes(move(key))] += num if sign > 0 else -num
        data = {key: num for key, num in out.items() if num}
    return data


def apply_symmetrizer(i: int, m: int, x: SparseTensor) -> SparseTensor:
    """Row-symmetrize then signed column-sum over the i x m rectangle:
    (sum_col sign * mu)(sum_row sigma) x.

    Slot r*m + c is row r, column c (the rectangle read row by row).  The
    input is scaled by the lcm of its denominators, both stages add ``int``
    numerators block by block, and each output ``Fraction`` is built once at
    the end; no zero coefficient is stored.  Before each stage the group
    order ((m!)^i for the rows, (i!)^m for the columns) times the current
    support is checked against :data:`DEFAULT_WORK_CAP`, read at call time;
    it overstates the key moves of the block-by-block sum.  Composing the
    output with a column transposition on the left negates it.
    """
    if x.rank != i * m:
        raise ValueError("tensor rank must equal i * m")
    row_order = factorial(m) ** i
    if row_order * max(1, x.nnz()) > DEFAULT_WORK_CAP:
        raise BudgetExceeded("symmetrizer too large", row_order * x.nnz())
    scale = lcm(*(c.denominator for c in x.data.values()))
    nums = {key: c.numerator * (scale // c.denominator) for key, c in x.data.items()}
    rows = [range(r * m, (r + 1) * m) for r in range(i)]
    acc = _symmetrizer_stage(x.rank, rows, False, nums)
    col_order = factorial(i) ** m
    if col_order * max(1, len(acc)) > DEFAULT_WORK_CAP:
        raise BudgetExceeded("symmetrizer too large", col_order * len(acc))
    cols = [range(c, i * m, m) for c in range(m)]
    out = _symmetrizer_stage(x.rank, cols, True, acc)
    data = {key: Fraction(n, scale) for key, n in out.items()}
    return SparseTensor._trusted(x.rank, x.m, data)


# ---------------------------------------------------------------------------
# Pairing identities.
# ---------------------------------------------------------------------------


def _rearrangement_leaf(i: int, total: list[int]) -> latin._Leaf:
    """A row-DFS leaf that adds to ``total[0]``, per Latin rectangle of i
    rows, the product of the rearrangement signs summed over the per-column
    rearrangement tuples whose result still has permutation rows."""
    perms_i = [(perm, latin.column_sign(perm)) for perm in permutations(range(i))]

    def per_rectangle(rows, _masks, _parity):
        m = len(rows[0])
        cols = [tuple(row[q] for row in rows) for q in range(m)]
        row_used = [0] * i

        def fill(q: int, sign: int) -> None:
            if q == m:
                total[0] += sign
                return
            col = cols[q]
            for perm, psign in perms_i:
                if any(row_used[p] >> col[perm[p]] & 1 for p in range(i)):
                    continue
                for p in range(i):
                    row_used[p] |= 1 << col[perm[p]]
                fill(q + 1, sign * psign)
                for p in range(i):
                    row_used[p] &= ~(1 << col[perm[p]])

        fill(0, 1)

    return per_rectangle


def rectangle_symmetrizer_pairing(i: int, m: int) -> Fraction:
    """Pairing of the symmetrized word power against its symmetrizer image,
    exact, by the cancellation of non-Latin terms.

    Per Latin (i, m)-rectangle R it sums, over all per-column rearrangement
    tuples whose result still has permutation rows, the product of the
    rearrangement signs.  That term is eps_c(R) * D(pattern of R), where D
    is the pattern's plus - minus.  Relabelling symbols by pi multiplies
    eps_c(R) and D by the same sign, so it keeps the term; permuting rows by
    tau multiplies it by sgn(tau)^m.  So only the rectangles of the symbol
    and row quotient (:func:`latin._row_quotient`: first row 1..m, rows
    2..i up to S_{i-1} at even m or A_{i-1} at odd m) are scanned, each
    weighted by m! * |row group|.  The unreduced scan over
    every rectangle is kept in the tests as this route's oracle, and
    :func:`full_symmetrizer_pairing` computes the same value by expansion.
    """
    if not 1 <= i <= m:
        raise ValueError("need 1 <= i <= m")
    total = [0]
    quotient = latin._row_quotient(i, m)
    leaf = _rearrangement_leaf(i, total)
    latin._run_rows(i, m, (), leaf, quotient)
    return Fraction(total[0] * quotient.order, factorial(m) ** i)


def full_symmetrizer_pairing(i: int, m: int) -> Fraction:
    """:func:`rectangle_symmetrizer_pairing` by full expansion: the
    symmetrizer image of the i-th power of the symmetrized word under the
    i x m rectangle, contracted with that power
    (:func:`symmetrized_power_pairing`).

    Refused with :class:`BudgetExceeded` before the power is built when the
    row stage's estimate (m!)^i * (m!)^i exceeds :data:`DEFAULT_WORK_CAP`;
    :func:`apply_symmetrizer` checks both stages against the same cap.
    """
    if not 1 <= i <= m:
        raise ValueError("need 1 <= i <= m")
    est = factorial(m) ** (2 * i)  # row stage: (m!)^i perms on (m!)^i words
    if est > DEFAULT_WORK_CAP:
        raise BudgetExceeded("symmetrizer too large", est)
    coeff = Fraction(1, factorial(m) ** i)
    words = [bytes(word) for word in permutations(range(m))]
    power = {b"".join(blocks): coeff for blocks in product(words, repeat=i)}
    image = apply_symmetrizer(i, m, SparseTensor._trusted(i * m, m, power))
    return symmetrized_power_pairing(image, m, i)


def pattern_imbalance_pairing(i: int, m: int) -> Fraction:
    """(1/m!)^i times the sum over patterns of (plus - minus)^2.

    The sum runs over the orbits of :func:`latin.orbit_tally`, each term
    times its orbit size, so no per-pattern table is built.
    """
    tally = latin.orbit_tally(i, m)
    return Fraction(tally.imbalance_square_sum(), factorial(m) ** i)

