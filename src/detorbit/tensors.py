"""Exact sparse tensor algebra over the symbol alphabet {1..m}.

Tensors are sparse maps from fixed-length index words (stored as ``bytes`` of
0-based symbols) to rationals.  Permutations of {0..k-1} act on tensor slots
from the left: sigma moves the content of slot j to slot sigma[j].  Young
symmetrizers of rectangular tableaux applied to symmetrized basis words give
the pairing identity that ties this module to the signed Latin tallies of
:mod:`detorbit.latin`: the rectangle symmetrizer pairing, by the Latin route
(:func:`rectangle_symmetrizer_pairing`) or by full expansion
(:func:`full_symmetrizer_pairing`), equals (1/m!)^i * sum over patterns of
(plus - minus)^2.  At i = m the pairing against the tableau word is the
signed Latin square count (:func:`detorbit.oracles.latin_sign_sum_pairing`).

Dual and primal tensors share one representation; the pairing is the plain
coefficient contraction in the monomial basis.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import permutations
from math import factorial, lcm, prod
from operator import itemgetter
from typing import NamedTuple, Sequence

from .errors import BudgetExceeded
from . import latin

__all__ = [
    "SparseTensor",
    "Tableau",
    "symmetrized_basis_tensor",
    "word_tensor",
    "rectangular_tableau",
    "apply_symmetrizer",
    "pairing",
    "rectangle_symmetrizer_pairing",
    "full_symmetrizer_pairing",
    "pattern_imbalance_pairing",
    "pairing_identity_report",
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

    def tensor(self, other: "SparseTensor") -> "SparseTensor":
        """Tensor product: keys are joined end to end, coefficients multiply."""
        if self.m != other.m:
            raise ValueError("alphabet mismatch")
        data = {}
        for ka, va in self.data.items():
            for kb, vb in other.data.items():
                data[ka + kb] = va * vb
        return SparseTensor._trusted(self.rank + other.rank, self.m, data)

    def tensor_power(self, i: int) -> "SparseTensor":
        out = SparseTensor(0, self.m, {b"": Fraction(1)})
        for _ in range(i):
            out = out.tensor(self)
        return out


def _slot_mover(perm: Sequence[int]) -> itemgetter:
    """Getter whose ``bytes`` of a key is the key moved by the left action of perm.

    Slot perm[j] of the image carries slot j, so the getter reads the key at
    the inverse permutation.  Below rank 2 only the identity exists, and a
    slice getter keeps the image a ``bytes``.
    """
    if len(perm) < 2:
        return itemgetter(slice(None))
    return itemgetter(*sorted(range(len(perm)), key=perm.__getitem__))


def pairing(dual: SparseTensor, primal: SparseTensor) -> Fraction:
    """Coefficient contraction over common index words."""
    if dual.rank != primal.rank:
        raise ValueError("rank mismatch")
    if dual.m != primal.m:
        raise ValueError("alphabet mismatch")
    small, big = sorted((dual.data, primal.data), key=len)
    total = Fraction(0)
    for key, coeff in small.items():
        other = big.get(key)
        if other is not None:
            total += coeff * other
    return total


def symmetrized_basis_tensor(m: int) -> SparseTensor:
    """Average of all permutation words: every word carries coefficient 1/m!.

    Serves as both the dual- and primal-side symmetrized word (the two sides
    have identical coordinates in the monomial basis).
    """
    if m < 1:
        raise ValueError("m must be positive")
    coeff = Fraction(1, factorial(m))
    data = {bytes(word): coeff for word in permutations(range(m))}
    return SparseTensor(m, m, data)


# ---------------------------------------------------------------------------
# Tableaux and Young symmetrizers.
# ---------------------------------------------------------------------------


class Tableau(NamedTuple("Tableau", [("rows", tuple[tuple[int, ...], ...])])):
    """A filling of a Young diagram with the labels 1..k, one per cell."""

    __slots__ = ()

    def __new__(cls, rows: tuple[tuple[int, ...], ...]) -> "Tableau":
        self = super().__new__(cls, rows)
        shape = self.shape
        if any(shape[j] < shape[j + 1] for j in range(len(shape) - 1)):
            raise ValueError("shape must be weakly decreasing")
        labels = [c for row in self.rows for c in row]
        if sorted(labels) != list(range(1, len(labels) + 1)):
            raise ValueError("filling must be a bijection onto 1..k")
        return self

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.rows)

    @property
    def size(self) -> int:
        return sum(self.shape)

    def columns(self) -> list[list[int]]:
        ncols = self.shape[0] if self.rows else 0
        return [
            [row[c] for row in self.rows if len(row) > c] for c in range(ncols)
        ]

    @classmethod
    def row_reading(cls, shape: Sequence[int]) -> "Tableau":
        rows = []
        nxt = 1
        for length in shape:
            rows.append(tuple(range(nxt, nxt + length)))
            nxt += length
        return cls(tuple(rows))


def rectangular_tableau(i: int, m: int) -> Tableau:
    """The row-reading tableau with i rows of length m."""
    return Tableau.row_reading((m,) * i)


def _group_order(cells: list[list[int]]) -> int:
    return prod(factorial(len(block)) for block in cells)


def _block_tables(
    k: int, blocks: list[list[int]], signed: bool
) -> list[list[tuple[tuple[int, ...], int]]]:
    """Per block, every permutation of its cells as a (slot map, sign) pair.

    Cell labels are 1-based; slots are 0-based.  Each slot map is the
    identity off its block.  With ``signed`` the sign is the parity of the
    permutation of positions within the block, otherwise +1.
    """
    tables = []
    for block in blocks:
        table = []
        for pos in permutations(range(len(block))):
            perm = list(range(k))
            for src, p in zip(block, pos):
                perm[src - 1] = block[p] - 1
            table.append((tuple(perm), latin.column_sign(pos) if signed else 1))
        tables.append(table)
    return tables


def _symmetrizer_stage(
    k: int, blocks: list[list[int]], signed: bool, data: dict[bytes, int]
) -> dict[bytes, int]:
    """sum over the block group of sign * g acting on data, zeros dropped.

    The group is the direct product of the blocks' symmetric groups, so the
    sum is taken one block at a time: each block's table acts on the
    previous block's output, and every key moves sum_b b! times rather than
    prod_b b! times.  Zeros are dropped after each block.
    """
    for table in _block_tables(k, blocks, signed):
        out: dict[bytes, int] = defaultdict(int)
        for perm, sign in table:
            move = _slot_mover(perm)
            for key, num in data.items():
                out[bytes(move(key))] += num if sign > 0 else -num
        data = {key: num for key, num in out.items() if num}
    return data


def apply_symmetrizer(t: Tableau, x: SparseTensor) -> SparseTensor:
    """Row-symmetrize then signed column-sum: (sum_col sign * mu)(sum_row sigma) x.

    The input is scaled by the lcm of its denominators, both stages add
    ``int`` numerators, and each output ``Fraction`` is built once at the
    end; no zero coefficient is stored.  Each stage sums over the direct
    product of its blocks' symmetric groups one block at a time.  The work
    estimate (group order times current support) is checked against
    :data:`DEFAULT_WORK_CAP`, read at call time, before each stage and kept
    as the refusal rule, although it overstates the key moves the
    block-by-block sum makes.  Composing the output with a column
    transposition on the left negates it.
    """
    if x.rank != t.size:
        raise ValueError("tensor rank must equal the tableau size")
    row_blocks = [list(row) for row in t.rows]
    col_blocks = t.columns()
    row_order = _group_order(row_blocks)
    if row_order * max(1, x.nnz()) > DEFAULT_WORK_CAP:
        raise BudgetExceeded("symmetrizer too large", row_order * x.nnz())
    scale = lcm(*(c.denominator for c in x.data.values()))
    nums = {key: c.numerator * (scale // c.denominator) for key, c in x.data.items()}
    acc = _symmetrizer_stage(x.rank, row_blocks, False, nums)
    col_order = _group_order(col_blocks)
    if col_order * max(1, len(acc)) > DEFAULT_WORK_CAP:
        raise BudgetExceeded("symmetrizer too large", col_order * len(acc))
    out = _symmetrizer_stage(x.rank, col_blocks, True, acc)
    data = {key: Fraction(n, scale) for key, n in out.items()}
    return SparseTensor._trusted(x.rank, x.m, data)


def word_tensor(t: Tableau, m: int) -> SparseTensor:
    """Basis word of a tableau: slot (label-1) carries the 0-based row index."""
    k = t.size
    if len(t.rows) > m:
        raise ValueError("more rows than alphabet symbols")
    word = bytearray(k)
    for r, row in enumerate(t.rows):
        for c in row:
            word[c - 1] = r
    return SparseTensor(k, m, {bytes(word): Fraction(1)})


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
    and row quotient (:func:`latin._row_quotient` with ``symbols``: first
    row 1..m, rows 2..i up to S_{i-1} at even m or A_{i-1} at odd m) are
    scanned, each weighted by m! * |row group|.  The unreduced scan over
    every rectangle is kept in the tests as this route's oracle, and
    :func:`full_symmetrizer_pairing` computes the same value by expansion.
    """
    if not 1 <= i <= m:
        raise ValueError("need 1 <= i <= m")
    total = [0]
    quotient = latin._row_quotient(i, m, symbols=True)
    leaf = _rearrangement_leaf(i, total)
    latin._run_rows(i, m, (), leaf, quotient)
    return Fraction(total[0] * quotient.order, factorial(m) ** i)


def full_symmetrizer_pairing(i: int, m: int) -> Fraction:
    """:func:`rectangle_symmetrizer_pairing` by full expansion: the
    symmetrizer image of the i-th power of the symmetrized word under the
    i x m rectangular tableau, contracted with that power.

    Refused with :class:`BudgetExceeded` before the power is built when the
    row stage's estimate (m!)^i * (m!)^i exceeds :data:`DEFAULT_WORK_CAP`;
    :func:`apply_symmetrizer` checks both stages against the same cap.
    """
    if not 1 <= i <= m:
        raise ValueError("need 1 <= i <= m")
    est = factorial(m) ** (2 * i)  # row stage: (m!)^i perms on (m!)^i words
    if est > DEFAULT_WORK_CAP:
        raise BudgetExceeded("symmetrizer too large", est)
    power = symmetrized_basis_tensor(m).tensor_power(i)
    image = apply_symmetrizer(rectangular_tableau(i, m), power)
    return pairing(power, image)


def pattern_imbalance_pairing(i: int, m: int) -> Fraction:
    """(1/m!)^i times the sum over patterns of (plus - minus)^2.

    The sum runs over the orbits of :func:`latin.orbit_tally`, each term
    times its orbit size, so no per-pattern table is built.
    """
    tally = latin.orbit_tally(i, m)
    return Fraction(tally.imbalance_square_sum(), factorial(m) ** i)


def pairing_identity_report(i: int, m: int) -> dict:
    """Both sides of the pairing identity, plus the full-expansion cross-check
    when it fits in :data:`DEFAULT_WORK_CAP`."""
    lhs = rectangle_symmetrizer_pairing(i, m)
    rhs = pattern_imbalance_pairing(i, m)
    report = {
        "i": i,
        "m": m,
        "lhs_latin": lhs,
        "rhs": rhs,
        "equal": lhs == rhs,
    }
    try:
        full = full_symmetrizer_pairing(i, m)
        report["lhs_full"] = full
        report["equal"] = report["equal"] and full == lhs
    except BudgetExceeded:
        report["lhs_full"] = None
    return report
