"""The degree-i SL(i)-invariant built from the polarized determinant power.

A homogeneous degree-m form f in i variables (m even, m' = m/2) is first
fully polarized; reading the polarized coefficients along pairs of indices
expands f into a sum of elementary-matrix words of length m'.  Feeding i such
words into the full polarization of A |-> det(A)^{m'} and summing over all
i-tuples evaluates the (unique up to scale) SL(i)-invariant of degree i on
the space of degree-m forms.  At the power-sum point sum_j x_j^m the value
has the closed form i! * (m'!)^i / (i*m')!.

At elementary matrices E(r_1,c_1), ..., E(r_k,c_k), k = i*m', the
polarization of det^{m'} is 1/k! times a signed count: the ways to deal the
k (row, col) pairs out to m' ordered determinant factors so that each factor
is a permutation, weighted by the product of the factors' permutation signs.
This is the Latin-square combinatorics that ties det^m to the Alon-Tarsi
count.  :func:`det_power_invariant` carries words as pair tuples and
evaluates every term through that count (:func:`elementary_det_power`);
:func:`polarized_det_power`, the general Gray-code inclusion-exclusion with a
Bareiss determinant per subset, is kept as its independent oracle.

All arithmetic is exact; the only approximations are the configurable work
budgets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, factorial, gcd
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import BudgetExceeded

__all__ = [
    "HomPoly",
    "MatrixTensorTerm",
    "polarized_coefficient",
    "elementary_matrix_expansion",
    "polarized_det_power",
    "elementary_det_power",
    "det_power_invariant",
    "power_sum_invariant_check",
    "exact_det",
]

Matrix = tuple[tuple[Fraction, ...], ...]
Pair = tuple[int, int]

DEFAULT_DET_BUDGET = 10**9


@dataclass
class HomPoly:
    """Sparse homogeneous polynomial with exact rational coefficients.

    ``coeffs`` maps exponent tuples (length ``nvars``, entries summing to
    ``degree``) to nonzero rationals.
    """

    nvars: int
    degree: int
    coeffs: dict[tuple[int, ...], Fraction]

    def __post_init__(self):
        for exp, c in list(self.coeffs.items()):
            if len(exp) != self.nvars or any(e < 0 for e in exp):
                raise ValueError("bad exponent vector")
            if sum(exp) != self.degree:
                raise ValueError("exponent vector of wrong total degree")
            if c == 0:
                del self.coeffs[exp]
            elif not isinstance(c, Fraction):
                self.coeffs[exp] = Fraction(c)

    @classmethod
    def from_terms(
        cls,
        nvars: int,
        degree: int,
        terms: Iterable[tuple[Sequence[int], Fraction | int]],
    ) -> "HomPoly":
        coeffs: dict[tuple[int, ...], Fraction] = {}
        for exp, c in terms:
            key = tuple(exp)
            coeffs[key] = coeffs.get(key, Fraction(0)) + Fraction(c)
        return cls(nvars, degree, {k: v for k, v in coeffs.items() if v})

    @classmethod
    def power_sum(cls, nvars: int, degree: int) -> "HomPoly":
        """sum_j x_j^degree."""
        coeffs = {}
        for j in range(nvars):
            exp = [0] * nvars
            exp[j] = degree
            coeffs[tuple(exp)] = Fraction(1)
        return cls(nvars, degree, coeffs)

    def coefficient(self, exp: Sequence[int]) -> Fraction:
        return self.coeffs.get(tuple(exp), Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def scale(self, c: Fraction | int) -> "HomPoly":
        c = Fraction(c)
        if c == 0:
            return HomPoly(self.nvars, self.degree, {})
        return HomPoly(
            self.nvars, self.degree, {k: v * c for k, v in self.coeffs.items()}
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HomPoly)
            and (self.nvars, self.degree) == (other.nvars, other.degree)
            and self.coeffs == other.coeffs
        )

    def compose_linear(self, g: Sequence[Sequence[Fraction | int]]) -> "HomPoly":
        """Substitute x_j -> sum_k g[j][k] x_k and re-expand."""
        n = self.nvars
        if len(g) != n or any(len(row) != n for row in g):
            raise ValueError("substitution matrix must be nvars x nvars")
        rows = [[Fraction(x) for x in row] for row in g]
        out: dict[tuple[int, ...], Fraction] = {}
        for exp, c in self.coeffs.items():
            factors = [row for row, e in zip(rows, exp) for _ in range(e)]
            for key, val in _product_form(factors, n).coeffs.items():
                new = out.get(key, Fraction(0)) + c * val
                if new:
                    out[key] = new
                else:
                    out.pop(key, None)
        return HomPoly(n, self.degree, out)

    def to_json_dict(self) -> dict:
        return {
            "vars": self.nvars,
            "degree": self.degree,
            "terms": [
                {
                    "exp": list(exp),
                    "num": str(c.numerator),
                    "den": str(c.denominator),
                }
                for exp, c in sorted(self.coeffs.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "HomPoly":
        coeffs = {
            tuple(rec["exp"]): Fraction(int(rec["num"]), int(rec["den"]))
            for rec in obj["terms"]
        }
        return cls(int(obj["vars"]), int(obj["degree"]), coeffs)


def _product_form(rows: Sequence[Sequence[Fraction]], i: int) -> HomPoly:
    """Expand prod over rows of (sum_j row[j] x_j), a form in i variables."""
    poly: dict[tuple[int, ...], Fraction] = {tuple([0] * i): Fraction(1)}
    for row in rows:
        nxt: dict[tuple[int, ...], Fraction] = {}
        for exp, c in poly.items():
            for j in range(i):
                a = row[j]
                if not a:
                    continue
                key = exp[:j] + (exp[j] + 1,) + exp[j + 1 :]
                new = nxt.get(key, Fraction(0)) + c * a
                if new:
                    nxt[key] = new
                else:
                    nxt.pop(key, None)
        poly = nxt
        if not poly:
            break
    return HomPoly(i, len(rows), poly)


def polarized_coefficient(f: HomPoly, word: Sequence[int]) -> Fraction:
    """Full polarization of f evaluated on a basis word (1-based symbols).

    Equals coeff(exponent = content of word) * prod_j content_j! / m!.
    """
    m = f.degree
    if len(word) != m:
        raise ValueError("word length must equal the degree")
    content = [0] * f.nvars
    for s in word:
        if not 1 <= s <= f.nvars:
            raise ValueError("symbol out of range")
        content[s - 1] += 1
    c = f.coefficient(content)
    if not c:
        return Fraction(0)
    num = 1
    for e in content:
        num *= factorial(e)
    return c * Fraction(num, factorial(m))


@dataclass(frozen=True)
class MatrixTensorTerm:
    """One elementary-matrix word with its polarized coefficient."""

    coefficient: Fraction
    matrices: tuple[Matrix, ...]


def _elementary(i: int, r: int, c: int) -> Matrix:
    return tuple(
        tuple(Fraction(1) if (a, b) == (r, c) else Fraction(0) for b in range(i))
        for a in range(i)
    )


def _pair_words(f: HomPoly) -> Iterator[tuple[Fraction, tuple[Pair, ...]]]:
    """Index words of f with nonzero polarized coefficient, read as pair words.

    The word (l_1..l_m) yields its coefficient and the pairs
    ((l_1,l_2), ..., (l_{m-1},l_m)), 0-based; at most i^m words.
    """
    m = f.degree
    if m % 2:
        raise ValueError("the invariant requires even degree")
    i = f.nvars
    coeff_cache: dict[tuple[int, ...], Fraction] = {}
    for exp, c in f.coeffs.items():
        num = 1
        for e in exp:
            num *= factorial(e)
        coeff_cache[exp] = c * Fraction(num, factorial(m))
    for word in product(range(i), repeat=m):
        content = [0] * i
        for s in word:
            content[s] += 1
        coeff = coeff_cache.get(tuple(content))
        if coeff:
            yield coeff, tuple(zip(word[0::2], word[1::2]))


def elementary_matrix_expansion(f: HomPoly) -> list[MatrixTensorTerm]:
    """Expand the polarized form into elementary-matrix words of length m/2.

    Each index word (l_1..l_m) with nonzero polarized coefficient contributes
    that coefficient times E(l_1,l_2) ox ... ox E(l_{m-1},l_m).  Zero terms
    are omitted; at most i^m terms.
    """
    i = f.nvars
    return [
        MatrixTensorTerm(coeff, tuple(_elementary(i, r, c) for r, c in pairs))
        for coeff, pairs in _pair_words(f)
    ]


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
        scale = 1
        for x in row:
            f = Fraction(x)
            scale = scale * f.denominator // gcd(scale, f.denominator)
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


def _gray_steps(k: int) -> Iterator[tuple[int, bool, int]]:
    """Visit the nonempty subsets of k items in Gray-code order.

    Each step flips one item; yields (item, whether it entered, subset size).
    Drives the inclusion-exclusion sums here and in :func:`orbit.permanent`.
    """
    prev = size = 0
    for s in range(1, 1 << k):
        gray = s ^ (s >> 1)
        bit = gray ^ prev
        prev = gray
        added = bool(gray & bit)
        size += 1 if added else -1
        yield bit.bit_length() - 1, added, size


def polarized_det_power(
    size: int, power: int, matrices: Sequence[Matrix]
) -> Fraction:
    """Full polarization of A |-> det(A)^power at the given size x size matrices.

    Computed by subset inclusion-exclusion over the size*power arguments with
    Gray-code updates of the running sum.  Symmetric and multilinear; at
    equal arguments (X,..,X) it returns det(X)^power.

    The invariant never calls this: it evaluates the polarization only at
    elementary matrices, through :func:`elementary_det_power`.  This general
    route is kept on purpose as the independent oracle the tests compare
    that kernel against.
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
        mat = matrices[j]
        if added:
            for a in range(size):
                row = cur[a]
                mrow = mat[a]
                for b in range(size):
                    row[b] += mrow[b]
        else:
            for a in range(size):
                row = cur[a]
                mrow = mat[a]
                for b in range(size):
                    row[b] -= mrow[b]
        d = exact_det(cur)
        if d:
            term = d**power
            total += term if (k - popcount) % 2 == 0 else -term
    return total / factorial(k)


def elementary_det_power(size: int, power: int, pairs: Sequence[Pair]) -> Fraction:
    """Full polarization of A |-> det(A)^power at E(r_1,c_1), ..., E(r_k,c_k).

    ``pairs`` holds the k = size*power 0-based (row, col) positions.  The
    value is 1/k! times a signed count: the ways to deal the k pairs out to
    ``power`` ordered determinant factors so that each factor's pairs form a
    permutation matrix, each way weighted by the product of the factors'
    permutation signs.  It is 0 unless every row holds exactly ``power``
    pairs.  Equal pairs are dealt as one column multiset and the count is
    scaled by prod mult!; factors are interchangeable, so row 0 is dealt in
    sorted order and the count scaled by its number of arrangements.  The
    search visits at most (power!)^(size-1) leaves and uses integers only.
    """
    if size < 1 or power < 1:
        raise ValueError("size and power must be positive")
    k = size * power
    if len(pairs) != k:
        raise ValueError(f"expected {k} pairs")
    rows: list[dict[int, int]] = [{} for _ in range(size)]
    for r, c in pairs:
        if not (0 <= r < size and 0 <= c < size):
            raise ValueError("pair out of range")
        rows[r][c] = rows[r].get(c, 0) + 1
    if any(sum(counts.values()) != power for counts in rows):
        return Fraction(0)
    weight = factorial(power)
    for counts in rows[1:]:
        for e in counts.values():
            weight *= factorial(e)
    # used[f]: bitmask of the columns factor f holds in the rows dealt so far.
    used = [1 << c for c in sorted(c for c, e in rows[0].items() for _ in range(e))]

    def deal(r: int, f: int, left: dict[int, int], parity: int) -> int:
        if f == power:
            r += 1
            if r == size:
                return -1 if parity & 1 else 1
            f = 0
            left = dict(rows[r])
        mask = used[f]
        total = 0
        for c, n in left.items():
            if n and not mask >> c & 1:
                left[c] = n - 1
                used[f] = mask | 1 << c
                # Columns of factor f above c sit in earlier rows: inversions.
                total += deal(r, f + 1, left, parity + (mask >> c + 1).bit_count())
                left[c] = n
        used[f] = mask
        return total

    # Row 0 is dealt through ``used``: the search starts at row 1.
    return Fraction(weight * deal(0, power, {}, 0), factorial(k))


def det_power_invariant(
    m: int, i: int, f: HomPoly, *, budget: int = DEFAULT_DET_BUDGET
) -> Fraction:
    """Evaluate the degree-i invariant at f (a degree-m form in >= i variables).

    Sums, over all i-tuples of elementary-matrix words of f, the product of
    word coefficients times the polarized determinant power of the i*m/2
    concatenated matrices, evaluated as a signed count by
    :func:`elementary_det_power` on the (row, col) pairs of the words.
    Words are grouped by sorted pair word (the polarization is symmetric in
    its arguments), so the loop runs over class multisets with multinomial
    weights.  ``budget`` caps the estimated number of search leaves.
    """
    if m % 2:
        raise ValueError("the invariant requires even degree")
    if f.degree != m:
        raise ValueError("degree mismatch")
    if not 1 <= i <= f.nvars:
        raise ValueError("need 1 <= i <= number of variables")
    if f.nvars != i:
        # The invariant lives on forms in i variables; restrict by setting
        # the trailing variables to zero.
        coeffs = {
            exp[:i]: c
            for exp, c in f.coeffs.items()
            if all(e == 0 for e in exp[i:])
        }
        f = HomPoly(i, m, coeffs)
    half = m // 2
    # Group by sorted pair word; members share the coefficient.
    classes: dict[tuple[Pair, ...], list] = {}
    for coeff, pairs in _pair_words(f):
        key = tuple(sorted(pairs))
        entry = classes.get(key)
        if entry is None:
            classes[key] = [coeff, 1]
        else:
            if entry[0] != coeff:
                raise RuntimeError("internal error: class coefficient mismatch")
            entry[1] += 1
    if not classes:
        return Fraction(0)
    class_list = [(key, a * n) for key, (a, n) in classes.items()]
    est = comb(len(class_list) + i - 1, i) * factorial(half) ** (i - 1)
    if est > budget:
        raise BudgetExceeded(
            f"invariant evaluation needs ~{est} search leaves "
            f"({len(class_list)} word classes, {i}-element multisets)",
            est,
        )
    total = Fraction(0)
    fact_i = factorial(i)
    for combo in combinations_with_replacement(range(len(class_list)), i):
        reps = Counter(combo)
        pairs: list[Pair] = []
        for idx, e in reps.items():
            pairs.extend(class_list[idx][0] * e)
        value = elementary_det_power(i, half, pairs)
        if value:
            weight = fact_i
            coeff = Fraction(1)
            for idx, e in reps.items():
                weight //= factorial(e)
                coeff *= class_list[idx][1] ** e
            total += weight * coeff * value
    return total


def power_sum_invariant_check(m: int, i: int) -> tuple[Fraction, Fraction]:
    """Invariant at the power-sum point next to its closed form.

    Returns (computed, i! * (m/2)!^i / (i*m/2)!); the two must be equal.
    """
    computed = det_power_invariant(m, i, HomPoly.power_sum(i, m))
    half = m // 2
    closed = Fraction(factorial(i) * factorial(half) ** i, factorial(i * half))
    return computed, closed
