"""The degree-i SL(i)-invariant built from the polarized determinant power.

A homogeneous degree-m form f in i variables (m even, m' = m/2) is first
fully polarized; reading the polarized coefficients along pairs of indices
turns f into a form P of degree m' in the i^2 pair variables y_(r,c).
Pairing i copies of P with the full polarization of A |-> det(A)^{m'}
evaluates the (unique up to scale) SL(i)-invariant of degree i on the space
of degree-m forms.  At the power-sum point sum_j x_j^m the value has the
closed form i! * (m'!)^i / (i*m')!.

At elementary matrices E(r_1,c_1), ..., E(r_k,c_k), k = i*m', the
polarization of det^{m'} is 1/k! times a signed count: the ways to deal the
k (row, col) pairs out to m' ordered determinant factors so that each factor
is a permutation, weighted by the product of the factors' permutation signs.
This is the Latin-square combinatorics that ties det^m to the Alon-Tarsi
count.  :func:`det_power_invariant` expands P^i, keeping only monomials
whose rows and columns can still be dealt, and evaluates each through that
count (:func:`elementary_det_power`); its oracles are in :mod:`detorbit.oracles`.

All arithmetic is exact; the only approximations are the configurable work
budgets.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lgamma, log, log10, prod
from operator import add
from typing import Mapping, Sequence

from .errors import DEFAULT_BUDGET, BudgetExceeded

__all__ = [
    "HomPoly",
    "polarized_coefficient",
    "elementary_det_power",
    "det_power_invariant",
    "power_sum_invariant_check",
]

Pair = tuple[int, int]


class HomPoly:
    """Sparse homogeneous polynomial with exact rational coefficients.

    ``coeffs`` maps exponent tuples (length ``nvars``, entries summing to
    ``degree``) to nonzero rationals.
    """

    __slots__ = ("nvars", "degree", "coeffs")

    def __init__(
        self, nvars: int, degree: int, coeffs: dict[tuple[int, ...], Fraction]
    ):
        self.nvars, self.degree = nvars, degree
        self.coeffs = {}  # the caller's mapping is left as it was
        for exp, c in coeffs.items():
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise ValueError("bad exponent vector")
            if sum(exp) != degree:
                raise ValueError("exponent vector of wrong total degree")
            if c != 0:
                self.coeffs[exp] = c if isinstance(c, Fraction) else Fraction(c)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.nvars, self.degree, self.coeffs) == (
            other.nvars, other.degree, other.coeffs
        )

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
        """Parse a form literal (:meth:`to_json_dict`).  A missing key, a
        value of the wrong type or a zero denominator is a ``ValueError``."""
        try:
            nvars, degree = _json_int(obj["vars"]), _json_int(obj["degree"])
            coeffs = {
                tuple(map(_json_int, rec["exp"])): Fraction(
                    _json_int(rec["num"]), _json_int(rec["den"])
                )
                for rec in obj["terms"]
            }
        except KeyError as exc:
            raise ValueError(f"form literal lacks the key {exc}") from None
        except ZeroDivisionError:
            raise ValueError("form literal has a zero denominator") from None
        except TypeError as exc:
            raise ValueError(f"malformed form literal: {exc}") from None
        return cls(nvars, degree, coeffs)


def _json_int(value) -> int:
    """A JSON integer or decimal string as an ``int``; a float, a bool or
    anything else is a ``TypeError``, not silently truncated."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        return int(value)
    raise TypeError(f"{value!r} is not an integer")


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


def _pair_words(i: int, half: int, content: Sequence[int]):
    """The multisets of ``half`` pairs (r, c) of 0..i-1 whose row count plus
    column count is ``content[v]`` at every variable v (``content`` sums to
    2 * half).

    Each is yielded as one vector: the multiplicity of (r, c) at r*i + c,
    then the row counts, then the column counts, so that one addition
    updates all three.  Pairs are decided in index order, and a variable
    whose last pair is decided must have its content used up, so a branch
    fails as soon as a variable is left short.
    """
    n = i * i
    rem = list(content)
    vec = [0] * (n + 2 * i)
    # closing[p]: the variables whose last pair, (i-1, v) or (v, i-1), is p.
    closing: list[list[int]] = [[] for _ in range(n)]
    for v in range(i):
        closing[max((i - 1) * i + v, v * i + i - 1)].append(v)

    def walk(p: int, left: int):
        if left == 0:  # the content, which sums to 2 * half, is used up
            yield tuple(vec)
            return
        r, c = divmod(p, i)
        top = min(left, rem[r] // 2 if r == c else min(rem[r], rem[c]))
        for k in range(top + 1):
            rem[r] -= k
            rem[c] -= k
            if not any(rem[v] for v in closing[p]):
                vec[p] = k
                vec[n + r] += k
                vec[n + i + c] += k
                yield from walk(p + 1, left - k)
                vec[p] = 0
                vec[n + r] -= k
                vec[n + i + c] -= k
            rem[r] += k
            rem[c] += k

    yield from walk(0, half)


def det_power_invariant(
    m: int, i: int, f: HomPoly, *, budget: int = DEFAULT_BUDGET
) -> Fraction:
    """Evaluate the degree-i invariant at f (a degree-m form in >= i variables).

    P = sum_S coeff(S) * y^S runs over multisets S of m/2 pairs (r, c) of the
    first i variables; coeff(S) is the polarized coefficient of S's content
    times the (m/2)!/prod mult! index words that read as S.  The value is
    sum_M [y^M] P^i * :func:`elementary_det_power` (i, m/2, M), which needs
    m/2 pairs in every row and column of M, so P^i is expanded one factor
    at a time and each monomial with a count above m/2 is dropped.  The
    pair words S are listed per term of f (:func:`_pair_words`), so none is
    built for a content that f lacks.  ``budget`` caps (m/2)!^(i-1), the
    leaves of one kernel call, before anything is built; then the pair words
    as they are made, partial monomials x pair words before each product
    step, and surviving monomials x (m/2)!^(i-1) leaves before the kernel.
    The first cap refuses even an f whose P^i keeps no monomial (and whose
    value is 0) once a single kernel call would exceed ``budget``.
    """
    if m % 2:
        raise ValueError("the invariant requires even degree")
    if f.degree != m:
        raise ValueError("degree mismatch")
    if not 1 <= i <= f.nvars:
        raise ValueError("need 1 <= i <= number of variables")
    half = m // 2
    n = i * i

    def check(est: int, what: str) -> None:
        if est > budget:
            raise BudgetExceeded(f"invariant evaluation needs ~{est} {what}", est)

    def check_leaves(monomials: int) -> None:
        # monomials * (m/2)!^(i-1), multiplied out only until it passes both
        # the budget and 30 digits: then it is refused with the product so
        # far as its estimate and ~10^k, from lgamma, as its text.
        what = f"search leaves ({monomials} monomials of P^{i})"
        est = monomials
        for _ in range(i - 1):
            for k in range(2, half + 1):
                est *= k
                if est > budget and est >= 10**30:
                    power = log10(monomials) + (i - 1) * lgamma(half + 1) / log(10)
                    raise BudgetExceeded(
                        f"invariant evaluation needs ~10^{int(power)} {what}", est
                    )
        check(est, what)

    check_leaves(1)  # one kernel call, before the product is built
    words = []
    for exp, coeff in f.coeffs.items():
        if any(exp[i:]):
            continue
        scale = coeff * Fraction(
            factorial(half) * prod(map(factorial, exp)), factorial(m)
        )
        for vec in _pair_words(i, half, exp[:i]):
            words.append((vec, scale / prod(map(factorial, vec[:n]))))
            check(len(words), "pair words")
    partial = {(0,) * (n + 2 * i): Fraction(1)}
    for _ in range(i):
        check(
            len(partial) * len(words),
            f"products ({len(partial)} partial monomials x {len(words)} pair words)",
        )
        grown: dict[tuple[int, ...], Fraction] = {}
        for key, a in partial.items():
            for vec, b in words:
                new = tuple(map(add, key, vec))
                if max(new[n:]) <= half:
                    grown[new] = grown.get(new, 0) + a * b
        partial = {key: a for key, a in grown.items() if a}
    check_leaves(len(partial))
    total = Fraction(0)
    for key, a in partial.items():
        pairs = [divmod(p, i) for p in range(n) for _ in range(key[p])]
        total += a * elementary_det_power(i, half, pairs)
    return total


def power_sum_invariant_check(
    m: int, i: int, *, budget: int = DEFAULT_BUDGET
) -> tuple[Fraction, Fraction]:
    """Invariant at the power-sum point next to its closed form.

    Returns (computed, i! * (m/2)!^i / (i*m/2)!); the two must be equal.
    """
    computed = det_power_invariant(m, i, HomPoly.power_sum(i, m), budget=budget)
    half = m // 2
    closed = Fraction(factorial(i) * factorial(half) ** i, factorial(i * half))
    return computed, closed
