"""Shared generators for the randomized test suites (all exact arithmetic),
a runner for code that needs a fresh interpreter, and the claim checks and
reference builders that only the tests run: the group actions of the
invariant's weight law on forms and restriction matrices, the slot action
on tensors and the materialized power of the symmetrized word, every Latin
rectangle with its sign and pattern, the fiberwise sign factorization,
concatenation and projection of Latin rectangles, the slot-translation
scan, the expanded symmetrizer groups, the class sizes, character values,
dimensions and (alternating) Kronecker coefficients of S_n with the
character table orthogonality sums, the plain ``json.dumps`` rendering of a
tally and the bit-by-bit canonical form, orbit fold, relabelled tally and
pattern entries of the Latin tally."""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import (
    combinations,
    combinations_with_replacement,
    groupby,
    permutations,
    product,
)
from math import factorial, prod
from pathlib import Path
from random import Random
from typing import Iterable, Optional, Sequence

import detorbit
from detorbit import kronecker, latin, oracles, tensors
from detorbit.invariant import HomPoly, _product_form, elementary_det_power
from detorbit.oracles import polarized_coefficient
from detorbit.orbit import RestrictionMatrix

SRC = str(Path(detorbit.__file__).resolve().parent.parent)


def run_fresh(code: str, *argv: str) -> str:
    """Run code in a new interpreter that imports detorbit from this checkout."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    return proc.stdout


def random_sl_matrix(n: int, rng: Random, steps: int = 6) -> list[list[Fraction]]:
    """Random integer matrix of determinant exactly 1 (product of shears)."""
    mat = [[Fraction(1 if a == b else 0) for b in range(n)] for a in range(n)]
    if n == 1:
        return mat
    for _ in range(steps):
        a = rng.randrange(n)
        b = rng.randrange(n)
        while b == a:
            b = rng.randrange(n)
        c = Fraction(rng.randint(-3, 3))
        for j in range(n):
            mat[a][j] += c * mat[b][j]
    return mat


def random_hompoly(nvars: int, degree: int, rng: Random, density: float = 0.7) -> HomPoly:
    """Random form with small rational coefficients, at least one term."""
    exps = _compositions(degree, nvars)
    terms = []
    for exp in exps:
        if rng.random() < density:
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            if c:
                terms.append((exp, c))
    if not terms:
        exp = exps[rng.randrange(len(exps))]
        terms.append((exp, Fraction(1)))
    return from_terms(nvars, degree, terms)


def from_terms(
    nvars: int, degree: int, terms: Iterable[tuple[Sequence[int], Fraction | int]]
) -> HomPoly:
    """The form with the given (exponent, coefficient) terms; the
    coefficients of a repeated exponent are added."""
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for exp, c in terms:
        key = tuple(exp)
        coeffs[key] = coeffs.get(key, Fraction(0)) + Fraction(c)
    return HomPoly(nvars, degree, coeffs)


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def random_restriction_matrix(m: int, i: int, rng: Random) -> RestrictionMatrix:
    """Random integer m x i matrix with entries in [-4, 4]."""
    return RestrictionMatrix.from_rows(
        [[rng.randint(-4, 4) for _ in range(i)] for _ in range(m)]
    )


# ---------------------------------------------------------------------------
# The weight law of the invariant: the group actions on forms and on
# restriction matrices that the invariance tests apply.
# ---------------------------------------------------------------------------


def compose_linear(f: HomPoly, g: Sequence[Sequence[Fraction | int]]) -> HomPoly:
    """f with x_j -> sum_k g[j][k] x_k substituted and re-expanded."""
    n = f.nvars
    if len(g) != n or any(len(row) != n for row in g):
        raise ValueError("substitution matrix must be nvars x nvars")
    rows = [[Fraction(x) for x in row] for row in g]
    out: dict[tuple[int, ...], Fraction] = {}
    for exp, c in f.coeffs.items():
        factors = [row for row, e in zip(rows, exp) for _ in range(e)]
        for key, val in _product_form(factors, n).coeffs.items():
            out[key] = out.get(key, Fraction(0)) + c * val
    return HomPoly(n, f.degree, out)


def right_multiply(
    A: RestrictionMatrix, g: Sequence[Sequence[Fraction | int]]
) -> RestrictionMatrix:
    """A @ g for an i x i matrix g."""
    i = A.i
    if len(g) != i or any(len(row) != i for row in g):
        raise ValueError("g must be i x i")
    rows = tuple(
        tuple(
            sum((row[k] * Fraction(g[k][j]) for k in range(i)), Fraction(0))
            for j in range(i)
        )
        for row in A.rows
    )
    return RestrictionMatrix(rows)


def scale_row(A: RestrictionMatrix, p: int, t: Fraction | int) -> RestrictionMatrix:
    """A with row p multiplied by t."""
    rows = list(A.rows)
    rows[p] = tuple(x * Fraction(t) for x in rows[p])
    return RestrictionMatrix(tuple(rows))


def permute_rows(A: RestrictionMatrix, sigma: Sequence[int]) -> RestrictionMatrix:
    """The matrix whose row p is row sigma[p] of A."""
    return RestrictionMatrix(tuple(A.rows[sigma[p]] for p in range(A.m)))


def permute_slots(
    t: tensors.SparseTensor, perm: Sequence[int]
) -> tensors.SparseTensor:
    """Left action on tensor slots: slot perm[j] of the result carries slot
    j of t, moved by the library's own ``tensors._slot_mover``."""
    if len(perm) != t.rank:
        raise ValueError("permutation rank mismatch")
    move = tensors._slot_mover(perm)
    data = {bytes(move(key)): coeff for key, coeff in t.data.items()}
    return tensors.SparseTensor._trusted(t.rank, t.m, data)


def symmetrized_power(m: int, i: int) -> tensors.SparseTensor:
    """The i-th tensor power of the symmetrized word: every key whose i
    length-m blocks are permutation words, with coefficient 1/m!^i."""
    coeff = Fraction(1, factorial(m) ** i)
    words = [bytes(word) for word in permutations(range(m))]
    data = {b"".join(blocks): coeff for blocks in product(words, repeat=i)}
    return tensors.SparseTensor(i * m, m, data)


def cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle type of a 0-based permutation tuple, as a decreasing partition."""
    n = len(perm)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def unreduced_latin_pairing(i: int, m: int) -> Fraction:
    """The Latin route of ``rectangle_symmetrizer_pairing`` without a quotient.

    Walks every Latin (i, m)-rectangle (:func:`latin_rectangles`), with no
    row or symbol quotient, and sums each one's rearrangement-sign term; the
    oracle of the quotiented route.  The walk is this oracle's own; the
    per-rectangle term is the library's ``tensors._rearrangement_leaf``,
    shared rather than copied, since what is checked here is the quotient
    and its weight m! * |row group|.  The term itself is checked against
    the full symmetrizer expansion and the pattern-imbalance side.
    """
    total = [0]
    leaf = tensors._rearrangement_leaf(i, total)
    for rect in latin_rectangles(i, m):
        leaf(rect, None, None)
    return Fraction(total[0], factorial(m) ** i)


def class_multiset_invariant(m: int, i: int, f: HomPoly) -> Fraction:
    """``det_power_invariant`` as a loop over multisets of pair-word classes.

    Scans all i^m index words over the first i variables, groups those with
    nonzero polarized coefficient by sorted pair word, and sums over every
    i-element multiset of classes the multinomial weight times the class
    weights times ``elementary_det_power`` of the concatenated pairs; the
    oracle of the pruned P^i expansion.
    """
    classes: dict[tuple, tuple[Fraction, int]] = {}
    for word in product(range(1, i + 1), repeat=m):
        coeff = polarized_coefficient(f, word)
        if coeff:
            key = tuple(sorted((a - 1, b - 1) for a, b in zip(word[0::2], word[1::2])))
            known, count = classes.get(key, (coeff, 0))
            assert known == coeff, "words of one class share the coefficient"
            classes[key] = (coeff, count + 1)
    keys = list(classes)
    total = Fraction(0)
    for combo in combinations_with_replacement(range(len(keys)), i):
        weight = factorial(i)
        coeff = Fraction(1)
        pairs: list = []
        for idx, e in Counter(combo).items():
            c, count = classes[keys[idx]]
            weight //= factorial(e)
            coeff *= (c * count) ** e
            pairs.extend(keys[idx] * e)
        total += weight * coeff * elementary_det_power(i, m // 2, pairs)
    return total


# ---------------------------------------------------------------------------
# Latin rectangles: the plain tally rendering, every rectangle with its sign
# and pattern, projection, concatenation and the fiberwise sign
# factorization.
# ---------------------------------------------------------------------------


def tally_json_dict(tally: latin.SignedTally) -> dict:
    """The tally report as a dict, for ``json.dumps(..., indent=2,
    sort_keys=True)``: the reference the streamed report is checked against."""
    return {
        "i": tally.i,
        "m": tally.m,
        "patterns": [
            {
                "pattern": [list(sub) for sub in key],
                "plus": str(p),
                "minus": str(n),
            }
            for key, (p, n) in sorted(tally.counts.items())
        ],
    }


def reference_transpose(masks, m: int) -> list[int]:
    """The m x m bit matrix transposed bit by bit: the reference of the
    packed ``latin._transpose``."""
    return [sum((mask >> s & 1) << c for c, mask in enumerate(masks)) for s in range(m)]


def reference_canonical(masks, i: int, m: int) -> tuple[tuple, int, bool]:
    """``latin._canonical`` with the sorting permutation built and its
    inversions tested pair by pair: canonical profiles, stabiliser order,
    whether the sort flips eps_c."""
    profile = reference_transpose(masks, m)
    order = sorted(range(m), key=profile.__getitem__)
    canon = tuple(profile[s] for s in order)
    stab = prod(factorial(len(list(run))) for _, run in groupby(canon))
    parity = 0
    if not (i % 2 and stab > 1):
        for k, a in enumerate(order):
            for b in order[k + 1 :]:
                if a > b:
                    parity ^= (profile[a] & profile[b]).bit_count() & 1
    return canon, stab, bool(parity)


def reference_fold(i: int, m: int) -> dict:
    """The orbit form of the (i, m) tally from one unblocked first-row-fixed
    enumeration, folded key by key through :func:`reference_canonical`: the
    reference of ``orbit_tally(i, m).orbits``, keyed by canonical profiles."""
    quotient = latin._row_quotient(i, m)
    bucket: dict = {}
    latin._run_rows(
        i, m, (), latin._tally_leaf_factory(bucket), quotient
    )
    fact, w = factorial(m), quotient.order
    folded: dict = {}
    for key, (p, n) in bucket.items():
        canon, stab, swap = reference_canonical(key, i, m)
        p, n = p * w // fact * stab, n * w // fact * stab
        if i % 2 and stab > 1:
            p = n = (p + n) // 2
        elif swap:
            p, n = n, p
        cur = folded.setdefault(canon, [0, 0, stab])
        cur[0] += p
        cur[1] += n
    return {canon: (fact // stab, p, n) for canon, (p, n, stab) in folded.items()}


def relabelled_tally(i: int, m: int) -> dict:
    """``signed_tally(i, m).counts`` by brute relabelling, a reference of
    the orbit fold that shares no code with it (``_canonical``,
    ``_transpose``, ``_fold_orbits``, ``_entries``).

    Every rectangle is pi R0 for one first-row-fixed R0 and one pi in S_m.
    The first-row-fixed bucket of ``latin._row_quotient`` is carried by
    every pi: each column mask through a table of the 2^m masks, and the
    sign flipped by the parity of pi on the columns, each column's
    ``latin._inversion_parity`` of pi on its symbols in ascending order.
    """
    quotient = latin._row_quotient(i, m)
    bucket: dict = {}
    latin._run_rows(i, m, (), latin._tally_leaf_factory(bucket), quotient)
    w = quotient.order // factorial(m)  # first-row-fixed rectangles per leaf
    counts: dict = {}
    for pi in permutations(range(m)):
        image, flip = [], []
        for mask in range(1 << m):
            column = [pi[s] for s in range(m) if mask >> s & 1]
            image.append(sum(1 << s for s in column))
            flip.append(latin._inversion_parity(column))
        for key, (p, n) in bucket.items():
            if sum(map(flip.__getitem__, key)) & 1:
                p, n = n, p
            cur = counts.setdefault(tuple(map(image.__getitem__, key)), [0, 0])
            cur[0] += p * w
            cur[1] += n * w
    return {
        tuple(map(latin._subset_of_mask, key)): (p, n)
        for key, (p, n) in counts.items()
    }


def reference_entries(tally: latin.OrbitTally) -> tuple[list, dict, list[bytes]]:
    """``tally._entries()`` built the direct way, its entries as one sorted
    list, the deliberate independent oracle of its adjacent-transposition
    walk and leading-rank buckets: every pi of S_m in
    ``itertools.permutations`` order, each subset's image rank and inversion
    parity (``latin._inversion_parity``) tabled per pi, the flip as the sum
    of those parities over the orbit's columns, and the tie test as pi
    increasing on each run of equal profiles."""
    i, m = tally.i, tally.m
    subsets = list(combinations(range(1, m + 1), i))
    rank = {latin._mask_of(sub): r for r, sub in enumerate(subsets)}
    width = ((2 * len(tally.orbits)).bit_length() + 7) // 8
    counts: dict[bytes, tuple[int, int]] = {}
    orbits = []
    for k, (key, (_size, p, n)) in enumerate(tally.orbits.items()):
        tails = tuple((2 * k + f).to_bytes(width, "big") for f in (0, 1))
        counts[tails[0]], counts[tails[1]] = (p, n), (n, p)
        ties = [s for s in range(m - 1) if key[s] == key[s + 1]]
        cols = bytes(map(rank.__getitem__, reference_transpose(key, m)))
        orbits.append((ties, cols, tails))
    entries: list[bytes] = []
    for perm in permutations(range(m)):
        image, parity = bytearray(256), bytearray(256)
        for r, sub in enumerate(subsets):
            moved = [perm[s - 1] for s in sub]
            image[r] = rank[sum(1 << t for t in moved)]
            parity[r] = latin._inversion_parity(moved)
        for ties, cols, tails in orbits:
            if all(perm[s] < perm[s + 1] for s in ties):
                flip = sum(cols.translate(parity)) & 1
                entries.append(cols.translate(image) + tails[flip])
    entries.sort()
    return subsets, counts, entries


# A Latin rectangle here is a tuple of rows of 0-based symbols.
Rect = tuple[tuple[int, ...], ...]


def latin_rectangles(i: int, m: int) -> list[Rect]:
    """Every Latin (i, m)-rectangle, in row-major lexicographic order, by an
    enumerator of the tests' own that shares nothing with the library's
    DFS.  Each permutation of 0..m-1, in ``itertools.permutations`` order,
    is the set of its (column, symbol) cells; the next row is any of them
    whose set is disjoint from every row's so far."""
    rows = [(row, frozenset(enumerate(row))) for row in permutations(range(m))]
    out: list[Rect] = []

    def extend(rect: Rect, free: list) -> None:
        if len(rect) == i:
            out.append(rect)
            return
        for row, cells in free:
            extend(rect + (row,), [r for r in free if cells.isdisjoint(r[1])])

    extend((), rows)
    return out


def rect_sign(rows: Rect) -> int:
    """eps_c: the product of the column signs."""
    return prod(latin.column_sign(col) for col in zip(*rows))


def pattern_of(rows: Rect) -> latin.Pattern:
    """The ordered tuple of sorted column contents, 1-based."""
    return tuple(tuple(sorted(s + 1 for s in col)) for col in zip(*rows))


def project_last_row(rows: Rect) -> Rect:
    """Drop the last row, yielding an (i-1, m)-rectangle."""
    if len(rows) == 1:
        raise ValueError("cannot project single row")
    return rows[:-1]


def concatenate(rows_a: Rect, rows_b: Rect) -> Rect:
    """Side-by-side join with rows_b's symbols shifted by rows_a's width.

    eps_c of the result is the product of the two signs, and the pattern is
    the pattern of rows_a followed by the shifted pattern of rows_b.
    """
    if len(rows_a) != len(rows_b):
        raise ValueError("row counts differ")
    shift = len(rows_a[0])
    return tuple(ra + tuple(s + shift for s in rb) for ra, rb in zip(rows_a, rows_b))


@dataclass
class SignFactorizationReport:
    """Whether eps_c factors through the projected pattern on every fiber.

    For each (i, m)-pattern A and each (i-1, m)-pattern B arising from its
    rectangles, the ratio eps_c(rect) / eps_c(projection) must be a constant
    eps(B) on the fiber.
    """

    i: int
    m: int
    ok: bool
    fibers: int
    rectangles: int
    counterexample: Optional[tuple[Rect, Rect]]


def verify_sign_factorization(i: int, m: int) -> SignFactorizationReport:
    """Exhaustively check the fiberwise sign factorization at (i, m)."""
    if not 2 <= i <= m:
        raise ValueError("need 2 <= i <= m")
    fiber_sign: dict[tuple, int] = {}
    rects = latin_rectangles(i, m)
    bad = None
    for rect in rects:
        top = project_last_row(rect)
        key = (pattern_of(rect), pattern_of(top))
        ratio = rect_sign(rect) * rect_sign(top)
        if fiber_sign.setdefault(key, ratio) != ratio:
            bad = (rect, top)
            break
    return SignFactorizationReport(
        i=i,
        m=m,
        ok=bad is None,
        fibers=len(fiber_sign),
        rectangles=len(rects),
        counterexample=bad,
    )


# ---------------------------------------------------------------------------
# Tensors: the expanded symmetrizer groups and the slot-translation scan.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignedGroupElement:
    """A slot permutation of {0..k-1} with an attached sign."""

    perm: tuple[int, ...]
    sign: int


def _signed_group(
    k: int, blocks: list[range], signed: bool
) -> list[SignedGroupElement]:
    """The direct product of the blocks' symmetric groups on k slots, first
    block outermost; with ``signed`` each factor is signed by the parity of
    its permutation of positions within the block."""
    group = [(tuple(range(k)), 1)]
    for block in blocks:
        table = []
        for pos in permutations(range(len(block))):
            perm = list(range(k))
            for src, p in zip(block, pos):
                perm[src] = block[p]
            table.append((perm, latin.column_sign(pos) if signed else 1))
        # The blocks are disjoint, so composing with perm fills in its block.
        group = [
            (tuple(perm[j] for j in g), g_sign * sign)
            for g, g_sign in group
            for perm, sign in table
        ]
    return [SignedGroupElement(perm, sign) for perm, sign in group]


def row_group(i: int, m: int) -> list[SignedGroupElement]:
    """All slot permutations of the i x m rectangle, read row by row, that
    keep each row (slots r*m .. r*m + m-1), every sign +1."""
    return _signed_group(i * m, [range(r * m, (r + 1) * m) for r in range(i)], False)


def col_group(i: int, m: int) -> list[SignedGroupElement]:
    """All slot permutations of the i x m rectangle that keep each column
    (slots c, c + m, .., c + (i-1)*m), signed by parity."""
    return _signed_group(i * m, [range(c, i * m, m) for c in range(m)], True)


@dataclass
class ScanReport:
    """Values of the pairing against slot-translated symmetrizer images."""

    m: int
    base_value: int
    checked: int
    ok: bool
    value_counts: dict[str, int]
    violations: list[tuple[tuple[int, ...], Fraction]]


def translated_pairing_scan(
    m: int,
    taus: Optional[Iterable[Sequence[int]]] = None,
    *,
    samples: int = 24,
    seed: int = 0,
) -> ScanReport:
    """Check that every slot translation scales the pairing by 0 or +-1.

    With ``taus`` omitted, scans all of S_{m^2} when m = 2 and a seeded
    sample otherwise.
    """
    image = tensors.apply_symmetrizer(m, m, oracles.word_tensor(m, m))
    base = oracles.latin_sign_sum_pairing(m)
    k = m * m
    if taus is None:
        if m == 2:
            tau_list = [tuple(p) for p in permutations(range(k))]
        else:
            rng = Random(seed)
            tau_list = []
            for _ in range(samples):
                perm = list(range(k))
                rng.shuffle(perm)
                tau_list.append(tuple(perm))
    else:
        tau_list = [tuple(tau) for tau in taus]
    allowed = {Fraction(0), Fraction(base), Fraction(-base)}
    counts: dict[str, int] = {}
    violations: list[tuple[tuple[int, ...], Fraction]] = []
    for tau in tau_list:
        value = tensors.symmetrized_power_pairing(permute_slots(image, tau), m, m)
        counts[str(value)] = counts.get(str(value), 0) + 1
        if value not in allowed:
            violations.append((tau, value))
    return ScanReport(
        m=m,
        base_value=base,
        checked=len(tau_list),
        ok=not violations,
        value_counts=dict(sorted(counts.items())),
        violations=violations,
    )


# ---------------------------------------------------------------------------
# Characters of S_n: class sizes, character values, dimensions, the
# Kronecker and alternating Kronecker coefficients, and the orthogonality
# relations of the character table.  The values come from the library's
# character kernel; the rest is summed here.
# ---------------------------------------------------------------------------


def class_size(mu: Sequence[int]) -> int:
    """Size of the conjugacy class with cycle type mu: n! / z_mu, where
    z_mu = prod over the distinct parts p of p^k k!, k the multiplicity of p."""
    z = prod(p**k * factorial(k) for p, k in Counter(mu).items())
    return factorial(sum(mu)) // z


def mn_character(lam: Sequence[int], mu: Sequence[int]) -> int:
    """chi_lam at cycle type mu, from the library's bead-bitmask kernel."""
    mask, sid = kronecker._mask(tuple(lam)), kronecker._intern(tuple(mu))
    return kronecker._character(mask, sid)


def partition_dimension(lam: Sequence[int]) -> int:
    """Dimension of the irreducible module: hook length formula."""
    n = sum(lam)
    if n == 0:
        return 1
    conj = [sum(1 for a in lam if a > j) for j in range(lam[0])]
    hooks = 1
    for r, length in enumerate(lam):
        for c in range(length):
            hooks *= length - c + conj[c] - r - 1
    return factorial(n) // hooks


def _class_sum(terms: Iterable[int], divisor: int) -> int:
    """The class-weighted sum divided by divisor, which must divide it."""
    result, rem = divmod(sum(terms), divisor)
    assert rem == 0 and result >= 0, "a multiplicity is a nonnegative integer"
    return result


def kronecker_coeff(lam: Sequence[int], mu: Sequence[int], nu: Sequence[int]) -> int:
    """Multiplicity of W_lam in W_mu ox W_nu: (1/n!) sum |C| chi chi chi."""
    n = sum(lam)
    a, b, c = (kronecker._mask(tuple(p)) for p in (lam, mu, nu))
    chi = kronecker._character
    return _class_sum(
        (
            size * chi(a, sid) * chi(b, sid) * chi(c, sid)
            for _, sid, size, _ in kronecker._classes(n)
        ),
        factorial(n),
    )


def alternating_kronecker_coeff(lam: Sequence[int], mu: Sequence[int]) -> int:
    """Multiplicity of W_lam in the alternating square of W_mu:
    (1/2n!) sum |C_rho| (chi_mu(rho)^2 - chi_mu(rho^2)) chi_lam(rho)."""
    n = sum(lam)
    a, b = kronecker._mask(tuple(lam)), kronecker._mask(tuple(mu))
    chi = kronecker._character
    return _class_sum(
        (
            size * (chi(b, sid) ** 2 - chi(b, sq)) * chi(a, sid)
            for _, sid, size, sq in kronecker._classes(n)
        ),
        2 * factorial(n),
    )


def character_table(n: int) -> tuple[list, list[int], list[list[int]]]:
    """The partitions of n, the class sizes in that order, and the table
    ``values[a][c]`` = chi of the a-th partition at the c-th cycle type."""
    parts = list(kronecker.partitions(n))
    sizes = [class_size(mu) for mu in parts]
    values = [[mn_character(lam, mu) for mu in parts] for lam in parts]
    return parts, sizes, values


def row_orthogonality_ok(n: int) -> bool:
    """sum_mu |C_mu| chi_lam(mu) chi_rho(mu) == n! delta_{lam,rho}."""
    parts, sizes, values = character_table(n)
    k = len(parts)
    return all(
        sum(sizes[c] * values[a][c] * values[b][c] for c in range(k))
        == (factorial(n) if a == b else 0)
        for a in range(k)
        for b in range(a, k)
    )


def column_orthogonality_ok(n: int) -> bool:
    """sum_lam chi_lam(mu) chi_lam(nu) == delta_{mu,nu} n!/|C_mu|."""
    parts, sizes, values = character_table(n)
    k = len(parts)
    return all(
        sum(values[r][a] * values[r][b] for r in range(k))
        == (factorial(n) // sizes[a] if a == b else 0)
        for a in range(k)
        for b in range(a, k)
    )
