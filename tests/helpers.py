"""Shared generators for the randomized test suites (all exact arithmetic),
and a runner for code that needs a fresh interpreter."""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial
from pathlib import Path
from random import Random

import detorbit
from detorbit import latin, tensors
from detorbit.invariant import HomPoly, elementary_det_power, polarized_coefficient
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
    return HomPoly.from_terms(nvars, degree, terms)


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

    Walks every Latin (i, m)-rectangle, with no row or symbol quotient, and
    sums each one's rearrangement-sign term; the oracle of the quotiented
    route.  The walk is this oracle's own; the per-rectangle term is the
    library's ``tensors._rearrangement_leaf``, shared rather than copied,
    since what is checked here is the quotient and its weight
    m! * |row group|.  The term itself is checked against the full
    symmetrizer expansion and the pattern-imbalance side.
    """
    total = [0]
    leaf = tensors._rearrangement_leaf(i, total)
    latin._run_rows(i, m, [(1 << m) - 1] * m, (), leaf)
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
