"""Polarized coefficients, determinant-power polarization and the invariant."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, islice
from math import factorial
from random import Random

import pytest

from helpers import (
    class_multiset_invariant,
    compose_linear,
    from_terms,
    random_hompoly,
    random_sl_matrix,
)
from detorbit import invariant
from detorbit.errors import BudgetExceeded
from detorbit.invariant import (
    HomPoly,
    det_power_invariant,
    elementary_det_power,
    polarized_coefficient,
    power_sum_invariant_check,
)
from detorbit.orbit import candidate_schedule, det_restriction
from detorbit.oracles import (
    _elementary,
    elementary_matrix_expansion,
    exact_det,
    polarized_det_power,
)


def _mat(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


E11 = _mat([[1, 0], [0, 0]])
E12 = _mat([[0, 1], [0, 0]])
E21 = _mat([[0, 0], [1, 0]])
E22 = _mat([[0, 0], [0, 1]])
I2 = _mat([[1, 0], [0, 1]])


def test_hompoly_validation_and_json():
    f = from_terms(2, 3, [((2, 1), Fraction(1, 2)), ((0, 3), -1)])
    obj = f.to_json_dict()
    assert HomPoly.from_json_dict(obj) == f
    with pytest.raises(ValueError):
        HomPoly(2, 3, {(1, 1): Fraction(1)})  # degree mismatch
    assert from_terms(2, 2, [((1, 1), 1), ((1, 1), -1)]).coeffs == {}


def test_hompoly_constructor_leaves_the_caller_mapping_unchanged():
    coeffs = {(2, 0): 0, (1, 1): 3}
    f = HomPoly(2, 2, coeffs)
    assert coeffs == {(2, 0): 0, (1, 1): 3} and type(coeffs[(1, 1)]) is int
    assert f.coeffs == {(1, 1): Fraction(3)}
    assert type(f.coeffs[(1, 1)]) is Fraction


def test_polarized_coefficient_examples():
    f = from_terms(2, 2, [((1, 1), 1)])
    assert polarized_coefficient(f, (1, 2)) == Fraction(1, 2)
    g = from_terms(1, 2, [((2,), 1)])
    assert polarized_coefficient(g, (1, 1)) == 1
    zero = HomPoly(2, 2, {})
    assert polarized_coefficient(zero, (1, 2)) == 0
    with pytest.raises(ValueError, match="symbol out of range"):
        polarized_coefficient(f, (1, 3))


def test_elementary_matrix_expansion_examples():
    f = from_terms(2, 2, [((1, 1), 1)])
    terms = elementary_matrix_expansion(f)
    assert sorted((t.coefficient, t.matrices) for t in terms) == sorted(
        [(Fraction(1, 2), (E12,)), (Fraction(1, 2), (E21,))]
    )
    g = from_terms(1, 2, [((2,), 1)])
    (term,) = elementary_matrix_expansion(g)
    assert term.coefficient == 1
    assert term.matrices == (_mat([[1]]),)
    with pytest.raises(ValueError, match="even degree"):
        elementary_matrix_expansion(from_terms(1, 3, [((3,), 1)]))


def test_expansion_term_count_bound():
    rng = Random(5)
    f = random_hompoly(2, 4, rng)
    assert len(elementary_matrix_expansion(f)) <= 2**4


def test_exact_det():
    assert exact_det(_mat([[1, 2], [3, 4]])) == -2
    assert exact_det(_mat([[0, 1], [1, 0]])) == -1
    assert exact_det(_mat([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])) == Fraction(1, 6)
    assert exact_det(_mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 0
    rng = Random(11)
    for n in (1, 2, 3, 4, 5):
        for trial in range(20):
            rows = [
                [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n)
            ]
            if trial % 3 == 0:
                # Force pivot swaps and rank deficiencies.
                rows[0][0] = Fraction(0)
                if trial % 6 == 0 and n >= 2:
                    rows[1] = list(rows[0])
            assert exact_det(rows) == _det_cofactor(rows)


def _det_cofactor(rows):
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = Fraction(rows[0][j]) * _det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


def test_polarized_det_power_examples():
    assert polarized_det_power(2, 1, [I2, I2]) == 1
    assert polarized_det_power(2, 1, [E11, E22]) == Fraction(1, 2)
    X = _mat([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
    assert polarized_det_power(2, 1, [X, X]) == Fraction(-1, 4)
    with pytest.raises(ValueError, match="expected 2 matrices"):
        polarized_det_power(2, 1, [I2])


def test_polarized_det_power_recovers_det_power_at_equal_args():
    rng = Random(3)
    for size, power in [(2, 1), (2, 2), (3, 1)]:
        mat = _mat(
            [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
        )
        value = polarized_det_power(size, power, [mat] * (size * power))
        assert value == exact_det(mat) ** power


def test_polarized_det_power_symmetry_and_multilinearity():
    rng = Random(7)
    mats = [
        _mat([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        for _ in range(4)
    ]
    base = polarized_det_power(2, 2, mats)
    for _ in range(5):
        perm = list(range(4))
        rng.shuffle(perm)
        assert polarized_det_power(2, 2, [mats[j] for j in perm]) == base
    # Additivity and scaling in slot 0.
    other = _mat([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
    summed = tuple(
        tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(mats[0], other)
    )
    lhs = polarized_det_power(2, 2, [summed] + mats[1:])
    rhs = base + polarized_det_power(2, 2, [other] + mats[1:])
    assert lhs == rhs
    scaled = tuple(tuple(3 * a for a in row) for row in mats[0])
    assert polarized_det_power(2, 2, [scaled] + mats[1:]) == 3 * base


def test_elementary_det_power_examples():
    assert elementary_det_power(2, 1, [(0, 0), (1, 1)]) == Fraction(1, 2)
    assert elementary_det_power(2, 1, [(0, 1), (1, 0)]) == Fraction(-1, 2)
    assert elementary_det_power(2, 1, [(0, 0), (0, 1)]) == 0  # row 1 empty
    assert elementary_det_power(1, 3, [(0, 0)] * 3) == 1
    with pytest.raises(ValueError, match="expected 4 pairs"):
        elementary_det_power(2, 2, [(0, 0)])
    with pytest.raises(ValueError, match="out of range"):
        elementary_det_power(1, 1, [(0, 1)])


def test_elementary_det_power_matches_general_polarization():
    rng = Random(31)
    checked = zero = 0
    for trial in range(240):
        size = rng.randint(1, 3)
        power = rng.randint(1, 3)
        if trial % 3:
            # Balanced rows; a narrow column range forces repeated pairs.
            width = rng.randint(1, size)
            pairs = [
                (r, rng.randrange(width)) for r in range(size) for _ in range(power)
            ]
        else:
            pairs = [
                (rng.randrange(size), rng.randrange(size))
                for _ in range(size * power)
            ]
        rng.shuffle(pairs)
        value = elementary_det_power(size, power, pairs)
        mats = [_elementary(size, r, c) for r, c in pairs]
        assert value == polarized_det_power(size, power, mats), (size, power, pairs)
        rows = Counter(r for r, _ in pairs)
        if any(rows[r] != power for r in range(size)):
            assert value == 0
        checked += 1
        zero += value == 0
    assert checked == 240 and 0 < zero < checked


def _class_multiset_reference(m, i, f):
    """The invariant from matrix-word classes and the Gray-code polarization."""
    classes = {}
    for term in elementary_matrix_expansion(f):
        key = tuple(sorted(term.matrices))
        coeff, n = classes.get(key, (term.coefficient, 0))
        classes[key] = (coeff, n + 1)
    keys = list(classes)
    total = Fraction(0)
    for combo in combinations_with_replacement(range(len(keys)), i):
        weight = factorial(i)
        coeff = Fraction(1)
        mats = []
        for idx, e in Counter(combo).items():
            c, n = classes[keys[idx]]
            weight //= factorial(e)
            coeff *= (c * n) ** e
            mats.extend(keys[idx] * e)
        total += weight * coeff * polarized_det_power(i, m // 2, mats)
    return total


@pytest.mark.parametrize(
    "m,i,forms,density", [(2, 2, 8, 0.7), (4, 2, 8, 0.7), (4, 3, 3, 0.3)]
)
def test_invariant_matches_class_multiset_reference(m, i, forms, density):
    rng = Random(100 * m + i)
    values = []
    for _ in range(forms):
        f = random_hompoly(i, m, rng, density=density)
        value = det_power_invariant(m, i, f)
        assert value == _class_multiset_reference(m, i, f), f
        values.append(value)
    assert any(values)


@pytest.mark.parametrize(
    "m,i,forms,density",
    [(6, 2, 6, 0.7), (8, 2, 4, 0.7), (4, 3, 3, 0.7), (6, 3, 3, 0.3), (4, 4, 2, 0.3)],
)
def test_invariant_matches_class_multiset_loop(m, i, forms, density):
    rng = Random(200 * m + i)
    values = []
    for _ in range(forms):
        f = random_hompoly(i, m, rng, density=density)
        value = det_power_invariant(m, i, f)
        assert value == class_multiset_invariant(m, i, f), f
        values.append(value)
    assert any(values)


@pytest.mark.parametrize("m,i", [(4, 3), (6, 2), (8, 2)])
def test_invariant_matches_class_multiset_loop_on_structured_candidates(m, i):
    for _, A in islice(candidate_schedule(m, i), 4):
        f = det_restriction(A)
        assert det_power_invariant(m, i, f) == class_multiset_invariant(m, i, f), A


@pytest.mark.parametrize("m,i,density", [(6, 3, 0.5), (4, 4, 0.3)])
def test_invariant_weight_under_general_linear_substitution(m, i, density):
    """I(f o g) = det(g)^m * I(f), checked without any oracle at det g = 2."""
    rng = Random(300 * m + i)
    f = random_hompoly(i, m, rng, density=density)
    g = random_sl_matrix(i, rng)
    g[0] = [2 * x for x in g[0]]
    base = det_power_invariant(m, i, f)
    assert base
    assert det_power_invariant(m, i, compose_linear(f, g)) == 2**m * base


def test_kernel_sees_each_balanced_monomial_once(monkeypatch):
    # Row and column pruning leave only monomials whose every row and column
    # holds m/2 pairs, and each reaches elementary_det_power once.
    m, i = 4, 3
    calls = []

    def recording(size, power, pairs):
        calls.append(tuple(sorted(pairs)))
        return elementary_det_power(size, power, pairs)

    f = random_hompoly(i, m, Random(41))
    expected = det_power_invariant(m, i, f)
    monkeypatch.setattr(invariant, "elementary_det_power", recording)
    assert det_power_invariant(m, i, f) == expected
    assert calls and len(set(calls)) == len(calls)
    for pairs in calls:
        assert Counter(r for r, _ in pairs) == {r: m // 2 for r in range(i)}
        assert Counter(c for _, c in pairs) == {c: m // 2 for c in range(i)}


def test_invariant_values_small():
    f = from_terms(2, 2, [((1, 1), 1)])
    assert det_power_invariant(2, 2, f) == Fraction(-1, 4)
    assert det_power_invariant(2, 2, from_terms(2, 2, [((2, 0), 1)])) == 0
    assert det_power_invariant(2, 1, from_terms(1, 2, [((2,), 1)])) == 1
    with pytest.raises(ValueError):
        det_power_invariant(3, 1, from_terms(1, 3, [((3,), 1)]))
    with pytest.raises(ValueError):
        det_power_invariant(2, 3, f)  # i exceeds the variable count


def test_invariant_restricts_extra_variables():
    # Evaluation at i below the variable count sets the tail variables to 0.
    f = from_terms(3, 2, [((1, 1, 0), 1), ((0, 0, 2), 5)])
    assert det_power_invariant(2, 2, f) == Fraction(-1, 4)
    assert det_power_invariant(2, 1, f) == 0
    g = from_terms(2, 2, [((2, 0), 1), ((0, 2), 3)])
    assert det_power_invariant(2, 1, g) == 1


@pytest.mark.parametrize(
    "m,i,expected",
    [
        (2, 1, Fraction(1)),
        (2, 2, Fraction(1)),
        (4, 2, Fraction(1, 3)),
    ],
)
def test_power_sum_closed_form_values(m, i, expected):
    computed, closed = power_sum_invariant_check(m, i)
    assert computed == closed == expected


def test_budget_guard():
    # P = sum_j y_jj: one leaf per kernel call, so the product step refuses.
    with pytest.raises(BudgetExceeded, match="6 partial monomials x 6 pair words"):
        det_power_invariant(2, 6, HomPoly.power_sum(6, 2), budget=10)
    f = HomPoly.power_sum(6, 6)
    # P = sum_j y_jj^3: at most 20 partial monomials x 6 pair words per step,
    # then the one monomial prod_j y_jj^3 of P^6 with (3!)^5 search leaves.
    with pytest.raises(BudgetExceeded, match="1 monomials of P\\^6"):
        det_power_invariant(6, 6, f, budget=6**5 - 1)
    assert det_power_invariant(6, 6, f, budget=6**5) == Fraction(1, 190590400)
    assert det_power_invariant(6, 6, f) == Fraction(1, 190590400)


@pytest.mark.parametrize(
    "m,text",
    [
        (56, f"~{factorial(28)} search"),  # 30 digits: written in full
        (58, "~10^30 search"),  # 29! has 31 digits
        (4000, "~10^5735 search"),  # 2000! is never built
    ],
    ids=["30-digits", "31-digits", "5736-digits"],
)
def test_leaf_estimate_past_30_digits_is_a_power_of_ten(m, text):
    # One kernel call at i = 2 needs (m/2)! leaves.
    with pytest.raises(BudgetExceeded) as refused:
        det_power_invariant(m, 2, HomPoly.power_sum(2, m))
    assert text in str(refused.value)
    estimate = refused.value.estimate
    assert type(estimate) is int and 10**9 < estimate <= factorial(m // 2)


def test_binary_quartic_classical_invariant_oracle():
    """Degree-2 invariant of binary quartics: the invariant ring route.

    For f = sum a_{jk} x^j y^k of degree 4 the unique degree-2 invariant is
    a40*a04 - a31*a13/4 + a22^2/12 (up to scale); the polarized route must be
    a constant multiple, pinned here as 1/3 by the power-sum value.
    """
    rng = Random(2024)

    def classical(f: HomPoly) -> Fraction:
        a = {exp: f.coefficient(exp) for exp in [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]}
        return (
            a[(4, 0)] * a[(0, 4)]
            - a[(3, 1)] * a[(1, 3)] / 4
            + a[(2, 2)] ** 2 / 12
        )

    for _ in range(12):
        f = random_hompoly(2, 4, rng)
        assert det_power_invariant(4, 2, f) == classical(f) / 3


def test_sl_invariance_and_homogeneity_samples():
    rng = Random(99)
    for m, i in [(2, 2), (4, 2)]:
        for _ in range(5):
            f = random_hompoly(i, m, rng)
            g = random_sl_matrix(i, rng)
            assert det_power_invariant(m, i, compose_linear(f, g)) == det_power_invariant(m, i, f)
            c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            scaled = HomPoly(f.nvars, f.degree, {e: c * v for e, v in f.coeffs.items()})
            assert det_power_invariant(m, i, scaled) == c**i * det_power_invariant(m, i, f)


def test_compose_linear_identity_and_errors():
    f = from_terms(2, 2, [((1, 1), 1), ((2, 0), 2)])
    eye = [[1, 0], [0, 1]]
    assert compose_linear(f, eye) == f
    with pytest.raises(ValueError):
        compose_linear(f, [[1, 0]])
