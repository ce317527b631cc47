"""Acceptance battery: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  The
m = 6 signed-count stretch enumerates the 9,408 reduced squares per order
and runs in tier 1.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

from helpers import (
    column_orthogonality_ok,
    compose_linear,
    concatenate,
    latin_rectangles,
    permute_rows,
    random_hompoly,
    random_restriction_matrix,
    random_sl_matrix,
    rect_sign,
    right_multiply,
    row_orthogonality_ok,
    scale_row,
    translated_pairing_scan,
    verify_sign_factorization,
)
from detorbit import invariant, kronecker, latin, oracles, orbit, tensors


def _report(name: str, detail: str = "") -> None:
    print(f"ACCEPTANCE PASS  {name}" + (f"  [{detail}]" if detail else ""))


# Criterion 1 -- enumeration totals against the column-order oracle.
#
# Full-tally comparison runs on every (i, m) with i*m <= 16 whose rectangle
# count stays below ~4*10^5; the remaining shapes with i*m <= 16 have counts
# from 6*10^8 ((2,8)) up to 2*10^13 ((1,16)) and cannot be visited inside the
# one-minute budget by any enumeration-based check.
TALLY_SHAPES = [
    (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
    (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
    (3, 3), (3, 4), (3, 5),
    (4, 4),
]
COUNT_ONLY_SHAPES = [(1, 8)]


def test_criterion_1_latin_counts_vs_oracle():
    for i, m in TALLY_SHAPES:
        rows = latin.signed_tally(i, m)
        cols = latin.column_order_tally(i, m)
        assert rows.counts == cols.counts, (i, m)
    for i, m in COUNT_ONLY_SHAPES:
        assert latin.orbit_tally(i, m).total() == latin.column_order_tally(i, m).total()
    squares = {m: latin.orbit_tally(m, m).total() for m in (2, 3, 4)}
    assert squares == {2: 2, 3: 12, 4: 576}
    for m in (2, 3, 4):
        assert latin.column_order_tally(m, m).total() == squares[m]
    _report("criterion 1: enumeration totals match the column-order oracle")


def test_criterion_2_alon_tarsi_values():
    assert latin.alon_tarsi_difference(2) == -2
    assert latin.alon_tarsi_difference(3) == 0
    rows4 = latin.alon_tarsi_difference(4)
    cols4 = latin.column_order_difference(4)
    assert rows4 == cols4 == 576
    _report("criterion 2: signed square counts -2, 0, 576 (orders agree)")


def test_criterion_2_stretch_m6():
    # 9,408 reduced squares per order, about 0.1 s each.
    rows = latin.alon_tarsi_difference(6, processes=4)
    cols = latin.column_order_difference(6)
    assert rows == cols == -199065600  # == -6! * 5! * 2304
    _report("criterion 2 stretch: m=6 signed count, two orders agree")


@pytest.mark.parametrize("i,m", [(1, 2), (2, 2), (1, 4), (2, 4)])
def test_criterion_3_pairing_identity(i, m):
    report = tensors.pairing_identity_report(i, m)
    assert report["equal"], report
    assert report["lhs_full"] == report["lhs_latin"] == report["rhs"]
    _report(f"criterion 3: pairing identity at (i,m)=({i},{m})", str(report["rhs"]))


def test_criterion_4_sign_sum_and_translation_scan():
    for m in (1, 2, 3, 4):
        assert oracles.latin_sign_sum_pairing(m) == latin.alon_tarsi_difference(m)
    scan = translated_pairing_scan(2)
    assert scan.checked == 24 and scan.ok
    assert set(scan.value_counts) == {"-2", "0", "2"}
    _report("criterion 4: sign-sum pairing matches; translation scan in {0,+-2}")


CLOSED_FORM_SHAPES = [(m, i) for m in (2, 4, 6) for i in range(1, min(m, 4) + 1)]
CLOSED_FORM_SHAPES += [(6, 5), (6, 6), (8, 4)]


@pytest.mark.parametrize("m,i", CLOSED_FORM_SHAPES)
def test_criterion_5_power_sum_closed_form(m, i):
    computed, closed = invariant.power_sum_invariant_check(m, i)
    assert computed == closed
    expected = {
        (2, 1): Fraction(1),
        (2, 2): Fraction(1),
        (4, 2): Fraction(1, 3),
        (6, 5): Fraction(1, 1401400),
        (6, 6): Fraction(1, 190590400),  # 6! * (3!)^6 / 18!
        (8, 4): Fraction(1, 2627625),
    }.get((m, i))
    if expected is not None:
        assert computed == expected
    _report(f"criterion 5: closed form at (m,i)=({m},{i})", str(computed))


def test_criterion_6_witnesses():
    expected = {
        (2, 1): (Fraction(1), 0),
        (2, 2): (Fraction(-1, 4), 0),
        (4, 1): (Fraction(1), 0),
        (4, 2): (Fraction(1, 36), 0),
        (6, 2): (Fraction(-1, 400), 0),
        (8, 2): (Fraction(1, 4900), 0),
        (6, 3): (Fraction(-1, 2268000), 0),
        (4, 3): (Fraction(1, 15), 2),  # vandermonde; indices 0 and 1 vanish
    }
    for (m, i), (value, index) in expected.items():
        result = orbit.witness_search(m, i)
        assert result is not None
        assert result.value == value
        assert result.schedule_index == index
    _report(
        "criterion 6: nonvanishing witnesses at "
        + ",".join(f"({m},{i})" for m, i in expected)
    )


@pytest.mark.parametrize("m,i", [(2, 2), (4, 2)])
def test_criterion_7_invariance_suite(m, i):
    rng = Random(1000 + m)
    for sample in range(20):
        f = random_hompoly(i, m, rng)
        base = invariant.det_power_invariant(m, i, f)
        g = random_sl_matrix(i, rng)
        assert invariant.det_power_invariant(m, i, compose_linear(f, g)) == base
        c = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        scaled = invariant.HomPoly(
            f.nvars, f.degree, {e: c * v for e, v in f.coeffs.items()}
        )
        assert invariant.det_power_invariant(m, i, scaled) == c**i * base
        # Central scaling: substituting t*x_j multiplies the value by t^(i*m).
        t = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        diag = [[t if a == b else Fraction(0) for b in range(i)] for a in range(i)]
        assert (
            invariant.det_power_invariant(m, i, compose_linear(f, diag))
            == t ** (i * m) * base
        )
    for sample in range(20):
        A = random_restriction_matrix(m, i, rng)
        base = invariant.det_power_invariant(m, i, orbit.det_restriction(A))
        g = random_sl_matrix(i, rng)
        assert (
            invariant.det_power_invariant(
                m, i, orbit.det_restriction(right_multiply(A, g))
            )
            == base
        )
        sigma = list(range(m))
        rng.shuffle(sigma)
        permuted = permute_rows(A, sigma)
        assert (
            invariant.det_power_invariant(m, i, orbit.det_restriction(permuted))
            == base
        )
        p = rng.randrange(m)
        t = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        scaled = scale_row(A, p, t)
        assert (
            invariant.det_power_invariant(m, i, orbit.det_restriction(scaled))
            == t**i * base
        )
    _report(f"criterion 7: invariance suite at (m,i)=({m},{i}), 20 samples each")


def test_criterion_8_kronecker_suite():
    for n in range(1, 13):
        assert row_orthogonality_ok(n), n
        assert column_orthogonality_ok(n), n
    for n in range(2, 9):
        for mu in kronecker.partitions(n):
            dim = kronecker.partition_dimension(mu)
            s_total = 0
            a_total = 0
            for lam in kronecker.partitions(n):
                sk = kronecker.symmetric_kronecker_coeff(lam, mu)
                ak = kronecker.alternating_kronecker_coeff(lam, mu)
                assert sk + ak == kronecker.kronecker_coeff(lam, mu, mu)
                d = kronecker.partition_dimension(lam)
                s_total += sk * d
                a_total += ak * d
            assert s_total == dim * (dim + 1) // 2
            assert a_total == dim * (dim - 1) // 2
    for m, d in [(2, 1), (2, 2), (2, 3), (4, 1), (4, 2)]:
        report = kronecker.rectangle_sk_positivity(m, d)
        assert report.all_positive, (m, d, report.entries)
    _report("criterion 8: orthogonality n<=12, square sums n<=8, positivity")


def test_criterion_9_structural_laws():
    for m in range(2, 5):
        for i in range(2, m + 1):
            assert verify_sign_factorization(i, m).ok, (i, m)
    for i in (2, 3):
        assert verify_sign_factorization(i, 5).ok, (i, 5)
    # Imbalance propagates downward to fewer rows.
    for m in range(1, 5):
        _check_imbalance_projection(m)
    _check_imbalance_projection(5, max_i=3)
    # Concatenation: sign multiplicativity, exhaustively for m, m' <= 3.
    pools: dict = {}
    for i in (1, 2, 3):
        for m in range(i, 4):
            pools[(i, m)] = latin_rectangles(i, m)
    for (i, m), left in pools.items():
        for mp in range(i, 4):
            right = pools[(i, mp)]
            for a in left:
                for b in right:
                    joined = concatenate(a, b)
                    assert rect_sign(joined) == rect_sign(a) * rect_sign(b)
    # Concatenation hits each joined pattern bijectively: the filtered count
    # at the joined pattern equals the product of the fiber sizes.
    for (i, m, mp) in [(2, 2, 3), (2, 3, 3), (3, 3, 3)]:
        tally_a = latin.signed_tally(i, m)
        tally_b = latin.signed_tally(i, mp)
        joined = latin.orbit_tally(i, m + mp)
        for pat_a, (pa, na) in tally_a.counts.items():
            for pat_b, (pb, nb) in tally_b.counts.items():
                shifted = tuple(tuple(s + m for s in sub) for sub in pat_b)
                count = sum(joined.at(pat_a + shifted))
                assert count == (pa + na) * (pb + nb)
    _report("criterion 9: sign factorization, projection, concatenation laws")


def _check_imbalance_projection(m: int, max_i: int | None = None) -> None:
    top = min(m, max_i) if max_i else m
    tallies = {i: latin.signed_tally(i, m) for i in range(1, top + 1)}
    for i in range(2, top + 1):
        if any(p != n for p, n in tallies[i].counts.values()):
            assert any(p != n for p, n in tallies[i - 1].counts.values()), (i, m)


@pytest.mark.parametrize("m,i", [(2, 2), (4, 2), (4, 4)])
def test_criterion_10_restriction_coefficient_consistency(m, i):
    rng = Random(7000 + 10 * m + i)
    for _ in range(50):
        A = random_restriction_matrix(m, i, rng)
        poly = orbit.det_restriction(A)
        for d in _contents(m, i):
            assert poly.coefficient(d) == orbit.content_coefficient(A, d), (A, d)
    _report(f"criterion 10: restriction coefficients vs permanents at ({m},{i})")


def _contents(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _contents(total - first, parts - 1):
            yield (first,) + rest
