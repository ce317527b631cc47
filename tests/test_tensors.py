"""Sparse tensors, Young symmetrizers and the pairing identities."""

from __future__ import annotations

import os
from fractions import Fraction
from math import factorial, prod
from random import Random

import pytest

from detorbit import latin, oracles, tensors
from detorbit.errors import BudgetExceeded
from detorbit.tensors import (
    SparseTensor,
    apply_symmetrizer,
    full_symmetrizer_pairing,
    pattern_imbalance_pairing,
    rectangle_symmetrizer_pairing,
    symmetrized_power_pairing,
)

from helpers import (
    SignedGroupElement,
    col_group,
    permute_slots,
    row_group,
    symmetrized_power,
    translated_pairing_scan,
    unreduced_latin_pairing,
)


def test_symmetrized_power_pairing_examples():
    # Against the power itself: the sum of its squared coefficients, m!^i
    # words of (1/m!^i)^2 each.
    for m, i in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]:
        power = symmetrized_power(m, i)
        assert power.nnz() == factorial(m) ** i
        expected = Fraction(1, factorial(m) ** i)
        assert symmetrized_power_pairing(power, m, i) == expected
    # Only keys made of permutation blocks count, each by coefficient / m!^i.
    t = SparseTensor(
        4,
        2,
        {
            bytes([0, 1, 1, 0]): Fraction(3),
            bytes([0, 0, 1, 0]): Fraction(7),
            bytes([1, 0, 0, 1]): Fraction(-1, 2),
        },
    )
    assert symmetrized_power_pairing(t, 2, 2) == Fraction(5, 8)
    with pytest.raises(ValueError, match="rank mismatch"):
        symmetrized_power_pairing(SparseTensor(3, 2, {}), 2, 2)


def test_tableau_validation_and_groups():
    assert len(row_group(2, 2)) == 4
    assert len(col_group(2, 2)) == 4
    assert [g.perm for g in col_group(1, 3)] == [(0, 1, 2)]
    assert all(g.sign == 1 for g in row_group(2, 2))
    signs = sorted(g.sign for g in col_group(2, 2))
    assert signs == [-1, -1, 1, 1]
    with pytest.raises(ValueError, match="tensor rank must equal i \\* m"):
        apply_symmetrizer(2, 2, SparseTensor(3, 2, {}))


def test_symmetrizer_single_row_scales_symmetric_input():
    for m in (2, 3):
        v = symmetrized_power(m, 1)
        image = apply_symmetrizer(1, m, v)
        assert image == _scaled(v, factorial(m))


def _scaled(t: SparseTensor, c) -> SparseTensor:
    return SparseTensor(t.rank, t.m, {key: c * v for key, v in t.data.items()})


def _difference(a: SparseTensor, b: SparseTensor) -> SparseTensor:
    keys = a.data.keys() | b.data.keys()
    data = {key: a.data.get(key, 0) - b.data.get(key, 0) for key in keys}
    return SparseTensor(a.rank, a.m, data)


def test_symmetrizer_column_transposition_negates_output():
    # Composing the output with a column transposition on the left flips it.
    x = symmetrized_power(2, 2)
    image = apply_symmetrizer(2, 2, x)
    assert image.nnz() > 0
    tau = (2, 1, 0, 3)  # swap the slots of the first column
    assert permute_slots(image, tau) == _scaled(image, -1)
    # And for a non-symmetric input word too.
    y = SparseTensor(4, 2, {bytes([0, 1, 1, 0]): Fraction(1)})
    image_y = apply_symmetrizer(2, 2, y)
    assert permute_slots(image_y, tau) == _scaled(image_y, -1)


def test_symmetrizer_budget_guard():
    x = symmetrized_power(4, 4)
    with pytest.raises(BudgetExceeded, match="symmetrizer too large"):
        apply_symmetrizer(4, 4, x)


def _reference_act(group, data: dict) -> dict:
    """sum_g sign(g) * g acting on data, one slot at a time, in Fractions."""
    out: dict = {}
    for g in group:
        for key, coeff in data.items():
            moved = bytearray(len(key))
            for j, s in enumerate(key):
                moved[g.perm[j]] = s
            moved = bytes(moved)
            out[moved] = out.get(moved, Fraction(0)) + g.sign * coeff
    return {key: coeff for key, coeff in out.items() if coeff}


def _random_tensor(rng, rank: int, m: int, terms: int) -> SparseTensor:
    data = {}
    for _ in range(terms):
        key = bytes(rng.randrange(m) for _ in range(rank))
        num = rng.choice([n for n in range(-9, 10) if n])
        data[key] = Fraction(num, rng.choice([1, 2, 3, 4, 6, 7, 9]))
    return SparseTensor(rank, m, data)


# Rectangles (i, m): one row, square, and both orientations of a long one.
# Their column blocks are not contiguous slots, so the slot action matters.
_RECTANGLES = [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]


@pytest.mark.parametrize("shape", _RECTANGLES)
def test_symmetrizer_matches_fraction_reference(shape):
    i, m = shape
    _check_against_reference(i, m, Random(i * 10 + m))


def _check_against_reference(i: int, m: int, rng: Random) -> None:
    k = i * m
    rows, cols = row_group(i, m), col_group(i, m)
    for alphabet in (2, 3):
        for terms in (1, 3, 8):
            x = _random_tensor(rng, k, alphabet, terms)
            image = apply_symmetrizer(i, m, x)
            assert image.data == _reference_act(cols, _reference_act(rows, x.data))
            assert all(type(c) is Fraction and c for c in image.data.values())
        for g in rows + cols:
            assert permute_slots(x, g.perm).data == _reference_act(
                [SignedGroupElement(g.perm, 1)], x.data
            )
    # An image that cancels in the column stage (unless every column is one
    # slot), and one already in the row stage.
    constant = SparseTensor(k, 2, {bytes(k): Fraction(5, 3)})
    expected = {} if i > 1 else {bytes(k): Fraction(5, 3) * factorial(m)}
    assert apply_symmetrizer(i, m, constant).data == expected
    swap = list(range(k))
    swap[0], swap[1] = 1, 0  # two slots of the first row
    w = _random_tensor(rng, k, 3, 4)
    antisymmetric = _difference(w, permute_slots(w, swap))
    assert antisymmetric.nnz() > 0
    assert apply_symmetrizer(i, m, antisymmetric).data == {}


@pytest.mark.parametrize("i,m", _RECTANGLES, ids=[f"{i}x{m}" for i, m in _RECTANGLES])
def test_groups_fix_their_blocks_and_sign_by_parity(i, m):
    # Checked slot by slot on the returned elements, independently of how
    # the groups are built: the Fraction reference above trusts them.
    rows = [{r * m + c for c in range(m)} for r in range(i)]
    cols = [{r * m + c for r in range(i)} for c in range(m)]
    for group, blocks in ((row_group(i, m), rows), (col_group(i, m), cols)):
        order = prod(factorial(len(block)) for block in blocks)
        assert len({g.perm for g in group}) == len(group) == order
        for g in group:
            for slots in blocks:
                assert {g.perm[s] for s in slots} == slots
    assert all(g.sign == 1 for g in row_group(i, m))
    assert all(g.sign == latin.column_sign(g.perm) for g in col_group(i, m))


def test_symmetrizer_budget_counts_only_nonzero_terms(monkeypatch):
    w = SparseTensor(4, 3, {bytes([0, 1, 2, 0]): Fraction(1)})
    x = _difference(w, permute_slots(w, (1, 0, 2, 3)))
    # The row stage costs 4 * 2 and cancels its 4 image words, so the column
    # stage is estimated at 4 * 1, not 4 * 4.  The cap is read at call time.
    monkeypatch.setattr(tensors, "DEFAULT_WORK_CAP", 8)
    assert apply_symmetrizer(2, 2, x).nnz() == 0
    monkeypatch.setattr(tensors, "DEFAULT_WORK_CAP", 7)
    with pytest.raises(BudgetExceeded):
        apply_symmetrizer(2, 2, x)


def test_permute_slots_rank_below_two():
    one = SparseTensor(1, 3, {bytes([2]): Fraction(-1, 2)})
    assert permute_slots(one, (0,)) == one
    empty = SparseTensor(0, 3, {b"": Fraction(4)})
    assert permute_slots(empty, ()) == empty
    assert apply_symmetrizer(1, 1, one) == one


def test_permute_slots_is_left_action():
    t = SparseTensor(3, 3, {bytes([0, 1, 2]): Fraction(1)})
    sigma = (1, 2, 0)
    tau = (0, 2, 1)
    composed = tuple(tau[sigma[j]] for j in range(3))
    assert permute_slots(permute_slots(t, sigma), tau) == permute_slots(t, composed)


def test_public_constructor_validates():
    with pytest.raises(ValueError):
        SparseTensor(2, 3, {bytes([0, 3]): Fraction(1)})  # symbol out of range
    with pytest.raises(ValueError):
        SparseTensor(2, 3, {bytes([0]): Fraction(1)})  # wrong length
    t = SparseTensor(2, 3, {bytes([0, 1]): Fraction(0), bytes([2, 2]): Fraction(3)})
    assert t.data == {bytes([2, 2]): Fraction(3)}


def test_public_constructor_leaves_the_caller_mapping_unchanged():
    data = {b"\x00\x01": 0, b"\x01\x00": 1}
    t = SparseTensor(2, 2, data)
    assert data == {b"\x00\x01": 0, b"\x01\x00": 1}
    assert t.data == {b"\x01\x00": 1}
    assert t.data is not data


def test_library_built_tensors_pass_public_validation():
    rng = Random(7)
    x = SparseTensor(
        4,
        3,
        {
            bytes(rng.randrange(3) for _ in range(4)): Fraction(rng.randint(-3, 3), 2)
            for _ in range(12)
        },
    )
    y = SparseTensor(4, 3, {key: -c for key, c in list(x.data.items())[:5]})
    results = [
        permute_slots(x, (2, 0, 3, 1)),
        apply_symmetrizer(2, 2, x),
        apply_symmetrizer(2, 2, _difference(x, y)),
    ]
    for r in results:
        assert r == SparseTensor(r.rank, r.m, dict(r.data))
        assert all(c != 0 for c in r.data.values())


def test_word_tensor_row_reading():
    assert oracles.word_tensor(2, 2).data == {bytes([0, 0, 1, 1]): Fraction(1)}
    assert oracles.word_tensor(2, 3).data == {bytes([0, 0, 0, 1, 1, 1]): Fraction(1)}


@pytest.mark.parametrize("i,m", [(1, 2), (2, 2), (1, 3), (2, 3), (3, 3), (1, 4), (2, 4)])
def test_pairing_identity(i, m):
    lhs = rectangle_symmetrizer_pairing(i, m)
    assert lhs == pattern_imbalance_pairing(i, m) == full_symmetrizer_pairing(i, m)


def _pairing_double_group_sum(i: int, m: int) -> Fraction:
    """Literal double group sum, keeping the non-Latin-column terms.

    Only permutation-rows matter for the contraction; the terms whose
    matrix has a repeated column entry must cancel in signed pairs.
    """
    from itertools import permutations, product

    def parity(perm):
        sign = 1
        for a in range(len(perm)):
            for b in range(a + 1, len(perm)):
                if perm[b] < perm[a]:
                    sign = -sign
        return sign

    perms_m = list(permutations(range(m)))
    perms_i = list(permutations(range(i)))
    total = 0
    for sigma in product(perms_m, repeat=i):
        for mu in product(perms_i, repeat=m):
            rows_ok = True
            for p in range(i):
                row = [sigma[mu[q][p]][q] for q in range(m)]
                if len(set(row)) != m:
                    rows_ok = False
                    break
            if rows_ok:
                sign = 1
                for mu_q in mu:
                    sign *= parity(mu_q)
                total += sign
    return Fraction(total, factorial(m) ** i)


@pytest.mark.parametrize("i,m", [(1, 2), (2, 2), (1, 3), (2, 3), (3, 3)])
def test_latin_restriction_equals_double_group_sum(i, m):
    assert rectangle_symmetrizer_pairing(i, m) == (
        _pairing_double_group_sum(i, m)
    )


STRETCH = pytest.mark.skipif(
    os.environ.get("DETORBIT_STRETCH") != "1",
    reason="unreduced (4,4) scan (about 18 s on 2 vCPUs); set DETORBIT_STRETCH=1",
)


@pytest.mark.parametrize(
    "i,m",
    [(i, m) for m in (1, 2, 3) for i in range(1, m + 1)]
    + [(1, 4), (2, 4), (3, 4), pytest.param(4, 4, marks=STRETCH), (2, 5)],
)
def test_latin_route_matches_unreduced_scan(i, m):
    assert rectangle_symmetrizer_pairing(i, m) == unreduced_latin_pairing(i, m)


def test_pairing_identity_beyond_the_full_route():
    # Nonzero even-m values and an odd-m zero, where the full expansion is
    # refused and the quotiented Latin route meets the tally side alone.
    for (i, m), value in {(2, 6): 1, (3, 5): 0, (4, 4): 1}.items():
        with pytest.raises(BudgetExceeded):
            full_symmetrizer_pairing(i, m)
        assert rectangle_symmetrizer_pairing(i, m) == value
        assert pattern_imbalance_pairing(i, m) == value


def test_full_route_refused_before_building_the_power(monkeypatch):
    power = symmetrized_power(3, 2)

    def no_power(*_args, **_kwargs):
        raise AssertionError("power built before the budget check")

    # The power's words are the product of the permutation words.
    monkeypatch.setattr(tensors, "product", no_power)
    with pytest.raises(BudgetExceeded) as refused:
        full_symmetrizer_pairing(2, 5)
    assert (str(refused.value), refused.value.estimate) == (
        "symmetrizer too large",
        120**4,
    )
    # Under a lower cap, read at call time, the estimate and message are
    # apply_symmetrizer's row-stage ones.
    monkeypatch.setattr(tensors, "DEFAULT_WORK_CAP", 1000)
    with pytest.raises(BudgetExceeded) as expected:
        apply_symmetrizer(2, 3, power)
    with pytest.raises(BudgetExceeded) as early:
        full_symmetrizer_pairing(2, 3)
    for exc in (expected.value, early.value):
        assert (str(exc), exc.estimate) == ("symmetrizer too large", 6**4)


def _sorted_bytes_pairing(t: SparseTensor, m: int, i: int) -> Fraction:
    target = bytes(range(m))
    total = Fraction(0)
    for key, coeff in t.data.items():
        if all(
            bytes(sorted(key[b * m : (b + 1) * m])) == target for b in range(i)
        ):
            total += coeff
    return total / Fraction(factorial(m)) ** i


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_block_test_matches_sorted_bytes_expression(m):
    # A block of symbols below m is a permutation word iff its m symbols are
    # distinct; checked on the tableau word images (where some blocks repeat
    # a symbol), slot-translated too below m = 4.
    image = apply_symmetrizer(m, m, oracles.word_tensor(m, m))
    rng = Random(m)
    taus = [tuple(range(m * m))] + [
        tuple(rng.sample(range(m * m), m * m)) for _ in range(6 if m < 4 else 0)
    ]
    for tau in taus:
        moved = permute_slots(image, tau)
        assert symmetrized_power_pairing(moved, m, m) == _sorted_bytes_pairing(
            moved, m, m
        )


def test_pairing_identity_known_values():
    assert rectangle_symmetrizer_pairing(1, 2) == 1
    assert rectangle_symmetrizer_pairing(2, 2) == 1
    assert rectangle_symmetrizer_pairing(1, 4) == 1
    assert pattern_imbalance_pairing(2, 2) == 1
    # (m, m): the unique pattern contributes the squared signed count.
    tally = latin.signed_tally(4, 4)
    assert pattern_imbalance_pairing(4, 4) == Fraction(
        _imbalance_square_sum(tally), factorial(4) ** 4
    ) == Fraction(latin.alon_tarsi_difference(4) ** 2, factorial(4) ** 4)


def _imbalance_square_sum(tally: latin.SignedTally) -> int:
    """sum over patterns of (plus - minus)^2."""
    return sum((p - n) ** 2 for p, n in tally.counts.values())


def test_pattern_imbalance_single_row():
    for m in (2, 3, 4):
        assert pattern_imbalance_pairing(1, m) == 1


@pytest.mark.parametrize(
    "i,m", [(i, m) for m in range(1, 6) for i in range(1, m + 1)] + [(2, 6)]
)
def test_pattern_imbalance_from_orbits_matches_per_pattern_sum(i, m):
    # The sum runs over the orbits; the unreduced column tally gives it
    # pattern by pattern.
    tally = latin.column_order_tally(i, m)
    assert pattern_imbalance_pairing(i, m) == Fraction(
        _imbalance_square_sum(tally), factorial(m) ** i
    )


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_latin_sign_sum_explicit_route(m):
    # The expanded symmetrizer image of the tableau word, contracted.
    assert oracles.latin_sign_sum_pairing(m) == latin.column_order_difference(m)


def test_latin_sign_sum_budget():
    # The expanded route counts every Latin square (812,851,200 at m = 6);
    # the column route counts the squares its quotient keeps, so it runs
    # m = 6 (9,408 reduced squares) and refuses m = 7 (~3.4e7 squares).
    with pytest.raises(BudgetExceeded, match="812851200"):
        oracles.latin_sign_sum_pairing(6)
    with pytest.raises(BudgetExceeded, match="33884160"):
        latin.column_order_difference(7)
    assert latin.column_order_difference(6) == -199065600


def test_translated_pairing_scan_exhaustive_m2():
    report = translated_pairing_scan(2)
    assert report.base_value == -2
    assert report.checked == 24
    assert report.ok
    assert report.value_counts == {"-2": 8, "0": 8, "2": 8}


def test_translated_scan_identity_and_row_translations():
    # The identity and any row-preserving translation reproduce the base value.
    m = 2
    report = translated_pairing_scan(m, taus=[tuple(range(4))])
    assert report.value_counts == {str(report.base_value): 1}
    taus = [g.perm for g in row_group(m, m)]
    report = translated_pairing_scan(m, taus=taus)
    assert report.ok
    assert report.value_counts == {str(report.base_value): len(taus)}


@pytest.mark.skipif(
    os.environ.get("DETORBIT_STRETCH") != "1",
    reason="m=4 sampled scan (about 8 s on 2 vCPUs); set DETORBIT_STRETCH=1",
)
def test_translated_pairing_scan_sampled_m4():
    report = translated_pairing_scan(4, samples=3, seed=1)
    assert report.base_value == 576
    assert report.ok
    # Targeted translations exercise every allowed value: the identity and a
    # row-internal swap reproduce the base value, a column transposition
    # (slots 0 and 4 sit in one column of the 4x4 tableau) negates it.
    identity = tuple(range(16))
    row_swap = (1, 0) + tuple(range(2, 16))
    col_swap = (4, 1, 2, 3, 0) + tuple(range(5, 16))
    targeted = translated_pairing_scan(4, taus=[identity, row_swap, col_swap])
    assert targeted.ok
    assert targeted.value_counts == {"-576": 1, "576": 2}

