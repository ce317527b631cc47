"""Latin rectangle enumeration, signs, tallies and structural operations."""

from __future__ import annotations

import hashlib
import json
import os
from math import factorial, prod
from random import Random

import pytest

from detorbit import latin
from detorbit.errors import BudgetExceeded
from detorbit.latin import (
    alon_tarsi_difference,
    column_order_difference,
    column_order_tally,
    column_sign,
    signed_tally,
)

from helpers import (
    concatenate,
    latin_rectangles,
    pattern_of,
    project_last_row,
    rect_sign,
    reference_canonical,
    reference_entries,
    reference_fold,
    reference_transpose,
    relabelled_tally,
    tally_json_dict,
    verify_sign_factorization,
)


def _no_leaf(_rows, _masks, _parity):
    """A DFS leaf that records nothing, for tests that count leaves."""


def test_column_sign_examples():
    assert column_sign((1, 2)) == 1
    assert column_sign((2, 1)) == -1
    assert column_sign((3,)) == 1
    assert column_sign((3, 1, 2)) == 1  # two inversions


def test_column_sign_rejects_duplicates():
    with pytest.raises(ValueError, match="not a valid Latin column"):
        column_sign((1, 1))


# Rectangles in these tests are tuples of rows of 0-based symbols.


def test_rect_sign_examples():
    assert rect_sign(((0, 1), (1, 0))) == -1
    assert rect_sign(((1, 0), (0, 1))) == -1
    assert rect_sign(((0, 1, 2, 3),)) == 1


def test_rect_sign_matches_per_column_product():
    # The product of the column signs against the inversion parity that the
    # row DFS carries to each leaf of the quotient, both parities seen.
    for i, m, kept in [(2, 4, 9), (3, 5, 552), (4, 5, 448), (2, 6, 265)]:
        leaves = []
        latin._run_rows(
            i, m, (), lambda rows, _c, parity: leaves.append((tuple(rows), parity)),
            latin._row_quotient(i, m),
        )
        assert len(leaves) == kept
        for rect, parity in leaves:
            signs = [column_sign(col) for col in zip(*rect)]
            assert rect_sign(rect) == prod(signs) == (-1) ** parity
        assert {parity for _rect, parity in leaves} == {0, 1}


def test_pattern_of_examples():
    assert pattern_of(((0, 1), (1, 0))) == ((1, 2), (1, 2))
    assert pattern_of(((1, 0),)) == ((2,), (1,))
    assert pattern_of(((0, 1, 2), (1, 2, 0))) == (
        (1, 2),
        (2, 3),
        (1, 3),
    )


def test_enumeration_counts():
    # The reference enumeration and the orbit tally count the same rectangles.
    for i, m, count in [(1, 2, 2), (2, 2, 2), (2, 3, 12), (3, 3, 12), (4, 4, 576)]:
        assert len(latin_rectangles(i, m)) == count
        assert latin.orbit_tally(i, m).total() == count
    # Counted from the symbol quotient: 9,408 reduced squares at (6, 6).
    assert latin.orbit_tally(3, 6).total() == 15321600
    assert latin.orbit_tally(6, 6).total() == 812851200


def test_enumeration_order_and_validity():
    keys = latin_rectangles(2, 3)
    assert all(sorted(row) == [0, 1, 2] for rect in keys for row in rect)
    assert all(len(set(col)) == 2 for rect in keys for col in zip(*rect))
    assert len(keys) == 12
    assert keys == sorted(keys)  # row-major lexicographic
    assert len(set(keys)) == 12


@pytest.mark.parametrize("i,m", [(2, 2), (2, 3), (2, 4), (3, 4), (2, 5)])
def test_reference_pattern_counts_match_orbit_tally(i, m):
    # (plus, minus) per pattern over every rectangle the reference
    # enumerator visits, against one orbit tally read pattern by pattern.
    counts: dict = {}
    rects = latin_rectangles(i, m)
    for rect in rects:
        pn = counts.setdefault(pattern_of(rect), [0, 0])
        pn[rect_sign(rect) < 0] += 1
    visited = len(rects)
    tally = latin.orbit_tally(i, m)
    assert visited == tally.total() == sum(map(sum, counts.values()))
    assert set(counts) == set(tally.expand().counts)
    for pattern, (p, n) in counts.items():
        assert tally.at(pattern) == (p, n)


def test_enumeration_errors():
    for tally in (latin.orbit_tally, column_order_tally):
        with pytest.raises(ValueError, match="too many rows"):
            tally(3, 2)


def test_signed_tally_small_cases():
    assert signed_tally(2, 2).counts == {((1, 2), (1, 2)): (0, 2)}
    assert signed_tally(1, 2).counts == {
        ((1,), (2,)): (1, 0),
        ((2,), (1,)): (1, 0),
    }


def test_single_row_tallies():
    for m in (1, 2, 3, 4, 5):
        tally = signed_tally(1, m)
        assert len(tally.counts) == factorial(m)
        assert all(pn == (1, 0) for pn in tally.counts.values())
        assert sum((p - n) ** 2 for p, n in tally.counts.values()) == factorial(m)


# Every shape up to m = 5, and (2,6): signed_tally expands the orbit form,
# column_order_tally enumerates every rectangle.
@pytest.mark.parametrize(
    "i,m", [(i, m) for m in range(1, 6) for i in range(1, m + 1)] + [(2, 6)]
)
def test_two_enumeration_orders_agree(i, m):
    assert signed_tally(i, m).counts == column_order_tally(i, m).counts


def _brute_force_tally(i: int, m: int) -> dict:
    """First-principles oracle: filter tuples of permutations, literal signs."""
    from itertools import permutations, product

    counts: dict = {}
    for rows in product(permutations(range(1, m + 1)), repeat=i):
        cols = [tuple(row[q] for row in rows) for q in range(m)]
        if any(len(set(col)) != i for col in cols):
            continue
        sign = 1
        for col in cols:
            prod = 1
            for p in range(i):
                for pp in range(p + 1, i):
                    prod *= col[pp] - col[p]
            sign *= 1 if prod > 0 else -1
        key = tuple(tuple(sorted(col)) for col in cols)
        plus, minus = counts.get(key, (0, 0))
        counts[key] = (plus + 1, minus) if sign == 1 else (plus, minus + 1)
    return counts


@pytest.mark.parametrize("i,m", [(2, 3), (3, 3), (2, 4), (3, 4)])
def test_tally_against_first_principles_oracle(i, m):
    assert signed_tally(i, m).counts == _brute_force_tally(i, m)


def test_tally_signed_sums_match_visitor_recomputation():
    tally = signed_tally(3, 4)
    acc: dict = {}
    for rect in latin_rectangles(3, 4):
        key = pattern_of(rect)
        plus, minus = acc.get(key, (0, 0))
        if rect_sign(rect) == 1:
            acc[key] = (plus + 1, minus)
        else:
            acc[key] = (plus, minus + 1)
    assert acc == tally.counts


def test_alon_tarsi_values():
    assert alon_tarsi_difference(1) == 1
    assert alon_tarsi_difference(2) == -2
    assert alon_tarsi_difference(3) == 0
    assert column_order_difference(2) == -2


def test_alon_tarsi_single_pattern_tally_consistency():
    for m in (2, 3, 4):
        tally = signed_tally(m, m)
        assert len(tally.counts) == 1
        ((plus, minus),) = tally.counts.values()
        assert plus - minus == alon_tarsi_difference(m)


def test_alon_tarsi_odd_cancellation():
    for m in (1, 3, 5):
        expected = 1 if m == 1 else 0
        assert alon_tarsi_difference(m) == expected


def test_signed_square_count_past_the_budget_is_refused():
    # m = 7 would keep ~3.4e7 squares of the symbol and row quotient on
    # both routes, m = 8 its 535,281,401,856 reduced squares; m = 9 is
    # beyond the table of counts.
    for route in (alon_tarsi_difference, column_order_difference):
        with pytest.raises(BudgetExceeded, match="33884160"):
            route(7)
        with pytest.raises(BudgetExceeded, match="535281401856") as refused:
            route(8)
        assert refused.value.estimate == 535281401856
        with pytest.raises(BudgetExceeded, match="huge") as refused:
            route(9)
        assert refused.value.estimate is None


def test_first_column_reduction_matches_full_enumeration():
    # At even m both routes keep the reduced squares (first row and first
    # column 1..m) and weight each by m! * (m-1)!.
    for m in (2, 4):
        squares = latin_rectangles(m, m)
        identity = list(range(m))
        fixed = [sq for sq in squares if [row[0] for row in sq] == identity]
        reduced = [sq for sq in fixed if list(sq[0]) == identity]
        full = sum(map(rect_sign, squares))
        assert factorial(m) * sum(map(rect_sign, fixed)) == full
        weight = factorial(m) * factorial(m - 1)
        assert weight * sum(map(rect_sign, reduced)) == full
        assert alon_tarsi_difference(m) == full
        assert column_order_difference(m) == full


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_reduced_columns_route_matches_unreduced_oracle(m):
    ((plus, minus),) = column_order_tally(m, m).counts.values()
    oracle = plus - minus
    assert oracle == column_order_difference(m)
    assert oracle == alon_tarsi_difference(m)


def test_checkpoint_resume(tmp_path):
    # At (4,6) every pattern lies in more than one block, so resumed and
    # fresh counts of one pattern meet in the run's bucket.
    for i, m in [(3, 4), (4, 6)]:
        cp = str(tmp_path / f"tally_{i}_{m}.ndjson")
        full = latin.orbit_tally(i, m, checkpoint_path=cp)
        lines = open(cp).read().strip().splitlines()
        assert lines
        rec = json.loads(lines[0])
        assert set(rec) >= {"prefix", "plus", "minus"}
        # Drop half of the completed blocks and resume.
        with open(cp, "w") as fh:
            fh.write("\n".join(lines[: len(lines) // 2]) + "\n")
        resumed = latin.orbit_tally(i, m, checkpoint_path=cp)
        assert resumed.orbits == full.orbits
        assert len(open(cp).read().splitlines()) == len(lines)
        if m == 4:
            assert resumed.expand().counts == full.expand().counts


def test_torn_checkpoint_tail_is_dropped_before_appending(tmp_path):
    cp = tmp_path / "tally.ndjson"
    full = latin.orbit_tally(3, 4, checkpoint_path=str(cp)).expand()
    lines = cp.read_text().splitlines(keepends=True)
    kept = len(lines) // 2
    config = {"i": 3, "m": 4, "allowed": [15] * 4, "group": "S4xS2"}
    head = "".join(lines[:kept])
    cp.write_text(head + lines[kept][:7])
    resumed = latin.orbit_tally(3, 4, checkpoint_path=str(cp)).expand()
    assert resumed.counts == full.counts
    # The torn bytes are gone: every line decodes and no block is missing.
    recs = [json.loads(line) for line in cp.read_text().splitlines()]
    assert len(recs) == len(lines)
    # A record is complete only with its newline; loading cuts the tail.
    for tail in (lines[kept][:7], lines[kept].rstrip("\n"), "{oops\n\n"):
        cp.write_text(head + tail)
        assert len(latin.load_checkpoint(str(cp), config)) == kept
        assert cp.read_text() == head
    # Corruption followed by further records still raises.
    cp.write_text(head + "{oops\n" + "".join(lines[kept:]))
    with pytest.raises(ValueError):
        latin.load_checkpoint(str(cp), config)


def test_alon_tarsi_checkpoint_records(tmp_path):
    cp = str(tmp_path / "at.ndjson")
    value = alon_tarsi_difference(3, checkpoint_path=cp)
    recs = [json.loads(line) for line in open(cp)]
    assert all(set(r) >= {"prefix", "plus", "minus"} for r in recs)
    assert all("patterns" in r for r in recs)
    assert sum(int(r["plus"]) - int(r["minus"]) for r in recs) == value
    # Resume from the complete file reproduces the value without new work.
    assert alon_tarsi_difference(3, checkpoint_path=cp) == value


# The runs whose checkpoint files are pinned, and the sha256 of each file.
# The record format is pinned byte for byte, its constant all-ones
# "allowed" column masks included, so files written earlier still resume.
PINNED_CHECKPOINTS = {
    "tally-2-4": (  # group S4xS1: an even m, as perfbench's traced prelude
        lambda cp: latin.orbit_tally(2, 4, checkpoint_path=cp).expand(),
        "c16e3dd0d42ddb28e48169b9301089fc5ca74c918fa825bdcd04c5ea9763b364",
    ),
    "tally-3-5": (
        lambda cp: latin.orbit_tally(3, 5, checkpoint_path=cp).expand(),
        "78c7fade20692246032b0748ea96d91a00d038e5e2f50da89e133830187d2bff",
    ),
    "alon-tarsi-5": (
        lambda cp: alon_tarsi_difference(5, checkpoint_path=cp),
        "ed82aca5b3b01999208f6c0c653ba6a02ad3c4e88d70d7082ede90ddc30189a2",
    ),
}


@pytest.mark.parametrize("run", sorted(PINNED_CHECKPOINTS))
def test_checkpoint_bytes_are_pinned(tmp_path, run):
    compute, digest = PINNED_CHECKPOINTS[run]
    cp = str(tmp_path / "run.ndjson")
    value = compute(cp)
    with open(cp, "rb") as fh:
        written = fh.read()
    assert hashlib.sha256(written).hexdigest() == digest
    # The pinned file resumes whole: same result, no record appended.
    assert compute(cp) == value
    with open(cp, "rb") as fh:
        assert fh.read() == written


# A record is resumed only if every configuration key matches the run's and
# it has "patterns".  One stale record per shape that fails that rule, as a
# file would hold it: (i, m) of the run, the record.  Each two-row prefix is
# a block of the run, so only the rule keeps its record out.
_SQUARE_4 = {"i": 4, "m": 4, "allowed": [15, 15, 15, 15]}
_TALLY_3_5 = {"i": 3, "m": 5, "allowed": [31, 31, 31, 31, 31]}
_CYCLIC_3_5 = [[1, 2, 3], [2, 3, 4], [3, 4, 5], [1, 4, 5], [1, 2, 5]]
_STALE_RECORDS = {
    "other-i-m": (4, 4, {
        "i": 3, "m": 4, "allowed": [15, 15, 15, 15], "group": "S4xS2",
        "prefix": [[1, 2, 3, 4], [2, 1, 4, 3]], "plus": "48", "minus": "0",
        "patterns": [{
            "pattern": [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]],
            "plus": "48", "minus": "0",
        }],
    }),
    # The row quotient alone, before the symbol quotient (S4xS3).
    "row-group-S4": (4, 4, {
        **_SQUARE_4, "group": "S4",
        "prefix": [[1, 2, 3, 4], [2, 1, 4, 3]], "plus": "1440", "minus": "0",
        "patterns": [{"pattern": [[1, 2, 3, 4]] * 4, "plus": "1440", "minus": "0"}],
    }),
    # The totals-only records that signed square counts once wrote.
    "no-patterns": (4, 4, {
        **_SQUARE_4, "group": "S4xS3",
        "prefix": [[1, 2, 3, 4], [2, 1, 4, 3]], "plus": "1440", "minus": "0",
    }),
    "row-group-A3-two-rows": (3, 5, {
        **_TALLY_3_5, "group": "A3",
        "prefix": [[1, 2, 3, 4, 5], [2, 1, 4, 5, 3]], "plus": "1200", "minus": "0",
        "patterns": [{
            "pattern": [[1, 2, 3], [1, 2, 4], [3, 4, 5], [1, 4, 5], [2, 3, 5]],
            "plus": "1200", "minus": "0",
        }],
    }),
    "row-group-A3-one-row": (3, 5, {
        **_TALLY_3_5, "group": "A3",
        "prefix": [[1, 2, 3, 4, 5]], "plus": "1200", "minus": "0",
        "patterns": [{"pattern": _CYCLIC_3_5, "plus": "1200", "minus": "0"}],
    }),
    # The run's own group (S5xA2), but its blocks have two-row prefixes.
    "prefix-outside-partition": (3, 5, {
        **_TALLY_3_5, "group": "S5xA2",
        "prefix": [[1, 2, 3, 4, 5]], "plus": "1200", "minus": "0",
        "patterns": [{"pattern": _CYCLIC_3_5, "plus": "1200", "minus": "0"}],
    }),
    # The earlier format, with counts over every rectangle of the block.
    "no-allowed-or-group": (2, 4, {
        "i": 2, "m": 4, "reduced": False,
        "prefix": [[1, 2, 3, 4]], "plus": "96", "minus": "0",
        "patterns": [{
            "pattern": [[1, 2], [1, 2], [3, 4], [3, 4]], "plus": "96", "minus": "0",
        }],
    }),
}


@pytest.mark.parametrize("case", list(_STALE_RECORDS))
def test_stale_checkpoint_records_are_ignored(tmp_path, case):
    i, m, stale = _STALE_RECORDS[case]
    own = tmp_path / "own.ndjson"
    fresh = latin.orbit_tally(i, m, checkpoint_path=str(own)).orbits
    cp = tmp_path / "stale.ndjson"
    head = json.dumps(stale, sort_keys=True) + "\n"
    cp.write_text(head)
    assert latin.orbit_tally(i, m, checkpoint_path=str(cp)).orbits == fresh
    # Only the run's own records are appended, and a rerun appends none.
    written = cp.read_text()
    assert written == head + own.read_text()
    assert latin.orbit_tally(i, m, checkpoint_path=str(cp)).orbits == fresh
    assert cp.read_text() == written


def test_square_checkpoint_is_shared_by_the_tally_and_the_signed_count(tmp_path):
    # At (4,4) and (5,5) the tally and the signed square count are one orbit
    # tally, in the same blocks and one record format, so either run's file
    # resumes the other with nothing appended.
    for m, blocks, group, value in ((4, 3, "S4xS3", 576), (5, 11, "S5xA4", 0)):
        for first, second in ((True, False), (False, True)):
            cp = tmp_path / f"square_{m}_{first}.ndjson"
            if first:
                latin.orbit_tally(m, m, checkpoint_path=str(cp))
            else:
                alon_tarsi_difference(m, checkpoint_path=str(cp))
            written = cp.read_text()
            recs = [json.loads(line) for line in written.splitlines()]
            assert len(recs) == blocks and {r["group"] for r in recs} == {group}
            if second:
                resumed = latin.orbit_tally(m, m, checkpoint_path=str(cp))
                assert resumed.expand().counts == signed_tally(m, m).counts
            else:
                assert alon_tarsi_difference(m, checkpoint_path=str(cp)) == value
            assert cp.read_text() == written


@pytest.mark.parametrize("m", [2, 4, 6])
def test_full_pattern_tally_is_the_signed_square_count(tmp_path, m):
    # At even m the orbit tally keeps the reduced squares, weighted by
    # m! * (m-1)!, as column_order_difference does.
    cp = tmp_path / "square.ndjson"
    full = (tuple(range(1, m + 1)),) * m
    plus, minus = latin.orbit_tally(m, m, checkpoint_path=str(cp)).at(full)
    assert plus - minus == alon_tarsi_difference(m)
    recs = [json.loads(line) for line in cp.read_text().splitlines()]
    assert {r["group"] for r in recs} == {f"S{m}xS{m - 1}"}


@pytest.mark.parametrize(
    "i,m,blocks",
    [
        (1, 4, 1), (2, 6, 1), (3, 4, 6), (3, 5, 44), (5, 5, 11), (3, 6, 212),
        (4, 4, 3), (6, 6, 53),
    ],
)
def test_orbit_tally_blocks_partition_the_first_row_fixed_rectangles(i, m, blocks):
    # Blocks share the identity row and the second row; with i <= 2 the
    # identity row alone, so the run is one block.
    quotient = latin._row_quotient(i, m)
    prefixes = latin._list_prefixes(i, m)
    assert len(prefixes) == blocks
    assert {len(p) for p in prefixes} == {min(max(i - 1, 1), 2)}
    assert sum(
        latin._run_rows(i, m, p, _no_leaf, quotient) for p in prefixes
    ) == latin._run_rows(i, m, (), _no_leaf, quotient)


@pytest.mark.parametrize(
    "i,m,from_empty,blocks",
    [(6, 6, True, 53), (4, 4, True, 3), (6, 6, False, 53), (4, 4, False, 3)],
)
def test_prefix_blocks_partition_the_kept_rectangles(i, m, from_empty, blocks):
    # Cut at the first row the quotient leaves free (row 1, as row 0 is the
    # identity), the two-row prefixes partition its kept rectangles.  The
    # kernel starts from the identity row whether the prefix is empty or
    # names that row itself; either way the prefixes are the orbit tally's.
    quotient = latin._row_quotient(i, m)
    start = () if from_empty else (tuple(range(m)),)
    prefixes = []
    latin._run_rows(
        2, m, start, lambda rows, _c, _p: prefixes.append(tuple(rows)),
        quotient,
    )
    assert len(prefixes) == blocks
    assert prefixes == latin._list_prefixes(i, m)
    if m <= 5:  # every kept rectangle lies in exactly one block
        assert sum(
            latin._run_rows(i, m, p, _no_leaf, quotient) for p in prefixes
        ) == latin._run_rows(i, m, start, _no_leaf, quotient)


def test_project_last_row():
    assert project_last_row(((0, 1), (1, 0))) == ((0, 1),)
    rect3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert project_last_row(rect3) == ((0, 1, 2), (1, 2, 0))
    with pytest.raises(ValueError, match="cannot project single row"):
        project_last_row(((0, 1),))


def test_projection_fibers_recovered_by_filtered_enumeration():
    # Extending each projected rectangle enumerates exactly the fiber.
    squares = latin_rectangles(3, 3)
    by_top: dict = {}
    for sq in squares:
        by_top.setdefault(project_last_row(sq), []).append(sq)
    for pair in latin_rectangles(2, 3):
        fiber = by_top.get(pair, [])
        extensions = [sq for sq in squares if sq[:2] == pair]
        assert sorted(fiber) == sorted(extensions)


@pytest.mark.parametrize("i,m", [(2, 2), (2, 3), (3, 3), (3, 4)])
def test_sign_factorization(i, m):
    report = verify_sign_factorization(i, m)
    assert report.ok, report.counterexample


def test_sign_factorization_check_can_fail(monkeypatch):
    # A column "sign" read off the first and last entries alone does not
    # factor through the projected pattern at (3,4), and the check says so.
    monkeypatch.setattr(latin, "column_sign", lambda col: -1 if col[-1] > col[0] else 1)
    report = verify_sign_factorization(3, 4)
    assert not report.ok
    rect, top = report.counterexample
    assert top == project_last_row(rect) and rect in latin_rectangles(3, 4)


def test_concatenate_examples():
    assert concatenate(((0,),), ((0,),)) == ((0, 1),)
    with pytest.raises(ValueError, match="row counts differ"):
        concatenate(((0, 1),), ((0, 1), (1, 0)))


def test_concatenate_pattern_is_shifted_join():
    a = ((0, 1), (1, 0))
    b = ((0, 1, 2), (2, 0, 1))
    joined = concatenate(a, b)
    shifted = tuple(tuple(s + len(a[0]) for s in sub) for sub in pattern_of(b))
    assert pattern_of(joined) == pattern_of(a) + shifted


def test_concatenate_sign_multiplicative_at_2x2():
    squares = latin_rectangles(2, 2)
    for x in squares:
        for y in squares:
            assert rect_sign(concatenate(x, y)) == rect_sign(x) * rect_sign(y)


def test_pattern_validation():
    assert latin.is_valid_pattern(((1, 2), (1, 2)), 2, 2)
    assert not latin.is_valid_pattern(((1, 2), (1, 3)), 2, 3)
    # Decoded JSON of any other shape is not a pattern, and raises nothing.
    for junk in (5, None, "12", [[1, 2], 5], [[1, 2.0], [1, 2]], [[1, [2]], [1, 2]],
                 [[True, 2], [1, 2]], [[1, 1], [2, 2]]):
        assert not latin.is_valid_pattern(junk, 2, 2)
    with pytest.raises(ValueError):
        latin.orbit_tally(2, 2).at(((1,), (1, 2)))


# A (2,4) pattern with 4 rectangles, all column-even.
PATTERN_2_4 = ((1, 2), (1, 2), (3, 4), (3, 4))


def test_pattern_tally_resumes_from_the_full_tally_records(tmp_path):
    # Both are one orbit tally, so the second run appends nothing.
    cp = tmp_path / "tally.ndjson"
    latin.orbit_tally(2, 4, checkpoint_path=str(cp))
    written = cp.read_text()
    resumed = latin.orbit_tally(2, 4, checkpoint_path=str(cp))
    assert resumed.at(PATTERN_2_4) == (4, 0)
    assert cp.read_text() == written


def test_full_tally_resumes_from_the_pattern_tally_records(tmp_path):
    cp = tmp_path / "tally.ndjson"
    latin.orbit_tally(2, 4, checkpoint_path=str(cp)).at(PATTERN_2_4)
    written = cp.read_text()
    resumed = latin.orbit_tally(2, 4, checkpoint_path=str(cp)).expand()
    assert resumed.counts == signed_tally(2, 4).counts
    assert cp.read_text() == written


def test_checkpoint_records_carry_configuration_and_weighted_counts(tmp_path):
    cp = tmp_path / "tally.ndjson"
    tally = latin.orbit_tally(3, 3, checkpoint_path=str(cp)).expand()
    recs = [json.loads(line) for line in cp.read_text().splitlines()]
    assert all(
        (r["i"], r["m"], r["allowed"], r["group"]) == (3, 3, [7] * 3, "S3xA2")
        for r in recs
    )
    assert sum(int(r["plus"]) + int(r["minus"]) for r in recs) == tally.total()
    assert tally.total() == 12
    # Two rows: row 0 is fixed, so the whole run is one block.
    cp2 = tmp_path / "two_rows.ndjson"
    latin.orbit_tally(2, 5, checkpoint_path=str(cp2))
    assert len(cp2.read_text().splitlines()) == 1


# ---------------------------------------------------------------------------
# Row-orbit quotient: one rectangle per orbit of G (S_i at even m, A_i at odd
# m), weighted by |G|, against the unreduced enumerations.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("i,m", [(2, 4), (3, 4), (2, 5), (3, 5)])
def test_orbit_tally_at_matches_column_oracle(i, m):
    # Every pattern is looked up in one orbit tally.
    tally = latin.orbit_tally(i, m)
    oracle = column_order_tally(i, m).counts
    if m == 5:
        assert len(oracle) == 2040
    for pattern, counts in oracle.items():
        assert tally.at(pattern) == counts


@pytest.mark.parametrize("i,m,total", [(2, 6, 190800), (3, 5, 66240), (5, 5, 161280)])
def test_quotient_leaf_counts(i, m, total):
    quotient = latin._row_quotient(i, m)
    leaves = latin._run_rows(i, m, (), _no_leaf, quotient)
    assert leaves * quotient.order == total
    assert latin._run_columns(i, m, _no_leaf, quotient) == leaves


# ---------------------------------------------------------------------------
# Symbol quotient: first row 1..m, rows 2..i up to S_{i-1} (even m) or
# A_{i-1} (odd m), weighted by m! times that group's order.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "i,m", [(1, 3), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4), (2, 5), (3, 5)]
)
def test_symbol_quotient_keeps_exactly_one_rectangle_per_orbit(i, m):
    from itertools import permutations

    quotient = latin._row_quotient(i, m)
    kept = []
    leaves = latin._run_rows(
        i, m, (), lambda rows, _c, _p: kept.append(tuple(rows)),
        quotient,
    )
    assert leaves == len(kept)
    assert latin._run_columns(i, m, _no_leaf, quotient) == leaves
    rows_group = [
        (0,) + tuple(1 + t for t in tau)
        for tau in permutations(range(i - 1))
        if m % 2 == 0 or _inversions(tau) % 2 == 0
    ]
    symbols = list(permutations(range(m)))
    assert len(rows_group) * len(symbols) == quotient.order
    assert all(rows[0] == tuple(range(m)) for rows in kept)
    images = [
        tuple(tuple(pi[s] for s in rows[t]) for t in tau)
        for rows in kept
        for tau in rows_group
        for pi in symbols
    ]
    everything = latin_rectangles(i, m)
    assert sorted(images) == sorted(everything)  # covers all, each once


@pytest.mark.parametrize(
    "m",
    [
        3,
        pytest.param(
            5,
            marks=pytest.mark.skipif(
                os.environ.get("DETORBIT_STRETCH") != "1",
                reason="161,280 images at m = 5 (a few s); set DETORBIT_STRETCH=1",
            ),
        ),
    ],
)
def test_square_quotient_transversal_at_odd_m(m):
    # column_order_difference sums eps_c over the symbol and row quotient,
    # whose order at odd m is that of H = {(pi, tau) : sgn pi = sgn tau},
    # pi relabelling symbols and tau permuting rows 1..m-1.  The images of
    # the kept squares under H cover every square exactly once, and H keeps
    # eps_c, so each image has its kept square's sign.
    from itertools import permutations

    quotient = latin._row_quotient(m, m)
    kept = []
    latin._run_rows(
        m, m, (), lambda rows, _c, _p: kept.append(list(map(bytes, rows))),
        quotient,
    )
    assert latin._run_columns(m, m, _no_leaf, quotient) == len(kept)
    group = [
        (bytes(pi) + bytes(range(m, 256)), (0,) + tuple(1 + t for t in tau))
        for pi in permutations(range(m))
        for tau in permutations(range(m - 1))
        if _inversions(pi) % 2 == _inversions(tau) % 2
    ]
    assert len(group) == quotient.order
    everything = {b"".join(map(bytes, sq)) for sq in latin_rectangles(m, m)}
    images = set()
    for rows in kept:
        sign = rect_sign(rows)
        for table, tau in group:
            image = [rows[t].translate(table) for t in tau]
            assert rect_sign(image) == sign
            images.add(b"".join(image))
    assert len(images) == len(kept) * len(group)  # no square twice
    assert images == everything


@pytest.mark.parametrize(
    "m,kept", [(1, 1), (2, 1), (3, 2), (4, 4), (5, 112), (6, 9408)]
)
def test_reduced_square_leaf_counts(m, kept):
    # 9,408 is the number of reduced Latin squares of order 6.  At odd m the
    # quotient keeps the reduced squares and their images under a swap of
    # the last two rows: 2 * 56 at m = 5.
    quotient = latin._row_quotient(m, m)
    assert latin._run_rows(m, m, (), _no_leaf, quotient) == kept
    assert latin._run_columns(m, m, _no_leaf, quotient) == kept


def _inversions(perm) -> int:
    return sum(a > b for k, a in enumerate(perm) for b in perm[k + 1:])


def _json_reference(tally, **extra) -> list[str]:
    text = json.dumps({**tally_json_dict(tally), **extra}, indent=2, sort_keys=True)
    return (text + "\n").splitlines(True)


def _json_text(i: int, m: int, **extra) -> list[str]:
    """The streamed report's lines: a failure names the first differing line
    instead of diffing megabytes of text."""
    pieces: list[str] = []
    latin.orbit_tally(i, m).write_report(pieces.append, **extra)
    return "".join(pieces).splitlines(True)


def test_tally_json_text_matches_indent_encoder():
    # At m = 1 the left half of each pattern is empty; the extra fields sit
    # outside the records, so the smaller shapes check them.  The (2,6)
    # report is pinned by test_cli.py::test_tally_2_6_report_digest.
    extra = {"a": {"z": [1, {"y": None}], "b": []}, "seed": -3, "total": "7"}
    for i, m in [(1, 1), (2, 3), (2, 4), (3, 4), (1, 5), (3, 5), (5, 5), (1, 6)]:
        tally = signed_tally(i, m)
        assert _json_text(i, m) == _json_reference(tally)
        if m < 6:
            assert _json_text(i, m, **extra) == _json_reference(tally, **extra)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_tally_report_repeats_from_one_tally(fmt):
    # Each report walks afresh: a second report from the same OrbitTally
    # gets its own entries, not an iterator the first one exhausted.
    tally = latin.orbit_tally(3, 5)
    first: list[str] = []
    second: list[str] = []
    tally.write_report(first.append, fmt)
    tally.write_report(second.append, fmt)
    assert len(first) > 3
    assert "".join(second) == "".join(first)


# ---------------------------------------------------------------------------
# Orbit form: the tally at one canonical pattern per S_m-orbit, from the
# first-row-fixed rectangles.
# ---------------------------------------------------------------------------


def _profiles(pattern, m: int) -> list[int]:
    """Per symbol, the mask of the columns that hold it."""
    return [
        sum(1 << c for c, sub in enumerate(pattern) if s in sub)
        for s in range(1, m + 1)
    ]


@pytest.mark.parametrize(
    "i,m,orbits,total",
    [(2, 5, 22, 5280), (3, 5, 22, 66240), (2, 6, 130, 190800), (3, 6, 550, 15321600)],
)
def test_orbit_counts(i, m, orbits, total):
    tally = latin.orbit_tally(i, m)
    assert len(tally.orbits) == orbits
    assert tally.total() == total


@pytest.mark.parametrize(
    "i,m", [(i, m) for m in range(1, 6) for i in range(1, m + 1)] + [(2, 6)]
)
def test_orbit_form_matches_its_expansion(i, m):
    orbits = latin.orbit_tally(i, m)
    expanded = orbits.expand()
    assert sum(size for size, _, _ in orbits.orbits.values()) == len(expanded.counts)
    assert orbits.total() == expanded.total()
    assert orbits.imbalance_square_sum() == sum(
        (p - n) ** 2 for p, n in expanded.counts.values()
    )
    for key, (size, plus, minus) in orbits.orbits.items():
        pattern = tuple(map(latin._subset_of_mask, reference_transpose(key, m)))
        assert expanded.counts[pattern] == (plus, minus)
        profiles = _profiles(pattern, m)
        assert profiles == sorted(profiles) == list(key)  # the canonical pattern
        if len(set(profiles)) < m:
            # A swap of two symbols of equal profile fixes the pattern and
            # has sign (-1)^i, so at odd i those orbits are balanced.
            assert i % 2 == 0 or plus == minus


def test_plain_changes_visit_every_permutation_once():
    for m in range(1, 8):
        perm = list(range(m))
        seen = {tuple(perm)}
        for v in latin._plain_changes(m):
            perm[v], perm[v + 1] = perm[v + 1], perm[v]
            seen.add(tuple(perm))
        assert len(latin._plain_changes(m)) + 1 == len(seen) == factorial(m)


@pytest.mark.parametrize(
    "i,m", [(i, m) for m in range(1, 7) for i in range(1, m + 1)]
)
def test_entry_walk_matches_permutation_oracle(i, m):
    # The adjacent-transposition walk against itertools.permutations with
    # every subset's parity recomputed: same subsets, tails and entries.
    tally = latin.orbit_tally(i, m)
    subsets, counts, entries = tally._entries()
    assert (subsets, counts, list(entries)) == reference_entries(tally)


def _first_row_fixed_keys(i: int, m: int) -> list[tuple[int, ...]]:
    """The column masks of every first-row-fixed (i, m) pattern, sorted."""
    keys: set = set()
    latin._run_rows(
        i, m, (), lambda _rows, masks, _p: keys.add(tuple(masks)),
        latin._row_quotient(i, m),
    )
    return sorted(keys)


@pytest.mark.parametrize("i,m", [(3, 5), (2, 6), (3, 6), (4, 6), (5, 6)])
def test_packed_canonical_form_matches_reference(i, m):
    keys = _first_row_fixed_keys(i, m)
    for key in keys:
        assert latin._transpose(key, m) == reference_transpose(key, m)
        assert latin._canonical(key, i, m) == reference_canonical(key, i, m)
    # Relabelled patterns, whose first row is not fixed, under both parities
    # of i: at odd i a tie skips the parity, at even i it is still taken.
    rng = Random(10 * i + m)
    stabilised = set()
    for key in rng.sample(keys, min(300, len(keys))):
        pi = rng.sample(range(m), m)
        moved = tuple(
            sum(1 << pi[s] for s in range(m) if mask >> s & 1) for mask in key
        )
        assert latin._transpose(moved, m) == reference_transpose(moved, m)
        for j in (i, i + 1):
            want = reference_canonical(moved, j, m)
            assert latin._canonical(moved, j, m) == want
            stabilised.add(want[1] > 1)
    # At (5,6) each column misses a different symbol, so no profiles tie.
    assert stabilised == ({False} if (i, m) == (5, 6) else {True, False})


def test_packed_transpose_past_one_byte_lanes():
    # m > 8 takes lanes of two bytes.
    rng = Random(9)
    for m in (9, 12, 16):
        for _ in range(50):
            masks = [rng.getrandbits(m) for _ in range(m)]
            assert latin._transpose(masks, m) == reference_transpose(masks, m)
            assert latin._canonical(masks, 3, m) == reference_canonical(masks, 3, m)


@pytest.mark.parametrize(
    "i,m", [(i, m) for m in range(1, 6) for i in range(1, m + 1)] + [(3, 6), (4, 6)]
)
def test_orbit_tally_matches_reference_fold(i, m):
    tally = latin.orbit_tally(i, m)
    assert tally.orbits == reference_fold(i, m)


def test_each_pattern_is_canonicalised_once_per_run(monkeypatch, tmp_path):
    # One _canonical call per distinct pattern of the run, resumed records
    # included.
    calls = []
    canonical = latin._canonical

    def counted(masks, i, m):
        calls.append(tuple(masks))
        return canonical(masks, i, m)

    monkeypatch.setattr(latin, "_canonical", counted)
    distinct = len(_first_row_fixed_keys(3, 6))
    assert distinct == 7570
    cp = tmp_path / "tally.ndjson"
    for _ in range(2):  # fresh, then resumed from every record
        calls.clear()
        latin.orbit_tally(3, 6, checkpoint_path=str(cp))
        assert len(calls) == len(set(calls)) == distinct


@pytest.mark.parametrize(
    "i,m", [(1, 4), (2, 4), (3, 4), (2, 5), (3, 5), (4, 5), (2, 6)]
)
def test_relabelled_tally_matches_signed_tally(i, m):
    assert relabelled_tally(i, m) == signed_tally(i, m).counts


def test_relabelled_tally_needs_its_parity_flip(monkeypatch):
    # With no sign flip under relabelling the reference disagrees, so it
    # checks the fold's swaps and not only its orbits.
    expected = signed_tally(2, 4).counts
    monkeypatch.setattr(latin, "_inversion_parity", lambda _seq: 0)
    assert relabelled_tally(2, 4) != expected


@pytest.mark.skipif(
    os.environ.get("DETORBIT_STRETCH") != "1",
    reason="(3,6) relabelled tally (about 11 s on 2 vCPUs); set DETORBIT_STRETCH=1",
)
def test_relabelled_tally_at_3_6():
    counts = signed_tally(3, 6).counts
    assert len(counts) == 297200
    assert relabelled_tally(3, 6) == counts


@pytest.mark.skipif(
    os.environ.get("DETORBIT_STRETCH") != "1",
    reason="(3,7) orbit tally (about 3 s on 2 vCPUs); set DETORBIT_STRETCH=1",
)
def test_orbit_tally_at_3_7():
    # 1,854 blocks hold 1,073,760 block patterns but 357,435 distinct ones,
    # each canonicalised once.  The total is A000186(7), the number of
    # 3 x 7 Latin rectangles.
    tally = latin.orbit_tally(3, 7)
    orbits = tally.orbits
    assert len(orbits) == 16700
    assert tally.total() == 5411750400
    text = json.dumps(sorted((list(k), list(v)) for k, v in orbits.items()))
    digest = "ed40de4ebc3ff6ed77948a5daf1c7b632d5e800ddc8d1be352f04af6343c37e7"
    assert hashlib.sha256(text.encode()).hexdigest() == digest
