"""Latin rectangle enumeration, signs, tallies and structural operations."""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
from math import prod
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
    reference_fold,
    reference_transpose,
    run_fresh,
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
    # row DFS carries from leaf to leaf.
    leaves = []
    latin._run_rows(
        3, 4, (), lambda rows, _masks, parity: leaves.append((tuple(rows), parity))
    )
    assert len(leaves) == 576
    for rect, parity in leaves:
        signs = [column_sign(col) for col in zip(*rect)]
        assert rect_sign(rect) == prod(signs) == (-1) ** parity


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
    keys = latin_rectangles(2, 3)  # each checked to be Latin as it is visited
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


@pytest.mark.parametrize(
    "prefix",
    [
        ((0, 1, 3),),  # symbol 3 is past m = 3 (0-based)
        ((0, 1, -1),),
        ((0, 1, 2), (1, 0, 2)),  # symbol 2 twice in column 2
        ((0, 1, 2), (0, 2, 1)),  # symbol 0 twice in column 0
    ],
    ids=["symbol-past-m", "negative-symbol", "clash-last-column", "clash-first-column"],
)
def test_run_rows_rejects_invalid_prefix_rows(prefix):
    with pytest.raises(ValueError, match="invalid prefix rows"):
        latin._run_rows(3, 3, prefix, _no_leaf)


def test_signed_tally_small_cases():
    assert signed_tally(2, 2).counts == {((1, 2), (1, 2)): (0, 2)}
    assert signed_tally(1, 2).counts == {
        ((1,), (2,)): (1, 0),
        ((2,), (1,)): (1, 0),
    }


def test_single_row_tallies():
    for m in (1, 2, 3, 4, 5):
        tally = signed_tally(1, m)
        assert len(tally.counts) == _factorial(m)
        assert all(pn == (1, 0) for pn in tally.counts.values())
        assert sum((p - n) ** 2 for p, n in tally.counts.values()) == _factorial(m)


def _factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


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
    # m = 7 would keep ~3.4e7 squares on the rows route and ~2.4e10 A_7
    # orbits on the columns route; m = 8 is beyond the table of counts.
    for route, visits in (
        (alon_tarsi_difference, 33884160),
        (column_order_difference, 24396595200),
    ):
        with pytest.raises(BudgetExceeded, match=str(visits)):
            route(7)
        with pytest.raises(BudgetExceeded, match="huge"):
            route(8)


def test_first_column_reduction_matches_full_enumeration():
    # At even m both routes keep the reduced squares (first row and first
    # column 1..m) and weight each by m! * (m-1)!.
    for m in (2, 4):
        squares = latin_rectangles(m, m)
        identity = list(range(m))
        fixed = [sq for sq in squares if [row[0] for row in sq] == identity]
        reduced = [sq for sq in fixed if list(sq[0]) == identity]
        full = sum(map(rect_sign, squares))
        assert _factorial(m) * sum(map(rect_sign, fixed)) == full
        weight = _factorial(m) * _factorial(m - 1)
        assert weight * sum(map(rect_sign, reduced)) == full
        assert alon_tarsi_difference(m) == full
        assert column_order_difference(m) == full


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_reduced_columns_route_matches_unreduced_oracle(m):
    ((plus, minus),) = column_order_tally(m, m).counts.values()
    oracle = plus - minus
    assert oracle == column_order_difference(m)
    assert oracle == alon_tarsi_difference(m)
    if m == 5:  # 161,280 squares / |A_5|, as on the rows route
        quotient = latin._row_quotient(5, 5)
        assert latin._run_columns(5, 5, _no_leaf, quotient) == 2688


def test_parallel_tally_matches_serial(monkeypatch):
    # A run this small never starts workers on its own.
    monkeypatch.setattr(latin, "_POOL_BREAK_EVEN", 0)
    serial = signed_tally(3, 4)
    parallel = latin.orbit_tally(3, 4, processes=2).expand()
    assert serial.counts == parallel.counts


def test_checkpoint_resume(tmp_path):
    cp = str(tmp_path / "tally.ndjson")
    full = latin.orbit_tally(3, 4, checkpoint_path=cp).expand()
    lines = open(cp).read().strip().splitlines()
    assert lines
    rec = json.loads(lines[0])
    assert set(rec) >= {"prefix", "plus", "minus"}
    # Drop half of the completed blocks and resume.
    with open(cp, "w") as fh:
        fh.write("\n".join(lines[: len(lines) // 2]) + "\n")
    resumed = latin.orbit_tally(3, 4, checkpoint_path=cp).expand()
    assert resumed.counts == full.counts


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


def test_checkpoint_ignores_foreign_configurations(tmp_path):
    cp = str(tmp_path / "mixed.ndjson")
    at3 = alon_tarsi_difference(3, checkpoint_path=cp)
    # A (3,4) tally resumed against the (3,3) file must ignore every record.
    tally = latin.orbit_tally(3, 4, checkpoint_path=cp).expand()
    assert tally.counts == signed_tally(3, 4).counts
    # The full-square run still resumes correctly from its own records.
    assert alon_tarsi_difference(3, checkpoint_path=cp) == at3
    # A second run of one configuration resumes every block of the first.
    cp2 = str(tmp_path / "square.ndjson")
    first = alon_tarsi_difference(4, checkpoint_path=cp2)
    with open(cp2) as fh:
        written = fh.read()
    assert alon_tarsi_difference(4, checkpoint_path=cp2) == first == 576
    with open(cp2) as fh:
        assert fh.read() == written


def test_even_checkpoint_ignores_records_of_the_row_only_quotient(tmp_path):
    # Before the symbol quotient, even-m squares were checkpointed under the
    # row group alone ("S4") with counts of one square per row orbit.  Those
    # records must not be merged into the reduced route's ("S4xS3").
    cp = str(tmp_path / "square.ndjson")
    allowed = [15] * 4
    quotient = latin._row_quotient(4, 4, symbols=True)
    assert quotient.group == "S4xS3" and quotient.order == 24 * 6
    old = {"i": 4, "m": 4, "allowed": allowed, "group": "S4"}
    for prefix in latin._list_prefixes(4, 4):
        line = latin._record_line(prefix, {(15,) * 4: (999, 0)}, old)
        latin.write_checkpoint_record(cp, line)
    with open(cp) as fh:
        stale = fh.read()
    assert alon_tarsi_difference(4, checkpoint_path=cp) == 576
    with open(cp) as fh:
        written = fh.read()
    assert written.startswith(stale) and len(written) > len(stale)
    recs = [json.loads(line) for line in written[len(stale):].splitlines()]
    assert {r["group"] for r in recs} == {"S4xS3"}
    assert sum(int(r["plus"]) - int(r["minus"]) for r in recs) == 576
    # A rerun resumes every block from its own records and writes nothing.
    assert alon_tarsi_difference(4, checkpoint_path=cp) == 576
    with open(cp) as fh:
        assert fh.read() == written


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


def test_totals_only_square_records_are_ignored(tmp_path):
    # Signed square counts once wrote records with the totals alone, under
    # the same configuration.  Such records, with bogus counts, are skipped.
    cp = tmp_path / "square.ndjson"
    allowed = [15] * 4
    config = {"i": 4, "m": 4, "allowed": allowed, "group": "S4xS3"}
    prefixes = latin._list_prefixes(4, 4)
    stale = ""
    for prefix in prefixes:
        rec = {"prefix": [[s + 1 for s in row] for row in prefix], **config}
        stale += json.dumps({**rec, "plus": "999", "minus": "0"}, sort_keys=True) + "\n"
    cp.write_text(stale)
    assert latin.load_checkpoint(str(cp), config) == {}
    assert alon_tarsi_difference(4, checkpoint_path=str(cp)) == 576
    written = cp.read_text()
    assert written.startswith(stale)
    recs = [json.loads(line) for line in written[len(stale):].splitlines()]
    assert len(recs) == len(prefixes) == 3
    assert all("patterns" in r and r["group"] == "S4xS3" for r in recs)


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
    "i,m,square,blocks",
    [
        (3, 5, False, 72),
        (5, 5, False, 24),
        (5, 5, True, 24),
        (3, 4, False, 12),
        (3, 6, False, 480),
        (2, 6, False, 600),
        (6, 6, True, 53),
        (4, 4, True, 3),
    ],
)
def test_prefix_blocks_partition_the_kept_rectangles(i, m, square, blocks):
    # Cut at the first row the quotient leaves free (row 0, or row 1 when
    # row 0 is fixed to the identity), the prefixes of the row quotient or
    # the square quotient partition its kept rectangles.  These are the
    # blocks of the records that earlier runs wrote; at even m the square
    # quotient's are the blocks of the orbit tally.
    quotient = latin._square_quotient(m) if square else latin._row_quotient(i, m)
    depth = 2 if quotient.symbols else 1
    prefixes = []
    latin._run_rows(
        depth, m, (), lambda rows, _c, _p: prefixes.append(tuple(rows)),
        quotient,
    )
    assert len(prefixes) == blocks
    if quotient == latin._row_quotient(i, m, symbols=True):
        assert prefixes == latin._list_prefixes(i, m)
    if m <= 5:  # every kept rectangle lies in exactly one block
        assert sum(
            latin._run_rows(i, m, p, _no_leaf, quotient) for p in prefixes
        ) == latin._run_rows(i, m, (), _no_leaf, quotient)


@pytest.mark.parametrize(
    "i,m,blocks",
    [(1, 4, 1), (2, 6, 1), (3, 4, 6), (3, 5, 44), (5, 5, 11), (3, 6, 212), (4, 4, 3)],
)
def test_orbit_tally_blocks_partition_the_first_row_fixed_rectangles(i, m, blocks):
    # Blocks share the identity row and the second row; with i <= 2 the
    # identity row alone, so the run is one block.
    quotient = latin._row_quotient(i, m, symbols=True)
    prefixes = latin._list_prefixes(i, m)
    assert len(prefixes) == blocks
    assert {len(p) for p in prefixes} == {min(max(i - 1, 1), 2)}
    assert sum(
        latin._run_rows(i, m, p, _no_leaf, quotient) for p in prefixes
    ) == latin._run_rows(i, m, (), _no_leaf, quotient)


def test_tally_ignores_records_of_the_two_row_partition(tmp_path):
    # Blocks of the row quotient were once cut after two rows.  Such
    # records, with bogus counts, name the row group "A3", not the symbol
    # quotient's "S5xA2", and must not be merged.
    cp = str(tmp_path / "tally.ndjson")
    allowed = [31] * 5
    quotient = latin._row_quotient(3, 5)
    config = {"i": 3, "m": 5, "allowed": allowed, "group": "A3"}
    old = []
    latin._run_rows(
        2, 5, (), lambda rows, _c, _p: old.append(tuple(rows)), quotient
    )
    assert len(old) == 2376
    for prefix in old:
        line = latin._record_line(prefix, {(7,) * 5: (999, 0)}, config)
        latin.write_checkpoint_record(cp, line)
    with open(cp) as fh:
        stale = fh.read()
    fresh = signed_tally(3, 5).counts
    assert latin.orbit_tally(3, 5, checkpoint_path=cp).expand().counts == fresh
    with open(cp) as fh:
        written = fh.read()
    assert written.startswith(stale)
    recs = [json.loads(line) for line in written[len(stale):].splitlines()]
    assert len(recs) == 44 and {len(r["prefix"]) for r in recs} == {2}
    # A rerun resumes every block from its own records and writes nothing.
    assert latin.orbit_tally(3, 5, checkpoint_path=cp).expand().counts == fresh
    with open(cp) as fh:
        assert fh.read() == written


def test_tally_ignores_records_of_the_row_quotient_blocks(tmp_path):
    # Before the symbol quotient, a (3,5) tally had 72 blocks: one-row
    # prefixes under the row group "A3".  Those records, with bogus counts,
    # must not be merged: not under their own group, and not as prefixes
    # outside the current partition under the current group either.  Under
    # the current group a record must be well formed, or it is bad input.
    cp = str(tmp_path / "tally.ndjson")
    allowed = [31] * 5
    old = []
    latin._run_rows(
        1, 5, (), lambda rows, _c, _p: old.append(tuple(rows)),
        latin._row_quotient(3, 5),
    )
    assert len(old) == 72
    config = {"i": 3, "m": 5, "allowed": allowed, "group": "S5xA2"}
    order = latin._row_quotient(3, 5, symbols=True).order
    bogus = latin._record_line(old[0], {(7,) * 5: (999, 0)}, config)
    (tmp_path / "bogus.ndjson").write_text(bogus)
    with pytest.raises(ValueError):
        latin.load_checkpoint(str(tmp_path / "bogus.ndjson"), config)
    a3 = {**config, "group": "A3"}
    for prefix in old:
        line = latin._record_line(prefix, {(7,) * 5: (999, 0)}, a3)
        latin.write_checkpoint_record(cp, line)
    for prefix in old:
        # A valid pattern of the prefix row: its three cyclic shifts.
        (row,) = prefix
        masks = tuple(sum(1 << row[(q + k) % 5] for k in range(3)) for q in range(5))
        line = latin._record_line(prefix, {masks: (999 * order, 0)}, config)
        latin.write_checkpoint_record(cp, line)
    with open(cp) as fh:
        stale = fh.read()
    fresh = signed_tally(3, 5)
    resumed = latin.orbit_tally(3, 5, checkpoint_path=cp).expand()
    assert resumed.counts == fresh.counts
    with open(cp) as fh:
        written = fh.read()
    assert written.startswith(stale)
    recs = [json.loads(line) for line in written[len(stale):].splitlines()]
    assert len(recs) == 44 and {r["group"] for r in recs} == {"S5xA2"}


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


def test_checkpoint_records_without_full_configuration_are_ignored(tmp_path):
    # The earlier record format: (i, m, reduced), no allowed masks and no
    # quotient group, with counts over every rectangle of the block.
    cp = tmp_path / "old.ndjson"
    rec = {
        "i": 2,
        "m": 4,
        "reduced": False,
        "prefix": [[1, 2, 3, 4]],
        "plus": "99",
        "minus": "0",
        "patterns": [{"pattern": [[1, 2], [1, 2], [3, 4], [3, 4]], "plus": "99", "minus": "0"}],
    }
    cp.write_text(json.dumps(rec, sort_keys=True) + "\n")
    config = {"i": 2, "m": 4, "allowed": [15] * 4, "group": "S2"}
    assert latin.load_checkpoint(str(cp), config) == {}
    resumed = latin.orbit_tally(2, 4, checkpoint_path=str(cp)).expand()
    assert resumed.counts == signed_tally(2, 4).counts


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


@pytest.mark.parametrize("i,m", [(2, 3), (3, 3), (2, 4), (3, 4), (4, 4), (2, 5)])
def test_quotient_keeps_exactly_one_rectangle_per_row_orbit(i, m):
    from itertools import permutations

    quotient = latin._row_quotient(i, m)
    kept = []
    latin._run_rows(
        i, m, (), lambda rows, _c, _p: kept.append(tuple(rows)),
        quotient,
    )
    group = [
        tau
        for tau in permutations(range(i))
        if m % 2 == 0 or _inversions(tau) % 2 == 0
    ]
    assert len(group) == quotient.order
    orbits = [tuple(rows[t] for t in tau) for rows in kept for tau in group]
    everything = latin_rectangles(i, m)
    assert sorted(orbits) == sorted(everything)  # covers all, each once
    for rows in kept:
        first = [row[0] for row in rows]
        if m % 2 == 0:
            assert first == sorted(first)
        else:  # the i-2 smallest entries come first, in order
            assert first[: max(i - 2, 0)] == sorted(first)[: max(i - 2, 0)]
        for tau in group:
            image = tuple(rows[t] for t in tau)
            assert pattern_of(image) == pattern_of(rows)
            assert rect_sign(image) == rect_sign(rows)


# ---------------------------------------------------------------------------
# Symbol quotient: first row 1..m, rows 2..i up to S_{i-1} (even m) or
# A_{i-1} (odd m), weighted by m! times that group's order.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "i,m", [(1, 3), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4), (2, 5), (3, 5)]
)
def test_symbol_quotient_keeps_exactly_one_rectangle_per_orbit(i, m):
    from itertools import permutations

    quotient = latin._row_quotient(i, m, symbols=True)
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


@pytest.mark.parametrize("m,reduced", [(1, 1), (2, 1), (4, 4), (6, 9408)])
def test_reduced_square_leaf_counts(m, reduced):
    # 9,408 is the number of reduced Latin squares of order 6.
    quotient = latin._square_quotient(m)
    assert latin._run_rows(m, m, (), _no_leaf, quotient) == reduced
    assert latin._run_columns(m, m, _no_leaf, quotient) == reduced


def _inversions(perm) -> int:
    return sum(a > b for k, a in enumerate(perm) for b in perm[k + 1:])


def test_worker_count_is_capped(monkeypatch):
    sizes = []

    class FakePool:
        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    # latin imports Pool only when a run hands blocks to workers: patch it
    # where it is read, and hand them over from the first block.  The fake
    # runs the workers' initializer here, so the memo it sets is restored.
    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(latin, "_POOL_BREAK_EVEN", 0)
    monkeypatch.setattr(latin, "_worker_memo", None)
    # The host has 64 CPUs, but this process may run on 3 of them.
    monkeypatch.setattr(latin.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(
        latin.os, "sched_getaffinity", lambda _pid: {0, 1, 2}, raising=False
    )
    expected = column_order_tally(3, 4).counts
    # (3,4) has 6 prefix blocks: capped by the usable CPUs, then by the blocks.
    assert latin.orbit_tally(3, 4, processes=1000).expand().counts == expected
    monkeypatch.setattr(latin.os, "sched_getaffinity", lambda _pid: set(range(64)))
    assert latin.orbit_tally(3, 4, processes=1000).expand().counts == expected
    assert latin.orbit_tally(3, 4, processes=4).expand().counts == expected
    assert sizes == [3, 6, 4]
    # Without an affinity set, the host's CPU count caps the pool.
    monkeypatch.delattr(latin.os, "sched_getaffinity")
    monkeypatch.setattr(latin.os, "cpu_count", lambda: 5)
    assert latin.orbit_tally(3, 4, processes=1000).expand().counts == expected
    monkeypatch.setattr(latin.os, "cpu_count", lambda: None)
    assert latin.orbit_tally(3, 4, processes=4).expand().counts == expected  # serial
    assert sizes == [3, 6, 4, 5]


def test_tally_does_not_depend_on_block_order(monkeypatch):
    sizes = []

    class ReversingPool:
        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, jobs, chunksize=1):
            return reversed([fn(job) for job in jobs])

    monkeypatch.setattr(multiprocessing, "Pool", ReversingPool)
    monkeypatch.setattr(latin, "_POOL_BREAK_EVEN", 0)
    monkeypatch.setattr(latin, "_worker_memo", None)
    monkeypatch.setattr(latin, "_usable_cpus", lambda: 2)
    serial = signed_tally(3, 4)
    reversed_blocks = latin.orbit_tally(3, 4, processes=2).expand()
    assert reversed_blocks.counts == serial.counts
    assert sizes == [2]


def _json_reference(tally, **extra) -> str:
    return json.dumps({**tally_json_dict(tally), **extra}, indent=2, sort_keys=True) + "\n"


def _json_text(i: int, m: int, **extra) -> str:
    pieces: list[str] = []
    latin.orbit_tally(i, m).write_report(pieces.append, **extra)
    return "".join(pieces)


def test_tally_json_text_matches_indent_encoder():
    for i, m in [(1, 1), (2, 3), (2, 4), (3, 4)]:
        tally = signed_tally(i, m)
        assert _json_text(i, m) == _json_reference(tally)
        extra = {"a": {"z": [1, {"y": None}], "b": []}, "seed": -3, "total": "7"}
        assert _json_text(i, m, **extra) == _json_reference(tally, **extra)


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


def _first_row_fixed_keys(i: int, m: int) -> list[tuple[int, ...]]:
    """The column masks of every first-row-fixed (i, m) pattern, sorted."""
    keys: set = set()
    latin._run_rows(
        i, m, (), lambda _rows, masks, _p: keys.add(tuple(masks)),
        latin._row_quotient(i, m, symbols=True),
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
    if m <= 5:
        assert tally.expand().counts == column_order_tally(i, m).counts


def test_canonical_forms_are_memoised_per_run(monkeypatch, tmp_path):
    # One _canonical call per distinct pattern of the run, resumed records
    # included, and no memo left behind.
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
    assert latin._worker_memo is None


def test_handoff_to_workers_matches_serial(monkeypatch):
    # Blocks go to a real pool of two, on any host, once the leaves left
    # are estimated at 1,000: after the first of the 212 blocks.
    monkeypatch.setattr(latin, "_POOL_BREAK_EVEN", 1000)
    monkeypatch.setattr(latin, "_usable_cpus", lambda: 2)
    serial = latin.orbit_tally(3, 6)
    assert latin.orbit_tally(3, 6, processes=2).orbits == serial.orbits
    assert latin._worker_memo is None


def test_pool_starts_once_leaves_left_pass_break_even(monkeypatch):
    handed = []

    class RecordingPool:
        def __init__(self, processes, initializer, initargs):
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, jobs, chunksize=1):
            handed.append(sum(len(job[2]) for job in jobs))
            return map(fn, jobs)

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(latin, "_worker_memo", None)
    monkeypatch.setattr(latin, "_usable_cpus", lambda: 2)
    # Fewer leaves in all than the break-even: never estimated past it.
    for i, m in [(3, 5), (5, 5), (3, 6), (6, 6)]:
        assert latin.orbit_tally(i, m, processes=2).orbits == reference_fold(i, m)
    assert handed == []
    # 47,040 leaves in 106 blocks: the first block's 896 leaves give an
    # estimate of 94,080 left, and the other 105 blocks go to the pool.
    first = latin._list_prefixes(5, 6)[:1]
    assert latin._block_job((5, 6, first, None), {}, {})[0] == 896
    serial = latin.orbit_tally(5, 6)
    assert latin.orbit_tally(5, 6, processes=2).orbits == serial.orbits
    assert handed == [105]


def test_resumed_run_loads_no_multiprocessing(tmp_path):
    cp = str(tmp_path / "tally.ndjson")
    argv = ["--threads", "2", "--checkpoint", cp, "tally", "3", "5"]
    probe = (
        "import io, sys\n"
        "from contextlib import redirect_stdout\n"
        "from detorbit import cli\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(sys.argv[1:]) == 0\n"
        "print(any(n.split('.')[0] == 'multiprocessing' for n in sys.modules))\n"
    )
    assert run_fresh(probe, *argv).split() == ["False"]  # fresh, below the bar
    written = open(cp).read()
    assert len(written.splitlines()) == 44
    assert run_fresh(probe, *argv).split() == ["False"]  # resumed
    assert open(cp).read() == written


@pytest.mark.skipif(
    os.environ.get("DETORBIT_STRETCH") != "1",
    reason="row-quotient (3,6) tally (about 13 s on 2 vCPUs); set DETORBIT_STRETCH=1",
)
def test_orbit_route_at_3_6_matches_row_quotient_route():
    # The row-only quotient: one rectangle per S_3 row orbit, no symbol
    # relabelling, every pattern counted leaf by leaf.
    quotient = latin._row_quotient(3, 6)
    bucket: dict = {}
    latin._run_rows(3, 6, (), latin._tally_leaf_factory(bucket), quotient)
    w = quotient.order
    rows = {
        tuple(map(latin._subset_of_mask, key)): (p * w, n * w)
        for key, (p, n) in bucket.items()
    }
    assert signed_tally(3, 6).counts == rows
