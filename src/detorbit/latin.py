"""Exact signed enumeration of Latin rectangles.

A Latin (i, m)-rectangle has i rows, each a permutation of {1..m}, with
pairwise distinct entries in every column.  Each column carries the sign of
the product of pairwise differences read top to bottom; the rectangle sign
eps_c is the product of the column signs.  The per-pattern tallies of
column-even / column-odd rectangles computed here feed the tensor pairing
identities in :mod:`detorbit.tensors`, and the single-pattern signed count at
i = m is the quantity of the Alon-Tarsi / column Latin square conjecture.

Every count is read from one row-major counter, the orbit form
(:func:`orbit_tally`), over one quotient (:func:`_row_quotient`): symbol
relabellings carry a pattern's counts to its whole S_m-orbit, so only the
rectangles whose first row is 1..m are visited, with rows 2..i up to the
row permutations that fix eps_c.  :class:`OrbitTally` streams the
per-pattern report in sorted order, expands it (:func:`signed_tally`) or
reads one pattern (``at``), at i = m the signed square count
(:func:`alon_tarsi_difference`).  The
column-major DFS is their oracle, unreduced per pattern
(:func:`column_order_tally`) and, at i = m, over the same symbol and row
quotient as the orbit tally (:func:`column_order_difference`): the reduced
squares at even m, and at odd m those together with their images under a
swap of the last two rows.

Symbols are stored 0-based (bitmask friendly) and rendered 1-based in all
public input and output.
"""

from __future__ import annotations

import json
import os
from array import array
from functools import cache
from itertools import chain, combinations, groupby, islice, repeat
from math import comb, factorial, prod
from operator import getitem, itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import BudgetExceeded

__all__ = [
    "Pattern",
    "SignedTally",
    "OrbitTally",
    "column_sign",
    "is_valid_pattern",
    "signed_tally",
    "orbit_tally",
    "column_order_tally",
    "alon_tarsi_difference",
    "column_order_difference",
    "write_checkpoint_record",
    "load_checkpoint",
]

# Ordered m-tuple of sorted column content sets, 1-based symbols.
Pattern = tuple[tuple[int, ...], ...]


def column_sign(column: Sequence[int]) -> int:
    """Sign of prod_{p<p'} (a_{p'} - a_p) over a distinct-entry column (+1
    for a single entry); the sign of a permutation in one-line notation is
    its column sign.  :func:`_inversion_parity` is the package's one
    inversion parity kernel."""
    if len(set(column)) != len(column):
        raise ValueError("not a valid Latin column")
    return -1 if _inversion_parity(column) else 1


def _inversion_parity(seq: Sequence[int]) -> int:
    """1 if ``seq`` has an odd number of pairs out of order, else 0."""
    return sum(a > b for a, b in combinations(seq, 2)) & 1


def is_valid_pattern(pattern: Pattern, i: int, m: int) -> bool:
    """Each subset has size i and every symbol of 1..m occurs in exactly i
    subsets.  A pattern is a list or tuple of m lists or tuples of ints."""
    if not isinstance(pattern, (list, tuple)) or len(pattern) != m:
        return False
    occur = [0] * m
    for subset in pattern:
        if not isinstance(subset, (list, tuple)) or len(subset) != i:
            return False
        for s in subset:
            if type(s) is not int or not 1 <= s <= m:
                return False
            occur[s - 1] += 1
        if len(set(subset)) != i:
            return False
    return all(c == i for c in occur)


def _mask_of(subset: Iterable[int]) -> int:
    mask = 0
    for s in subset:
        mask |= 1 << (s - 1)
    return mask


@cache
def _subset_of_mask(mask: int) -> tuple[int, ...]:
    """Sorted 1-based subset of a column mask (cached: at most 2^m masks per m)."""
    return tuple(s + 1 for s in range(mask.bit_length()) if mask >> s & 1)


# ---------------------------------------------------------------------------
# Enumeration cores.  Row order: fill row by row, each row left to right,
# symbols ascending, so rectangles appear in row-major lexicographic order.
# Column order: independent cross-check filling column by column.  Both track
# the sign parity incrementally: placing s under a column with used-mask u
# adds popcount(u >> (s+1)) inversions.
# ---------------------------------------------------------------------------


# on_leaf(rows, col_masks, parity) of both DFS kernels; the column order
# builds no rows and passes None.
_Leaf = Callable[[Optional[list[tuple[int, ...]]], list[int], int], None]


class _RowQuotient(NamedTuple):
    """One Latin rectangle per orbit of the symbol relabellings and the row
    permutations that fix eps_c.

    Relabelling symbols by S_m acts freely, so row 0 is fixed to the
    identity.  Permuting rows 1..i-1 by tau keeps the pattern and multiplies
    eps_c by sgn(tau)^m, so those permutations form G = S_{i-1} for even m
    and G = A_{i-1} for odd m.  Rows have distinct first entries, so G acts
    freely and each orbit has exactly one rectangle with first row 1..m
    whose first column c satisfies

    * even m: c_0 < c_1 < ... < c_{i-1};
    * odd m:  c_0 < ... < c_{i-3} < min(c_{i-2}, c_{i-1}),

    with c_0 = 0 below every other entry.  As a DFS bound, row p's first
    entry must exceed that of row ``ref[p]`` (-1: no bound) and be at most
    ``cap[p]``, which leaves room for the rows that must exceed it.

    Each kept rectangle stands for |G| first-row-fixed rectangles of its
    pattern and sign, and for ``order`` = m! * |G| rectangles in all; the
    caller must sum a quantity that relabelling leaves unchanged, or fold
    the relabellings (:func:`_fold_orbits`).  One exception: at i = m,
    :func:`column_order_difference` sums eps_c, which an odd relabelling
    flips at odd m, and its docstring shows why the sum is still exact.
    """

    group: str  # "S4xS1", "S5xA4": as written into checkpoint records
    order: int
    ref: tuple[int, ...]
    cap: tuple[int, ...]


def _row_quotient(i: int, m: int) -> _RowQuotient:
    """The symbol and eps_c-preserving row quotient of the Latin
    (i, m)-rectangles."""
    k = i - 1  # rows the group permutes
    if m % 2 == 0:
        name, order = "S", factorial(k)
        ref = [p - 1 for p in range(i)]
    else:
        name, order = "A", max(1, factorial(k) // 2)
        ref = [max(min(p, i - 2) - 1, -1) for p in range(i)]
    above = [0] * i  # rows whose first entry must exceed row p's
    for p in reversed(range(i)):
        if ref[p] >= 0:
            above[ref[p]] += 1 + above[p]
    group, order = f"S{m}x{name}{k}", factorial(m) * order
    return _RowQuotient(group, order, tuple(ref), tuple(m - 1 - a for a in above))


def _run_rows(
    i: int,
    m: int,
    prefix: Sequence[Sequence[int]],
    on_leaf: _Leaf,
    quotient: Optional[_RowQuotient] = None,
) -> int:
    """DFS over rectangles extending ``prefix`` (0-based rows).

    ``on_leaf(rows, col_masks, parity)`` sees transient state; parity is the
    inversion parity of eps_c.  Returns the number of leaves visited.
    With ``quotient`` (built for i or more rows) only the rectangles it keeps
    are visited, one per orbit, so row 0 is the identity: the DFS starts
    from it when ``prefix`` is empty.  Each leaf then stands for
    ``quotient.order`` rectangles, which the caller weights.  Every sign is
    still computed leaf by leaf.  A ``prefix`` symbol outside 0..m-1 or
    repeated in its column is a ``ValueError``.
    """
    if quotient is not None and not prefix:
        prefix = (tuple(range(m)),)
    full = (1 << m) - 1
    col_mask = [0] * m
    parity0 = 0
    rows: list[tuple[int, ...]] = []
    for p, row in enumerate(prefix):
        for q, s in enumerate(row):
            if not 0 <= s < m or col_mask[q] >> s & 1:
                raise ValueError("invalid prefix rows")
            parity0 ^= (col_mask[q] >> (s + 1)).bit_count() & 1
            col_mask[q] |= 1 << s
        rows.append(tuple(row))
    count = 0
    bufs = [[0] * m for _ in range(i)]

    def fill(p: int, q: int, row_mask: int, parity: int) -> None:
        nonlocal count
        if p == i:
            count += 1
            on_leaf(rows, col_mask, parity)
            return
        if q == m:
            rows.append(tuple(bufs[p]))
            fill(p + 1, 0, 0, parity)
            rows.pop()
            return
        avail = full & ~(col_mask[q] | row_mask)
        if q == 0 and quotient is not None:
            r = quotient.ref[p]
            low = rows[r][0] + 1 if r >= 0 else 0
            avail &= ((2 << quotient.cap[p]) - 1) >> low << low
        while avail:
            bit = avail & -avail
            avail ^= bit
            s = bit.bit_length() - 1
            inv = (col_mask[q] >> (s + 1)).bit_count() & 1
            bufs[p][q] = s
            col_mask[q] |= bit
            fill(p, q + 1, row_mask | bit, parity ^ inv)
            col_mask[q] ^= bit

    fill(len(prefix), 0, 0, parity0)
    return count


def _run_columns(
    i: int,
    m: int,
    on_leaf: _Leaf,
    quotient: Optional[_RowQuotient] = None,
) -> int:
    """Column-by-column DFS; ``on_leaf(None, col_masks, parity)`` per rectangle.

    ``quotient`` keeps one rectangle per orbit, as in :func:`_run_rows`:
    row 0 is the identity, so row 0 of column q is q, placed before each
    column's DFS.
    """
    full = (1 << m) - 1
    col_masks = [0] * m
    row_mask = [0] * i
    count = 0
    first = 0 if quotient is None else 1  # the rows placed before the DFS

    def fill(q: int, p: int, cmask: int, parity: int) -> None:
        nonlocal count
        if q == m:
            count += 1
            on_leaf(None, col_masks, parity)
            return
        if p == i:
            col_masks[q] = cmask
            fill(q + 1, first, first << (q + 1), parity)
            col_masks[q] = 0
            return
        avail = full & ~(cmask | row_mask[p])
        if q == 0 and quotient is not None:
            # In column 0 a filled row's mask holds just its first entry.
            r = quotient.ref[p]
            low = row_mask[r].bit_length() if r >= 0 else 0
            avail &= ((2 << quotient.cap[p]) - 1) >> low << low
        while avail:
            bit = avail & -avail
            avail ^= bit
            s = bit.bit_length() - 1
            inv = (cmask >> (s + 1)).bit_count() & 1
            row_mask[p] |= bit
            fill(q, p + 1, cmask | bit, parity ^ inv)
            row_mask[p] ^= bit

    fill(0, first, first, 0)
    return count


def _check_dims(i: int, m: int) -> None:
    if m < 1 or i < 1:
        raise ValueError("dimensions must be positive")
    if i > m:
        raise ValueError("too many rows")
    if m > 64:
        raise ValueError("alphabet larger than 64 symbols is unsupported")


# ---------------------------------------------------------------------------
# Signed tallies.
# ---------------------------------------------------------------------------


class SignedTally(NamedTuple):
    """Per-pattern counts of column-even (plus) and column-odd (minus) rectangles."""

    i: int
    m: int
    counts: dict[Pattern, tuple[int, int]]

    def total(self) -> int:
        return sum(p + n for p, n in self.counts.values())


# Records per write of a streamed report: about 0.2 MB of (3,6) JSON.  The
# chunk's text, held in a few copies while it is joined and written, and the
# one bucket of entries held (`OrbitTally._entries`) set the peak: 512
# records keep the growth of `tally 2 6` 0.5 MB under 1,024, at no cost in
# time.
_REPORT_CHUNK = 512


def _tally_leaf_factory(bucket: dict):
    def leaf(_rows, col_masks, parity):
        key = tuple(col_masks)
        cur = bucket.get(key)
        if cur is None:
            cur = [0, 0]
            bucket[key] = cur
        cur[parity] += 1

    return leaf


def _list_prefixes(i: int, m: int) -> list[tuple[tuple[int, ...], ...]]:
    """The prefix blocks of the rectangles that :func:`_row_quotient` keeps:
    the identity row and the second row, or the identity row alone for
    i <= 2, whose only free row is the last."""
    out: list[tuple[tuple[int, ...], ...]] = []
    _run_rows(
        max(min(i - 1, 2), 1),
        m,
        (),
        lambda rows, _m, _p: out.append(tuple(rows)),
        _row_quotient(i, m),
    )
    return out


class OrbitTally(NamedTuple):
    """The signed tally at one canonical pattern per symbol-relabelling orbit.

    Relabelling symbols by pi maps the rectangles of pattern (S_1..S_m)
    one to one onto those of (pi S_1..pi S_m) and multiplies each eps_c by
    prod_c sgn(pi|S_c), the inversion parity of pi on each column.  So the
    (plus, minus) of a pattern fixes those of its whole S_m-orbit, swapped
    where that sign is -1.  In the canonical pattern of an orbit the
    symbols' profiles (the mask of the columns holding the symbol) ascend
    with the symbol.  ``orbits`` maps those canonical profiles, as
    :func:`_fold_orbits` keys them, to (orbit size, plus, minus).  plus +
    minus and (plus - minus)^2 are the same at every pattern of an orbit, so
    their sums below weight each orbit by its size; plus - minus changes
    sign within an orbit, so the signed sum is left to the expanded tally.
    """

    i: int
    m: int
    orbits: dict[tuple[int, ...], tuple[int, int, int]]

    def total(self) -> int:
        return sum(size * (p + n) for size, p, n in self.orbits.values())

    def imbalance_square_sum(self) -> int:
        """sum over patterns of (plus - minus)^2."""
        return sum(size * (p - n) ** 2 for size, p, n in self.orbits.values())

    def at(self, pattern: Pattern) -> tuple[int, int]:
        """(plus, minus) of one valid pattern: its orbit's counts, swapped
        when the relabelling that sorts it to the canonical pattern flips
        eps_c (:func:`_canonical`)."""
        i, m = self.i, self.m
        if not is_valid_pattern(pattern, i, m):
            raise ValueError("invalid pattern")
        canon, _stab, swap = _canonical([_mask_of(sub) for sub in pattern], i, m)
        _size, p, n = self.orbits[canon]
        return (n, p) if swap else (p, n)

    def _entries(self) -> tuple[list, dict, Iterator[bytes]]:
        """The i-subsets of 1..m in lexicographic order, the (plus, minus)
        of each entry tail, and an iterator over every pattern pi K of each
        orbit K as one ``bytes`` entry, in sorted order.

        An entry holds the ranks of the pattern's m column subsets in that
        list, one byte each, then the tail: big-endian, 2 * (the orbit's
        index in ``orbits``) + 1 if pi flips eps_c.  So the entries sort as
        ``sorted(counts.items())`` of the expanded tally.

        pi runs over S_m by swaps of two adjacent values v, v + 1
        (:func:`_plain_changes`), and ``image`` (subset rank -> rank of its
        image under pi) follows with one ``bytes.translate`` per swap.  Such
        a swap reverses the order of the two symbols that pi sends to v and
        v + 1 and of no other pair, since no third value lies between v and
        v + 1; so the set ``inv`` of pi's inverted symbol pairs, one bit per
        pair, toggles one bit.  pi flips eps_c of K by the product over K's
        columns of sgn(pi) on the column, so by the parity of the inverted
        pairs counted once per column that holds both: the popcount of
        ``inv`` and the pairs that share an odd number of K's columns.

        Relabellings that differ by a swap of two symbols of equal profile
        give the same pattern, so for each orbit only the pi increasing on
        each run of equal profiles in K (adjacent symbols) are taken, a test
        of ``inv`` against those adjacent pairs: each pattern is made once.

        The walk builds no entry.  The orbits are grouped by that tie test
        and by the rank of K's first column, so every entry that one pi
        makes from one group starts with the same byte, the image of that
        rank.  The walk keeps each pi's (image, inv) once, the image as
        C(m, i) bytes of one ``bytearray``, and files one integer code,
        pi's index times the number of groups plus the group's, per pi and
        passing group in the bucket of that first byte.  The iterator then
        builds, sorts and yields one bucket at a time, in rank order, and
        releases it: at most one bucket of entries is held, and their
        concatenation is the sorted list of all entries.  Each call walks
        afresh, so no two callers share an iterator.
        """
        i, m = self.i, self.m
        subsets = _column_subsets(i, m)
        rank = {_mask_of(sub): r for r, sub in enumerate(subsets)}
        swap = []  # per v, the translate table of the relabelling v <-> v + 1
        for v in range(m - 1):
            table = bytearray(_BYTES)
            for mask, r in rank.items():
                if mask >> v & 3 in (1, 2):
                    table[r] = rank[mask ^ 3 << v]
            swap.append(bytes(table))
        pair = [[1 << m * min(a, b) + max(a, b) for b in range(m)] for a in range(m)]
        width = ((2 * len(self.orbits)).bit_length() + 7) // 8
        counts: dict[bytes, tuple[int, int]] = {}
        groups: dict[tuple[int, int], list] = {}  # (ties, first rank) -> orbits
        for k, (key, (_size, p, n)) in enumerate(self.orbits.items()):
            tails = tuple((2 * k + f).to_bytes(width, "big") for f in (0, 1))
            counts[tails[0]], counts[tails[1]] = (p, n), (n, p)
            ties = sum(pair[s][s + 1] for s in range(m - 1) if key[s] == key[s + 1])
            odd = sum(
                pair[a][b]
                for a, b in combinations(range(m), 2)
                if (key[a] & key[b]).bit_count() & 1
            )
            cols = bytes(map(rank.__getitem__, _transpose(key, m)))
            groups.setdefault((ties, cols[0]), []).append((cols, odd, tails))
        by_ties: dict[int, list[tuple[int, int]]] = {}  # ties -> (first, group)
        for g, (ties, first) in enumerate(groups):
            by_ties.setdefault(ties, []).append((first, g))
        members = list(groups.values())
        span, pad = len(subsets), _BYTES[len(subsets) :]

        def relabellings() -> Iterator[tuple[bytes, int]]:
            holder = list(range(m))  # holder[v]: the symbol that pi sends to v
            image, inv = _BYTES[:span], 0  # the identity
            yield image, inv
            for v in _plain_changes(m):
                a, b = holder[v], holder[v + 1]
                holder[v], holder[v + 1] = b, a
                image, inv = image.translate(swap[v]), inv ^ pair[a][b]
                yield image, inv

        # The k-th pi's image is images[k * span : (k + 1) * span].
        images, invs = bytearray(), []
        size = factorial(m) * len(members)
        typecode = "I" if size <= 1 << 8 * array("I").itemsize else "Q"
        buckets = [array(typecode) for _ in subsets]
        for k, (image, inv) in enumerate(relabellings()):
            images += image
            invs.append(inv)
            for ties, firsts in by_ties.items():
                if not inv & ties:
                    for first, g in firsts:
                        buckets[image[first]].append(k * len(members) + g)

        def sorted_bucket(codes: array) -> list[bytes]:
            entries: list[bytes] = []
            for code in codes:
                k, g = divmod(code, len(members))
                table, inv = images[k * span : k * span + span] + pad, invs[k]
                entries += [
                    cols.translate(table) + tails[(odd & inv).bit_count() & 1]
                    for cols, odd, tails in members[g]
                ]
            entries.sort()
            return entries

        def in_rank_order() -> Iterator[list[bytes]]:
            for r in range(span):
                codes, buckets[r] = buckets[r], None
                yield sorted_bucket(codes)

        return subsets, counts, chain.from_iterable(in_rank_order())

    def write_report(
        self, write: Callable[[str], object], fmt: str = "json", **extra
    ) -> None:
        """Stream the report of the expanded tally to ``write``, without
        building it, in chunks of :data:`_REPORT_CHUNK` records taken from
        the iterator of :meth:`_entries`, which holds one bucket of entries
        at a time.

        ``fmt`` "json" writes ``json.dumps(report, indent=2, sort_keys=True)
        + "\\n"`` byte for byte, where ``report`` holds i, m, the fields
        ``extra`` and ``patterns``, without a dict per pattern or the
        pure-Python indent encoder; "csv" writes one line per record under a
        header.  There is at least one record: every (i, m) that
        :func:`_check_dims` accepts has a rectangle.

        Each record is pasted from text rendered ahead, keyed by the bytes
        of its entry (:meth:`_entries`): the head and foot, which hold the
        counts, by the tail; the columns of the pattern's left half once per
        run of sorted entries that share them; those of its right half by
        their ranks, in a dict as large as the distinct right halves.
        """
        i, m = self.i, self.m
        subsets, counts, entries = self._entries()
        if fmt == "csv":
            column = [",".join(map(str, sub)) for sub in subsets]
            colsep, sep = ";", ""
            head = dict.fromkeys(counts, f"{i},{m},")
            foot = {t: f",{p},{n}\n" for t, (p, n) in counts.items()}
            lead, close = "i,m,pattern,plus,minus\n", ""
        else:
            column = [
                "        [\n" + ",\n".join(f"          {s}" for s in sub) + "\n        ]"
                for sub in subsets
            ]
            colsep, sep = ",\n", ",\n"
            head = {
                t: f'    {{\n      "minus": "{n}",\n      "pattern": [\n'
                for t, (_p, n) in counts.items()
            }
            foot = {
                t: f'\n      ],\n      "plus": "{p}"\n    }}'
                for t, (p, _n) in counts.items()
            }
            # At the top level alone a key follows a newline and two spaces.
            report = {"i": i, "m": m, **extra, "patterns": None}
            text = json.dumps(report, indent=2, sort_keys=True)
            before, _, after = text.partition('\n  "patterns": null')
            lead = before + '\n  "patterns": [\n'
            close = "\n  ]" + after + "\n"
        half = m // 2
        left, right, tail = (
            itemgetter(slice(half)), itemgetter(slice(half, m)), itemgetter(slice(m, None))
        )
        right_text = _ColumnText(column, colsep)
        write(lead)
        records: list[str] = []
        while chunk := list(islice(entries, _REPORT_CHUNK)):
            for ranks, run in groupby(chunk, left):
                run = list(run)
                tails = list(map(tail, run))
                records += map("".join, zip(
                    map(head.__getitem__, tails),
                    repeat("".join(column[r] + colsep for r in ranks)),
                    map(right_text.__getitem__, map(right, run)),
                    map(foot.__getitem__, tails),
                ))
            write(sep.join(records))
            records = [""]  # so the next chunk opens with a separator
        write(close)

    def expand(self) -> SignedTally:
        """The per-pattern tally, decoded from the entries of :meth:`_entries`."""
        m = self.m
        subsets, counts, entries = self._entries()
        column = subsets.__getitem__
        patterns = {tuple(map(column, e[:m])): counts[e[m:]] for e in entries}
        return SignedTally(self.i, m, patterns)


# Every byte value in order: a report entry holds each column subset's rank
# in one byte, and relabellings move the ranks by ``bytes.translate`` tables.
_BYTES = bytes(range(256))


def _column_subsets(i: int, m: int) -> list[tuple[int, ...]]:
    """The i-subsets of 1..m in lexicographic order, which a report of
    (i, m) ranks in one byte each (:meth:`OrbitTally._entries`).  Past
    ``len(_BYTES)`` of them the report cannot be rendered, so
    ``ValueError`` before any is built, as the CLI checks before a tally
    starts; never at m <= 8, which has at most 70."""
    _check_dims(i, m)
    if comb(m, i) > len(_BYTES):
        raise ValueError(f"({i},{m}) has more than {len(_BYTES)} column subsets")
    return list(combinations(range(1, m + 1), i))


class _ColumnText(dict):
    """Rank bytes -> the report text of those columns joined by ``sep``,
    rendered at the first lookup."""

    def __init__(self, column: list[str], sep: str) -> None:
        super().__init__()
        self.column, self.sep = column, sep

    def __missing__(self, ranks: bytes) -> str:
        text = self[ranks] = self.sep.join(map(self.column.__getitem__, ranks))
        return text


def _plain_changes(m: int) -> list[int]:
    """The Steinhaus-Johnson-Trotter walk of S_m from the identity: the
    m! - 1 positions v whose entries v and v + 1 are swapped in turn.  The
    largest entry sweeps down across the others and back up, and between
    two sweeps the others take one step of the walk of S_{m-1}: shifted by
    one after a down sweep, which leaves the largest entry first."""
    if m < 2:
        return []
    sweeps = (range(m - 2, -1, -1), range(m - 1))
    walk = list(sweeps[0])
    for k, v in enumerate(_plain_changes(m - 1)):
        walk.append(v + 1 - k % 2)
        walk += sweeps[(k + 1) % 2]
    return walk


def _spread_lanes() -> tuple:
    """Per column c < 8, each byte-wide mask with bit s moved to bit c of
    byte lane s (bit 8 * s + c)."""
    spread = [0]
    for s in range(8):
        spread += [x | 1 << 8 * s for x in spread]
    return tuple(tuple(x << c for x in spread) for c in range(8))


# A constant of 2,048 integers built once at import, the same for every
# run and every m: nothing is added to it later.
_LANES = _spread_lanes()


def _transpose(masks: Sequence[int], m: int) -> list[int]:
    """The m x m bit matrix transposed: bit c of entry s is bit s of entry c.

    It turns column masks into the symbols' profiles (the mask of the
    columns that hold each symbol) and back.  For each 8 x 8 block the
    masks' lanes (:data:`_LANES`) are summed, so symbol s's bits of those
    columns are byte s of the sum; m <= 8 is one block.
    """
    if m <= 8:
        return list(sum(map(getitem, _LANES, masks)).to_bytes(m, "little"))
    profile = [0] * m
    for lo in range(0, m, 8):
        for c0 in range(0, m, 8):
            block = [mask >> lo & 255 for mask in masks[c0 : c0 + 8]]
            raw = sum(map(getitem, _LANES, block)).to_bytes(8, "little")
            for s in range(lo, min(lo + 8, m)):
                profile[s] |= raw[s - lo] << c0
    return profile


def _canonical(masks: Sequence[int], i: int, m: int) -> tuple[tuple, int, bool]:
    """The canonical profiles of the pattern with column ``masks``, the
    order of its stabiliser (prod mult! permutations of symbols of equal
    profile) and whether sigma, which sorts the symbols by profile (ties by
    symbol), flips eps_c; never at odd i with a non-trivial stabiliser,
    where swapping two symbols of equal profile flips eps_c itself."""
    profile = _transpose(masks, m)
    canon = tuple(sorted(profile))
    stab = 1
    if len(set(canon)) < m:
        stab = prod(factorial(len(list(run))) for _, run in groupby(canon))
        if i % 2:
            return canon, stab, False
    # sigma inverts each pair of symbols b < a with profile[b] > profile[a],
    # once in every column that holds both: the parity of the sum of
    # (profile[a] & profile[b]).bit_count() is that of their xor's.
    parity = 0
    for a in range(1, m):
        pa = profile[a]
        for pb in profile[:a]:
            if pb > pa:
                parity ^= pa & pb
    return canon, stab, bool(parity.bit_count() & 1)


def _fold_orbits(i: int, m: int, bucket: dict, memo: dict, orbits: dict) -> None:
    """Add a first-row-fixed bucket (column masks -> counts, weighted by
    m! * |G|) to ``orbits``, the counts at the canonical patterns of its
    S_m-orbits: canonical profiles -> [plus, minus, stab].

    Each rectangle is pi R0 for one first-row-fixed R0 and one pi.  The
    relabellings pi that carry R0's pattern P to its canonical pattern K
    are sigma * stab(P) (:func:`_canonical`): at even i all with sigma's
    sign, at odd i with a non-trivial stab(P) half with each sign.  The
    counts of K are then the bucket's times stab(P) / m!, exact
    for any set of blocks, since each leaf's weight holds m!; with stab(P)
    even at odd i, so is the balanced half.  ``memo`` holds the canonical
    form of every pattern seen so far in the run, and gains the bucket's.
    """
    fact = factorial(m)
    for key, (p, n) in bucket.items():
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = _canonical(key, i, m)
        canon, stab, swap = hit
        p, n = p * stab // fact, n * stab // fact
        if i % 2 and stab > 1:
            p = n = (p + n) // 2
        elif swap:
            p, n = n, p
        cur = orbits.get(canon)
        if cur is None:
            orbits[canon] = [p, n, stab]
        else:
            cur[0] += p
            cur[1] += n


def orbit_tally(i: int, m: int, *, checkpoint_path: Optional[str] = None) -> OrbitTally:
    """The signed tally of all Latin (i, m)-rectangles in orbit form.

    Enumerates the first-row-fixed rectangles, one per eps_c-preserving
    orbit of rows 2..i (:func:`_row_quotient`), by prefix blocks sharing
    their first two rows (:func:`_list_prefixes`), in order.
    The only row-major counter: one pattern's counts (:meth:`OrbitTally.at`)
    cost the whole tally.  Each block is weighted by the quotient order and
    folded to orbits (:func:`_fold_orbits`) through one memo of canonical
    forms, so each distinct pattern is canonicalised once; the memo is
    dropped with the run.

    ``checkpoint_path`` holds one record per finished block.  Records carry
    the full configuration (i, m, column masks, quotient group) and
    weighted per-pattern counts; records of any other configuration, and
    prefixes outside the current partition, are ignored.  A block with a
    record is folded from it; any other block is enumerated and its record
    appended (:func:`write_checkpoint_record`) before it is folded.
    """
    _check_dims(i, m)
    quotient = _row_quotient(i, m)
    w = quotient.order
    # All-ones column masks, kept so that records match old files byte for byte.
    config = {"i": i, "m": m, "allowed": [(1 << m) - 1] * m, "group": quotient.group}
    done = {} if checkpoint_path is None else load_checkpoint(checkpoint_path, config)
    memo: dict = {}
    folded: dict = {}
    for prefix in _list_prefixes(i, m):
        bucket = done.pop(prefix, None)
        if bucket is None:
            bucket = {}
            _run_rows(i, m, prefix, _tally_leaf_factory(bucket), quotient)
            bucket = {key: (p * w, n * w) for key, (p, n) in bucket.items()}
            if checkpoint_path is not None:
                line = _record_line(prefix, bucket, config)
                write_checkpoint_record(checkpoint_path, line)
        _fold_orbits(i, m, bucket, memo, folded)
    fact = factorial(m)
    orbits = {canon: (fact // stab, p, n) for canon, (p, n, stab) in folded.items()}
    return OrbitTally(i, m, orbits)


def signed_tally(i: int, m: int) -> SignedTally:
    """Exact per-pattern (plus, minus) counts over all Latin (i, m)-rectangles:
    :func:`orbit_tally` expanded to every pattern.  For one pattern read
    :meth:`OrbitTally.at` instead; for a checkpoint, expand the
    :func:`orbit_tally` that takes it.  :func:`column_order_tally` is
    the unreduced oracle.
    """
    return orbit_tally(i, m).expand()


def column_order_tally(i: int, m: int) -> SignedTally:
    """Independent column-by-column tally over every rectangle (no quotient);
    the oracle that :func:`signed_tally`, :func:`alon_tarsi_difference` and
    :func:`column_order_difference` must agree with."""
    _check_dims(i, m)
    bucket: dict = {}
    _run_columns(i, m, _tally_leaf_factory(bucket))
    counts = {
        tuple(map(_subset_of_mask, key)): (p, n) for key, (p, n) in bucket.items()
    }
    return SignedTally(i, m, counts)


# Latin square counts by order m (at m = 8, 8! * 7! * 535,281,401,856: Wells
# 1967; McKay and Wanless, Ann. Comb. 2005), and the most squares a signed
# square count may visit.
_SQUARE_COUNTS = {1: 1, 2: 2, 3: 12, 4: 576, 5: 161280, 6: 812851200,
                  7: 61479419904000, 8: 108776032459082956800}
MAX_SQUARE_VISITS = 10**6


def _check_square_visits(m: int, order: int) -> None:
    """Refuse a route that keeps one square per orbit of a group of ``order``
    if that is over :data:`MAX_SQUARE_VISITS` squares or m is past the table."""
    count = _SQUARE_COUNTS.get(m)
    visits = None if count is None else count // order
    if visits is None or visits > MAX_SQUARE_VISITS:
        raise BudgetExceeded(
            f"latin sign sum at m={m} needs ~{visits or 'huge'} visits", visits
        )


def alon_tarsi_difference(m: int, *, checkpoint_path: Optional[str] = None) -> int:
    """Signed sum of eps_c over all Latin (m, m)-squares: plus - minus of
    the one pattern of :func:`orbit_tally` at i = m (:meth:`OrbitTally.at`),
    which takes ``checkpoint_path``.  At odd m > 1 the value 0 comes from
    the fold's balance rule.  A run that would keep more than
    :data:`MAX_SQUARE_VISITS` first-row-fixed squares, or m > 8, is refused
    with :class:`BudgetExceeded` before it starts.
    :func:`column_order_difference` is its oracle.
    """
    _check_dims(m, m)
    _check_square_visits(m, _row_quotient(m, m).order)
    full = (tuple(range(1, m + 1)),) * m
    tally = orbit_tally(m, m, checkpoint_path=checkpoint_path)
    plus, minus = tally.at(full)
    return plus - minus


def column_order_difference(m: int) -> int:
    """The signed square count by the column-major DFS: the deliberate
    oracle of :func:`alon_tarsi_difference`, beside the unreduced
    ``column_order_tally(m, m)``.

    It shares no counting code with the orbit tally: it sums eps_c square
    by square over the symbol and row quotient ``_row_quotient(m, m)``, the
    one the orbit tally takes at i = m, and weights the sum by its order.
    That is exact at every m:

    * relabelling symbols by pi and permuting rows 1..m-1 by tau multiply
      eps_c by sgn(pi)^m * sgn(tau)^m, since every column is a permutation;
    * G = S_m x S_{m-1} of these (pi, tau) acts freely on squares, and the
      reduced squares R (first row and first column 1..m) are a transversal
      of G;
    * at even m all of G keeps eps_c, and the quotient keeps R, with order
      |G| = m! * (m-1)!;
    * at odd m the subgroup H = {sgn pi = sgn tau}, of index 2, keeps eps_c.
      The quotient's A_{m-1} first-column bound keeps R and R', which is R
      with its last two rows swapped.  That swap lies in G but not in H,
      and G acts freely, so no square of R' is in H.R: R and R' together
      are a transversal of H, and the order is |H| = m! * (m-1)! / 2.  A
      square of R and its image in R' have opposite signs, so the sum
      cancels pair by pair: 112 squares at m = 5.  So at odd m this oracle
      gets its 0 from the squares' own signs, not from the orbit tally's
      balance rule.

    Past :data:`MAX_SQUARE_VISITS` kept squares, or m > 8, it is refused
    with :class:`BudgetExceeded` before it starts.
    """
    _check_dims(m, m)
    quotient = _row_quotient(m, m)
    _check_square_visits(m, quotient.order)
    acc = [0, 0]

    def leaf(_rows, _masks, parity):
        acc[parity] += 1

    _run_columns(m, m, leaf, quotient)
    return quotient.order * (acc[0] - acc[1])


# ---------------------------------------------------------------------------
# Checkpoint files: one newline-delimited JSON record per completed prefix
# block, restart-safe via prefix deduplication.
#
# Every run is an orbit tally, so a tally and the signed square count at
# i = m share their records.  A record holds the 1-based "prefix" rows of
# its block (the identity row and the second row), the block's "plus" and
# "minus" totals and its per-pattern counts ("patterns").  It is keyed by
# the configuration of the run: "i", "m", the column masks (all ones, see
# :func:`orbit_tally`) and the quotient "group", S<m>xS<i-1> or
# S<m>xA<i-1>.  Counts are already multiplied by the group order, so the
# records of a run sum to its first-row-fixed bucket: per pattern, not the
# tally's counts (the fold gives those), but over all patterns its total
# and, as permuting columns keeps eps_c, its signed sum.  Records of another
# configuration (such as the S<i> or A<i> groups that earlier versions wrote
# for a quotient of rows alone, or odd-m squares under A<m>), whose prefix
# is not a block of the run, or without "patterns" (the totals-only records
# of an earlier format) are ignored.
# ---------------------------------------------------------------------------

def _record_line(prefix: tuple, bucket: dict, config: dict) -> str:
    """One block's record line: its totals and the per-pattern counts of its
    weighted bucket, under ``config``, the run's configuration."""
    plus = minus = 0
    patterns = []
    for key, (p, n) in sorted(bucket.items()):
        plus += p
        minus += n
        patterns.append({
            "pattern": list(map(_subset_of_mask, key)),
            "plus": str(p),
            "minus": str(n),
        })
    rec = {
        "prefix": [[s + 1 for s in row] for row in prefix],
        "plus": str(plus),
        "minus": str(minus),
        "patterns": patterns,
        **config,
    }
    return json.dumps(rec, sort_keys=True) + "\n"


def write_checkpoint_record(path: str, line: str) -> None:
    """Append one block's record line (:func:`_record_line`)."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line)


def _record_block(rec: dict, i: int, m: int, order: int) -> tuple[tuple, dict]:
    """The 0-based prefix and the bucket (column masks -> (plus, minus)) of
    a record of the run.  ``ValueError`` unless the prefix is rows that
    permute 1..m, each pattern is valid for (i, m), given once and holds
    the prefix's symbols in its columns, and each count is a string of ASCII
    digits of a multiple of the quotient ``order``: only for those is the
    resume fold's division by m! exact (:func:`_fold_orbits`).  Totals are
    not read."""

    def count(value) -> int:
        if (
            isinstance(value, str)
            and value.isascii()
            and value.isdigit()
            and int(value) % order == 0
        ):
            return int(value)
        raise ValueError(f"checkpoint count {value!r} is not a multiple of {order}")

    prefix, bucket = rec.get("prefix"), {}
    if not isinstance(prefix, list) or not all(  # rows permuting 1..m
        isinstance(row, list) and is_valid_pattern([[s] for s in row], 1, m)
        for row in prefix
    ) or not isinstance(rec["patterns"], list):
        raise ValueError("checkpoint record with a malformed prefix or patterns")
    held = tuple(map(_mask_of, zip(*prefix)))  # the prefix's column masks
    for entry in rec["patterns"]:
        pattern = entry.get("pattern") if isinstance(entry, dict) else None
        ok = is_valid_pattern(pattern, i, m)
        masks = tuple(map(_mask_of, pattern)) if ok else None
        if not ok or masks in bucket or any(h & ~k for h, k in zip(held, masks)):
            raise ValueError(f"checkpoint pattern {pattern!r} is not one of its block")
        bucket[masks] = (count(entry.get("plus")), count(entry.get("minus")))
    return tuple(tuple(s - 1 for s in row) for row in prefix), bucket


def load_checkpoint(path: str, config: dict) -> dict[tuple, dict]:
    """Completed prefix blocks of the run ``config`` from a checkpoint file
    (later records win).

    ``config`` is the run's configuration (i, m, column masks, group) that
    :func:`_record_line` writes; a record is read only if it holds every one
    of its keys with the same value, and its per-pattern counts.  So records
    of an earlier format are skipped: without column masks or quotient group
    they count every rectangle of a block, not one per row orbit, and without
    ``patterns`` they are the totals-only records of a signed square count.
    A record that is read and malformed raises (:func:`_record_block`).

    The file is streamed line by line.  A record is complete only with its
    newline, and a line that does not decode is held back: it raises
    ``ValueError`` only if a further non-empty line follows.  Otherwise it is
    the torn tail of an interrupted write, and it is cut from the file so
    that the next appended record starts on a fresh line.
    """
    done: dict[tuple, dict] = {}
    i, m = config["i"], config["m"]
    order = _row_quotient(i, m).order
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return done
    torn_at: Optional[int] = None
    error: Optional[ValueError] = None
    pos = 0
    with fh:
        for raw in fh:
            start, pos = pos, pos + len(raw)
            if not raw.strip():
                continue
            if error is not None:
                raise error
            if not raw.endswith(b"\n"):
                torn_at = start
                break
            try:
                rec = json.loads(raw)
            except ValueError as exc:
                torn_at, error = start, exc
                continue
            except RecursionError:
                torn_at, error = start, ValueError("record nested too deeply")
                continue
            if (
                not isinstance(rec, dict)
                or "patterns" not in rec
                or any(rec.get(key) != value for key, value in config.items())
            ):
                continue
            prefix, bucket = _record_block(rec, i, m, order)
            done[prefix] = bucket
    if torn_at is not None:
        os.truncate(path, torn_at)
    return done
