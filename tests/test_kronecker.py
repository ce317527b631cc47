"""Characters, Kronecker coefficients and the symmetric-square oracle.

The class sizes, character values, dimensions and the Kronecker and
alternating Kronecker coefficients the checks use are the claim checks of
``tests/helpers.py``; the library computes the symmetric coefficient alone.

The square-class formula behind ``symmetric_kronecker_coeff`` is validated
against a brute-force decomposition: realize each irreducible as explicit
rational matrices (the unique copy inside the tabloid permutation module,
cut out by the isotypic projector), build the literal symmetric-square
matrices, and extract multiplicities from their traces.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from functools import lru_cache
from itertools import permutations as all_perms
from math import factorial
from random import Random

import pytest

from helpers import (
    alternating_kronecker_coeff,
    class_size,
    column_orthogonality_ok,
    cycle_type,
    kronecker_coeff,
    mn_character,
    partition_dimension,
    row_orthogonality_ok,
    run_fresh,
)
from detorbit import kronecker
from detorbit.errors import BudgetExceeded
from detorbit.kronecker import (
    partitions,
    rectangle_sk_positivity,
    square_cycle_type,
    symmetric_kronecker_coeff,
)


def test_partitions_enumeration():
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert sum(1 for _ in partitions(12)) == 77


def test_class_sizes_sum_to_group_order():
    for n in range(1, 9):
        assert sum(class_size(mu) for mu in partitions(n)) == factorial(n)


def test_character_examples():
    assert mn_character((1, 1), (2,)) == -1
    assert mn_character((2, 1), (1, 1, 1)) == 2
    for mu in partitions(5):
        assert mn_character((5,), mu) == 1
        assert mn_character((1, 1, 1, 1, 1), mu) == (
            1 if sum(1 for p in mu if p % 2 == 0) % 2 == 0 else -1
        )


def test_character_at_identity_is_dimension():
    for n in range(1, 8):
        ones = (1,) * n
        for lam in partitions(n):
            assert mn_character(lam, ones) == partition_dimension(lam)


def test_partition_dimension_known_values():
    assert partition_dimension((2, 1)) == 2
    assert partition_dimension((3, 2)) == 5
    assert partition_dimension((2, 2, 1)) == 5


def test_square_cycle_type():
    assert square_cycle_type((2,)) == (1, 1)
    assert square_cycle_type((3,)) == (3,)
    assert square_cycle_type((4, 3, 2)) == (3, 2, 2, 1, 1)
    rng = Random(4)
    for n in (4, 5, 6):
        perms = list(all_perms(range(n)))
        for _ in range(10):
            g = rng.choice(perms)
            g2 = tuple(g[g[j]] for j in range(n))
            assert cycle_type(g2) == square_cycle_type(cycle_type(g))


def test_orthogonality_small():
    for n in (2, 3, 4, 5, 6):
        assert row_orthogonality_ok(n)
        assert column_orthogonality_ok(n)


def test_kronecker_examples():
    for n in (2, 3, 4):
        assert kronecker_coeff((n,), (n,), (n,)) == 1
    assert kronecker_coeff((1, 1), (1, 1), (2,)) == 1
    assert kronecker_coeff((2,), (1, 1), (1, 1)) == 1


def test_kronecker_symmetric_in_arguments():
    rng = Random(8)
    parts5 = list(partitions(5))
    for _ in range(10):
        lam, mu, nu = (rng.choice(parts5) for _ in range(3))
        g = kronecker_coeff(lam, mu, nu)
        assert g == kronecker_coeff(mu, lam, nu) == kronecker_coeff(nu, mu, lam)


def test_symmetric_kronecker_examples():
    assert symmetric_kronecker_coeff((2,), (1, 1)) == 1
    assert symmetric_kronecker_coeff((1, 1), (1, 1)) == 0
    for n in (2, 3, 4, 5):
        assert symmetric_kronecker_coeff((n,), (n,)) == 1


def test_symmetric_plus_alternating_is_kronecker():
    for n in (3, 4, 5):
        for lam in partitions(n):
            for mu in partitions(n):
                sk = symmetric_kronecker_coeff(lam, mu)
                ak = alternating_kronecker_coeff(lam, mu)
                assert sk + ak == kronecker_coeff(lam, mu, mu)
                assert sk <= kronecker_coeff(lam, mu, mu)


def test_symmetric_plus_alternating_is_kronecker_seeded_6_to_8():
    rng = Random(68)
    for n in (6, 7, 8):
        parts = list(partitions(n))
        for _ in range(30):
            lam, mu = rng.choice(parts), rng.choice(parts)
            sk = symmetric_kronecker_coeff(lam, mu)
            ak = alternating_kronecker_coeff(lam, mu)
            assert sk + ak == kronecker_coeff(lam, mu, mu), (lam, mu)


def _interned(sid: int, first=kronecker._first, tail=kronecker._tail) -> tuple:
    """The partition with interned id sid, read back part by part."""
    parts = []
    while sid:
        parts.append(first[sid])
        sid = tail[sid]
    return tuple(parts)


def test_class_data_matches_class_size_and_square_type():
    for n in range(0, 21):
        classes = kronecker._classes(n)
        assert [rho for rho, _, _, _ in classes] == list(partitions(n))
        for rho, sid, size, sq in classes:
            assert _interned(sid) == rho
            assert size == class_size(rho)
            assert _interned(sq) == square_cycle_type(rho)
        assert sum(size for _, _, size, _ in classes) == factorial(n)


def test_square_dimension_sums():
    for n in (3, 4, 5, 6):
        for mu in partitions(n):
            dim = partition_dimension(mu)
            s_total = sum(
                symmetric_kronecker_coeff(lam, mu) * partition_dimension(lam)
                for lam in partitions(n)
            )
            a_total = sum(
                alternating_kronecker_coeff(lam, mu) * partition_dimension(lam)
                for lam in partitions(n)
            )
            assert s_total == dim * (dim + 1) // 2
            assert a_total == dim * (dim - 1) // 2


@pytest.mark.parametrize(
    "m,d,expected",
    [
        (2, 1, {(2,): 1}),
        (2, 2, {(4,): 1, (2, 2): 1}),
        (4, 1, {(4,): 1}),
    ],
)
def test_rectangle_positivity_values(m, d, expected):
    report = rectangle_sk_positivity(m, d)
    got = {tuple(e["m_lambda_bar"]): int(e["sk"]) for e in report.entries}
    assert got == expected
    assert report.all_positive


def test_rectangle_positivity_budget():
    with pytest.raises(BudgetExceeded):
        rectangle_sk_positivity(4, 4)


# Full entry lists of the bead-bitmask kernel, pinned to the values of the
# earlier beta-list recursion (n = d*m up to 28).
@pytest.mark.parametrize(
    "m,d,expected",
    [
        (4, 6, [1, 2, 3, 8, 2, 21, 43, 6, 65]),
        (6, 4, [1, 3, 2, 16, 13]),
        (8, 3, [1, 2, 4]),
    ],
)
def test_rectangle_positivity_pinned_values(m, d, expected):
    report = rectangle_sk_positivity(m, d, max_n=m * d)
    assert [int(e["sk"]) for e in report.entries] == expected
    assert [e["lambda_bar"] for e in report.entries] == [
        list(lam) for lam in partitions(d) if len(lam) <= m
    ]
    assert report.all_positive


@pytest.mark.parametrize(
    "m,d,digest",
    [
        (2, 12, "625d90e3bb9dcf974c24816d7e8fc6bcfb43deeb17aaf76733b92de68f6d8e84"),
        (4, 7, "f2d589a722e01853f8c8777fa3aeab1fb4a645d47c9b4f66d121676fef85b96d"),
    ],
    ids=["2-12", "4-7"],
)
def test_rectangle_positivity_pinned_digest(m, d, digest):
    report = rectangle_sk_positivity(m, d, max_n=m * d)
    text = json.dumps(report.entries, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.skipif(
    os.environ.get("DETORBIT_STRETCH") != "1",
    reason="n = 36 positivity report (about 1 s on 2 vCPUs); set DETORBIT_STRETCH=1",
)
def test_rectangle_positivity_stretch_4_9():
    report = rectangle_sk_positivity(4, 9, max_n=36)
    text = json.dumps(report.entries, sort_keys=True)
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "fec6be3b595e5c04085a3d6e5871311261c1c7fe54a3e89b0417c78278e49eda"
    )
    assert report.all_positive


def test_rectangle_positivity_accepts_odd_m():
    # The statement concerns even m; at odd m the value can vanish.
    report = rectangle_sk_positivity(3, 2)
    assert [int(e["sk"]) for e in report.entries] == [1, 0]
    assert not report.all_positive


# ---------------------------------------------------------------------------
# Differential test of the character kernel.
# ---------------------------------------------------------------------------


def _oracle_strips(lam: tuple[int, ...], t: int) -> list[tuple[tuple[int, ...], int]]:
    """(shape left, height parity) for every t-rim hook of lam, by beta lists."""
    k = len(lam)
    beta = [lam[j] + (k - 1 - j) for j in range(k)]
    bset = set(beta)
    out = []
    for b in beta:
        nb = b - t
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((c if c != b else nb for c in beta), reverse=True)
        new_lam = tuple(nb_j - (k - 1 - j) for j, nb_j in enumerate(new_beta))
        while new_lam and new_lam[-1] == 0:
            new_lam = new_lam[:-1]
        out.append((new_lam, height & 1))
    return out


@lru_cache(maxsize=None)
def _mn_oracle(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama over explicit beta lists: a deliberate slow oracle.

    This is the tuple recursion the library used before its bead-bitmask
    kernel; it is kept here only as an independent route for the
    differential tests below.
    """
    if not mu:
        return 1
    total = 0
    for new_lam, odd in _oracle_strips(lam, mu[0]):
        value = _mn_oracle(new_lam, mu[1:])
        total += -value if odd else value
    return total


def test_strip_table_matches_oracle_rim_hooks():
    # An entry is the new mask, or its complement ~new for an odd strip.
    for n in range(1, 11):
        for lam in partitions(n):
            for t in range(1, n + 1):
                entries = kronecker._removals(kronecker._mask(lam), t)
                got = sorted((~e, 1) if e < 0 else (e, 0) for e in entries)
                want = sorted(
                    (kronecker._mask(shape), odd) for shape, odd in _oracle_strips(lam, t)
                )
                assert got == want, (lam, t)


def test_character_kernel_matches_oracle_up_to_12():
    for n in range(0, 13):
        parts = list(partitions(n))
        for lam in parts:
            for mu in parts:
                assert mn_character(lam, mu) == _mn_oracle(lam, mu), (lam, mu)


def test_character_kernel_matches_oracle_seeded_16_to_20():
    rng = Random(20)
    parts = {n: list(partitions(n)) for n in range(16, 21)}
    for _ in range(200):
        n = rng.randint(16, 20)
        lam, mu = rng.choice(parts[n]), rng.choice(parts[n])
        assert mn_character(lam, mu) == _mn_oracle(lam, mu), (lam, mu)


_ACROSS_N = """
import json, sys
from detorbit.kronecker import _character, _intern, _mask, rectangle_sk_positivity
out = []
for kind, a, b in json.loads(sys.argv[1]):
    if kind == "chi":
        out.append(_character(_mask(a), _intern(b)))
    else:
        out.append(rectangle_sk_positivity(a, b, max_n=a * b).entries)
json.dump(out, sys.stdout)
"""


@pytest.mark.parametrize(
    "order", [[(4, 6), (2, 12), (8, 3)], [(8, 3), (2, 12), (4, 6)]], ids=["a", "b"]
)
def test_interned_memo_is_shared_safely_across_n(order):
    # The ids and memos are module-level and serve every n: interleave sizes
    # in a fresh interpreter, so the order in which they fill is the test's.
    rng = Random(7)
    parts = {n: list(partitions(n)) for n in (7, 20)}
    steps = []
    for m, d in order:
        for n in (20, 7):
            steps += [
                ("chi", rng.choice(parts[n]), rng.choice(parts[n])) for _ in range(3)
            ]
        steps.append(("report", m, d))
    out = json.loads(run_fresh(_ACROSS_N, json.dumps(steps)))
    # The values pinned in the tests above.
    pinned = {(4, 6): [1, 2, 3, 8, 2, 21, 43, 6, 65], (8, 3): [1, 2, 4]}
    digest_2_12 = "625d90e3bb9dcf974c24816d7e8fc6bcfb43deeb17aaf76733b92de68f6d8e84"
    for (kind, a, b), got in zip(steps, out, strict=True):
        if kind == "chi":
            assert got == _mn_oracle(tuple(a), tuple(b)), (a, b)
        elif (a, b) == (2, 12):
            text = json.dumps(got, sort_keys=True)
            assert hashlib.sha256(text.encode()).hexdigest() == digest_2_12
        else:
            assert [int(e["sk"]) for e in got] == pinned[a, b]


_THREADED_INTERN = """
import json, sys, threading
from detorbit import kronecker
sys.setswitchinterval(1e-6)
parts = [list(kronecker.partitions(n)) for n in (14, 15, 16, 17, 18)]
# Partitions of 8 are leaves once interned: no node of the same size is
# another's tail.  Every thread hangs a first child on each of them.
leaves = list(kronecker.partitions(8))
leaf_ids = [kronecker._intern(mu) for mu in leaves]
were_leaves = all(
    kronecker._child[s] is None and kronecker._memo[s] is None for s in leaf_ids
)
hung = [[[mu[0] + k, *mu] for mu in leaves] for k in range(len(parts))]
ids = [None] * len(parts)
chars = [None] * len(parts)
hung_ids = [None] * len(parts)
hung_chars = [None] * len(parts)
def work(k):
    hung_ids[k] = [kronecker._intern(mu) for mu in hung[k]]
    ids[k] = [kronecker._intern(mu) for mu in parts[k]]
    pairs = zip(parts[k][::3], ids[k][::-3])
    chars[k] = [kronecker._character(kronecker._mask(lam), sid) for lam, sid in pairs]
    pairs = zip(hung[k], hung_ids[k])
    hung_chars[k] = [kronecker._character(kronecker._mask(lam), sid) for lam, sid in pairs]
threads = [threading.Thread(target=work, args=(k,)) for k in range(len(parts))]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert not any(t.is_alive() for t in threads)
children = [kronecker._child[s] for s in leaf_ids]
json.dump(
    [parts, ids, chars, hung, hung_ids, hung_chars, were_leaves, leaf_ids,
     children, kronecker._first, kronecker._tail],
    sys.stdout,
)
"""


def test_interning_from_threads_gives_distinct_ids():
    # Five threads intern partitions with shared tails at once; every id must
    # read back to the partition it was handed out for.  They also hang first
    # children on the same leaves at once, so each leaf's child and memo
    # dicts are made under contention.  Each thread then evaluates characters
    # through the shared memos and strip tables.
    (parts, ids, chars, hung, hung_ids, hung_chars, were_leaves, leaf_ids,
     children, first, tail) = json.loads(run_fresh(_THREADED_INTERN))
    assert were_leaves
    for group, group_ids, group_chars in zip(parts, ids, chars):
        for mu, sid in zip(group, group_ids):
            assert _interned(sid, first, tail) == tuple(mu)
        pairs = zip(group[::3], group[::-3])
        for (lam, mu), value in zip(pairs, group_chars, strict=True):
            assert value == _mn_oracle(tuple(lam), tuple(mu)), (lam, mu)
    for group, group_ids, group_chars in zip(hung, hung_ids, hung_chars):
        for mu, sid, value in zip(group, group_ids, group_chars, strict=True):
            assert _interned(sid, first, tail) == tuple(mu)
            assert value == _mn_oracle(tuple(mu), tuple(mu)), mu
    # Each leaf's one child dict holds the child every thread hung on it.
    for j, (leaf, kids) in enumerate(zip(leaf_ids, children, strict=True)):
        for group, group_ids in zip(hung, hung_ids):
            assert kids[str(group[j][0])] == group_ids[j]
        assert all(tail[sid] == leaf for sid in kids.values())


_WORK_COUNTS = """
import json, sys
from detorbit import kronecker
kronecker.rectangle_sk_positivity(4, 7, max_n=28)
memos = [memo for memo in kronecker._memo if memo is not None]
tables = sum(map(len, kronecker._strips))
json.dump([sum(map(len, memos)), len(memos), len(kronecker._memo), tables], sys.stdout)
"""


def test_kernel_work_counts_at_4_7():
    # Memo entries (below the top level only), memo dicts (one per id that is
    # a tail, out of every interned id) and strip tables (one per bead mask
    # and part) after the n = 28 report in a fresh interpreter.
    assert json.loads(run_fresh(_WORK_COUNTS)) == [46_096, 3_718, 7_436, 4_810]


_SECOND_PASS = """
import json, sys
from math import factorial
from detorbit import kronecker
def entries():
    return sum(len(memo) for memo in kronecker._memo if memo is not None)
weights = kronecker._square_weights((7,) * 4)
lams = [[4 * a for a in lam] for lam in kronecker.partitions(7) if len(lam) <= 4]
def class_sums():
    return [
        sum(w * kronecker._character(kronecker._mask(lam), sid) for sid, w in weights)
        for lam in lams
    ]
counts = [entries()]
passes = []
for _ in range(2):
    passes.append(class_sums())
    counts.append(entries())
sk = [total // (2 * factorial(28)) for total in passes[0]]
json.dump([counts, passes, sk], sys.stdout)
"""


def test_second_pass_of_class_sums_stores_nothing():
    # The lambda side of the (4,7) report, run twice after the rectangle's
    # square weights: the top-level characters are not stored, so the first
    # pass adds only the deeper tails' values and the second adds nothing.
    counts, (first, second), sk = json.loads(run_fresh(_SECOND_PASS))
    assert first == second
    assert counts == [16_605, 46_096, 46_096]
    assert sk == [1, 2, 3, 8, 3, 34, 54, 13, 24, 440, 93]


# ---------------------------------------------------------------------------
# Brute-force symmetric-square oracle.
# ---------------------------------------------------------------------------


def _tabloids(mu: tuple[int, ...], n: int) -> list[tuple[frozenset, ...]]:
    if not mu:
        return [()]
    out = []

    def rec(remaining: frozenset, parts: tuple[int, ...], acc):
        if not parts:
            out.append(tuple(acc))
            return
        size = parts[0]
        for block in _subsets(sorted(remaining), size):
            rec(remaining - frozenset(block), parts[1:], acc + [frozenset(block)])

    rec(frozenset(range(n)), mu, [])
    return out


def _subsets(items, size):
    if size == 0:
        yield ()
        return
    for j in range(len(items) - size + 1):
        for rest in _subsets(items[j + 1 :], size - 1):
            yield (items[j],) + rest


def _column_space_basis(columns, dim):
    """First ``dim`` linearly independent columns, by incremental elimination."""
    basis_rows = []  # eliminated copies
    chosen = []
    for col in columns:
        vec = list(col)
        for piv_idx, piv_vec in basis_rows:
            if vec[piv_idx]:
                factor = vec[piv_idx] / piv_vec[piv_idx]
                vec = [a - factor * b for a, b in zip(vec, piv_vec)]
        piv = next((j for j, a in enumerate(vec) if a), None)
        if piv is None:
            continue
        basis_rows.append((piv, vec))
        chosen.append(list(col))
        if len(chosen) == dim:
            return chosen
    raise AssertionError("projector rank below the hook-formula dimension")


def _solve_square(a, b):
    """Solve a @ x = b for square rational a (Gaussian elimination)."""
    n = len(a)
    width = len(b[0])
    aug = [list(a[r]) + list(b[r]) for r in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = Fraction(1) / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n : n + width] for row in aug]


def _explicit_irreducible(mu: tuple[int, ...], group: list[tuple[int, ...]]):
    """Rational matrices of the irreducible labelled mu, one per group element."""
    n = sum(mu)
    tabs = _tabloids(mu, n)
    index = {t: j for j, t in enumerate(tabs)}
    size = len(tabs)
    dim = partition_dimension(mu)

    def act(g, tab):
        return tuple(frozenset(g[x] for x in block) for block in tab)

    images = [[index[act(g, t)] for t in tabs] for g in group]
    order = len(group)
    chars = {ct: mn_character(mu, ct) for ct in partitions(n)}
    # Isotypic projector: (dim/|G|) sum_g chi(g) rho(g), column by column.
    proj_cols = []
    for col in range(size):
        vec = [Fraction(0)] * size
        for gi, g in enumerate(group):
            chi = chars[cycle_type(g)]
            if chi:
                vec[images[gi][col]] += chi
        proj_cols.append([Fraction(dim, order) * a for a in vec])
    basis_cols = _column_space_basis(proj_cols, dim)  # size x dim, column-major
    # Pick dim rows making the basis invertible.
    b_rows = [[basis_cols[c][r] for c in range(dim)] for r in range(size)]
    pivot_rows = []
    elim = []
    for r in range(size):
        vec = list(b_rows[r])
        for piv_idx, piv_vec in elim:
            if vec[piv_idx]:
                factor = vec[piv_idx] / piv_vec[piv_idx]
                vec = [a - factor * b for a, b in zip(vec, piv_vec)]
        piv = next((j for j, a in enumerate(vec) if a), None)
        if piv is not None:
            elim.append((piv, vec))
            pivot_rows.append(r)
            if len(pivot_rows) == dim:
                break
    b_piv = [b_rows[r] for r in pivot_rows]
    mats = []
    for gi in range(order):
        # images[gi][col] = row reached from col, so row r of rho(g) B is
        # row g^{-1}(r) of B.
        pre = [images[gi].index(r) for r in pivot_rows]
        rho_b_piv = [[basis_cols[c][p] for c in range(dim)] for p in pre]
        mats.append(_solve_square(b_piv, rho_b_piv))
    return mats


def _sym_square_trace(mat) -> Fraction:
    d = len(mat)
    total = Fraction(0)
    for a in range(d):
        total += mat[a][a] * mat[a][a]
    for a in range(d):
        for b in range(a + 1, d):
            total += mat[a][a] * mat[b][b] + mat[a][b] * mat[b][a]
    return total


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_symmetric_square_against_explicit_matrices(n):
    group = list(all_perms(range(n)))
    chars = {
        lam: {ct: mn_character(lam, ct) for ct in partitions(n)}
        for lam in partitions(n)
    }
    for mu in partitions(n):
        if len(_tabloids(mu, n)) > 70:
            continue  # tabloid module too large for the exhaustive oracle
        mats = _explicit_irreducible(mu, group)
        # Sanity: the matrices represent the group and have the right traces.
        rng = Random(n)
        for _ in range(3):
            gi, hi = rng.randrange(len(group)), rng.randrange(len(group))
            g, h = group[gi], group[hi]
            gh = tuple(g[h[j]] for j in range(n))
            prod = _mat_mul(mats[gi], mats[hi])
            assert prod == mats[group.index(gh)]
        for gi, g in enumerate(group):
            assert sum(mats[gi][a][a] for a in range(len(mats[gi]))) == chars[mu][
                cycle_type(g)
            ]
        # The literal symmetric-square traces decompose as claimed.
        s2_traces = [_sym_square_trace(mat) for mat in mats]
        for lam in partitions(n):
            total = Fraction(0)
            for gi, g in enumerate(group):
                total += chars[lam][cycle_type(g)] * s2_traces[gi]
            expected = Fraction(symmetric_kronecker_coeff(lam, mu))
            assert total / factorial(n) == expected, (lam, mu)


def _mat_mul(a, b):
    d = len(a)
    return [
        [sum((a[r][k] * b[k][c] for k in range(d)), Fraction(0)) for c in range(d)]
        for r in range(d)
    ]
