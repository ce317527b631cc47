"""Symmetric Kronecker coefficients from symmetric group characters.

Characters come from one Murnaghan-Nakayama kernel over beta-sets held as
``int`` bead bitmasks.  Cycle types are interned once each as integer ids
(first part, id of the tail).  The t-strips of a bead mask (new mask and
sign) are found once per (mask, t) and kept in one table.  The memo is one
``dict`` per id, mapping a bead mask to the character at that cycle type,
with only ``int`` keys and values; it holds only the values at tails, the
ones the recursion reads again, and a top-level character is not stored.
The class data of S_n (ids, class sizes from z_rho, ids of the squared
classes) is built once per n.
The symmetric Kronecker coefficient uses the square-class trick: the
multiplicity of W_lam in the symmetric square of W_mu is
(1/n!) sum_g chi_lam(g) (chi_mu(g)^2 + chi_mu(g^2)) / 2, evaluated
classwise with the cycle type of g^2 derived combinatorially (an l-cycle
squares to one l-cycle for odd l, two l/2-cycles for even l).  The bracket
depends on mu only, so it is cached per mu, zero classes dropped.

Every result is an exact nonnegative integer; a non-integral class sum
aborts, since it can only mean a character bug.
"""

from __future__ import annotations

from functools import cache
from math import factorial
from threading import Lock
from typing import Iterator, NamedTuple, Sequence

from .errors import BudgetExceeded

__all__ = [
    "Partition",
    "PositivityReport",
    "partitions",
    "square_cycle_type",
    "symmetric_kronecker_coeff",
    "rectangle_sk_positivity",
]

Partition = tuple[int, ...]

DEFAULT_MAX_N = 12


def _check_partition(lam: Sequence[int]) -> Partition:
    lam = tuple(lam)
    if any(a <= 0 for a in lam):
        raise ValueError("parts must be positive")
    if any(lam[j] < lam[j + 1] for j in range(len(lam) - 1)):
        raise ValueError("parts must be weakly decreasing")
    return lam


def partitions(n: int) -> Iterator[Partition]:
    """All partitions of n in descending lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _partitions(n, n)


def _partitions(n: int, top: int) -> Iterator[Partition]:
    """The partitions of n with every part at most ``top``."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, top), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _z(mu: Partition) -> int:
    """z_mu = prod p^k k! over the distinct parts p, k the multiplicity of p:
    the product of part * run over the parts, run counting the equal parts
    so far (they are adjacent)."""
    z = 1
    run = 0
    previous = 0
    for part in mu:
        run = run + 1 if part == previous else 1
        previous = part
        z *= part * run
    return z


def _mask(lam: Partition) -> int:
    """Beta-set of lam as a bead bitmask: bit lam_j + (k-1-j) per part."""
    k = len(lam)
    return sum(1 << (part + k - 1 - j) for j, part in enumerate(lam))


# Interned partitions.  Id 0 is the empty partition; id s > 0 has first part
# _first[s] and tail (s without its first part) _tail[s], and _child[s] maps
# a part p to the id of (p,) + s.  _memo[s] maps the canonical bead mask of a
# partition of |s| to its character at cycle type s.  Ids and memos are
# shared by every n, since an id fixes its size.
_first = [0]
_tail = [0]
_child: list[dict[int, int]] = [{}]
_memo: list[dict[int, int]] = [{0: 1}]
# _strips maps (canonical bead mask, t) to the _removals of its t-strips.
_strips: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
# Two threads interning at once must not hand out the same id.  A race on a
# memo or on _strips only computes one value or one table twice.
_intern_lock = Lock()


def _intern(mu: Partition) -> int:
    """Id of the partition mu, interning it and its tails on first sight."""
    sid = 0
    for part in reversed(mu):
        parent = _child[sid].get(part)
        if parent is None:
            with _intern_lock:
                parent = _child[sid].get(part)
                if parent is None:
                    parent = len(_first)
                    _first.append(part)
                    _tail.append(sid)
                    _child.append({})
                    _memo.append({})
                    _child[sid][part] = parent
        sid = parent
    return sid


def _removals(mask: int, t: int) -> tuple[tuple[int, int], ...]:
    """(new mask, sign bit) for every t-strip of the canonical bead mask mask.

    Removing a t-strip moves a bead b to an empty b - t; its sign bit is the
    parity of the beads jumped over.  The new mask is made canonical again
    (no trailing 1-bits, i.e. no beads for zero parts), so one entry serves
    every bead count.
    """
    between = (1 << (t - 1)) - 1
    movable = mask & ~(mask << t) & ~((1 << t) - 1)
    out = []
    while movable:
        bead = movable & -movable
        movable ^= bead
        b = bead.bit_length() - 1
        new = mask ^ bead ^ (bead >> t)
        new >>= (new ^ (new + 1)).bit_length() - 1
        out.append((new, (mask >> (b - t + 1) & between).bit_count() & 1))
    return tuple(out)


def _chi(mask: int, sid: int) -> int:
    """chi at cycle type sid (not 0) of the partition with canonical bead mask mask.

    The strips of the first part t come from ``_strips``, and the values at
    the tail from its memo; both are filled here on a miss.
    """
    t = _first[sid]
    rest = _tail[sid]
    memo = _memo[rest]
    key = (mask, t)
    strips = _strips.get(key)
    if strips is None:
        strips = _strips[key] = _removals(mask, t)
    total = 0
    for new, odd in strips:
        value = memo.get(new)
        if value is None:
            value = memo[new] = _chi(new, rest)
        total += -value if odd else value
    return total


def _character(mask: int, sid: int) -> int:
    """chi at cycle type sid of the partition with bead mask mask.

    The value is not stored: each (partition, class) is asked for once per
    report, and only the tails' values are read again.
    """
    value = _memo[sid].get(mask)
    return _chi(mask, sid) if value is None else value


def square_cycle_type(mu: Sequence[int]) -> Partition:
    """Cycle type of g^2 given the cycle type of g."""
    parts = [p for part in mu for p in ((part,) if part % 2 else (part // 2,) * 2)]
    return tuple(sorted(parts, reverse=True))


@cache
def _classes(n: int) -> tuple[tuple[Partition, int, int, int], ...]:
    """(rho, id of rho, |C_rho|, id of the cycle type of rho^2) for every
    class of S_n, in order."""
    order = factorial(n)
    return tuple(
        (rho, _intern(rho), order // _z(rho), _intern(square_cycle_type(rho)))
        for rho in partitions(n)
    )


@cache
def _square_weights(mu: Partition) -> tuple[tuple[int, int], ...]:
    """(id of rho, |C_rho| (chi_mu(rho)^2 + chi_mu(rho^2))) where that is
    nonzero."""
    b = _mask(mu)
    weights = (
        (sid, size * (_character(b, sid) ** 2 + _character(b, sq)))
        for _, sid, size, sq in _classes(sum(mu))
    )
    return tuple((sid, w) for sid, w in weights if w)


def symmetric_kronecker_coeff(lam: Sequence[int], mu: Sequence[int]) -> int:
    """Multiplicity of W_lam in the symmetric square of W_mu."""
    lam, mu = map(_check_partition, (lam, mu))
    n = sum(lam)
    if sum(mu) != n:
        raise ValueError("partition sizes differ")
    a = _mask(lam)
    total = sum(w * _character(a, sid) for sid, w in _square_weights(mu))
    result, rem = divmod(total, 2 * factorial(n))
    if rem:
        raise RuntimeError("internal error: non-integer character sum")
    if result < 0:
        raise RuntimeError("internal error: negative multiplicity")
    return result


class PositivityReport(NamedTuple):
    """Symmetric Kronecker values sk(m*lam_bar, rectangle, rectangle) for lam_bar of d."""

    m: int
    d: int
    n: int
    entries: list[dict]
    all_positive: bool

    def to_json_list(self) -> list[dict]:
        return self.entries


def rectangle_sk_positivity(
    m: int, d: int, *, max_n: int = DEFAULT_MAX_N
) -> PositivityReport:
    """Check sk(m*lam_bar, d^m, d^m) > 0 for every lam_bar of d with <= m parts.

    The rectangle d^m is the m-part partition (d,...,d) of n = d*m.  The
    statement concerns even m (the CLI refuses odd m); odd m is accepted
    here and computed the same way.
    """
    if m < 1 or d < 1:
        raise ValueError("m and d must be positive")
    n = d * m
    if n > max_n:
        raise BudgetExceeded(f"n = d*m = {n} exceeds the table budget {max_n}")
    rectangle = (d,) * m
    entries = []
    for lam_bar in partitions(d):
        if len(lam_bar) > m:
            continue
        scaled = tuple(m * a for a in lam_bar)
        sk = symmetric_kronecker_coeff(scaled, rectangle)
        entries.append(
            {
                "lambda_bar": list(lam_bar),
                "m_lambda_bar": list(scaled),
                "sk": str(sk),
                "positive": sk > 0,
            }
        )
    return PositivityReport(
        m=m,
        d=d,
        n=n,
        entries=entries,
        all_positive=all(e["positive"] for e in entries),
    )
