"""Symmetric group characters and (symmetric) Kronecker coefficients.

Characters come from one Murnaghan-Nakayama kernel over beta-sets held as
``int`` bead bitmasks.  Cycle types are interned once each as integer ids
(first part, id of the tail), and the memo is one ``dict`` per id, mapping
a bead mask to the character at that cycle type: the recursion builds no
tuple per step and the memo holds only ``int`` keys and values.  The class
data of S_n (ids, class sizes from z_rho, ids of the squared classes) is
built once per n.
Kronecker coefficients are class-weighted triple character sums; the
symmetric variant adds the square-class trick: the multiplicity of W_lam in
the symmetric square of W_mu is
(1/n!) sum_g chi_lam(g) (chi_mu(g)^2 + chi_mu(g^2)) / 2, evaluated
classwise with the cycle type of g^2 derived combinatorially (an l-cycle
squares to one l-cycle for odd l, two l/2-cycles for even l).  The bracket
depends on mu only, so it is cached per mu, zero classes dropped.

Every public result is an exact nonnegative integer; a non-integral class
sum aborts, since it can only mean a character bug.
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
    "class_size",
    "mn_character",
    "partition_dimension",
    "square_cycle_type",
    "kronecker_coeff",
    "symmetric_kronecker_coeff",
    "alternating_kronecker_coeff",
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


def class_size(mu: Sequence[int]) -> int:
    """Size of the conjugacy class with cycle type mu: n! / z_mu."""
    mu = _check_partition(mu)
    return factorial(sum(mu)) // _z(mu)


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
# Two threads interning at once must not hand out the same id.  A memo race
# only computes one value twice.
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


def _chi(mask: int, sid: int) -> int:
    """chi at cycle type sid (not 0) of the partition with canonical bead mask mask.

    Removing a t-strip, t the first part, moves a bead b to an empty b - t;
    its sign is the parity of the beads jumped over.  Masks are canonical
    (no trailing 1-bits, i.e. no beads for zero parts), so one entry serves
    every bead count.  The values at the tail come from its memo, filled
    here on a miss.
    """
    t = _first[sid]
    rest = _tail[sid]
    memo = _memo[rest]
    between = (1 << (t - 1)) - 1
    movable = mask & ~(mask << t) & ~((1 << t) - 1)
    total = 0
    while movable:
        bead = movable & -movable
        movable ^= bead
        b = bead.bit_length() - 1
        new = mask ^ bead ^ (bead >> t)
        new >>= (new ^ (new + 1)).bit_length() - 1
        value = memo.get(new)
        if value is None:
            value = memo[new] = _chi(new, rest)
        total += -value if (mask >> (b - t + 1) & between).bit_count() & 1 else value
    return total


def _character(mask: int, sid: int) -> int:
    """Memoized chi at cycle type sid of the partition with bead mask mask."""
    memo = _memo[sid]
    value = memo.get(mask)
    if value is None:
        value = memo[mask] = _chi(mask, sid)
    return value


def mn_character(lam: Sequence[int], mu: Sequence[int]) -> int:
    """Exact character value chi_lam at cycle type mu (border-strip recursion)."""
    lam, mu = map(_check_partition, (lam, mu))
    if sum(lam) != sum(mu):
        raise ValueError("partition sizes differ")
    return _character(_mask(lam), _intern(mu))


def partition_dimension(lam: Sequence[int]) -> int:
    """Dimension of the irreducible module: hook length formula."""
    lam = _check_partition(lam)
    n = sum(lam)
    if n == 0:
        return 1
    conj = [sum(1 for a in lam if a > j) for j in range(lam[0])]
    hooks = 1
    for r, length in enumerate(lam):
        for c in range(length):
            hooks *= length - c + conj[c] - r - 1
    return factorial(n) // hooks


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


def _class_sum_divided(terms: Iterator[int], divisor: int) -> int:
    """Sum the class-weighted terms, divided exactly by divisor."""
    result, rem = divmod(sum(terms), divisor)
    if rem:
        raise RuntimeError("internal error: non-integer character sum")
    if result < 0:
        raise RuntimeError("internal error: negative multiplicity")
    return result


def kronecker_coeff(lam: Sequence[int], mu: Sequence[int], nu: Sequence[int]) -> int:
    """Multiplicity of W_lam in W_mu ox W_nu: (1/n!) sum |C| chi chi chi."""
    lam, mu, nu = map(_check_partition, (lam, mu, nu))
    n = sum(lam)
    if sum(mu) != n or sum(nu) != n:
        raise ValueError("partition sizes differ")
    a, b, c = _mask(lam), _mask(mu), _mask(nu)
    return _class_sum_divided(
        (
            size * _character(a, sid) * _character(b, sid) * _character(c, sid)
            for _, sid, size, _ in _classes(n)
        ),
        factorial(n),
    )


@cache
def _square_weights(mu: Partition, sign: int) -> tuple[tuple[int, int], ...]:
    """(id of rho, |C_rho| (chi_mu(rho)^2 + sign chi_mu(rho^2))) where that is
    nonzero."""
    b = _mask(mu)
    weights = (
        (sid, size * (_character(b, sid) ** 2 + sign * _character(b, sq)))
        for _, sid, size, sq in _classes(sum(mu))
    )
    return tuple((sid, w) for sid, w in weights if w)


def _square_coeff(lam: Sequence[int], mu: Sequence[int], sign: int) -> int:
    lam, mu = map(_check_partition, (lam, mu))
    n = sum(lam)
    if sum(mu) != n:
        raise ValueError("partition sizes differ")
    a = _mask(lam)
    return _class_sum_divided(
        (w * _character(a, sid) for sid, w in _square_weights(mu, sign)),
        2 * factorial(n),
    )


def symmetric_kronecker_coeff(lam: Sequence[int], mu: Sequence[int]) -> int:
    """Multiplicity of W_lam in the symmetric square of W_mu."""
    return _square_coeff(lam, mu, 1)


def alternating_kronecker_coeff(lam: Sequence[int], mu: Sequence[int]) -> int:
    """Multiplicity of W_lam in the alternating square of W_mu."""
    return _square_coeff(lam, mu, -1)


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
