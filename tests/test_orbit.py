"""Permanents, determinant restrictions and the witness search."""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import islice
from random import Random

import pytest

from helpers import random_restriction_matrix
from detorbit.cli import main
from detorbit.errors import BudgetExceeded
from detorbit.orbit import (
    MAX_CANDIDATES,
    RestrictionMatrix,
    candidate_schedule,
    content_coefficient,
    det_restriction,
    matrix_from_csv,
    permanent,
    witness_search,
)
from detorbit.oracles import permanent_naive


def test_permanent_examples():
    assert permanent([[1, 0], [0, 1]]) == 1
    assert permanent([[1, 2], [3, 4]]) == 10
    assert permanent([[1, 1, 1]] * 3) == 6
    assert permanent_naive([[1, 2], [3, 4]]) == 10
    with pytest.raises(ValueError):
        permanent([[1, 2, 3], [4, 5, 6]])


def test_permanent_matches_naive_oracle():
    rng = Random(17)
    for n in range(1, 8):
        for _ in range(4):
            mat = [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
                for _ in range(n)
            ]
            assert permanent(mat) == permanent_naive(mat)


def test_permanent_size_guards():
    with pytest.raises(BudgetExceeded):
        permanent([[0] * 21] * 21)
    with pytest.raises(BudgetExceeded):
        permanent_naive([[0] * 13] * 13)


def test_restriction_matrix_validation():
    with pytest.raises(ValueError):
        RestrictionMatrix.from_rows([[1, 2]])  # wider than tall
    A = RestrictionMatrix.from_rows([[1, 0], [0, 1], ["1/2", 3]])
    assert A.m == 3 and A.i == 2
    assert A.rows[2][0] == Fraction(1, 2)


def test_det_restriction_examples():
    A = RestrictionMatrix.from_rows([[1, 0], [0, 1]])
    assert det_restriction(A).coeffs == {(1, 1): Fraction(1)}
    B = RestrictionMatrix.from_rows([[1], [1]])
    assert det_restriction(B).coeffs == {(2,): Fraction(1)}
    C = RestrictionMatrix.from_rows([[1, 1], [1, 1]])
    assert det_restriction(C).coeffs.get((1, 1), 0) == 2
    assert content_coefficient(C, (1, 1)) == 2


def test_content_coefficient_examples():
    A = RestrictionMatrix.from_rows([[1, 0], [0, 1]])
    assert content_coefficient(A, (2, 0)) == 0
    assert content_coefficient(A, (1, 1)) == 1
    with pytest.raises(ValueError):
        content_coefficient(A, (1, 2))


@pytest.mark.parametrize("m,i", [(2, 1), (2, 2), (4, 1), (4, 2)])
def test_restriction_coefficients_match_permanent_route(m, i):
    rng = Random(100 * m + i)
    for _ in range(50):
        A = random_restriction_matrix(m, i, rng)
        poly = det_restriction(A)
        for d in _contents(m, i):
            assert poly.coeffs.get(d, 0) == content_coefficient(A, d)


def _contents(total, parts):
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _contents(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def test_candidate_schedule_is_deterministic():
    a = [(label, A.rows) for label, A in islice(candidate_schedule(4, 2, seed=5), 8)]
    b = [(label, A.rows) for label, A in islice(candidate_schedule(4, 2, seed=5), 8)]
    assert a == b
    assert a[0][0] == "cyclic-identity"
    labels = [label for label, _A in candidate_schedule(4, 2, seed=5)]
    assert len(labels) == MAX_CANDIDATES == 40
    assert labels[-1] == "random-39"


@pytest.mark.parametrize(
    "m,i,value",
    [
        (2, 1, Fraction(1)),
        (2, 2, Fraction(-1, 4)),
        (4, 1, Fraction(1)),
        (4, 2, Fraction(1, 36)),
    ],
)
def test_witness_search_first_candidate(m, i, value):
    result = witness_search(m, i)
    assert result is not None
    assert result.schedule_index == 0
    assert result.value == value


def test_witness_json_shape(capsys):
    # The witness report is built by the CLI, from the WitnessResult fields.
    assert main(["witness", "2", "2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {
        "m": 2,
        "i": 2,
        "A": [["1", "0"], ["0", "1"]],
        "value": {"num": "-1", "den": "4"},
        "found": True,
        "schedule_index": 0,
        "label": "cyclic-identity",
        "seed": 0,
    }


def test_witness_search_rejects_odd_m():
    with pytest.raises(ValueError):
        witness_search(3, 1)


def test_matrix_from_csv():
    A = matrix_from_csv("1,0\n0,1\n1/2,-3\n")
    assert A.m == 3 and A.i == 2
    assert A.rows[2] == (Fraction(1, 2), Fraction(-3))
    B = matrix_from_csv(" +2 , -3/4 \n1,1\n")
    assert B.rows[0] == (Fraction(2), Fraction(-3, 4))


@pytest.mark.parametrize(
    "cell", ["1e999999999", "1e3", "0.5", "1_0", "1/-2", "1/2/3", "", "x", "1 2"]
)
def test_matrix_from_csv_reads_only_integers_and_fractions(cell):
    # Fraction alone would read the first four; 1e999999999 would build a
    # billion-digit integer.
    with pytest.raises(ValueError, match="not an integer or p/q"):
        matrix_from_csv(f"1,0\n0,{cell}\n")
