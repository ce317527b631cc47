"""The benchmark's workloads: operations, the values they must certify, inputs.

Every operation runs as its own `python3 child.py ...` process.  Each check
reads the operation's parsed report and returns a list of problems; an empty
list means every certified value matched its pinned or independently computed
value.  Only the invariant workload has generated inputs (dense matrices with
positive rational entries) and only the resume workload uses the seed for
something else (where the torn-checkpoint probe cuts the file).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from pathlib import Path
from typing import Callable, Optional

Check = Callable[[dict], list]


@dataclass(frozen=True)
class Op:
    """One operation of a workload, run once in every pass."""

    label: str
    argv: tuple  # child.py arguments: ("cli", ...) or ("lib", name, json)
    check: Check
    resume: bool = False  # resumes from a complete checkpoint: counts in resume_s
    checkpoint: Optional[str] = None  # file the operation may append to
    group: Optional[str] = None  # reports of one group must be byte-identical
    same_value_as: Optional[str] = None  # label whose report "value" must match
    traced_only: bool = False  # runs in traced passes only, outside every timing

    @property
    def report_key(self) -> str:
        return self.group or self.label


@dataclass(frozen=True)
class TornProbe:
    """Resume from a copy of ``source`` whose last record is cut short.

    Expected (correct) behaviour: exit 0 with the report of ``group``.  At
    this commit the resume exits 3 (ROADMAP item 4, bug (b)).  The probe runs
    once per run, untimed and outside attempted/failed.
    """

    source: str
    argv: tuple
    group: str


@dataclass
class Workload:
    ops: list
    torn: Optional[TornProbe] = None


# ---------------------------------------------------------------------------
# Checks.
# ---------------------------------------------------------------------------


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _frac(obj: dict) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def _partition_count(n: int, max_parts: int, max_part: Optional[int] = None) -> int:
    """Partitions of n with at most max_parts parts (benchmark's own count)."""
    if n == 0:
        return 1
    if max_parts == 0:
        return 0
    top = n if max_part is None else min(n, max_part)
    return sum(_partition_count(n - a, max_parts - 1, a) for a in range(1, top + 1))


def tally_check(i: int, m: int, total: int, patterns: Optional[int] = None,
                balanced: bool = False) -> Check:
    def check(rep: dict) -> list:
        problems: list = []
        _expect(problems, "i", rep.get("i"), i)
        _expect(problems, "m", rep.get("m"), m)
        _expect(problems, "total", rep.get("total"), str(total))
        pats = rep.get("patterns", [])
        plus = sum(int(p["plus"]) for p in pats)
        minus = sum(int(p["minus"]) for p in pats)
        _expect(problems, "plus+minus over patterns", plus + minus, total)
        if patterns is not None:
            _expect(problems, "patterns", len(pats), patterns)
        if balanced:
            _expect(problems, "signed count", plus - minus, 0)
        return problems

    return check


def fields(**want) -> Check:
    """Report fields that must equal the given values."""
    def check(rep: dict) -> list:
        problems: list = []
        for key, value in want.items():
            _expect(problems, key, rep.get(key), value)
        return problems

    return check


def alon_tarsi_check(value: int) -> Check:
    return fields(difference=str(value), difference_column_order=str(value),
                  orders_agree=True)


def pairing_check(value: Fraction) -> Check:
    def check(rep: dict) -> list:
        problems: list = []
        _expect(problems, "verdict", rep.get("verdict"), "equal")
        _expect(problems, "lhs_latin", _frac(rep["lhs_latin"]), value)
        _expect(problems, "rhs", _frac(rep["rhs"]), value)
        if rep.get("lhs_full") is not None:
            _expect(problems, "lhs_full", _frac(rep["lhs_full"]), value)
        return problems

    return check


def invariant_check_check(m: int, i: int) -> Check:
    half = m // 2
    closed = Fraction(factorial(i) * factorial(half) ** i, factorial(i * half))

    def check(rep: dict) -> list:
        problems: list = []
        _expect(problems, "computed", _frac(rep["computed"]), closed)
        _expect(problems, "closed_form", _frac(rep["closed_form"]), closed)
        _expect(problems, "verdict", rep.get("verdict"), "equal")
        return problems

    return check


def witness_check(value: Fraction) -> Check:
    def check(rep: dict) -> list:
        problems: list = []
        _expect(problems, "found", rep.get("found"), True)
        _expect(problems, "schedule_index", rep.get("schedule_index"), 0)
        _expect(problems, "value", _frac(rep["value"]), value)
        return problems

    return check


def matrix_witness_check(rep: dict) -> list:
    problems: list = []
    _expect(problems, "found", rep.get("found"), True)
    if _frac(rep["value"]) == 0:
        problems.append("value is 0 at a dense positive matrix")
    return problems


def positivity_check(m: int, d: int) -> Check:
    entries = _partition_count(d, m)

    def check(rep: dict) -> list:
        problems: list = []
        _expect(problems, "n", rep.get("n"), m * d)
        _expect(problems, "entries", len(rep.get("entries", [])), entries)
        _expect(problems, "all_positive", rep.get("all_positive"), True)
        if not all(int(e["sk"]) > 0 for e in rep.get("entries", [])):
            problems.append("an sk value is not positive")
        return problems

    return check


def verify_all_check(m: int) -> Check:
    def check(rep: dict) -> list:
        problems: list = []
        _expect(problems, "m", rep.get("m"), m)
        _expect(problems, "all_ok", rep.get("all_ok"), True)
        bad = [c["name"] for c in rep.get("checks", []) if not c.get("ok")]
        if bad or not rep.get("checks"):
            problems.append(f"failed checks: {bad}")
        return problems

    return check


# ---------------------------------------------------------------------------
# Generated inputs.
# ---------------------------------------------------------------------------


def _product_form(rows: list, nvars: int) -> dict:
    """Coefficients of prod_p (sum_j x_j rows[p][j]), expanded here."""
    poly = {(0,) * nvars: Fraction(1)}
    for row in rows:
        nxt: dict = {}
        for exp, c in poly.items():
            for j, a in enumerate(row):
                key = exp[:j] + (exp[j] + 1,) + exp[j + 1:]
                nxt[key] = nxt.get(key, 0) + c * a
        poly = nxt
    return poly


def dense_matrices(seed: int, count: int, m: int, i: int) -> list:
    """Seeded m x i matrices with positive rational entries p/q."""
    rng = random.Random(seed)
    return [
        [[Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(i)]
         for _ in range(m)]
        for _ in range(count)
    ]


def write_matrix_inputs(workdir: Path, matrices: list, m: int, i: int):
    """Write A<k>.csv and f<k>.json; return the forms and content coefficients."""
    forms, coeffs = [], []
    contents = sorted(_product_form([[1] * i] * m, i))
    for k, rows in enumerate(matrices):
        (workdir / f"A{k}.csv").write_text(
            "\n".join(",".join(str(x) for x in row) for row in rows) + "\n",
            encoding="utf-8",
        )
        poly = _product_form(rows, i)
        form = {
            "vars": i,
            "degree": m,
            "terms": [
                {"exp": list(exp), "num": str(c.numerator), "den": str(c.denominator)}
                for exp, c in sorted(poly.items())
            ],
        }
        (workdir / f"f{k}.json").write_text(json.dumps(form), encoding="utf-8")
        forms.append(form)
        # orbit.content_coefficient (a permanent) must equal x^d's coefficient.
        coeffs.append([str(poly[d]) for d in contents])
    return forms, [list(d) for d in contents], coeffs


# ---------------------------------------------------------------------------
# Workload definitions.
# ---------------------------------------------------------------------------


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _cli(*args) -> tuple:
    return ("cli",) + tuple(str(a) for a in args)


def _lib(name: str, **kwargs) -> tuple:
    return ("lib", name, json.dumps(kwargs, sort_keys=True))


def traced_prelude() -> list:
    """Run at the start of every traced pass only, and kept out of every
    timing: one certificate through all six modules, then a small
    checkpointed tally written and resumed.  It makes every per-layer time
    a measured, nonzero value on every workload; untraced runs, and so the
    end-to-end metrics, never run it."""
    ckpt = _cli("--checkpoint", "P.ndjson", "tally", 2, 4)
    return [
        Op("verify-all 2 (traced prelude)", _cli("verify-all", 2),
           verify_all_check(2), traced_only=True),
        Op("tally 2 4 --checkpoint P (traced prelude, fresh)", ckpt,
           tally_check(2, 4, 216), checkpoint="P.ndjson", group="tally 2 4",
           traced_only=True),
        Op("tally 2 4 --checkpoint P (traced prelude, resume)", ckpt,
           tally_check(2, 4, 216), resume=True, checkpoint="P.ndjson",
           group="tally 2 4", traced_only=True),
    ]


EXCLUDED = (
    "left out as too long for 22 repeats, until the work of ROADMAP items 1/2 "
    "shortens them: tally 3 6 (84 s, ~3 GB RSS), "
    "witness 4 3 (114 s), invariant-check 6 4 (13-17 s), pairing 3 5 (70 s), "
    "CLI alon-tarsi 6 (enumerates all 812,851,200 squares; not run); and, as "
    "operations too long to repeat within a run, sign-sum 5 (8-13 s), "
    "alon_tarsi_difference(6, order='columns', fix_first_column=True) = "
    "-199065600 (7-14 s), and in resume --threads 2 --checkpoint tally 2 6 "
    "(6.5 s fresh, 5.2 s resumed from its 17 MB file)"
)

MATRICES = 3  # seeded dense 6 x 2 matrices in the invariant workload
TALLY_3_5 = 66240  # Latin 3 x 5 rectangles (OEIS A000186)


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The workload's operations; writes its generated inputs into workdir."""
    ops: list = []
    torn = None
    if name == "count":
        ops += [
            Op("tally 2 6", _cli("tally", 2, 6), tally_check(2, 6, 190800, 67950)),
            Op("tally 5 5", _cli("tally", 5, 5),
               tally_check(5, 5, 161280, 1, balanced=True)),
            Op("alon-tarsi 5", _cli("alon-tarsi", 5), alon_tarsi_check(0)),
            Op("sign-sum 4", _cli("sign-sum", 4),
               fields(pairing="576", signed_square_count="576", verdict="equal")),
            Op("pairing 2 5", _cli("pairing", 2, 5), pairing_check(Fraction(0))),
        ]
    elif name == "invariant":
        ops += [
            Op("invariant-check 6 3", _cli("invariant-check", 6, 3),
               invariant_check_check(6, 3)),
            Op("invariant-check 4 4", _cli("invariant-check", 4, 4),
               invariant_check_check(4, 4)),
            Op("invariant-check 8 3", _cli("invariant-check", 8, 3),
               invariant_check_check(8, 3)),
            Op("witness 6 2", _cli("witness", 6, 2), witness_check(Fraction(-1, 400))),
            Op("witness 8 2", _cli("witness", 8, 2), witness_check(Fraction(1, 4900))),
        ]
        matrices = dense_matrices(seed, MATRICES, 6, 2)
        forms, contents, coeffs = write_matrix_inputs(workdir, matrices, 6, 2)
        for k, form in enumerate(forms):
            tag = _digest(form)
            wlabel = f"witness 6 2 --matrix A{k}.csv"
            ops += [
                Op(wlabel, _cli("witness", 6, 2, "--matrix", f"A{k}.csv"),
                   matrix_witness_check, group=f"{wlabel} {tag}"),
                Op(f"invariant-eval 6 2 f{k}.json",
                   _cli("invariant-eval", 6, 2, f"f{k}.json"), fields(form=form),
                   group=f"invariant-eval {tag}", same_value_as=wlabel),
            ]
        ops.append(
            Op("lib content_coefficient over all contents",
               _lib("content_coefficients",
                    matrices=[f"A{k}.csv" for k in range(MATRICES)],
                    contents=contents),
               fields(coefficients=coeffs),
               group="content_coefficients " + _digest(coeffs)),
        )
    elif name == "battery":
        ops.append(Op("verify-all 4", _cli("verify-all", 4), verify_all_check(4)))
        for m in range(2, 13, 2):
            for d in range(1, 12 // m + 1):
                ops.append(Op(f"kronecker {m} {d}", _cli("kronecker", m, d),
                              positivity_check(m, d)))
        for m, d in ((2, 12), (4, 6), (4, 7), (6, 4), (8, 3)):
            ops.append(Op(f"lib rectangle_sk_positivity({m}, {d}, max_n={m * d})",
                          _lib("sk_positivity", m=m, d=d), positivity_check(m, d)))
        ops += [
            Op("alon-tarsi 4", _cli("alon-tarsi", 4), alon_tarsi_check(576)),
            Op("witness 4 2", _cli("witness", 4, 2), witness_check(Fraction(1, 36))),
            Op("invariant-check 4 2", _cli("invariant-check", 4, 2),
               invariant_check_check(4, 2)),
        ]
    elif name == "resume":
        # tally 3 5 rather than tally 2 6: its checkpoint has 5,280 records
        # (7 MB), and a pass is short enough to repeat within a run.
        tally = _cli("--threads", 2, "--checkpoint", "A.ndjson", "tally", 3, 5)
        at = _cli("--threads", 2, "--checkpoint", "B.ndjson", "alon-tarsi", 5)
        ops += [
            Op("--threads 2 --checkpoint A tally 3 5 (fresh)", tally,
               tally_check(3, 5, TALLY_3_5, 2040), checkpoint="A.ndjson",
               group="tally 3 5"),
            Op("--threads 2 --checkpoint A tally 3 5 (resume)", tally,
               tally_check(3, 5, TALLY_3_5, 2040), resume=True,
               checkpoint="A.ndjson", group="tally 3 5"),
            Op("--threads 2 --checkpoint B alon-tarsi 5 (fresh)", at,
               alon_tarsi_check(0), checkpoint="B.ndjson", group="alon-tarsi 5"),
            Op("--threads 2 --checkpoint B alon-tarsi 5 (resume)", at,
               alon_tarsi_check(0), resume=True, checkpoint="B.ndjson",
               group="alon-tarsi 5"),
        ]
        torn = TornProbe(
            "A.ndjson",
            _cli("--threads", 2, "--checkpoint", "T.ndjson", "tally", 3, 5),
            "tally 3 5",
        )
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(ops, torn)
