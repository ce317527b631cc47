"""Command line front end with machine-readable, byte-reproducible reports.

Every report is JSON with sorted keys, exact decimal strings for all numbers
and no timestamps, so re-running a subcommand with the same configuration
reproduces the output byte for byte.  Exit codes: 0 all checks pass, 1 a
check failed, 2 infeasible under the configured budgets, 3 bad input,
argument usage errors included.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .errors import DEFAULT_BUDGET, BudgetExceeded

if TYPE_CHECKING:
    from fractions import Fraction

    from .orbit import RestrictionMatrix

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INFEASIBLE = 2
EXIT_INPUT_ERROR = 3

# The global flags that only some subcommands take, and those takers: the
# flags' help names them, and ``_main`` refuses a flag set for any other, a
# flag being set when its value is not the parser's default.
_TAKERS = {
    "--budget": ("invariant-check", "witness", "invariant-eval", "verify-all"),
    "--checkpoint": ("tally", "alon-tarsi"),
    "--format csv": ("tally",),
    "--threads": ("tally", "alon-tarsi"),
}


def _frac(value: Fraction) -> dict:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _emit(report, write) -> None:
    """Write a report dict as JSON, or stream a report the command renders
    itself (a callable that takes ``write``)."""
    if callable(report):
        report(write)
    else:
        write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _cmd_tally(args) -> tuple[int, Callable]:
    from . import latin

    latin._column_subsets(args.i, args.m)  # a report it cannot render is refused now
    tally = latin.orbit_tally(args.i, args.m, checkpoint_path=args.checkpoint)
    if args.format == "csv":
        return EXIT_OK, partial(tally.write_report, fmt="csv")
    total = str(tally.total())
    return EXIT_OK, partial(tally.write_report, total=total, seed=args.seed)


def _signed_square_counts(args, **fields: str) -> tuple[bool, dict]:
    """The signed square count by both routes, run in the order ``fields``
    names them ("rows": the orbit-tally route, "columns": the column-major
    oracle); returns whether they agree and the report of each value under
    its field."""
    from . import latin

    routes = {
        "rows": lambda: latin.alon_tarsi_difference(
            args.m, checkpoint_path=args.checkpoint
        ),
        "columns": lambda: latin.column_order_difference(args.m),
    }
    values = {field: routes[route]() for field, route in fields.items()}
    report = {"m": args.m, **{field: str(v) for field, v in values.items()}}
    return len(set(values.values())) == 1, report


def _cmd_alon_tarsi(args) -> tuple[int, dict]:
    ok, report = _signed_square_counts(
        args, difference="rows", difference_column_order="columns"
    )
    report["orders_agree"] = ok
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), report


def _cmd_pairing(args) -> tuple[int, dict]:
    from . import tensors

    lhs = tensors.rectangle_symmetrizer_pairing(args.i, args.m)
    rhs = tensors.pattern_imbalance_pairing(args.i, args.m)
    try:  # the full expansion cross-checks lhs where it fits the work cap
        full = tensors.full_symmetrizer_pairing(args.i, args.m)
    except BudgetExceeded:
        full = None
    ok = lhs == rhs and (full is None or full == lhs)
    report = {
        "i": args.i,
        "m": args.m,
        "lhs_latin": _frac(lhs),
        "lhs_full": None if full is None else _frac(full),
        "rhs": _frac(rhs),
        "verdict": "equal" if ok else "NOT EQUAL",
    }
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), report


def _cmd_sign_sum(args) -> tuple[int, dict]:
    ok, report = _signed_square_counts(
        args, pairing="columns", signed_square_count="rows"
    )
    report["verdict"] = "equal" if ok else "NOT EQUAL"
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), report


def _cmd_invariant_check(args) -> tuple[int, dict]:
    from . import invariant

    computed, closed = invariant.power_sum_invariant_check(
        args.m, args.i, budget=args.budget
    )
    ok = computed == closed
    report = {
        "m": args.m,
        "i": args.i,
        "computed": _frac(computed),
        "closed_form": _frac(closed),
        "verdict": "equal" if ok else "NOT EQUAL",
    }
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), report


def _witness_report(m: int, i: int, A: RestrictionMatrix, value: Fraction) -> dict:
    return {
        "m": m,
        "i": i,
        "A": A.to_json_rows(),
        "value": _frac(value),
        "found": value != 0,
    }


def _cmd_witness(args) -> tuple[int, dict]:
    from . import invariant, orbit

    if args.matrix is not None:
        with open(args.matrix, encoding="utf-8") as fh:
            A = orbit.matrix_from_csv(fh.read())
        if A.m != args.m or A.i != args.i:
            raise ValueError("matrix shape does not match m and i")
        value = invariant.det_power_invariant(
            args.m, args.i, orbit.det_restriction(A), budget=args.budget
        )
        report = _witness_report(args.m, args.i, A, value)
        return (EXIT_OK if value else EXIT_CHECK_FAILED), report
    result = orbit.witness_search(
        args.m, args.i, seed=args.seed, budget=args.budget
    )
    if result is None:
        return EXIT_CHECK_FAILED, {
            "m": args.m,
            "i": args.i,
            "found": False,
            "seed": args.seed,
        }
    report = _witness_report(result.m, result.i, result.matrix, result.value)
    report.update(
        schedule_index=result.schedule_index, label=result.label, seed=result.seed
    )
    return EXIT_OK, report


def _cmd_invariant_eval(args) -> tuple[int, dict]:
    from . import invariant

    if args.form == "-":
        payload = sys.stdin.read()
    else:
        with open(args.form, encoding="utf-8") as fh:
            payload = fh.read()
    try:
        literal = json.loads(payload)
    except RecursionError:
        raise ValueError("form literal nested too deeply") from None
    f = invariant.HomPoly.from_json_dict(literal)
    value = invariant.det_power_invariant(args.m, args.i, f, budget=args.budget)
    report = {
        "m": args.m,
        "i": args.i,
        "form": f.to_json_dict(),
        "value": _frac(value),
    }
    return EXIT_OK, report


def _cmd_kronecker(args) -> tuple[int, dict]:
    from . import kronecker

    if args.m % 2 or args.m < 2:
        raise ValueError("kronecker requires even m >= 2")
    rep = kronecker.rectangle_sk_positivity(args.m, args.d)
    return (EXIT_OK if rep.all_positive else EXIT_CHECK_FAILED), rep._asdict()


def _verify_all_checks(m: int, seed: int, budget: int) -> list[dict]:
    """The battery: the two Latin enumeration orders compared, then each
    certificate as a subcommand run, named by its command line and carrying
    that subcommand's report."""
    from . import latin

    checks: list[dict] = []
    for i in range(1, min(m, 3) + 1):
        a = latin.signed_tally(i, m)
        b = latin.column_order_tally(i, m)
        checks.append({
            "name": f"latin-tally-two-orders i={i}",
            "ok": a.counts == b.counts,
            "total": str(a.total()),
        })
    parser = build_parser()
    runs = [f"alon-tarsi {m}", f"pairing 1 {m}", f"pairing 2 {m}", f"sign-sum {m}"]
    runs += [f"invariant-check {m} {i}" for i in range(1, min(m, 4) + 1)]
    runs += [f"witness {m} 1", f"witness {m} 2", f"kronecker {m} 1", f"kronecker {m} 2"]
    for name in runs:
        args = parser.parse_args(
            ["--seed", str(seed), "--budget", str(budget), *name.split()]
        )
        code, report = args.func(args)
        ok = code == EXIT_OK
        if args.command == "alon-tarsi":
            ok = ok and report["difference"] != "0"  # AT(m) != 0 at even m
        checks.append({"name": name, "ok": ok, "report": report})
    return checks


def _cmd_verify_all(args) -> tuple[int, dict]:
    m = args.m
    if m % 2 or m < 2:
        raise ValueError("verify-all requires even m >= 2")
    if m > 4:
        raise BudgetExceeded("verify-all supports m <= 4 under default budgets")
    checks = _verify_all_checks(m, args.seed, args.budget)
    ok = all(c["ok"] for c in checks)
    for c in checks:
        sys.stderr.write(f"{'PASS' if c['ok'] else 'FAIL'}  {c['name']}\n")
    report = {"m": m, "checks": checks, "all_ok": ok, "seed": args.seed}
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), report


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input (exit 3), not argparse's exit 2, which
    here means infeasible; the usage still goes to stderr."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")


def _listed(flag: str) -> str:
    """The takers of a restricted flag as help text: "a, b and c"."""
    *rest, last = _TAKERS[flag]
    return f"{', '.join(rest)} and {last}" if rest else last


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="detorbit",
        description="Exact signed Latin square counts, symmetrizer pairings, "
        "polarized determinant invariants and symmetric Kronecker checks.",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help=f"no effect, accepted by {_listed('--threads')} only: every "
        "count runs in one process",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help=f"work cap for {_listed('--budget')}",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled schedules")
    parser.add_argument("--out", type=str, default=None, help="also write report here")
    parser.add_argument(
        "--checkpoint",
        type=str,
        default=None,
        help=f"checkpoint file ({_listed('--checkpoint')} only)",
    )
    parser.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help=f"csv: {_listed('--format csv')} only",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tally", help="per-pattern signed Latin rectangle tally")
    p.add_argument("i", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(func=_cmd_tally)

    p = sub.add_parser("alon-tarsi", help="signed Latin square count, two orders")
    p.add_argument("m", type=int)
    p.set_defaults(func=_cmd_alon_tarsi)

    p = sub.add_parser("pairing", help="symmetrizer pairing identity, both sides")
    p.add_argument("i", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(func=_cmd_pairing)

    p = sub.add_parser(
        "sign-sum", help="tableau word pairing (column-major DFS) vs orbit-tally count"
    )
    p.add_argument("m", type=int)
    p.set_defaults(func=_cmd_sign_sum)

    p = sub.add_parser("invariant-check", help="power-sum closed form check")
    p.add_argument("m", type=int)
    p.add_argument("i", type=int)
    p.set_defaults(func=_cmd_invariant_check)

    p = sub.add_parser("witness", help="nonvanishing witness search")
    p.add_argument("m", type=int)
    p.add_argument("i", type=int)
    p.add_argument(
        "--matrix",
        type=str,
        default=None,
        help="evaluate this CSV matrix (integers or p/q) instead of searching",
    )
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser(
        "invariant-eval", help="evaluate the invariant at a JSON form literal"
    )
    p.add_argument("m", type=int)
    p.add_argument("i", type=int)
    p.add_argument("form", type=str, help="path to the form literal, or - for stdin")
    p.set_defaults(func=_cmd_invariant_eval)

    p = sub.add_parser("kronecker", help="symmetric Kronecker positivity report")
    p.add_argument("m", type=int)
    p.add_argument("d", type=int)
    p.set_defaults(func=_cmd_kronecker)

    p = sub.add_parser("verify-all", help="run the acceptance battery for even m")
    p.add_argument("m", type=int)
    p.set_defaults(func=_cmd_verify_all)

    return parser


def _same_file(a: str, b: str) -> bool:
    return os.path.realpath(a) == os.path.realpath(b) or (
        os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b)
    )


def _main(argv: Optional[Sequence[str]]) -> int:
    """Run the command and write its report, or the error it raises, to
    stdout and to ``--out`` once that is open."""
    out = None

    def write(text: str) -> None:
        if out is not None:
            out.write(text)
        sys.stdout.write(text)

    try:
        parser = build_parser()
        args = parser.parse_args(argv)  # _Parser.error raises ValueError
        # --out truncates its file, so a file the run reads would be lost.
        form = getattr(args, "form", "-")
        read = {
            "--checkpoint": args.checkpoint,
            "--matrix": getattr(args, "matrix", None),
            "the form": None if form == "-" else form,
        }
        for name, path in read.items():
            if args.out and path and _same_file(args.out, path):
                raise ValueError(f"--out and {name} name the same file")
        if args.threads < 1 or args.budget < 1:
            raise ValueError("threads and budget must be positive")
        for flag, takers in _TAKERS.items():
            dest = flag.split()[0].lstrip("-")
            if getattr(args, dest) != parser.get_default(dest) and (
                args.command not in takers
            ):
                raise ValueError(
                    f"{flag} applies only to {' and '.join(takers)}, "
                    f"not {args.command}"
                )
        # Opened after every refusal of the command line and before any work
        # starts; a path that cannot be written is bad input, reported on
        # stdout alone.
        out = None if args.out is None else open(args.out, "w", encoding="utf-8")
        code, report = args.func(args)
        if isinstance(report, dict):
            report.setdefault("seed", args.seed)
        _emit(report, write)
    except BudgetExceeded as exc:
        _emit({"error": str(exc), "kind": "infeasible"}, write)
        return EXIT_INFEASIBLE
    except BrokenPipeError:
        raise  # stdout is closed, so no report can follow; main says so
    except (ValueError, OSError) as exc:
        _emit({"error": str(exc), "kind": "input"}, write)
        return EXIT_INPUT_ERROR
    finally:
        if out is not None:
            out.close()
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        code = _main(argv)
        # Flushed here, not at exit, so that a reader already gone fails
        # below; a stand-in stdout may have no ``flush``.
        flush = getattr(sys.stdout, "flush", None)
        if flush is not None:
            flush()
        return code
    except OSError as exc:
        # Only a report that cannot be written gets here: a stdout closed by
        # its reader (``| head``) or a full disk.  Say so once on stderr, and
        # point stdout at os.devnull so that its last flush at exit is quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        sys.stderr.write(f"detorbit: cannot write the report: {exc}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
