"""Command line behaviour: reports, exit codes, determinism, resume."""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest

from detorbit import cli, latin
from detorbit.cli import main
from detorbit.errors import DEFAULT_BUDGET, BudgetExceeded
from helpers import tally_json_dict


def _run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_kronecker_odd_m_is_input_error(capsys):
    # The statement concerns even m; the library still computes odd m.
    code, out = _run(capsys, "kronecker", "3", "2")
    assert code == 3
    report = json.loads(out)
    assert report["kind"] == "input"
    assert report["error"] == "kronecker requires even m >= 2"


def test_tally_json_and_csv(capsys, tmp_path):
    code, out = _run(capsys, "tally", "2", "2")
    assert code == 0
    report = json.loads(out)
    assert report["patterns"] == [
        {"pattern": [[1, 2], [1, 2]], "plus": "0", "minus": "2"}
    ]
    out_path = tmp_path / "tally.csv"
    code, out = _run(capsys, "--format", "csv", "--out", str(out_path), "tally", "2", "2")
    assert code == 0
    assert out.splitlines()[0] == "i,m,pattern,plus,minus"
    assert out_path.read_text() == out


def test_csv_rejected_elsewhere(capsys):
    code, out = _run(capsys, "--format", "csv", "alon-tarsi", "2")
    assert code == 3


def test_reports_are_byte_identical(capsys):
    _, first = _run(capsys, "witness", "4", "2")
    _, second = _run(capsys, "witness", "4", "2")
    assert first == second
    _, third = _run(capsys, "--seed", "1", "witness", "4", "2")
    report = json.loads(third)
    assert report["seed"] == 1


def test_tally_checkpoint_resume(capsys, tmp_path):
    cp = tmp_path / "cp.ndjson"
    code, full = _run(capsys, "--checkpoint", str(cp), "tally", "3", "4")
    assert code == 0
    lines = cp.read_text().strip().splitlines()
    cp.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    code, resumed = _run(capsys, "--checkpoint", str(cp), "tally", "3", "4")
    assert code == 0
    full_obj = json.loads(full)
    resumed_obj = json.loads(resumed)
    assert full_obj["patterns"] == resumed_obj["patterns"]


def test_torn_checkpoint_tail_resumes(capsys, tmp_path):
    cp = tmp_path / "cp.ndjson"
    code, full = _run(capsys, "--checkpoint", str(cp), "tally", "3", "4")
    assert code == 0
    lines = cp.read_text().splitlines(keepends=True)
    half = len(lines) // 2
    # A write cut short: the last record stops mid-line, with no newline.
    torn = "".join(lines[:half]) + lines[half][: len(lines[half]) // 2]
    cp.write_text(torn)
    code, resumed = _run(capsys, "--checkpoint", str(cp), "tally", "3", "4")
    assert code == 0
    assert resumed == full
    # A corrupt line with records after it is not a torn tail: bad input.
    cp.write_text(torn + "\n" + "".join(lines[half:]))
    code, _ = _run(capsys, "--checkpoint", str(cp), "tally", "3", "4")
    assert code == 3


def test_deeply_nested_checkpoint_line(capsys, tmp_path):
    cp = tmp_path / "cp.ndjson"
    deep = "[" * 100_000 + "]" * 100_000 + "\n"
    cp.write_text(deep + '{"i": 3}\n')
    code, out = _run(capsys, "--checkpoint", str(cp), "tally", "3", "5")
    assert code == 3
    assert json.loads(out)["kind"] == "input"
    # As the last line it is a torn tail: dropped, and the run resumes.
    cp.write_text(deep)
    code, out = _run(capsys, "--checkpoint", str(cp), "tally", "3", "5")
    assert code == 0
    assert out == _run(capsys, "tally", "3", "5")[1]
    assert len(cp.read_text().splitlines()) == 44


def test_checkpoint_rejected_where_nothing_is_checkpointed(capsys, tmp_path):
    cp = tmp_path / "cp.ndjson"
    for argv in (["pairing", "2", "3"], ["sign-sum", "3"], ["verify-all", "2"]):
        code, out = _run(capsys, "--checkpoint", str(cp), *argv)
        assert code == 3
        assert json.loads(out)["kind"] == "input"
        assert "--checkpoint" in json.loads(out)["error"]
    assert not cp.exists()


def test_threads_flag_matches_serial(capsys):
    # The benchmark's own threaded runs: --threads is accepted and changes
    # nothing.
    for argv in (["tally", "3", "5"], ["alon-tarsi", "5"]):
        serial = _run(capsys, *argv)
        assert serial[0] == 0
        assert _run(capsys, "--threads", "2", *argv) == serial


def test_infeasible_exit_code(capsys):
    code, out = _run(capsys, "sign-sum", "7")
    assert code == 2
    assert json.loads(out)["kind"] == "infeasible"


def test_budget_reaches_invariant_check(capsys):
    code, out = _run(capsys, "--budget", "10", "invariant-check", "6", "6")
    assert code == 2
    assert json.loads(out)["kind"] == "infeasible"


def test_large_degree_invariant_check_is_refused_quickly():
    # Degree 20 in 6 variables: the pair words are built per term of the
    # power sum (one each), so the refusal comes from the kernel estimate
    # at once rather than after a scan of C(45, 10) candidate words.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-m", "detorbit", "invariant-check", "20", "6"],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert done.returncode == 2
    assert json.loads(done.stdout)["kind"] == "infeasible"


@pytest.mark.parametrize("i", ["32", "40"])
def test_pair_word_walk_too_deep_is_infeasible(capsys, i):
    # The pair-word walk recurses once per pair, i * i deep: past the
    # interpreter's recursion limit it is refused, not a traceback.
    start = time.perf_counter()
    code, out = _run(capsys, "invariant-check", "2", i)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert json.loads(out)["kind"] == "infeasible"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-m", "detorbit", "invariant-check", "2", i],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert done.returncode == 2
    assert json.loads(done.stdout)["kind"] == "infeasible"
    assert "Traceback" not in done.stderr
    code, out = _run(capsys, "invariant-check", "2", "10")
    assert code == 0
    assert json.loads(out)["verdict"] == "equal"


def test_restricted_flags_help_names_their_takers():
    parser = cli.build_parser()
    helps = {opt: a.help for a in parser._actions for opt in a.option_strings}
    commands = next(
        a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    for flag, takers in cli._TAKERS.items():
        text = helps[flag.split()[0]]
        named = {c for c in commands if re.search(rf"\b{re.escape(c)}\b", text)}
        assert named == set(takers), flag


def test_input_error_exit_code(capsys):
    code, out = _run(capsys, "tally", "3", "2")
    assert code == 3
    assert json.loads(out)["kind"] == "input"


@pytest.mark.parametrize(
    "argv",
    [
        ["invariant-check", "0", "2"],
        ["invariant-check", "-2", "2"],
        ["witness", "-2", "1"],
        ["invariant-check", "3", "2"],
        ["witness", "3", "1"],
    ],
    ids=["check-0", "check-negative", "witness-negative", "check-odd", "witness-odd"],
)
def test_invariant_commands_refuse_m_not_even_at_least_2(capsys, argv):
    # One check, made before any form is built, says the same for every such
    # m; m = 2 runs (its reports are pinned in _REPORT_DIGESTS).
    code, out = _run(capsys, *argv)
    assert code == 3
    assert json.loads(out) == {
        "error": "the invariant requires even m >= 2",
        "kind": "input",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["tally", "x", "5"],
        ["no-such-command"],
        [],
        ["--format", "xml", "tally", "2", "2"],
    ],
)
def test_usage_errors_are_bad_input(capsys, argv):
    # Exit 2 means infeasible, so argparse's own usage exit is not used.
    code, out = _run(capsys, *argv)
    assert code == 3
    assert json.loads(out)["kind"] == "input"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-m", "detorbit", *argv],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 3
    assert json.loads(done.stdout)["kind"] == "input"
    assert done.stderr.startswith("usage: detorbit")


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["tally", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: detorbit")


def _drop_key(entry: dict, key: str) -> dict:
    return {k: v for k, v in entry.items() if k != key}


# Record bodies of the run's own configuration that cannot be resumed: each
# case edits the first record of a (3,4) tally, whose blocks' counts are
# multiples of the quotient order 4! * 2 = 48 and whose prefix starts with
# the identity row.
_MALFORMED_RECORDS = {
    "no-prefix": lambda rec: _drop_key(rec, "prefix"),
    "prefix-symbol-out-of-range": lambda rec: {**rec, "prefix": [[1, 2, 3, 9]]},
    "no-minus": lambda rec: {
        **rec, "patterns": [_drop_key(rec["patterns"][0], "minus")]
    },
    "pattern-not-a-list": lambda rec: {
        **rec, "patterns": [{**rec["patterns"][0], "pattern": 5}]
    },
    "pattern-symbol-9": lambda rec: {
        **rec, "patterns": [{**rec["patterns"][0], "pattern": [[1, 2, 9]] * 4}]
    },
    "extra-invalid-pattern": lambda rec: {
        **rec,
        "patterns": rec["patterns"]
        + [{"pattern": [[1, 2, 3]] * 4, "plus": "7", "minus": "0"}],
    },
    "pattern-misses-prefix-symbol": lambda rec: {
        **rec,
        "patterns": [{
            **rec["patterns"][0],
            "pattern": [[2, 3, 4], [1, 3, 4], [1, 2, 4], [1, 2, 3]],
        }],
    },
    "repeated-pattern": lambda rec: {**rec, "patterns": rec["patterns"] * 2},
    "count-not-a-multiple": lambda rec: {
        **rec, "patterns": [{**rec["patterns"][0], "plus": "7"}]
    },
    "negative-count": lambda rec: {
        **rec, "patterns": [{**rec["patterns"][0], "minus": "-48"}]
    },
    "count-not-a-string": lambda rec: {
        **rec, "patterns": [{**rec["patterns"][0], "plus": 48}]
    },
    # 48 in Arabic-Indic digits: a count is ASCII digits only.
    "non-ascii-count": lambda rec: {
        **rec, "patterns": [{**rec["patterns"][0], "plus": "\u0664\u0668"}]
    },
}


@pytest.mark.parametrize("case", list(_MALFORMED_RECORDS))
def test_malformed_checkpoint_record_is_bad_input(capsys, tmp_path, case):
    cp = tmp_path / "cp.ndjson"
    assert _run(capsys, "--checkpoint", str(cp), "tally", "3", "4")[0] == 0
    first, *rest = cp.read_text().splitlines(keepends=True)
    rec = _MALFORMED_RECORDS[case](json.loads(first))
    cp.write_text(json.dumps(rec, sort_keys=True) + "\n" + "".join(rest))
    code, out = _run(capsys, "--checkpoint", str(cp), "tally", "3", "4")
    assert code == 3
    report = json.loads(out)
    assert report["kind"] == "input" and "checkpoint" in report["error"]
    # The same record as the only, last line is not a torn tail either.
    cp.write_text(json.dumps(rec, sort_keys=True) + "\n")
    assert _run(capsys, "--checkpoint", str(cp), "tally", "3", "4")[0] == 3


def test_budget_default_is_the_library_default():
    import inspect

    from detorbit import invariant, orbit
    from detorbit.cli import build_parser

    args = build_parser().parse_args(["tally", "1", "1"])
    assert args.budget == DEFAULT_BUDGET
    for fn in (
        invariant.det_power_invariant,
        invariant.power_sum_invariant_check,
        orbit.witness_search,
    ):
        assert inspect.signature(fn).parameters["budget"].default == DEFAULT_BUDGET


def test_nonpositive_budget_rejected(capsys):
    code, out = _run(capsys, "--budget", "0", "alon-tarsi", "2")
    assert code == 3


def test_seed_recorded_in_every_report(capsys):
    for argv in (["alon-tarsi", "2"], ["pairing", "1", "2"], ["kronecker", "2", "1"]):
        _, out = _run(capsys, *argv)
        assert "seed" in json.loads(out)


def test_verify_all_exit_zero(capsys):
    code, out = _run(capsys, "verify-all", "2")
    assert code == 0
    report = json.loads(out)
    assert report["all_ok"] is True
    assert all(check["ok"] for check in report["checks"])


def test_witness_with_matrix_file(capsys, tmp_path):
    path = tmp_path / "A.csv"
    path.write_text("1,0\n0,1\n")
    code, out = _run(capsys, "witness", "2", "2", "--matrix", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["value"] == {"num": "-1", "den": "4"}
    path.write_text("1,0\n0,0\n")
    code, out = _run(capsys, "witness", "2", "2", "--matrix", str(path))
    assert code == 1
    assert json.loads(out)["found"] is False


def test_invariant_eval_from_form_literal(capsys, tmp_path):
    form = {
        "vars": 2,
        "degree": 2,
        "terms": [{"exp": [1, 1], "num": "1", "den": "1"}],
    }
    path = tmp_path / "form.json"
    path.write_text(json.dumps(form))
    code, out = _run(capsys, "invariant-eval", "2", "2", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["value"] == {"num": "-1", "den": "4"}


def _form(exp, num="1", den="1") -> str:
    return json.dumps(
        {"vars": 2, "degree": 2, "terms": [{"exp": exp, "num": num, "den": den}]}
    )


@pytest.mark.parametrize(
    "argv,text",
    [
        (["invariant-eval", "2", "2", "-"], "{}"),
        (["invariant-eval", "2", "2", "-"], _form([1, 1], den="0")),
        (["invariant-eval", "2", "2", "-"], "[1]"),
        (["invariant-eval", "2", "2", "-"], _form(["a", 1])),
        (["witness", "4", "2", "--matrix"], "1,0\n1/0,1\n1,1\n0,1\n"),
        # Cells are integers or p/q only, not exponents or decimals.
        (["witness", "4", "2", "--matrix"], "1,0\n0,1e3\n1,1\n0,1\n"),
        (["witness", "4", "2", "--matrix"], "1,0\n0,0.5\n1,1\n0,1\n"),
        # Neither may be read as an integer: 0.5 would truncate to 0.
        (["invariant-eval", "2", "2", "-"], _form([1, 1], num=0.5)),
        (["invariant-eval", "2", "2", "-"], _form([True, True])),
        # Nested deeper than the decoder recurses.
        (["invariant-eval", "2", "2", "-"], "[" * 100_000 + "]" * 100_000),
        # terms and each exp are lists, not strings or objects to iterate.
        (["invariant-eval", "2", "2", "-"], _form("11")),
        (["invariant-eval", "2", "2", "-"], _form({"1": 0, "1 ": 0})),
        (["invariant-eval", "2", "2", "-"], '{"vars": 2, "degree": 2, "terms": {}}'),
        # Integers are an optional sign, then ASCII digits, as in CSV cells.
        (["invariant-eval", "2", "2", "-"], _form([1, 1], num="1_000")),
        (["invariant-eval", "2", "2", "-"], _form([1, 1], den=" 7 ")),
        (["invariant-eval", "2", "2", "-"], _form([1, 1], num="\u0664")),
    ],
    ids=[
        "no-terms", "zero-den", "not-an-object", "string-exponent", "csv-zero-den",
        "csv-exponent", "csv-decimal",
        "float-numerator", "bool-exponent", "deep-nesting",
        "exp-string", "exp-object", "terms-object",
        "underscore-numerator", "spaced-denominator", "arabic-indic-numerator",
    ],
)
def test_malformed_input_is_bad_input(capsys, monkeypatch, tmp_path, argv, text):
    # Bad input exits 3 with a JSON error, not 1 ("a check failed") with a
    # traceback.
    if argv[0] == "witness":
        path = tmp_path / "A.csv"
        path.write_text(text)
        argv = [*argv, str(path)]
    else:
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out = _run(capsys, *argv)
    assert code == 3
    report = json.loads(out)
    assert set(report) == {"error", "kind"}
    assert report["kind"] == "input"


@pytest.mark.parametrize(
    "i,m", [(2, 4), (3, 4), (2, 5), (3, 5), (1, 5), (5, 5), (1, 6)]
)
def test_tally_report_bytes(capsys, tmp_path, i, m):
    # References rendered the plain way from the unreduced column oracle,
    # compared line by line: a failure names the first differing line
    # instead of diffing megabytes of text.
    oracle = latin.column_order_tally(i, m)
    report = {**tally_json_dict(oracle), "total": str(oracle.total()), "seed": 0}
    want_json = (json.dumps(report, indent=2, sort_keys=True) + "\n").splitlines(True)
    want_csv = ["i,m,pattern,plus,minus\n"] + [
        f"{i},{m},{';'.join(','.join(map(str, sub)) for sub in key)},{p},{n}\n"
        for key, (p, n) in sorted(oracle.counts.items())
    ]
    out_path = tmp_path / "report"
    code, out = _run(capsys, "--out", str(out_path), "tally", str(i), str(m))
    assert code == 0
    assert out.splitlines(True) == want_json
    assert out_path.read_text().splitlines(True) == want_json
    code, out = _run(
        capsys, "--format", "csv", "--out", str(out_path), "tally", str(i), str(m)
    )
    assert code == 0
    assert out.splitlines(True) == want_csv
    assert out_path.read_text().splitlines(True) == want_csv


@pytest.mark.parametrize(
    "argv,digest",
    [
        ([], "7db2b7e840d1bc22f27cd858fcbfb1e887d58d3b665c874b5fc83722715a93a4"),
        (
            ["--format", "csv"],
            "5a1f1b883a0646cb399ceacb466d1b27c31655dc3aa5e736241d90a22fb08bf8",
        ),
    ],
)
def test_tally_2_6_report_digest(capsys, tmp_path, argv, digest):
    out_path = tmp_path / "report"
    code, out = _run(capsys, *argv, "--out", str(out_path), "tally", "2", "6")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert out_path.read_text() == out


# stdout sha256 of the signed square count by both routes, the tableau-word
# pairing, the pairing identity, the symmetric Kronecker positivity report,
# the invariant checks and witnesses at the smallest m and the battery that
# replays them.  At m = 6 both signed square count reports give -199065600;
# alon-tarsi 3 gives 0, sign-sum 2 gives -2 twice, pairing 2 2 has lhs 1,
# invariant-check 4 2 computes 1/3 and witness 2 2 finds -1/4 at seed 0.
_REPORT_DIGESTS = {
    "alon-tarsi 3": "7df264d1d462ec528f7b7f43392381b6e8862b4e268ffbc945e439d90b9398db",
    "alon-tarsi 5": "f832ecc3e99e6131357d454ded888cdf1fe640a6fafd9e40b42f545a2aa93180",
    "alon-tarsi 6": "13238f3a965b8d2611664cfa47146bc556a9266eaf86a33adb0ceac1c3cd66ac",
    "sign-sum 2": "44ceb87fe63ea2e6773bd03d154332a18e99f5e910d65c245d6c3b8409b9578a",
    "sign-sum 4": "b2e2c1a5f53479d6f177049f7e8ce11d3f11c0755f6a44687b2a9f346febdd6d",
    "sign-sum 5": "53332930e62fa43f4dc444b437cc5fc42fb3d8ca2debf95635734e6d6c7d9a66",
    "sign-sum 6": "dad90b74ccd3e227fc19a278365c617471c06d36ae0c0e126e3a000c4e26ae42",
    "pairing 2 2": "a1e2f55f1db66276c27837a0969d52209e24172b1e8eb6b279d21fbccd5d0cc4",
    "pairing 1 4": "fd97507050ed550d26c7a7ea37e0701741f44f51638cb121453c2b09c0e40f15",
    "pairing 1 5": "c313ee4a27f6deb74c2c0b4900679a1f1cbad5a978f3e1c0ae115e5202d9b473",
    "pairing 2 4": "cc363995013b8a416ae856983047e414be3b73c435df93d1e2cb29b03814bd10",
    "pairing 2 5": "58e9a81a6b5aa4d27e2893f899b91ab311514c1f872c10bca5cfae4aa60633a1",
    "pairing 2 6": "9ca58e0ed0c2f54d8c2b7fbdff64f590b83976a9103fc435060a54b31f3da4aa",
    "pairing 3 3": "e458b3e59997fb6dbe1c810f72d2a8025f7b0c8669ca942273eda6a4207d96de",
    "verify-all 4": "94fcf4a1528949012705e2017a391f0433da18753094a9ab52558bedd748c7f9",
    "kronecker 2 2": "09358edd9b3426de8c800a887182cf0bcd8712af12bbfa63706c9999fef86b4d",
    "kronecker 2 6": "9fb8e4110de7a1c8351c70a744da0f049b5d9387de32fcba1679eeba6b6eb09a",
    "kronecker 4 3": "ddf63dcd660a4c0051ad30634494dddebc2fca2e1f0be1b179f1128805a1cbdc",
    "kronecker 6 2": "ed13428284829dc925e5e30a1657874507c286c4c11ef62af045df53b56ca58a",
    "invariant-check 2 1": "d86e59b53bdad1cd6168a65e39eeb18a662a26263c3d08a99aa72f37372caad1",
    "invariant-check 4 2": "2954a65a364c92a560e2c4029eb0c62a3198141937fcb14d3a41c2e707002a50",
    "witness 2 1": "c2d57447259d431f0e7c58d88f470f45b7b0dd494ed6fac52c7c4e2f6a7cc655",
    "witness 2 2": "42327f2f62daacdf86744c33c51b54f745e40ac49b4b4c8e5247fc2917ec51d5",
}


@pytest.mark.parametrize("command", list(_REPORT_DIGESTS))
def test_certificate_report_digest(capsys, command):
    code, out = _run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _REPORT_DIGESTS[command]


@pytest.mark.parametrize(
    "route,expected",
    [
        ("rectangle_symmetrizer_pairing", {"lhs_latin": "2", "lhs_full": "1"}),
        ("pattern_imbalance_pairing", {"rhs": "2"}),
        ("full_symmetrizer_pairing", {"lhs_full": "2"}),
    ],
    ids=["latin", "tally", "full"],
)
def test_pairing_mismatch_is_a_failed_check(capsys, monkeypatch, route, expected):
    # A Latin/tally mismatch, or a full route that differs from the Latin
    # one, is exit 1 with the values as the routes gave them.
    from fractions import Fraction

    monkeypatch.setattr(f"detorbit.tensors.{route}", lambda i, m: Fraction(2))
    code, out = _run(capsys, "pairing", "1", "4")
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "NOT EQUAL"
    values = {"lhs_latin": "1", "lhs_full": "1", "rhs": "1", **expected}
    for field, num in values.items():
        assert report[field] == {"num": num, "den": "1"}, field


def test_refused_full_route_reports_null(capsys, monkeypatch):
    def refuse(i, m):
        raise BudgetExceeded("symmetrizer too large", 1)

    monkeypatch.setattr("detorbit.tensors.full_symmetrizer_pairing", refuse)
    code, out = _run(capsys, "pairing", "1", "4")
    assert code == 0
    report = json.loads(out)
    assert report["lhs_full"] is None
    assert report["verdict"] == "equal"


@pytest.mark.parametrize(
    "argv,work",
    [
        (["kronecker", "2", "1"], "detorbit.kronecker.rectangle_sk_positivity"),
        (["tally", "2", "3"], "detorbit.latin.orbit_tally"),
    ],
)
@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unwritable_out_is_bad_input_before_any_work(
    capsys, monkeypatch, tmp_path, argv, work, where
):
    def refuse(*_args, **_kwargs):
        raise AssertionError("work started before --out was opened")

    monkeypatch.setattr(work, refuse)
    path = tmp_path / "missing" / "report" if where == "missing" else tmp_path
    code, out = _run(capsys, "--out", str(path), *argv)
    assert code == 3
    report = json.loads(out)
    assert set(report) == {"error", "kind"}
    assert report["kind"] == "input"
    assert not (tmp_path / "missing").exists()


# Runs `tally 2 6` through cli.main in a fresh interpreter, with stdout
# counted instead of kept, and prints the exit code, how much the peak RSS
# grew during the call, and the report's length.  `latin` is imported
# before the baseline is read, so its import is not counted.
_STREAM_PROBE = """
import sys
from detorbit import cli, latin

def peak():
    # VmHWM starts afresh at exec; ru_maxrss would start from the size of
    # the process that spawned this one, here the test run's.
    with open("/proc/self/status") as status:
        return next(int(s.split()[1]) for s in status if s.startswith("VmHWM:"))

class Count:
    n = 0

    def write(self, text):
        self.n += len(text)

count = Count()
before = peak()
sys.stdout = count
code = cli.main(["tally", *sys.argv[1:]])
sys.stdout = sys.__stdout__
grown = peak() - before
print(code, grown * 1024, count.n)
"""


def test_tally_report_is_streamed_not_built():
    # The report is written in chunks from one bucket of entries at a time,
    # so the peak grows by a small fraction of it (VmHWM is in KiB; Linux).
    # Measured growth: 1.1 MB at (2,6) and 4.5 MB at (3,6).
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for i, m, size, bound in [
        (2, 6, 24054377, 2_500_000),
        (3, 6, 128941679, 8_000_000),
    ]:
        done = subprocess.run(
            [sys.executable, "-c", _STREAM_PROBE, str(i), str(m)],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        )
        code, grown, written = map(int, done.stdout.split())
        assert code == 0
        assert written == size
        assert grown < bound, (i, m, grown)


@pytest.mark.parametrize("m,count", [(2, 12), (4, 15)])
def test_verify_all_checks_replay_as_subcommands(capsys, m, count):
    code, out = _run(capsys, "--seed", "1", "verify-all", str(m))
    assert code == 0
    checks = json.loads(out)["checks"]
    assert len(checks) == count
    assert len({check["name"] for check in checks}) == count
    replayed = [check for check in checks if "report" in check]
    assert len(replayed) == count - min(m, 3)
    for check in replayed:
        code, out = _run(capsys, "--seed", "1", *check["name"].split())
        assert code == 0, check["name"]
        report = json.loads(out)
        report.pop("seed")
        check["report"].pop("seed", None)
        assert report == check["report"], check["name"]


@pytest.mark.parametrize(
    "argv,code",
    [
        # One kernel call needs (3!)^19 leaves: refused before P^20 is built.
        (["invariant-check", "6", "20"], 2),
        # Refused before the m = 8 signed square count starts.
        (["--format", "csv", "alon-tarsi", "8"], 3),
        # About 3.4e7 orbit-tally leaves at m = 7: refused before they start.
        (["alon-tarsi", "7"], 2),
        # C(11, 4) = 330 column subsets, more than a report can rank in a
        # byte: refused before the tally starts.
        (["tally", "4", "11"], 3),
    ],
)
def test_refused_before_the_work_starts(argv, code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-m", "detorbit", *argv],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert done.returncode == code
    assert json.loads(done.stdout)["kind"] == ("infeasible" if code == 2 else "input")


@pytest.mark.parametrize(
    "argv",
    [
        ["tally", "2", "3"],
        ["alon-tarsi", "4"],
        ["pairing", "2", "4"],
        ["sign-sum", "4"],
        ["kronecker", "2", "2"],
    ],
    ids=["tally", "alon-tarsi", "pairing", "sign-sum", "kronecker"],
)
def test_budget_rejected_where_no_budget_is_read(capsys, argv):
    code, out = _run(capsys, "--budget", "10", *argv)
    assert code == 3
    report = json.loads(out)
    assert report["kind"] == "input"
    assert "--budget" in report["error"]
    # The default, spelled out, is not a budget set.
    assert _run(capsys, "--budget", str(DEFAULT_BUDGET), *argv)[0] == 0


def test_budget_reaches_the_witness_search(capsys):
    code, out = _run(capsys, "--budget", "10", "witness", "4", "2")
    assert code == 2
    assert json.loads(out)["kind"] == "infeasible"


def test_threads_rejected_where_nothing_runs_in_blocks(capsys):
    code, out = _run(capsys, "--threads", "2", "pairing", "1", "2")
    assert code == 3
    report = json.loads(out)
    assert report["kind"] == "input"
    assert "--threads" in report["error"]


@pytest.mark.parametrize("m,code", [(6, 2), (3, 3)])
def test_verify_all_caps(capsys, m, code):
    assert _run(capsys, "verify-all", str(m))[0] == code


def test_closed_stdout_exits_3_without_a_traceback():
    # The reader stops after 1 byte of the 24 MB report, as ``| head -c 1``.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen(
        [sys.executable, "-m", "detorbit", "tally", "2", "6"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 3
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "cannot write the report" in err


def test_stdout_closed_before_the_exit_flush_exits_3():
    # A small report stays in stdout's buffer until main flushes it; the
    # reader has gone before that, as in ``| true``.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "detorbit", "kronecker", "2", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 3
    assert "Exception ignored" not in err
    assert err.count("\n") == 1 and "cannot write the report" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["invariant-check", "4000", "2"],
        ["witness", "4000", "2"],
        ["invariant-check", "20000000", "2"],
    ],
)
def test_astronomical_leaf_estimate_is_refused_at_once(argv):
    # (m/2)!^(i-1) leaves is thousands of digits, or millions: it is
    # refused as infeasible, and written as a power of ten.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-m", "detorbit", *argv],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert done.returncode == 2
    report = json.loads(done.stdout)
    assert report["kind"] == "infeasible"
    assert len(report["error"]) < 200 and "~10^" in report["error"]


_TALLY = ["tally", "2", "3"]


def _same(read: str) -> str:
    return f"--out and {read} name the same file"


@pytest.mark.parametrize(
    "argv,error",
    [
        (
            ["--out", "cp.ndjson", "--checkpoint", "cp.ndjson", *_TALLY],
            _same("--checkpoint"),
        ),
        (
            ["--out", "./sub/../cp.ndjson", "--checkpoint", "cp.ndjson", *_TALLY],
            _same("--checkpoint"),
        ),
        (
            ["--out", "link", "--checkpoint", "cp.ndjson", *_TALLY],
            _same("--checkpoint"),
        ),
        (
            ["--out", "new.ndjson", "--checkpoint", "new.ndjson", *_TALLY],
            _same("--checkpoint"),
        ),
        (
            ["--out", "A.csv", "witness", "4", "2", "--matrix", "A.csv"],
            _same("--matrix"),
        ),
        (
            ["--out", "form.json", "invariant-eval", "2", "2", "./form.json"],
            _same("the form"),
        ),
        (
            ["--out", "o.json", "--threads", "2", "pairing", "1", "2"],
            "--threads applies only to tally and alon-tarsi, not pairing",
        ),
        (
            ["--out", "o.json", "--budget", "0", "tally", "2", "2"],
            "threads and budget must be positive",
        ),
    ],
    ids=[
        "same", "relative", "hard-link", "neither-exists", "matrix", "form",
        "threads-pairing", "budget-0",
    ],
)
def test_out_and_checkpoint_on_one_file_is_bad_input(
    capsys, tmp_path, monkeypatch, argv, error
):
    # --out would truncate a file the run reads before the run could read
    # it, and a command line refused for its flags must not touch --out.
    monkeypatch.chdir(tmp_path)
    assert _run(capsys, "--checkpoint", "cp.ndjson", *_TALLY)[0] == 0
    os.link("cp.ndjson", "link")
    (tmp_path / "A.csv").write_text("1,0\n0,1\n1,1\n0,1\n")
    (tmp_path / "form.json").write_text(_form([1, 1]))
    (tmp_path / "o.json").write_text("old report\n")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    code, report = _run(capsys, *argv)
    assert code == 3
    assert json.loads(report) == {"error": error, "kind": "input"}
    # No file is created, truncated or appended to.
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
