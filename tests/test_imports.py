"""Lazy package exports, and the modules each CLI subcommand loads."""

from __future__ import annotations

import importlib
import json

import pytest

import detorbit
from helpers import run_fresh

_PROBE = """
import io, json, sys
from contextlib import redirect_stdout
from detorbit import cli
with redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
json.dump({"code": code, "modules": sorted(sys.modules)}, sys.stdout)
"""


@pytest.mark.parametrize(
    "argv,loaded",
    [
        (["kronecker", "2", "1"], {"kronecker"}),
        (["invariant-check", "4", "2"], {"invariant"}),
        (["tally", "2", "3"], {"latin"}),
        (["witness", "4", "2"], {"orbit", "invariant"}),
    ],
    ids=["kronecker", "invariant-check", "tally", "witness"],
)
def test_subcommand_loads_only_its_modules(argv, loaded):
    run = json.loads(run_fresh(_PROBE, *argv))
    assert run["code"] == 0
    ours = {
        name.split(".", 1)[1]
        for name in run["modules"]
        if name.startswith("detorbit.")
    }
    assert ours == {"cli", "errors", *loaded}
    assert not any(name.split(".")[0] == "multiprocessing" for name in run["modules"])
    if argv[0] == "kronecker":
        # No Fraction is built, so fractions (and decimal, numbers) stays out.
        assert "fractions" not in run["modules"]


def test_package_import_loads_no_computation_module():
    out = run_fresh(
        "import sys, detorbit\n"
        "print(sorted(n for n in sys.modules if n.startswith('detorbit')))\n"
        "print(detorbit.kronecker.__name__)"
    )
    assert out.split("\n")[:2] == [
        "['detorbit', 'detorbit.errors']",
        "detorbit.kronecker",  # submodules still resolve as attributes
    ]


def test_every_export_resolves_to_its_module_object():
    assert len(detorbit.__all__) == len(set(detorbit.__all__))
    for name in detorbit.__all__:
        if name == "BudgetExceeded":
            continue
        module = importlib.import_module(f"detorbit.{detorbit._MODULE_OF[name]}")
        assert getattr(detorbit, name) is getattr(module, name)
        assert name in vars(detorbit)  # cached after the first lookup
    from detorbit.errors import BudgetExceeded

    assert detorbit.BudgetExceeded is BudgetExceeded


def test_star_import_and_dir():
    namespace: dict = {}
    exec("from detorbit import *", namespace)
    assert set(detorbit.__all__) <= set(namespace)
    assert namespace["signed_tally"] is detorbit.latin.signed_tally
    assert set(detorbit.__all__) <= set(dir(detorbit))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        detorbit.no_such_name
    with pytest.raises(ImportError):
        exec("from detorbit import no_such_name", {})
