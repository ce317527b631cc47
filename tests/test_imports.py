"""Lazy package exports, and the modules each CLI subcommand loads."""

from __future__ import annotations

import importlib
import inspect
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


_COMPUTATION = {"latin", "tensors", "invariant", "orbit", "kronecker"}


@pytest.mark.parametrize(
    "argv,loaded",
    [
        (["kronecker", "2", "1"], {"kronecker"}),
        (["invariant-check", "4", "2"], {"invariant"}),
        (["tally", "2", "3"], {"latin"}),
        (["witness", "4", "2"], {"orbit", "invariant"}),
        (["alon-tarsi", "4"], {"latin"}),
        (["pairing", "2", "4"], {"latin", "tensors"}),
        (["sign-sum", "4"], {"latin"}),
        (["invariant-eval", "2", "2", "FORM"], {"invariant"}),
        (["verify-all", "2"], _COMPUTATION),
    ],
    ids=[
        "kronecker", "invariant-check", "tally", "witness", "alon-tarsi",
        "pairing", "sign-sum", "invariant-eval", "verify-all",
    ],
)
def test_subcommand_loads_only_its_modules(argv, loaded, tmp_path):
    form = tmp_path / "form.json"
    form.write_text(json.dumps(
        {"vars": 2, "degree": 2, "terms": [{"exp": [1, 1], "num": "1", "den": "1"}]}
    ))
    argv = [str(form) if arg == "FORM" else arg for arg in argv]
    run = json.loads(run_fresh(_PROBE, *argv))
    assert run["code"] == 0
    ours = {
        name.split(".", 1)[1]
        for name in run["modules"]
        if name.startswith("detorbit.")
    }
    assert ours == {"cli", "errors", *loaded}
    assert "oracles" not in ours
    assert not any(name.split(".")[0] == "multiprocessing" for name in run["modules"])
    # No value type is a dataclass, so neither module is loaded.
    assert not {"dataclasses", "inspect"} & set(run["modules"])
    if argv[0] == "kronecker":
        # No Fraction is built, so fractions (and decimal, numbers) stays out.
        assert "fractions" not in run["modules"]


def test_package_import_loads_no_computation_module():
    out = run_fresh(
        "import sys, detorbit\n"
        "print(sorted(n for n in sys.modules if n.startswith('detorbit')))\n"
        "print(detorbit.kronecker.__name__)\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    assert out.split("\n")[:3] == [
        "['detorbit', 'detorbit.errors']",
        "detorbit.kronecker",  # submodules still resolve as attributes
        "[]",
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


# Claim checks and reference builders that only the tests run: they live in
# tests/helpers.py, or, like CharacterTable, were folded into plain sums.
_DROPPED = {
    "latin": ("concatenate", "project_last_row", "verify_sign_factorization"),
    "tensors": ("translated_pairing_scan",),
    "kronecker": ("CharacterTable",),
}


@pytest.mark.parametrize("name", [n for names in _DROPPED.values() for n in names])
def test_dropped_names_are_gone(name):
    assert name not in detorbit.__all__
    with pytest.raises(AttributeError, match=name):
        getattr(detorbit, name)


# What perfbench calls or reads by name.  Its tracer wraps the functions
# each module lists in ``__all__``, so those stay listed there.
_PINNED = {
    "latin": (
        "signed_tally", "column_order_tally", "load_checkpoint",
        "write_checkpoint_record",
    ),
    "tensors": ("apply_symmetrizer",),
    "orbit": ("permanent", "content_coefficient", "matrix_from_csv"),
    "kronecker": ("symmetric_kronecker_coeff", "rectangle_sk_positivity"),
}


def test_benchmark_names_still_resolve():
    for module_name, names in _PINNED.items():
        module = importlib.import_module(f"detorbit.{module_name}")
        for name in names:
            assert name in module.__all__, (module_name, name)
            assert callable(getattr(module, name)), (module_name, name)
    from detorbit import orbit

    assert orbit.MAX_PERMANENT_SIZE == 20
    assert callable(orbit._gray_steps)
    assert callable(orbit.RestrictionMatrix.column_repeated)
    # Attributes read off return values.
    from detorbit import kronecker, latin, tensors

    tally = latin.signed_tally(1, 2)
    assert tally.total() == 2
    assert tally.counts == {((1,), (2,)): (1, 0), ((2,), (1,)): (1, 0)}
    assert orbit.witness_search(2, 1).schedule_index == 0
    report = kronecker.rectangle_sk_positivity(2, 1, max_n=2)
    assert (report.n, report.to_json_list(), report.all_positive) == (
        2, report.entries, True
    )
    assert tensors.symmetrized_basis_tensor(2).nnz() == 2
    for module_name, names in _DROPPED.items():
        module = importlib.import_module(f"detorbit.{module_name}")
        for name in names:
            assert not hasattr(module, name), (module_name, name)


def _public_parameters() -> dict[str, inspect.Parameter]:
    """Every parameter of the functions, and the public methods and
    constructors of the classes, that a computation module, ``cli`` or
    ``oracles`` lists in ``__all__``, by module.function.parameter."""
    out = {}
    for module_name in (*sorted(_COMPUTATION), "cli", "oracles"):
        module = importlib.import_module(f"detorbit.{module_name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            functions = {name: obj} if inspect.isfunction(obj) else {}
            if inspect.isclass(obj):
                for attr, value in vars(obj).items():
                    value = getattr(value, "__func__", value)  # classmethods
                    if inspect.isfunction(value) and (
                        attr in ("__init__", "__new__") or not attr.startswith("_")
                    ):
                        functions[f"{name}.{attr}"] = value
            for label, fn in functions.items():
                for param in inspect.signature(fn).parameters.values():
                    out[f"{module_name}.{label}.{param.name}"] = param
    return out


def test_no_public_route_selector_and_few_options():
    # One route per function: no string picks a route, and every option is
    # read by the one route there is.
    params = _public_parameters()
    assert not [key for key in params if key.rsplit(".", 1)[1] in ("order", "method")]
    optional = sorted(key for key, p in params.items() if p.default is not p.empty)
    assert len(optional) == 12, optional
