"""The package namespace, and the modules each CLI subcommand loads."""

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


_SUBMODULES = {*_COMPUTATION, "oracles", "cli", "errors"}


def test_package_namespace_holds_only_the_submodules():
    # Every public name is imported from its module, never from the package.
    public = {name for name in vars(detorbit) if not name.startswith("_")}
    assert public <= {*_SUBMODULES, "BudgetExceeded"}
    assert detorbit.__version__ == "0.1.0"
    from detorbit.errors import BudgetExceeded

    assert detorbit.BudgetExceeded is BudgetExceeded
    for module_name in sorted(_SUBMODULES):
        module = getattr(detorbit, module_name)
        assert module is importlib.import_module(f"detorbit.{module_name}")
    with pytest.raises(ImportError):
        exec("from detorbit import orbit_tally", {})


def test_star_import_loads_no_computation_module():
    out = run_fresh(
        "import sys\n"
        "from detorbit import *\n"
        "print(sorted(n for n in sys.modules if n.startswith('detorbit')))\n"
        "print(sorted(n for n in globals() if not n.startswith('_')))"
    )
    assert out.split("\n")[:2] == [
        "['detorbit', 'detorbit.errors']",
        "['BudgetExceeded', 'errors', 'sys']",
    ]


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        detorbit.no_such_name
    with pytest.raises(ImportError):
        exec("from detorbit import no_such_name", {})


# Claim checks and reference builders that only the tests run, such as the
# Latin rectangle visitor with its sign and pattern: they live in
# tests/helpers.py, or, like CharacterTable, were folded into plain sums.
# Second names of one thing are gone too: the budget default is
# errors.DEFAULT_BUDGET, and the witness report is the CLI's.
_DROPPED = {
    "latin": (
        "concatenate", "project_last_row", "verify_sign_factorization",
        "enumerate_latin_rectangles", "LatinRectangle", "rect_sign", "pattern_of",
    ),
    "tensors": ("translated_pairing_scan",),
    "kronecker": ("CharacterTable",),
    "invariant": ("DEFAULT_DET_BUDGET",),
    "orbit": ("WitnessResult.to_json_dict",),
}


@pytest.mark.parametrize(
    "module_name,name",
    [(module, n) for module, names in _DROPPED.items() for n in names],
    ids=[n for names in _DROPPED.values() for n in names],
)
def test_dropped_names_are_gone(module_name, name):
    module = importlib.import_module(f"detorbit.{module_name}")
    assert name not in module.__all__
    *path, attr = name.split(".")
    owner = module
    for part in path:
        owner = getattr(owner, part)
    assert not hasattr(owner, attr)
    assert not hasattr(detorbit, attr)


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
    assert len(optional) == 11, optional
