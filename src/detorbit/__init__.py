"""Exact computational certificates around signed Latin squares.

Subpackages:

* :mod:`detorbit.latin` -- signed Latin rectangle enumeration and tallies;
* :mod:`detorbit.tensors` -- sparse exact tensors, Young symmetrizers and
  the pairing identities tying them to the tallies;
* :mod:`detorbit.invariant` -- the degree-i invariant built from the
  polarized determinant power;
* :mod:`detorbit.orbit` -- determinant restrictions along rectangular
  matrices and nonvanishing witness search;
* :mod:`detorbit.kronecker` -- symmetric group characters and symmetric
  Kronecker positivity checks;
* :mod:`detorbit.oracles` -- slower independent routes the tests check the
  invariant, permanent and signed square count kernels against;
* :mod:`detorbit.cli` -- reproducible command line experiments.

Importing the package loads none of the computation modules.  A name such
as ``detorbit.signed_tally`` is looked up in ``_EXPORTS`` on first access
(PEP 562), which imports its module then and binds the name here, so
``from detorbit import signed_tally`` works as before and a CLI subcommand
loads only the modules it runs.
"""

from importlib import import_module

from .errors import BudgetExceeded

__version__ = "0.1.0"

_EXPORTS = {
    "latin": (
        "LatinRectangle",
        "OrbitTally",
        "SignedTally",
        "alon_tarsi_difference",
        "column_order_difference",
        "column_order_tally",
        "column_sign",
        "enumerate_latin_rectangles",
        "orbit_tally",
        "pattern_of",
        "rect_sign",
        "signed_tally",
    ),
    "tensors": (
        "SparseTensor",
        "Tableau",
        "apply_symmetrizer",
        "full_symmetrizer_pairing",
        "pairing",
        "pairing_identity_report",
        "pattern_imbalance_pairing",
        "rectangle_symmetrizer_pairing",
        "rectangular_tableau",
        "symmetrized_basis_tensor",
        "word_tensor",
    ),
    "invariant": (
        "HomPoly",
        "det_power_invariant",
        "elementary_det_power",
        "polarized_coefficient",
        "power_sum_invariant_check",
    ),
    "orbit": (
        "RestrictionMatrix",
        "content_coefficient",
        "det_restriction",
        "permanent",
        "witness_search",
    ),
    "kronecker": (
        "kronecker_coeff",
        "mn_character",
        "rectangle_sk_positivity",
        "symmetric_kronecker_coeff",
    ),
    "oracles": (
        "MatrixTensorTerm",
        "elementary_matrix_expansion",
        "exact_det",
        "latin_sign_sum_pairing",
        "permanent_naive",
        "polarized_det_power",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["BudgetExceeded", *_MODULE_OF]


def __getattr__(name: str):
    if name in _EXPORTS:  # ``detorbit.latin`` after a bare ``import detorbit``
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
