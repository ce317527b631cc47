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

Each public name lives in its module's ``__all__`` and is imported from
there (``from detorbit.latin import orbit_tally``).  Importing the package
loads none of the computation modules; ``detorbit.latin`` after a bare
``import detorbit`` loads that module on first access (PEP 562).
"""

from importlib import import_module as _import_module

from .errors import BudgetExceeded

__version__ = "0.1.0"

_SUBMODULES = ("latin", "tensors", "invariant", "orbit", "kronecker", "oracles", "cli")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
