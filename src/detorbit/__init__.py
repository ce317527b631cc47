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
* :mod:`detorbit.cli` -- reproducible command line experiments.
"""

from .errors import BudgetExceeded
from .latin import (
    LatinRectangle,
    SignedTally,
    alon_tarsi_difference,
    column_order_tally,
    column_sign,
    concatenate,
    enumerate_latin_rectangles,
    pattern_of,
    project_last_row,
    rect_sign,
    signed_tally,
    verify_sign_factorization,
)
from .tensors import (
    SparseTensor,
    Tableau,
    apply_symmetrizer,
    latin_sign_sum_pairing,
    pairing,
    pairing_identity_report,
    pattern_imbalance_pairing,
    rectangle_symmetrizer_pairing,
    rectangular_tableau,
    symmetrized_basis_tensor,
    translated_pairing_scan,
    word_tensor,
)
from .invariant import (
    HomPoly,
    det_power_invariant,
    elementary_det_power,
    elementary_matrix_expansion,
    polarized_coefficient,
    polarized_det_power,
    power_sum_invariant_check,
)
from .orbit import (
    RestrictionMatrix,
    content_coefficient,
    det_restriction,
    permanent,
    permanent_naive,
    witness_search,
)
from .kronecker import (
    CharacterTable,
    kronecker_coeff,
    mn_character,
    rectangle_sk_positivity,
    symmetric_kronecker_coeff,
)

__version__ = "0.1.0"
