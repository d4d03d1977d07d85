"""Exact computer algebra for Hopf group coalgebras.

Finite-dimensional Hopf π-coalgebras over ℚ or F_p, axiom verification,
first-order differential calculi (universal and ideal-quotient),
covariance decision procedures, and the invariance structure theory
(invariant frames, structure functionals, reconstruction).
"""

from .errors import *  # noqa: F401,F403
from .groups import FiniteGroup, cyclic, group_from_table, trivial_group  # noqa: F401
from .linalg import (  # noqa: F401
    Matrix,
    PrimeField,
    QQ,
    Rationals,
    Subspace,
    image,
    kernel,
    quotient,
)
from .hopf import (  # noqa: F401
    HopfPiCoalgebra,
    VerificationReport,
    Violation,
    algebra_generators,
    constant_family,
    group_algebra,
    taft_hopf_algebra,
    verify_all,
    verify_hopf,
    verify_pi_coalgebra,
)
from .calculus import (  # noqa: F401
    Fodc,
    RightIdeal,
    UniversalBimodule,
    ad_map,
    calculus_from_ideal,
    calculus_from_ideal_right,
    calculus_from_kernels,
    check_ad_invariant,
    check_bicovariant,
    check_left_covariant,
    check_right_covariant,
    enumerate_right_ideals,
    ideal_from_calculus,
    induced_delta_l,
    induced_delta_r,
    phi_l,
    phi_r,
    r_inv,
    r_map,
    right_ideal_from_generators,
    t_inv,
    t_map,
    universal_bimodule,
    universal_calculus,
    zero_ideal,
)
from .structure import (  # noqa: F401
    CovariantBimodule,
    StructureData,
    coefficient_maps,
    eta_basis,
    extract_structure,
    functionals_f,
    functionals_g,
    invariant_subspace_left,
    matrix_R,
    reconstruct,
    reconstruction_matches,
)
from .docio import Document, document_from_json, document_to_json, load_document, save_document  # noqa: F401
