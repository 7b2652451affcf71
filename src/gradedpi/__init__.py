"""Exact toolkit for real graded division algebras and their polynomial identities.

Constructs the catalog of finite-dimensional real graded division algebras by
structure constants, generates the identity and central-polynomial families
attached to them, and verifies both membership and degree-truncated
completeness by exact cyclotomic linear algebra.
"""

from .algebras import (
    GradedAlgebra,
    HomogeneousElement,
    build_catalog,
    catalog_ids,
    center,
    check_graded_division,
    coarsen_by_quotient,
    detect_complex_bicharacter,
    detect_regular,
    tensor,
)
from .errors import (
    GradedPiError,
    PreconditionError,
    ResourceRefusal,
    SpecParseError,
    VerificationFailure,
)
from .freealg import (
    FreePoly,
    evaluate,
    multilinearize,
    named_poly,
    parse_poly,
    reorder_scalar,
    transfer_phi,
)
from .groups import Bicharacter, FiniteAbelianGroup, bichar_tensor, quotient_by
from .pitool import (
    GeneratorSet,
    MultidegreeBasis,
    VerificationReport,
    family_pauli,
    family_regular,
    is_central,
    is_identity,
    lift_basis,
    multilinear_central_space,
    multilinear_identity_space,
    pauli_reduce,
    replay_certificate,
    tideal_consequences,
    transfer_basis,
    tspace_consequences,
    verify_basis,
)
from .scalars import Cyclo, kernel_over_real_subfield, span_compare

__version__ = "0.1.0"
