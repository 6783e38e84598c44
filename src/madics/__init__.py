"""m-adic residue codes over GF(q) and over GF(q)[v]/(v^s - v).

Exact-arithmetic construction of the four code families (even/odd-like,
class I/II), idempotent generators, CRT decomposition over the ring,
multiplier chains, identity checking, exhaustive minimum-distance
computation and Griesmer bound checks.
"""

from .analysis import (
    DEFAULT_CAP,
    DistanceReport,
    generator_matrix,
    griesmer_check,
    min_distance_field,
    min_distance_ring,
    min_distance_ring_exhaustive,
)
from .errors import (
    BadSlotIndex,
    IncompatibleS,
    InvalidM,
    MadicError,
    MultiplierNotCyclic,
    NonPrimeModulus,
    NotCoprime,
    NotPrimitiveRoot,
    QNotResidue,
    TooLarge,
    ZeroCode,
)
from .ffield import FieldCtx, make_extension, make_prime_field
from .field_codes import (
    FAMILIES,
    CyclicCode,
    all_ones_h,
    family_codes,
    splitting_field,
)
from .identities import IDENTITY_NAMES, IdentityOutcome, check_identities
from .residues import ResidueSystem, build_residue_system, mu_poly
from .ringalg import (
    RingCtx,
    format_ring_poly,
    make_ring,
    ring_poly_combine,
    ring_poly_component,
)
from .ring_codes import (
    RingCode,
    chain_step_poly,
    component_consistency,
    ring_code,
    ring_mu_chain,
)
from .verify import VerifyReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CAP", "DistanceReport", "generator_matrix", "griesmer_check",
    "min_distance_field", "min_distance_ring", "min_distance_ring_exhaustive",
    "BadSlotIndex", "IncompatibleS", "InvalidM", "MadicError",
    "MultiplierNotCyclic", "NonPrimeModulus", "NotCoprime",
    "NotPrimitiveRoot", "QNotResidue", "TooLarge", "ZeroCode",
    "FieldCtx", "make_extension", "make_prime_field",
    "FAMILIES", "CyclicCode", "all_ones_h", "family_codes", "splitting_field",
    "IDENTITY_NAMES", "IdentityOutcome", "check_identities",
    "ResidueSystem", "build_residue_system", "mu_poly",
    "RingCtx", "format_ring_poly", "make_ring",
    "ring_poly_combine", "ring_poly_component",
    "RingCode", "chain_step_poly", "component_consistency", "ring_code",
    "ring_mu_chain",
    "VerifyReport", "run_verification",
    "__version__",
]
