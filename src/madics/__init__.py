"""m-adic residue codes over GF(q) and over GF(q)[v]/(v^s - v).

Exact-arithmetic construction of the four code families (even/odd-like,
class I/II), idempotent generators, CRT decomposition over the ring,
multiplier chains, identity checking, exhaustive minimum-distance
computation and Griesmer bound checks.

Attribute access is lazy (PEP 562): ``import madics`` loads no layer,
and the first access to a name in _EXPORTS, such as ``from madics
import ring_code``, imports the module that defines it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": ("DistanceReport", "generator_matrix", "griesmer_check",
                 "min_distance_field", "min_distance_ring",
                 "min_distance_ring_exhaustive"),
    "errors": ("DEFAULT_CAP", "BadSlotIndex", "IncompatibleS", "InvalidM",
               "MadicError", "MultiplierNotCyclic", "NonPrimeModulus",
               "NotCoprime", "NotPrimitiveRoot", "QNotResidue", "TooLarge"),
    "ffield": ("FieldCtx", "make_extension", "make_prime_field"),
    "field_codes": ("FAMILIES", "CyclicCode", "family_codes",
                    "splitting_field"),
    "identities": ("IDENTITY_NAMES", "IdentityOutcome", "check_identities"),
    "residues": ("ResidueSystem", "build_residue_system"),
    "ringalg": ("RingCtx", "format_ring_poly", "make_ring",
                "ring_poly_combine", "ring_poly_component"),
    "ring_codes": ("RingCode", "component_consistency", "ring_code",
                   "ring_mu_chain"),
    "verify": ("VerifyReport", "run_verification"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__),
                   name)
