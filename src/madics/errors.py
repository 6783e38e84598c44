"""Exception hierarchy for madics.

Every domain error raised by the library derives from MadicError so
callers (and the CLI) can distinguish validation failures from bugs.
Plain ZeroDivisionError is reused for inversion of zero, matching the
built-in semantics.
"""

DEFAULT_CAP = 1 << 24  # the enumeration size past which TooLarge is raised


class MadicError(Exception):
    """Base class for all madics domain errors."""


class NonPrimeModulus(MadicError):
    """A field characteristic or code length that must be prime is not."""


class NonUnitLeadingCoefficient(MadicError):
    """Polynomial division by the zero polynomial, whose leading
    coefficient is no unit; over a field every other divisor has one."""


class BothZero(MadicError):
    """gcd of two zero polynomials is undefined."""


class NotCoprime(MadicError):
    """Two quantities that must be coprime are not."""


class InvalidM(MadicError):
    """Class count m does not divide p - 1 (or is < 2)."""


class NotPrimitiveRoot(MadicError):
    """Supplied base b does not generate the multiplicative group mod p."""


class MultiplierNotCyclic(MadicError):
    """Multiplier a lies in a class whose index is not coprime to m, so it
    does not cyclically permute the residue classes."""


class QNotResidue(MadicError):
    """Field size q is not an m-adic residue mod p, so class polynomials
    do not descend to F_q."""


class IncompatibleS(MadicError):
    """Ring parameter s violates (s - 1) | (q - 1)."""


class BadSlotIndex(MadicError):
    """A slot assignment references a class index outside [0, m)."""


class InvalidParameter(MadicError, ValueError):
    """A numeric argument lies outside its valid range, such as a
    Griesmer check with n < 1, k < 1, d < 1 or q not a prime power."""


class TooLarge(MadicError):
    """An input exceeds one of the size caps, such as an exhaustive
    enumeration past the configured cap."""


class FieldTooLarge(TooLarge):
    """Requested field size q**t exceeds the supported cap."""


class BackendUnavailable(MadicError):
    """A codeword-scan backend other than the numpy kernel was requested
    (a truthy use_numba argument; that backend no longer exists)."""
