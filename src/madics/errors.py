"""Exception hierarchy for madics.

Every domain error raised by the library derives from MadicError so
callers (and the CLI) can distinguish validation failures from bugs.
A failed internal check, a bug, is InternalCheckFailed: a MadicError, so
the CLI names it and exits 3, and an AssertionError, as InvalidParameter
is a ValueError, so a caller that catches either keeps working.
Plain ZeroDivisionError is reused for inversion of zero, matching the
built-in semantics.  A message names an input through int_text, so a
huge one is named by its bit length.
"""

DEFAULT_CAP = 1 << 24  # the enumeration size past which TooLarge is raised


def int_text(n):
    """n in decimal below 10**30, else its bit length: a message naming
    an input stays short, and never converts an int past Python's
    4,300-digit limit for int-to-str conversion."""
    return str(n) if abs(n) < 10**30 else f"<{n.bit_length()}-bit int>"


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


class InternalCheckFailed(MadicError, AssertionError):
    """A value that madics proves or checks as it computes is wrong: a
    walk, a factorization, a spectrum or a fold of scan counts.  It
    signals a fault in madics, not in the input."""
