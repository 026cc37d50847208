"""Exception hierarchy shared by all sdcode modules."""

from __future__ import annotations


class SdCodeError(Exception):
    """Base class for every error raised by this package."""


# text items

class ItemError(SdCodeError, ValueError):
    """A key=value item is malformed, repeated or unknown, or a required key
    is missing.  `index` is the position of a malformed or repeated item;
    None when the key set is wrong (an unknown or a missing key)."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


# algebra

class BadWidthError(SdCodeError):
    """Field width outside the supported range, or modulus of the wrong degree."""


class ReducibleModulusError(SdCodeError):
    """A field-defining polynomial must be irreducible."""


class NotPrimeError(SdCodeError):
    """Ring parameter p must be an odd prime."""


class AlgebraMismatchError(SdCodeError):
    """Operands belong to different arithmetic contexts."""


class NotAUnitError(SdCodeError):
    """Inversion requested for a non-invertible element."""


# linalg

class IndexOutOfRangeError(SdCodeError):
    """Row or column index outside the matrix."""


class NotSquareError(SdCodeError):
    """Operation defined only for square matrices."""


class SingularSystemError(SdCodeError):
    """Linear system has no unique solution."""


# construct

class OrderTooSmallError(SdCodeError):
    """Construction requires r*n <= O(alpha)."""


class ZeroGlobalEntryError(SdCodeError):
    """Global parity rows must be everywhere nonzero."""


class ShapeMismatchError(SdCodeError):
    """Grid or parameter shape does not match the declared code."""


class ParseError(SdCodeError):
    """Malformed matrix/stripe file.  Carries 1-based line and column."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


# sdcheck

class PatternInvalidError(SdCodeError):
    """Erasure pattern is inconsistent with the code parameters."""


class TooManyErasuresError(SdCodeError):
    """More erased columns than parity-check rows can ever resolve."""


class BadRowCountError(SdCodeError):
    """Shortening target must satisfy 1 <= r_new < r."""


# codec

class TooManyParitySectorsError(SdCodeError):
    """s exceeds the number of data-disk sectors available for parity."""


class SingularParitySupportError(SdCodeError):
    """Parity positions do not form a decodable support."""


class LengthMismatchError(SdCodeError):
    """Data vector length does not match the code dimension."""


class UndecodablePatternError(SdCodeError):
    """Missing positions are not recoverable from this code."""


class InconsistentSyndromeError(SdCodeError):
    """Present symbols already violate the parity checks."""
