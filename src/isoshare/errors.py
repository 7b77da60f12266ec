"""Exception hierarchy shared by all isoshare modules."""


class IsoshareError(Exception):
    """Base class for every error raised by this package."""


class LengthMismatch(IsoshareError, ValueError):
    """A bit vector or message has the wrong length."""


class NotOnCurve(IsoshareError, ValueError):
    """A point does not satisfy the curve equation it was used with."""


class SingularCurve(IsoshareError, ValueError):
    """Curve coefficients with vanishing discriminant."""


class NoSuchOrder(IsoshareError, ValueError):
    """Requested point order does not divide the group exponent."""


class BadKernel(IsoshareError, ValueError):
    """Kernel generator does not have the stated prime order."""


class NoIsogenyFound(IsoshareError):
    """Exhaustive isogeny search exhausted all candidate walks."""


class LengthTooSmall(IsoshareError, ValueError):
    """Requested point encoding length cannot hold a point."""


class IdentityNotEncodable(IsoshareError, ValueError):
    """The point at infinity has no compressed encoding."""


class InvalidEncoding(IsoshareError, ValueError):
    """Bit string is not a valid point encoding."""


class BadDistance(IsoshareError, ValueError):
    """Design distance outside the admissible range for the code."""


class Inconsistent(IsoshareError):
    """No codeword agrees with the known symbols."""


class Ambiguous(IsoshareError):
    """More than one codeword agrees with the known symbols."""

    def __init__(self, count, message=None):
        super().__init__(message or f"{count} consistent codewords")
        self.count = count


class NotACodeword(IsoshareError, ValueError):
    """A purported codeword fails the parity checks."""


class InvalidParams(IsoshareError, ValueError):
    """Scheme parameters violate a validation rule."""


class NotEnoughShares(IsoshareError):
    """Too few shares to pin down the codeword uniquely."""


class DuplicateShare(IsoshareError, ValueError):
    """Two shares carry the same participant index."""
