"""Exception hierarchy shared by all qshift modules."""


class QShiftError(Exception):
    """Base class for all errors raised by this package."""


class ZeroPolynomial(QShiftError):
    pass


class NotPolynomial(QShiftError):
    pass


class ZeroOperator(QShiftError):
    pass


class OrderTooLow(QShiftError):
    pass


class ArityMismatch(QShiftError):
    pass


class NotMaurerCartan(QShiftError):
    pass


class NotCertified(QShiftError):
    pass


class NonIsolated(QShiftError):
    pass


class NoConsistentProfile(QShiftError):
    pass


class ExponentOverflow(QShiftError):
    """An exponent beyond the field of a packed monomial key."""


class UsageError(QShiftError):
    """A command-line argument or flag that its command does not take."""


class ParseError(QShiftError):
    """Problem-file syntax error, carries 1-based line/column."""

    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class UnknownVariable(ParseError):
    pass
