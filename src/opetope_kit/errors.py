"""Exception types shared across the package."""

from __future__ import annotations


class OpetopeError(Exception):
    """Base class for every error raised by this package."""


class UnknownFaceReference(OpetopeError):
    """A face name was used that the complex (or map) does not contain."""


class ZeroDimensionalFace(OpetopeError):
    """Sources/target were requested for a dimension-0 face."""


class DimensionTooHigh(OpetopeError):
    pass


class DimensionTooLow(OpetopeError):
    pass


class DimensionOutOfRange(OpetopeError):
    pass


class PreconditionViolation(OpetopeError):
    """A documented precondition of an operation does not hold."""


class InternalInvariantBroken(OpetopeError):
    """A property guaranteed by prior validation failed; indicates a bug."""


class InvalidArity(OpetopeError):
    pass


class InvalidTree(OpetopeError):
    pass


class BudgetTooLarge(OpetopeError):
    """Enumeration would exceed the configured work limit."""


class InvalidComplex(OpetopeError):
    """Raised when constructing a complex from data that fails validation.

    Carries the full validation report in ``report``.
    """

    def __init__(self, report):
        self.report = report
        lines = "; ".join(v.detail for v in report.violations)
        super().__init__(f"invalid complex: {lines}")


class LozengeError(OpetopeError):
    """Failure to complete a half lozenge; doubles as the witness.

    ``bottom``, ``left`` and ``top`` name the chain the completion started
    from (bottom covered by left covered by top).
    """

    def __init__(self, bottom, left, top, detail):
        self.bottom = bottom
        self.left = left
        self.top = top
        super().__init__(f"{detail} (chain {bottom} < {left} < {top})")


class NoCompletion(LozengeError):
    def __init__(self, bottom, left, top):
        super().__init__(bottom, left, top, "no completing face")


class AmbiguousCompletion(LozengeError):
    def __init__(self, bottom, left, top, candidates):
        self.candidates = tuple(candidates)
        super().__init__(
            bottom, left, top,
            "several completing faces: " + ", ".join(self.candidates))


class SignRuleViolation(LozengeError):
    def __init__(self, bottom, left, top, right, signs):
        self.right = right
        self.signs = signs
        super().__init__(
            bottom, left, top,
            f"completion {right} breaks the sign rule {signs}")


class ParseError(OpetopeError):
    """Base class for text-format errors (DSL and JSON)."""


class DslSyntaxError(ParseError):
    def __init__(self, line, col, expected):
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"line {line}, col {col}: expected {expected}")


class DuplicateDeclaration(ParseError):
    def __init__(self, line, detail):
        self.line = line
        super().__init__(f"line {line}: duplicate declaration ({detail})")


class JsonShapeError(ParseError):
    def __init__(self, path, detail):
        self.path = path
        super().__init__(f"at {path}: {detail}")


class NonAsciiName(OpetopeError):
    """A valid face name that the ASCII line format cannot write."""

    def __init__(self, name):
        self.name = name
        super().__init__(
            f"face name {name!r} cannot be written in the line format")
