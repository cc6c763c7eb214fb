"""Exception taxonomy shared by every module."""


class QmonoError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(QmonoError):
    """The caller broke a precondition: universe mismatch, unknown tag, bad flag."""


class InvalidValueError(QmonoError):
    """A value violates a structural invariant, e.g. a zero denominator factor."""


class PoleError(QmonoError):
    """A substitution made a denominator factor identically zero."""


class ResourceLimitError(QmonoError):
    """An enumeration exceeded its configured cap."""


class InternalConsistencyError(QmonoError):
    """Internal bookkeeping failed; indicates a bug, not a caller mistake."""


class ComparatorError(QmonoError):
    """The fraction comparator accepted a pair it must reject."""


class NotApplicableError(UsageError):
    """The requested value is excluded by hypothesis (e.g. equal row lengths)."""
