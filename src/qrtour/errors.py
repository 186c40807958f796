"""Exception types shared across the package.

Plain ``ValueError`` is used for bad caller input; the classes here cover
the remaining failure modes that callers (and the CLI exit-code mapping)
need to tell apart.
"""


class ParseError(ValueError):
    """Malformed .trn data; ``position`` is the byte offset of the defect."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at byte {position})")
        self.position = position


class ResourceLimitError(RuntimeError):
    """A documented size guard was exceeded; the message names the bound."""


class InternalInvariantError(RuntimeError):
    """A mathematically guaranteed identity failed: an implementation bug."""
