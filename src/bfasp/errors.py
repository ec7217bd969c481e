"""Shared exception types for parsing, grounding, and solving."""

TOO_DEEP = "input nested too deeply to process"


class BfaspError(Exception):
    """Base class for all toolkit errors."""


class ParseError(BfaspError):
    """Syntax or name-resolution error in a model or data file."""

    def __init__(self, message: str, span=None):
        self.span = span
        super().__init__(f"{span}: {message}" if span is not None else message)


class GroundingError(BfaspError):
    """Instantiation failure: unbound data, bad indices, invalid rules."""

    def __init__(self, message: str, span=None):
        self.span = span
        super().__init__(f"{span}: {message}" if span is not None else message)


class FormatError(BfaspError):
    """Malformed ground-program text or assignment file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class SolveError(BfaspError):
    """Search-time failure, e.g. an objective without a finite value."""
