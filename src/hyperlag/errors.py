"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed hypergraph text; message carries the offending line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class ResourceLimitError(RuntimeError):
    """A search or enumeration exceeded its budget; message names the limit."""

