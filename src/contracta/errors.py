"""Shared exception types."""


class ContractaError(Exception):
    pass


class ParseError(ContractaError):
    """Syntax error in an input file, with 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SemanticError(ContractaError):
    """Well-formed input that violates a semantic constraint (names the culprit)."""


class BudgetExceeded(ContractaError):
    """A bounded search ran out of budget before reaching a definite answer.

    Never a proof of anything: it signals "unknown within the given limits".
    """
