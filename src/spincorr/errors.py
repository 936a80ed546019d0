"""Exception hierarchy shared across the package."""


class SpincorrError(Exception):
    """Base class for all package errors."""


class ModelDefinitionError(SpincorrError):
    """A model, field, or parameter set is malformed or out of contract."""


class DomainError(SpincorrError):
    """An operation was called with arguments outside its domain."""


class BudgetExceededError(SpincorrError):
    """An enumeration would exceed the configured state budget."""


class EnvironmentConditionError(SpincorrError):
    """The boundary-replacement identity failed; carries the witness."""

    def __init__(self, message: str, witness: str, residual: float):
        super().__init__(message)
        self.witness = witness
        self.residual = residual


class GateNotCertifiedError(SpincorrError):
    """The contraction gate did not certify the requested computation."""


class SolverDivergenceError(SpincorrError):
    """Fixed-point iteration diverged; carries the observed growth rate."""

    def __init__(self, message: str, rate: float, iterations: int):
        super().__init__(message)
        self.rate = rate
        self.iterations = iterations


class ModelFileError(SpincorrError):
    """A model definition file failed to parse; carries the line."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
