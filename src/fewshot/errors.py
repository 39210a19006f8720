"""Exception types shared across the library."""


class FewshotError(Exception):
    """Base class for all library errors."""


class ShapeError(FewshotError):
    """Operands have incompatible or unexpected shapes."""


class ConditioningError(FewshotError):
    """A matrix that must be positive definite is not (names the pivot)."""


class ContractError(FewshotError):
    """A caller broke a documented precondition."""


class ConfigError(FewshotError):
    """Invalid configuration value or broken layer-dimension chain."""


class SamplingError(FewshotError):
    """The dataset cannot supply the requested episode."""


class CheckpointError(FewshotError):
    """Malformed or unreadable parameter checkpoint file."""


class DatasetFormatError(FewshotError):
    """A dataset file is malformed."""


class DegenerateSubspaceError(FewshotError):
    """A class subspace collapsed (zero support matrix)."""


class DivergenceError(FewshotError):
    """Training produced a non-finite loss."""

    def __init__(self, message: str, episode_index: int | None = None):
        super().__init__(message)
        self.episode_index = episode_index
