"""Exception types shared across the library."""


class FewshotError(Exception):
    """Base class for all library errors."""


class ShapeError(FewshotError):
    """Operands have incompatible or unexpected shapes."""


class NumericalError(FewshotError):
    """A numerical failure inside an episode's computation.

    ``episode_index`` is the episode that failed, when known.
    """

    def __init__(self, message: str, episode_index: int | None = None):
        super().__init__(message)
        self.episode_index = episode_index

    def at_episode(self, index: int) -> "NumericalError":
        """The same failure, named as episode ``index``'s."""
        return type(self)(f"{self} at episode {index}", episode_index=index)


class ConditioningError(NumericalError):
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


class DegenerateSubspaceError(NumericalError):
    """A class subspace collapsed (zero support matrix)."""


class DivergenceError(NumericalError):
    """Training produced a non-finite loss."""
