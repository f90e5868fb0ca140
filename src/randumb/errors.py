"""Exception hierarchy shared by all modules.

Each family carries the process exit code the CLI maps it to:
configuration problems exit 2, data and file-format problems exit 3,
numerical failures exit 4.  ``check_int`` and ``check_real`` own the
type rules of settings that a checkpoint's JSON meta stores.
"""


class RanDumbError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1

    def with_prefix(self, prefix: str) -> "RanDumbError":
        """Prepend context (e.g. the stream position) to the message,
        keeping the exception type and attributes intact."""
        if self.args:
            self.args = (f"{prefix}: {self.args[0]}",) + self.args[1:]
        else:
            self.args = (prefix,)
        return self


class ConfigurationError(RanDumbError):
    """Invalid parameters, specs, or usage that must be fixed by the caller."""

    exit_code = 2


class EmptyModelError(ConfigurationError):
    """Prediction requested before any class was observed."""


class ModelStateError(ConfigurationError):
    """Operation called in a state that does not support it."""


class DataError(RanDumbError):
    """Bad data values: non-finite entries, inconsistent counts, and similar.

    ``row`` is the index of the offending row within a block, when a
    single row is to blame.
    """

    exit_code = 3

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class ShapeError(DataError):
    """Input dimension does not match the configured dimension."""


class DataFormatError(DataError):
    """A file does not follow its declared binary layout."""


class InsufficientDataError(DataError):
    """Too few samples for the requested statistic."""


class UnsupportedAugmentationError(DataError):
    """Augmentation requested on data that cannot be augmented."""


class NumericalError(RanDumbError):
    """Factorization or inversion failure."""

    exit_code = 4

    def __init__(self, message: str, pivot_index: int | None = None):
        super().__init__(message)
        self.pivot_index = pivot_index


def check_int(name: str, value, minimum: int | None) -> None:
    """Refuse a setting that is not exactly an int (a bool, a float or a
    numpy integer included) or is below ``minimum`` (None: any int),
    naming the value given.  Counts, sizes and seeds go into JSON
    checkpoint meta and result records, which take only Python ints."""
    if type(value) is not int:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")


def check_real(name: str, value) -> None:
    """Refuse a setting that is not a Python int or float (a bool or a
    numpy float32 included; numpy's float64 is a float), naming the
    value given."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{name} must be a Python int or float, got {value!r}")
