"""Exception hierarchy shared across the package.

``equiref.cli.EXIT_CODES`` alone maps these types to the CLI's exit codes;
library callers catch them directly.
"""


class EquirefError(Exception):
    """Base class for all errors raised by this package; raised as itself
    for a malformed input no subclass names, such as a bad scores-CSV row."""


class PdbParseError(EquirefError):
    """A PDB ATOM record could not be parsed; carries the line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class EmptyStructureError(EquirefError):
    """No atoms remained after filtering a parsed file."""


class FormatOverflowError(EquirefError):
    """A coordinate does not fit the fixed-width PDB column."""


class NoOverlapError(EquirefError):
    """Two structures share no (chain, residue, atom name) key."""


class AlignmentError(EquirefError):
    """Superposition is undefined (too few or degenerate points)."""


class GraphTooSmallError(EquirefError):
    """Fewer than two nodes; a k-NN graph cannot be built."""


class SurfaceOverrideError(EquirefError):
    """External surface-proximity file does not match the structure."""


class ConfigError(EquirefError):
    """Model configuration inconsistent with the data it is applied to."""


class WeightsFormatError(EquirefError):
    """Base class for weight-container load failures."""


class WeightsVersionError(WeightsFormatError):
    """Bad magic bytes or unsupported container version."""


class WeightsHeaderError(WeightsFormatError):
    """The header lacks its config or block list, or holds invalid values."""


class WeightsShapeError(WeightsFormatError):
    """A stored parameter block does not match its declared shape."""


class WeightsTruncatedError(WeightsFormatError):
    """The stream ended before all declared blocks were read."""


class LossUndefinedError(EquirefError):
    """A loss term was requested with an empty supervision set, or a
    dataset holds no examples at all."""


class MissingInputError(EquirefError):
    """An evaluation input is missing: a scores CSV that cannot be read,
    holds no rows or lacks a column, or a structure file it names."""


class NoInterfaceError(EquirefError):
    """Interface metrics were requested for a single-chain structure."""


class UndefinedMetricError(EquirefError):
    """A metric's inputs are too sparse for it to be defined."""


class DivergenceError(EquirefError):
    """A training loss or gradient became non-finite; ``result`` is the
    ``TrainResult`` so far: the last good checkpoint, the optimizer state
    saved with it and the epoch log."""

    def __init__(self, message: str, result):
        super().__init__(message)
        self.result = result
