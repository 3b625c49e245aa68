"""Exception hierarchy shared across the package."""


class PathSageError(Exception):
    """Base class for all errors raised by this package."""


class DataError(PathSageError):
    """Dataset ingestion / validation failure (CLI exit code 2)."""


class NumericalError(PathSageError):
    """Numerical failure during training (CLI exit code 3)."""


class InvalidSetting(PathSageError, ValueError):
    """A configuration value outside its allowed range (CLI exit code 2)."""


# --- tensor engine ---

class ShapeMismatch(PathSageError):
    def __init__(self, msg, *shapes):
        if shapes:
            msg = f"{msg}: " + " vs ".join(str(tuple(s)) for s in shapes)
        super().__init__(msg)


class NonScalarLoss(PathSageError):
    pass


# --- graph store ---

class MissingFile(DataError):
    pass


class MalformedRecord(DataError):
    def __init__(self, path, line_no, msg):
        super().__init__(f"{path}:{line_no}: {msg}")
        self.line_no = line_no


class IndexOutOfRange(DataError):
    pass


class DimensionMismatch(DataError):
    pass


class SplitOverlap(DataError):
    pass


class DegenerateGraph(DataError):
    pass


# --- sampler ---

class InvalidPlan(PathSageError):
    pass


# --- encoder ---

class OddDimension(PathSageError):
    pass


class PathTooLong(PathSageError):
    pass


# --- head ---

class WidthMismatch(ShapeMismatch):
    pass


class InvalidTarget(PathSageError):
    pass


# --- trainer / checkpoint ---

class NonFiniteLoss(NumericalError):
    pass


class NonFiniteGradient(NumericalError):
    pass


class VersionMismatch(DataError):
    pass


class ChecksumMismatch(DataError):
    pass


class IncompleteCheckpoint(DataError):
    """A checkpoint with a valid checksum whose fields do not parse, or that
    lacks a block or a state key, or carries an unknown one."""


# --- metrics ---

class EmptySplit(PathSageError):
    pass


class LengthMismatch(PathSageError):
    pass
