"""Exception types shared across the package."""


class CarbcalError(Exception):
    """Base class for all errors raised by this package."""


class CurveFormatError(CarbcalError):
    """A calibration curve file failed to parse or validate.

    Carries the offending file path and 1-based line number when known, or
    the 0-based index of the offending knot of an ascending curve (which
    :func:`carbcal.calcurve.load_curve` maps to the file line).
    """

    def __init__(self, message, path=None, line=None, knot=None):
        self.message = message
        self.path = path
        self.line = line
        self.knot = knot
        prefix = ""
        if path is not None:
            prefix = f"{path}:"
            if line is not None:
                prefix += f"{line}:"
            prefix += " "
        super().__init__(prefix + message)


class CurveRangeError(CarbcalError):
    """A calendar age fell outside the calibration curve support."""


class DataError(CarbcalError):
    """User-supplied data (determination files, options) is invalid."""
