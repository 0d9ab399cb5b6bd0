"""Loading and interpolation of published radiocarbon calibration curves.

A curve file is plain text: comment lines start with '#', data rows are
comma-separated ``CAL BP, 14C age, Sigma[, Delta 14C, Sigma]`` (trailing
columns ignored).  Files listing calendar age in descending order, as the
published IntCal distributions do, are normalised to ascending order.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from carbcal.errors import CurveFormatError, CurveRangeError


@dataclass(frozen=True)
class CalibrationCurve:
    """Gridded posterior mean and sd of a calibration curve.

    Construction checks that every value is finite, the calendar ages
    strictly increase and every sd is positive; a failure raises
    :class:`CurveFormatError` carrying the index of the offending knot.

    Attributes
    ----------
    cal_age : ndarray
        Strictly increasing calendar ages (cal yr BP).
    c14_mean : ndarray
        Curve mean radiocarbon age at each knot (14C yr BP).
    c14_sd : ndarray
        Curve standard deviation at each knot (14C yr), all > 0.
    """

    cal_age: np.ndarray
    c14_mean: np.ndarray
    c14_sd: np.ndarray
    source: str = field(default="<memory>", compare=False)

    def __post_init__(self):
        cal_age = np.ascontiguousarray(self.cal_age, dtype=float)
        c14_mean = np.ascontiguousarray(self.c14_mean, dtype=float)
        c14_sd = np.ascontiguousarray(self.c14_sd, dtype=float)
        if not (len(cal_age) == len(c14_mean) == len(c14_sd)):
            raise CurveFormatError("curve columns have unequal lengths")
        if len(cal_age) < 2:
            raise CurveFormatError("curve needs at least 2 knots")
        finite = np.isfinite(cal_age) & np.isfinite(c14_mean) & np.isfinite(c14_sd)
        if not finite.all():
            i = int(np.argmin(finite))
            row = [float(cal_age[i]), float(c14_mean[i]), float(c14_sd[i])]
            raise CurveFormatError(f"non-finite value in the first three columns {row}", knot=i)
        dup = np.diff(cal_age) <= 0
        if np.any(dup):
            i = int(np.argmax(dup)) + 1
            raise CurveFormatError(f"duplicate or out-of-order calendar age {cal_age[i]:g}", knot=i)
        bad_sd = c14_sd <= 0
        if np.any(bad_sd):
            i = int(np.argmax(bad_sd))
            raise CurveFormatError(f"non-positive curve sd {c14_sd[i]:g}", knot=i)
        # The knots interp reads: the mean and sd as one complex array, so
        # one interpolation serves both.  They stay writable because
        # np.interp copies read-only inputs on every call; nothing writes them.
        object.__setattr__(self, "_ages", cal_age.copy())
        object.__setattr__(self, "_mean_sd", c14_mean + 1j * c14_sd)
        for name, arr in (("cal_age", cal_age), ("c14_mean", c14_mean), ("c14_sd", c14_sd)):
            arr.flags.writeable = False  # immutable after load; safe to share across chains
            object.__setattr__(self, name, arr)

    @property
    def support(self) -> tuple[float, float]:
        """(min, max) calendar age covered by the curve."""
        return float(self.cal_age[0]), float(self.cal_age[-1])

    def __len__(self) -> int:
        return len(self.cal_age)

    def at(self, theta):
        """Linearly interpolated (mean, sd) at calendar age(s) ``theta``.

        Exact at knots; raises CurveRangeError outside the curve support
        (the curve is never extrapolated).
        """
        theta = np.asarray(theta, dtype=float)
        lo, hi = self.support
        if np.any(theta < lo) or np.any(theta > hi):
            bad = theta[(theta < lo) | (theta > hi)]
            first = float(np.atleast_1d(bad)[0])
            raise CurveRangeError(
                f"calendar age {first:g} outside curve support [{lo:g}, {hi:g}]"
            )
        both = self.interp(theta)
        if theta.ndim == 0:
            return float(both.real), float(both.imag)
        # Contiguous copies: strided views of the complex result would slow
        # every later operation on the grid.
        return np.ascontiguousarray(both.real), np.ascontiguousarray(both.imag)

    def interp(self, theta) -> np.ndarray:
        """Interpolated ``mean + 1j * sd`` at calendar age(s) ``theta``.

        Like :meth:`at` minus range checking: the caller must keep ``theta``
        inside the support.  Samplers call this in their hot loop.
        """
        return np.interp(theta, self._ages, self._mean_sd)


def load_curve(path) -> CalibrationCurve:
    """Load and validate a calibration curve file.

    Returns a curve sorted ascending in calendar age; descending input files
    (the IntCal convention) are reversed.  A leading UTF-8 byte-order mark is
    skipped.  Parse failures, and the failures of :class:`CalibrationCurve`'s
    checks, raise :class:`CurveFormatError` naming the offending line.
    """
    cal, mean, sd, lines = array("d"), array("d"), array("d"), array("q")
    try:
        fh = open(path, encoding="latin-1")
    except OSError as exc:
        raise CurveFormatError(f"cannot read curve file: {exc.strerror}", path=path) from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            # a UTF-8 byte-order mark, as spreadsheet programs write, read as latin-1
            line = (raw.removeprefix("\xef\xbb\xbf") if lineno == 1 else raw).strip()
            if not line or line.startswith("#"):
                continue
            # Only the first three columns are read; float() strips whitespace.
            parts = line.split(",", 3)
            if len(parts) < 3:
                raise CurveFormatError(
                    f"expected at least 3 comma-separated columns, got {len(parts)}",
                    path=path,
                    line=lineno,
                )
            try:
                cal.append(float(parts[0]))
                mean.append(float(parts[1]))
                sd.append(float(parts[2]))
            except ValueError as exc:
                # Parse the stripped fields again, so the message quotes the bad token bare.
                for part in parts[:3]:
                    try:
                        float(part.strip())
                    except ValueError as stripped_exc:
                        exc = stripped_exc
                        break
                raise CurveFormatError(f"unparseable number: {exc}", path=path, line=lineno)
            lines.append(lineno)
    if len(cal) < 2:
        raise CurveFormatError("curve file has fewer than 2 data rows", path=path)

    columns = [np.frombuffer(column) for column in (cal, mean, sd)]
    if cal[0] > cal[-1]:
        columns = [column[::-1] for column in columns]
        lines = lines[::-1]
    try:
        return CalibrationCurve(*columns, source=str(path))
    except CurveFormatError as exc:
        raise CurveFormatError(exc.message, path=path, line=lines[exc.knot]) from None
