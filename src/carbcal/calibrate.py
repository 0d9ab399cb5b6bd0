"""Independent grid calibration, HPD intervals, SPDs, and default priors.

Independent calibration inverts the curve for one determination at a time:
the posterior over calendar age is the measurement likelihood, marginalised
over curve uncertainty, normalised on a uniform grid under a flat age prior.
"""

from __future__ import annotations

import codecs
import csv
import functools
import io
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from carbcal.calcurve import CalibrationCurve
from carbcal.errors import DataError

#: Coarse grid spacing (cal yr) for the fast preliminary calibration.
COARSE_RESOLUTION = 5.0


def default_resolution(span: float) -> float:
    """Fine grid spacing: 1 cal yr for spans up to 10 kyr, else 5 cal yr."""
    return 1.0 if span <= 10_000 else 5.0


@dataclass(frozen=True)
class Determination:
    """One observed radiocarbon age with its laboratory uncertainty.

    ``source`` is where it was read, ``"<file>:<line>"``, or ``""`` (not compared).
    Errors about the date start with ``str(det)``: ``dets.csv:4: determination 'far'``.
    """

    id: str
    x: float      # 14C yr BP
    sigma: float  # 14C yr, > 0
    source: str = field(default="", compare=False)

    def __post_init__(self):
        if "\n" in self.id or "\r" in self.id:
            raise DataError(f"{self}: id must not contain a line break")
        if not math.isfinite(self.x):
            raise DataError(f"{self}: radiocarbon age must be finite")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise DataError(f"{self}: sigma must be > 0")

    def __str__(self):
        named = f"determination {self.id!r}"
        return f"{self.source}: {named}" if self.source else named


@dataclass(frozen=True)
class DensityGrid:
    """A density sampled on a uniform ascending calendar-age grid."""

    theta: np.ndarray
    density: np.ndarray
    resolution: float

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        object.__setattr__(self, "density", np.asarray(self.density, dtype=float))
        if self.theta.shape != self.density.shape:
            raise ValueError("theta and density must have equal shapes")
        if np.any(self.density < 0):
            raise ValueError("density values must be nonnegative")

    @property
    def mass(self) -> float:
        """Riemann sum of the density over the grid."""
        return float(self.density.sum() * self.resolution)


@dataclass(frozen=True)
class Hyperparameters:
    """Prior constants of the mixture model plus sampler tuning constants.

    ``lam`` scales the precision of a cluster mean around the overall centre;
    ``nu1``/``nu2`` are the Gamma shape/rate of a cluster precision; ``xi``
    and ``psi`` are the mean and precision of the overall-centre prior; and
    ``eta1``/``eta2`` are the Gamma shape/rate of the concentration prior.
    Every value must be finite, and the step and cluster counts at least 1.
    """

    lam: float
    nu1: float
    nu2: float
    xi: float
    psi: float
    eta1: float = 1.0
    eta2: float = 1.0
    slice_width: float = 100.0
    slice_max_steps: int = 20
    alpha_prop_sd: float = 1.0
    n_init_clusters: int = 10

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise DataError(f"hyperparameter {hyper_key(f.name)} must be finite, got {value}")
        for name in ("lam", "nu1", "nu2", "psi", "eta1", "eta2", "slice_width", "alpha_prop_sd"):
            if not getattr(self, name) > 0:
                raise DataError(f"hyperparameter {hyper_key(name)} must be > 0")
        for name in ("slice_max_steps", "n_init_clusters"):
            if getattr(self, name) < 1:
                raise DataError(f"hyperparameter {name} must be >= 1")


def hyper_key(name: str) -> str:
    """How users write a :class:`Hyperparameters` field: ``lam`` is ``lambda``."""
    return "lambda" if name == "lam" else name


def read_determinations(path) -> list[Determination]:
    """Read a ``id,c14_age,c14_sig`` CSV file of determinations.

    A file that cannot be opened or is not UTF-8 text raises ``DataError``
    naming it (and, for a decoding failure, the line).  A leading UTF-8
    byte-order mark, as spreadsheet programs write, is skipped.  Each date's
    ``source`` is ``"<path>:<line>"``, so any later error about it, such as
    an age off the curve, names its row.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"{path}: cannot read determination file: {exc.strerror}") from None
    # Stripped from the bytes rather than decoded as "utf-8-sig", whose error
    # offsets would count from after the mark.
    raw = raw.removeprefix(codecs.BOM_UTF8)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{lineno}: not valid UTF-8 text") from None
    dets = []
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: empty determination file")
    expected = ["id", "c14_age", "c14_sig"]
    if [h.strip().lower() for h in header[:3]] != expected:
        raise DataError(
            f"{path}:1: expected header 'id,c14_age,c14_sig', got {','.join(header)!r}"
        )
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < 3:
            raise DataError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
        try:
            x, sigma = float(row[1]), float(row[2])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        dets.append(Determination(row[0].strip(), x, sigma, source=f"{path}:{lineno}"))
    if not dets:
        raise DataError(f"{path}: no determinations found")
    return dets


def write_csv(path, header, rows) -> None:
    """Write a CSV file: fields quoted where needed, floats in round-trip form.

    ``rows`` is an iterable of rows, or a 2-D numeric array.  Numbers never
    need quoting, so an array is formatted in blocks of cells without the
    csv module's per-field work: the path of a chain's ``theta.csv`` (a row
    per stored sample, a column per date) and of ``dpmm``'s ``predictive.csv``.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if isinstance(rows, np.ndarray):
            width = rows.shape[1]
            step = 1 + (1 << 16) // width
            for start in range(0, len(rows), step):
                cells = map(repr, rows[start : start + step].ravel().tolist())
                # zip over ``width`` references to one iterator groups the cells by row
                fh.write("\n".join(map(",".join, zip(*[cells] * width))) + "\n")
        else:
            writer.writerows(
                [repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows
            )


class GridWriter:
    """Writes ``cal_age,density`` CSV files of densities on one grid of ages.

    A file has the bytes of ``write_csv(path, ["cal_age", "density"],
    np.column_stack((theta, density)))``.  The row ``"<age>,0.0"`` of each
    grid point is formatted once, here; a file then formats only the cells
    whose density is not +0.0.  A posterior underflows to exactly +0.0 away
    from its date, so that is about one cell in twenty-five on the bundled
    dates, and nearly all of a file's formatting is saved.
    """

    def __init__(self, theta):
        self.theta = np.array(theta, dtype=float)
        self._zero_rows = [f"{age!r},0.0\n" for age in self.theta.tolist()]

    def write(self, path, grid: DensityGrid) -> None:
        """Write ``grid``, whose ages must be this writer's, to ``path``."""
        if not np.array_equal(grid.theta, self.theta):
            raise ValueError("the grid's ages are not the ages this writer formats")
        rows = self._zero_rows.copy()
        # A test of the bits, not of the value: -0.0 and subnormals are formatted too.
        nonzero = np.flatnonzero(grid.density.view(np.uint64))
        for i, value in zip(nonzero.tolist(), grid.density[nonzero].tolist()):
            rows[i] = f"{rows[i][:-4]}{value!r}\n"  # the row less "0.0\n" is "<age>,"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("cal_age,density\n")
            fh.write("".join(rows))


def write_json(path, payload) -> None:
    """Write ``payload`` as JSON indented by two spaces, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


#: The constant the log densities here leave out.
LOG_2PI = math.log(2.0 * math.pi)


def log_likelihood(x, mean, var, log_var):
    """Log normal density of ``x`` with mean ``mean`` and variance ``var``, less ``LOG_2PI / 2``.

    ``log_var`` is ``log(var)``, which a scan of many dates takes once per variance.  With
    the curve's mean, and its variance plus the date's, it is the log likelihood of a date.
    """
    resid = x - mean
    return -0.5 * (resid * resid / var + log_var)


def date_variance(rho2, sigma):
    """The variance ``rho2 + sigma**2`` of a date's likelihood and its log.

    ``rho2`` is the curve's variance at the ages scanned and ``sigma`` the
    date's lab sd.  Scans of many dates take these once per distinct sigma.
    """
    var = rho2 + sigma * sigma
    return var, np.log(var)


def _log_likelihoods(dets, curve: CalibrationCurve, theta):
    """Yield the ``log_likelihood`` of each date of ``dets`` at the ages ``theta``, in order.

    One pass over the curve serves every date: its mean and sd at ``theta``
    are taken once, and the variance terms once per sigma (those of the four
    sigmas used last are kept, so with more distinct sigmas interleaved some
    are made again).
    """
    m, rho = curve.at(theta)
    variance = functools.lru_cache(maxsize=4)(functools.partial(date_variance, rho * rho))
    for det in dets:
        yield log_likelihood(det.x, m, *variance(det.sigma))


def likelihood(det: Determination, curve: CalibrationCurve, theta):
    """Measurement density of ``det.x`` at calendar age(s) theta.

    Normal density with mean m(theta) and variance rho(theta)^2 + sigma^2,
    i.e. the observation model marginalised over curve uncertainty.
    """
    return np.exp(next(_log_likelihoods([det], curve, theta)) - 0.5 * LOG_2PI)


def normal_mixture_density(theta, weights, means, sds):
    """Density at ``theta`` of a normal mixture; components of weight zero are skipped."""
    theta = np.asarray(theta, dtype=float)
    out = np.zeros_like(theta)
    for weight, mean, sd in zip(weights, means, sds):
        if weight == 0.0:
            continue
        z = (theta - mean) / sd
        out += weight * np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))
    return out


def uniform_grid(lo: float, hi: float, resolution: float) -> np.ndarray:
    """Points ``lo + k * resolution`` from ``lo`` up to ``hi`` (less a rounding slack)."""
    n_cells = int(math.floor((hi - lo) / resolution + 1e-9))
    return lo + resolution * np.arange(n_cells + 1)


def _require_mass(
    det: Determination, curve: CalibrationCurve, mass: float, resolution: float
) -> None:
    """Refuse a date whose likelihood on the ``resolution`` grid sums to nothing."""
    if not (math.isfinite(mass) and mass > 0):
        lo, hi = curve.support
        raise DataError(
            f"{det}: radiocarbon age {det.x:g} has no likelihood "
            f"mass on the {resolution:g} cal yr grid over the curve support [{lo:g}, {hi:g}]"
        )


def independent_grids(dets, curve: CalibrationCurve, resolution: float):
    """Yield the posterior grid of each date of ``dets`` under a flat prior, in order.

    The grid is made once and one pass over the curve serves every date
    (see :func:`_log_likelihoods`).  A date with no likelihood mass on the
    grid raises ``DataError`` when its turn comes.  A generator, so that a
    caller holds one date's grid at a time: a list of them would take 88 kB
    per date at 11,001 grid points.
    """
    if not resolution > 0:
        raise DataError("resolution must be > 0")
    theta = uniform_grid(*curve.support, resolution)
    for det, density in zip(dets, _log_likelihoods(dets, curve, theta)):
        density -= 0.5 * LOG_2PI
        np.exp(density, out=density)
        total = density.sum()
        _require_mass(det, curve, total, resolution)
        yield DensityGrid(theta, density / (total * resolution), resolution)


def calibrate_independent(
    det: Determination, curve: CalibrationCurve, resolution: float
) -> DensityGrid:
    """Posterior calendar-age grid for one determination under a flat prior."""
    return next(independent_grids([det], curve, resolution))


def spd(dets, curve: CalibrationCurve, resolution: float) -> DensityGrid:
    """Summed probability distribution: average of independent posteriors."""
    if len(dets) == 0:
        raise DataError("spd needs at least one determination")
    theta = uniform_grid(*curve.support, resolution)
    total = np.zeros_like(theta)
    for grid in independent_grids(dets, curve, resolution):
        total += grid.density
    total /= len(dets)
    total /= total.sum() * resolution
    return DensityGrid(theta, total, resolution)


def hpd_intervals(grid: DensityGrid, level: float) -> list[tuple[float, float, float]]:
    """Highest-posterior-density intervals enclosing ``level`` mass.

    The cells that hold mass are included in descending-density order (ties
    broken toward smaller calendar age) until the included mass reaches the
    level, or all are: a level above their total (within rounding of 1 on a
    normalised grid) includes no cell of zero density.  Runs of contiguous
    included cells form the intervals, as (lo, hi, mass) tuples sorted by lo.
    """
    if not 0 < level < 1:
        raise DataError("HPD level must be in (0, 1)")
    if abs(grid.mass - 1.0) > 1e-6:
        raise DataError("hpd_intervals requires a normalized density grid")
    cell = np.flatnonzero(grid.density > 0)  # the cells that hold mass, all of date 0
    _, lo, hi, mass = _hpd_runs(0 * cell, cell, grid.density[cell], grid.resolution, level)
    return list(zip(grid.theta[lo].tolist(), grid.theta[hi].tolist(), mass.tolist()))


def _hpd_runs(date, cell, density, resolution: float, level: float):
    """:func:`hpd_intervals`' runs of the cells of many dates at once.

    ``date`` and ``cell`` list the cells that hold mass, by date and then by
    cell, and ``density`` their densities on cells of width ``resolution``.
    Returns per run its date, first and last cell and mass, by date and cell;
    a run's mass has the bits of its cells' masses summed as one slice.
    """
    cell_mass = density * resolution
    # densest first; lexsort is stable and the cells come in order, so ties go to the smaller
    order = np.lexsort((-density, date))
    ordered_date = date[order]
    n_cells = np.bincount(date)
    rank = np.arange(len(date)) - (np.cumsum(n_cells) - n_cells)[ordered_date]
    # the cumulative mass in that order, date by date in the rows of ``cum``
    cum = np.zeros((len(n_cells), n_cells.max()))
    cum[ordered_date, rank] = cell_mass[order]
    np.cumsum(cum, axis=1, out=cum)
    n_keep = np.minimum((cum < level).sum(axis=1) + 1, n_cells)
    kept = np.zeros(len(date), dtype=bool)
    kept[order[rank < n_keep[ordered_date]]] = True

    # runs of adjacent kept cells
    date, cell, cell_mass = date[kept], cell[kept], cell_mass[kept]
    opens = (np.diff(cell, prepend=-2) != 1) | (np.diff(date, prepend=-1) != 0)
    begins = np.flatnonzero(opens)
    ends = np.append(begins[1:], len(cell)) - 1
    # a zero before each run's cells makes reduceat add them as a slice's sum() does
    padded = np.zeros(len(cell) + len(begins))
    padded[np.arange(len(cell)) + np.cumsum(opens)] = cell_mass
    mass = np.add.reduceat(padded, begins + np.arange(len(begins)))
    return date[begins], cell[begins], cell[ends], mass


#: Draws that :func:`summarise_draws` takes at a time (whole dates, at least
#: one).  Its temporaries are a few arrays of one block, 128 kB each, so its
#: memory does not grow with the number of dates.  On a ``dpmm`` run of 1000
#: dates with 100 stored draws each, blocks of 1 << 13 to 1 << 17 draws took
#: the same time within 10%; this size left the run's peak RSS within 0.1 MB
#: of the per-date summaries', and 1 << 16 raised it by 2 MB.
SUMMARY_BLOCK_DRAWS = 1 << 14


def summarise_draws(theta, resolution: float, level: float):
    """Each date's mean and ``level`` HPD intervals from its draws, in one pass.

    ``theta`` holds one row per stored sample and one column per date.  A
    date's draws are counted in cells of width ``resolution`` centred on its
    multiples, from the cell of the smallest draw to that of the largest, and
    :func:`hpd_intervals` is taken of their histogram density.  Returns
    ``(mean, date, intervals)``: the mean of each date, and per interval its
    date's index and its ``(lo, hi, mass)`` row, by date and then by ``lo``.

    The bits are those of ``draws.mean()``, of ``np.histogram`` on the edges
    ``np.arange(lo - resolution / 2, hi + resolution, resolution)`` and of
    :func:`hpd_intervals` on that histogram, date by date, but the dates are
    taken in blocks of ``SUMMARY_BLOCK_DRAWS`` draws with one transpose and
    sort each.  A level so near 1 that the cells' masses, which sum to 1 less
    rounding, fall short of it keeps the cells that hold draws and no other.
    """
    if not 0 < level < 1:
        raise DataError("HPD level must be in (0, 1)")
    n_stored, n_dates = theta.shape
    step = max(1, SUMMARY_BLOCK_DRAWS // n_stored)
    blocks = [
        _summarise_block(theta[:, first : first + step].T, first, resolution, level)
        for first in range(0, n_dates, step)
    ]
    mean, date, intervals = zip(*blocks)
    return np.concatenate(mean), np.concatenate(date), np.concatenate(intervals)


def _summarise_block(block, first: int, resolution: float, level: float):
    """:func:`summarise_draws` of the dates whose draws are the rows of ``block``."""
    # Each date's draws contiguous, so that a row is summed as ``draws.mean()``
    # sums a date: a mean across the strides of the transposed view adds in
    # another order.
    draws = np.array(block, dtype=float, order="C")
    mean = draws.mean(axis=1)
    draws.sort(axis=1)
    # The edges are np.arange(start, hi + resolution, resolution) per date:
    # numpy makes point k as ``start + k * delta``, ``delta`` being its second
    # point less its first.  They reach beyond the smallest and largest draw.
    start = np.floor(draws[:, 0] / resolution) * resolution - 0.5 * resolution
    hi = np.ceil(draws[:, -1] / resolution) * resolution
    last = np.ceil((hi + resolution - start) / resolution).astype(np.int64) - 2  # last cell
    delta = (start + resolution) - start

    def edge(date, k):
        return start[date] + k * delta[date]

    # The cell of each draw, as np.histogram's search of the edges finds it:
    # [edge k, edge k + 1).  The estimate may be a cell off near an edge.
    date = np.arange(len(draws))[:, None]
    cell = np.floor((draws - start[date]) / delta[date])
    cell = np.clip(cell, 0, last[date]).astype(np.int64)
    while True:
        down = (cell > 0) & (draws < edge(date, cell))
        up = (cell < last[date]) & (draws >= edge(date, cell + 1))
        if not (down.any() or up.any()):
            break
        cell += up.view(np.int8) - down.view(np.int8)

    # Run lengths of the sorted cells are the nonzero counts, by date and cell.
    date = np.broadcast_to(date, draws.shape).ravel()
    cell = cell.ravel()
    begins = np.flatnonzero(np.diff(cell, prepend=-1) | np.diff(date, prepend=-1))
    count = np.diff(begins, append=len(cell))
    density = count / (draws.shape[1] * resolution)
    date, lo, hi, mass = _hpd_runs(date[begins], cell[begins], density, resolution, level)

    lo, hi = (0.5 * (edge(date, k) + edge(date, k + 1)) for k in (lo, hi))  # cell centres
    return mean, first + date, np.column_stack((lo, hi, mass))


def map_estimates(dets, curve: CalibrationCurve, coarse_resolution: float = COARSE_RESOLUTION):
    """Approximate MAP calendar age per determination from a coarse grid.

    Ties are broken toward the smallest calendar age (first grid argmax).  A
    date whose likelihood underflows to zero all over the grid raises the
    ``DataError`` that :func:`calibrate_independent` raises for it at
    ``coarse_resolution`` (the first such date in input order).  Dates are
    scanned one at a time by :func:`_log_likelihoods`, since one (dates x
    grid) array expression was slower for its memory traffic.
    """
    if not coarse_resolution > 0:
        raise DataError("coarse_resolution must be > 0")
    theta = uniform_grid(*curve.support, coarse_resolution)
    out = np.empty(len(dets))
    with np.errstate(over="ignore"):  # an age far off the curve squares to inf: no mass
        for k, (det, loglik) in enumerate(zip(dets, _log_likelihoods(dets, curve, theta))):
            best = int(np.argmax(loglik))
            _require_mass(det, curve, math.exp(loglik[best]), coarse_resolution)
            out[k] = theta[best]
    return out


def median_abs_deviation(values) -> float:
    """Median absolute deviation of ``values`` from their median."""
    values = np.asarray(values, dtype=float)
    return float(np.median(np.abs(values - np.median(values))))


def default_hyperparameters(dets, curve: CalibrationCurve, theta_map=None) -> Hyperparameters:
    """Adaptive default hyperparameters from a fast preliminary calibration.

    A coarse-grid MAP age per determination drives scale-invariant defaults:
    the spread prior allows clusters up to roughly the spread of the MAP ages,
    cluster centres may roam about their overall range, and the concentration
    prior is a standard exponential.  ``theta_map`` passes in MAP ages the
    caller already has (from :func:`map_estimates`); by default they are
    computed here.
    """
    if len(dets) < 2:
        raise DataError("default_hyperparameters needs at least 2 determinations")
    if theta_map is None:
        theta_map = map_estimates(dets, curve)
    spread = theta_map.max() - theta_map.min()
    if spread == 0:
        raise DataError("all preliminary MAP calendar ages are identical")
    mad = median_abs_deviation(theta_map)
    if mad == 0:
        raise DataError("preliminary MAP calendar ages have zero spread statistic")
    nu1 = 0.25
    q75, q25 = np.percentile(theta_map, [75, 25])
    return Hyperparameters(
        lam=float((100.0 / spread) ** 2),
        nu1=nu1,
        nu2=float(mad * mad * nu1 / 100.0),
        xi=float(np.median(theta_map)),
        psi=float(1.0 / (spread * spread)),
        eta1=1.0,
        eta2=1.0,
        slice_width=float(max(0.5 * (q75 - q25), 50.0)),
    )


def prior_cluster_sd_quantile(hyper: Hyperparameters, q: float) -> float:
    """Quantile of the prior spread of a cluster implied by (nu1, nu2).

    The cluster precision is Gamma(nu1, rate nu2); its inverse square root is
    the cluster sd, whose q-quantile maps to the (1-q)-quantile of the
    precision.
    """
    # scipy is imported here, not at module level: no CLI path needs it and
    # it would double the command-line start-up time.
    from scipy.special import gammaincinv

    if not 0 < q < 1:
        raise DataError("quantile must be in (0, 1)")
    tau_q = gammaincinv(hyper.nu1, 1.0 - q) / hyper.nu2
    return float(tau_q ** -0.5)
