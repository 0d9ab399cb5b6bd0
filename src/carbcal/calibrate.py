"""Independent grid calibration, HPD intervals, SPDs, and default priors.

Independent calibration inverts the curve for one determination at a time:
the posterior over calendar age is the measurement likelihood, marginalised
over curve uncertainty, normalised on a uniform grid under a flat age prior.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv

from carbcal.calcurve import CalibrationCurve
from carbcal.errors import DataError

LOG_2PI = math.log(2.0 * math.pi)

#: Coarse grid spacing (cal yr) for the fast preliminary calibration.
COARSE_RESOLUTION = 5.0


def default_resolution(span: float) -> float:
    """Fine grid spacing: 1 cal yr for spans up to 10 kyr, else 5 cal yr."""
    return 1.0 if span <= 10_000 else 5.0


@dataclass(frozen=True)
class Determination:
    """One observed radiocarbon age with its laboratory uncertainty."""

    id: str
    x: float      # 14C yr BP
    sigma: float  # 14C yr, > 0

    def __post_init__(self):
        if "\n" in self.id or "\r" in self.id:
            raise DataError(f"determination {self.id!r}: id must not contain a line break")
        if not math.isfinite(self.x):
            raise DataError(f"determination {self.id!r}: radiocarbon age must be finite")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise DataError(f"determination {self.id!r}: sigma must be > 0")


@dataclass(frozen=True)
class DensityGrid:
    """A density sampled on a uniform ascending calendar-age grid."""

    theta: np.ndarray
    density: np.ndarray
    resolution: float
    normalized: bool = True

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
        for name in ("lam", "nu1", "nu2", "psi", "eta1", "eta2", "slice_width", "alpha_prop_sd"):
            if not getattr(self, name) > 0:
                raise DataError(f"hyperparameter {name} must be > 0")
        if self.n_init_clusters < 1:
            raise DataError("n_init_clusters must be >= 1")


def read_determinations(path) -> list[Determination]:
    """Read a ``id,c14_age,c14_sig`` CSV file of determinations."""
    dets = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
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
                det = Determination(row[0].strip(), float(row[1]), float(row[2]))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}")
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}")
            dets.append(det)
    if not dets:
        raise DataError(f"{path}: no determinations found")
    return dets


def write_csv(path, header, rows) -> None:
    """Write a CSV file: fields quoted where needed, floats in round-trip form.

    ``rows`` is an iterable of rows, or a 2-D numeric array.  Numbers never
    need quoting, so an array is formatted in blocks of cells without the
    csv module's per-field work, which would make the 11001-row posterior
    grids take half as long again to write.
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


def likelihood(det: Determination, curve: CalibrationCurve, theta):
    """Measurement density of ``det.x`` at calendar age(s) theta.

    Normal density with mean m(theta) and variance rho(theta)^2 + sigma^2,
    i.e. the observation model marginalised over curve uncertainty.
    """
    m, rho = curve.at(theta)
    var = rho * rho + det.sigma * det.sigma
    resid = det.x - m
    return np.exp(-0.5 * resid * resid / var) / np.sqrt(2.0 * math.pi * var)


def _grid_over_support(curve: CalibrationCurve, resolution: float) -> np.ndarray:
    lo, hi = curve.support
    n_cells = int(math.floor((hi - lo) / resolution + 1e-9))
    return lo + resolution * np.arange(n_cells + 1)


def calibrate_independent(
    det: Determination, curve: CalibrationCurve, resolution: float
) -> DensityGrid:
    """Posterior calendar-age grid for one determination under a flat prior."""
    if not resolution > 0:
        raise DataError("resolution must be > 0")
    theta = _grid_over_support(curve, resolution)
    density = likelihood(det, curve, theta)
    total = density.sum()
    if not (math.isfinite(total) and total > 0):
        lo, hi = curve.support
        raise DataError(
            f"determination {det.id!r}: radiocarbon age {det.x:g} has no likelihood "
            f"mass on the curve support [{lo:g}, {hi:g}]"
        )
    density = density / (total * resolution)
    return DensityGrid(theta, density, resolution)


def spd(dets, curve: CalibrationCurve, resolution: float) -> DensityGrid:
    """Summed probability distribution: average of independent posteriors."""
    if len(dets) == 0:
        raise DataError("spd needs at least one determination")
    theta = _grid_over_support(curve, resolution)
    total = np.zeros_like(theta)
    for det in dets:
        total += calibrate_independent(det, curve, resolution).density
    total /= len(dets)
    total /= total.sum() * resolution
    return DensityGrid(theta, total, resolution)


def hpd_intervals(grid: DensityGrid, level: float) -> list[tuple[float, float, float]]:
    """Highest-posterior-density intervals enclosing ``level`` mass.

    Grid cells are included in descending-density order (ties broken toward
    smaller calendar age) until the included mass reaches the level; runs of
    contiguous included cells form the intervals.  Returns a list of
    (lo, hi, mass) tuples sorted by lo.
    """
    if not 0 < level < 1:
        raise DataError("HPD level must be in (0, 1)")
    if not grid.normalized or abs(grid.mass - 1.0) > 1e-6:
        raise DataError("hpd_intervals requires a normalized density grid")

    cell_mass = grid.density * grid.resolution
    order = np.argsort(-grid.density, kind="stable")
    cum = np.cumsum(cell_mass[order])
    n_keep = int(np.searchsorted(cum, level, side="left")) + 1
    n_keep = min(n_keep, len(cum))
    keep = np.zeros(len(cum), dtype=bool)
    keep[order[:n_keep]] = True

    intervals = []
    idx = np.flatnonzero(keep)
    start = idx[0]
    prev = idx[0]
    for i in idx[1:]:
        if i != prev + 1:
            intervals.append((start, prev))
            start = i
        prev = i
    intervals.append((start, prev))
    return [
        (float(grid.theta[a]), float(grid.theta[b]), float(cell_mass[a : b + 1].sum()))
        for a, b in intervals
    ]


def hpd_from_draws(draws: np.ndarray, resolution: float, level: float):
    """HPD intervals of sampled values: histogram them onto a grid, then threshold."""
    lo = math.floor(draws.min() / resolution) * resolution
    hi = math.ceil(draws.max() / resolution) * resolution
    edges = np.arange(lo - 0.5 * resolution, hi + resolution, resolution)
    centres = 0.5 * (edges[:-1] + edges[1:])
    counts, _ = np.histogram(draws, bins=edges)
    density = counts / (counts.sum() * resolution)
    return hpd_intervals(DensityGrid(centres, density, resolution), level)


def map_estimates(dets, curve: CalibrationCurve, coarse_resolution: float = COARSE_RESOLUTION):
    """Approximate MAP calendar age per determination from a coarse grid.

    Ties are broken toward the smallest calendar age (first grid argmax).
    """
    if not coarse_resolution > 0:
        raise DataError("coarse_resolution must be > 0")
    theta = _grid_over_support(curve, coarse_resolution)
    m, rho = curve.at(theta)
    rho2 = rho * rho
    out = np.empty(len(dets))
    for k, det in enumerate(dets):
        var = rho2 + det.sigma * det.sigma
        loglik = -0.5 * (det.x - m) ** 2 / var - 0.5 * np.log(var)
        out[k] = theta[int(np.argmax(loglik))]
    return out


def _mad(values: np.ndarray, mode: str) -> float:
    dev = np.abs(values - np.median(values))
    if mode == "median":
        return float(np.median(dev))
    if mode == "maximum":
        return float(dev.max())
    raise DataError(f"unknown mad_mode {mode!r}; use 'median' or 'maximum'")


def default_hyperparameters(
    dets,
    curve: CalibrationCurve,
    coarse_resolution: float = COARSE_RESOLUTION,
    mad_mode: str = "median",
) -> Hyperparameters:
    """Adaptive default hyperparameters from a fast preliminary calibration.

    A coarse-grid MAP age per determination drives scale-invariant defaults:
    the spread prior allows clusters up to roughly the spread of the MAP ages,
    cluster centres may roam about their overall range, and the concentration
    prior is a standard exponential.
    """
    if len(dets) < 2:
        raise DataError("default_hyperparameters needs at least 2 determinations")
    theta_map = map_estimates(dets, curve, coarse_resolution)
    spread = theta_map.max() - theta_map.min()
    if spread == 0:
        raise DataError(
            "all preliminary MAP calendar ages are identical; "
            "supply hyperparameters manually"
        )
    mad = _mad(theta_map, mad_mode)
    if mad == 0:
        raise DataError(
            "preliminary MAP calendar ages have zero spread statistic; "
            "supply hyperparameters manually"
        )
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
    if not 0 < q < 1:
        raise DataError("quantile must be in (0, 1)")
    tau_q = gammaincinv(hyper.nu1, 1.0 - q) / hyper.nu2
    return float(tau_q ** -0.5)
