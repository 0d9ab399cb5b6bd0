"""Predictive calendar-age density and the cluster-count posterior.

Each stored mixture snapshot induces an exact predictive density for the
age of a future object: a finite normal mixture over its represented
clusters plus one heavy-tailed component for the possibility of a brand-new
cluster.  Averaging realisations over the stored chain gives the pointwise
mean, and the pointwise 2.5% and 97.5% empirical quantiles give the 95%
credible band.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from carbcal.calibrate import (
    Hyperparameters,
    check_grid,
    median_abs_deviation,
    normal_mixture_density,
    uniform_grid,
)
from carbcal.dpmm import ClusterSample, PosteriorSamples, base_marginal
from carbcal.errors import DataError


@dataclass(frozen=True)
class PredictiveDensity:
    """Pointwise predictive summary on a calendar-age grid."""

    theta: np.ndarray
    mean: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def _mixture_weights(sample: ClusterSample) -> tuple[np.ndarray, float]:
    """Cluster weights plus the new-cluster weight; totals one exactly."""
    if sample.w is not None:
        w = np.asarray(sample.w, dtype=float)
        p_new = 1.0 - float(w.sum())
        if p_new < 0.0:
            if p_new < -1e-9:
                raise AssertionError("stick weights exceed one")
            p_new = 0.0
    else:
        n = float(sample.counts.sum())
        w = sample.counts / (n + sample.alpha)
        p_new = sample.alpha / (n + sample.alpha)
    total = float(w.sum()) + p_new
    if abs(total - 1.0) > 1e-9:
        raise AssertionError(f"mixture weights sum to {total!r}, not 1")
    return w, p_new


def predictive_realisation(
    sample: ClusterSample, hyper: Hyperparameters, grid: np.ndarray
) -> np.ndarray:
    """Exact predictive density of one stored snapshot on the grid."""
    w, p_new = _mixture_weights(sample)
    # One scalar power per cluster: the array power ``tau**-0.5`` can differ in the last bit.
    sds = [tau_j**-0.5 for tau_j in sample.tau]
    out = normal_mixture_density(grid, w, sample.phi, sds)
    if p_new > 0.0:
        out += p_new * base_marginal(grid, sample.mu_phi, hyper)
    return out


def predictive_density(
    samples: PosteriorSamples,
    hyper: Hyperparameters,
    grid: np.ndarray,
) -> PredictiveDensity:
    """Average the per-sample predictives and take pointwise quantiles.

    Each realisation is renormalised on the grid, so the result is the
    predictive density conditioned on the age falling inside the grid
    window; the mean curve then integrates to one on the grid.
    """
    if samples.n_stored == 0:
        raise DataError("no stored samples to build a predictive from")
    if samples.n_stored < 100:
        warnings.warn(
            f"predictive built from only {samples.n_stored} stored samples; "
            "at least 100 are recommended",
            stacklevel=2,
        )
    grid = np.asarray(grid, dtype=float)
    if len(grid) < 2:
        raise DataError(f"a predictive grid needs at least 2 points, got {len(grid)}")
    spacing = float(grid[1] - grid[0])
    rows = np.empty((samples.n_stored, len(grid)))
    for k, snap in enumerate(samples.clusters):
        row = predictive_realisation(snap, hyper, grid)
        rows[k] = row / (row.sum() * spacing)
    # the mean first: the band's one partition, in place and so with no copy, reorders each column
    mean = rows.mean(axis=0)
    lo, hi = np.quantile(rows, [0.025, 0.975], axis=0, overwrite_input=True)
    return PredictiveDensity(theta=grid, mean=mean, lo=lo, hi=hi)


#: Bytes that ``dpmm`` holds per point of its predictive grid beside the
#: predictive's rows, 8 bytes a point and stored sample, whose band is taken
#: in place.  From 1 to 0.2 or 0.1 cal yr on the bundled dates, its peak RSS
#: grew by 8 bytes a point and stored sample and 98 to 120 bytes a point more,
#: with 1 to 1000 stored samples: the grid, the mean and band, the columns
#: written and one realisation's temporaries.
PREDICTIVE_POINT_BYTES = 128


def predictive_grid(curve, theta_map, resolution: float, n_stored: int) -> np.ndarray:
    """Grid of a ``dpmm`` run's predictive: the MAP ages padded by four spread units, inside
    the curve's support.  Refuses one whose points and the predictive's rows of
    ``n_stored`` stored samples exceed physical memory, then one of fewer than 2 points."""
    theta_map = np.asarray(theta_map, dtype=float)
    pad = 4.0 * (median_abs_deviation(theta_map) or resolution)
    lo_s, hi_s = curve.support
    lo, hi = max(theta_map.min() - pad, lo_s), min(theta_map.max() + pad, hi_s)
    held = f"whose densities for {n_stored} stored samples"
    check_grid(resolution, lo, hi, 8 * n_stored + PREDICTIVE_POINT_BYTES, held)
    grid = uniform_grid(lo, hi, resolution)
    if len(grid) < 2:
        raise DataError(
            f"--resolution {resolution:g} is wider than the predictive window around "
            "the dates' MAP ages; the predictive grid needs at least 2 points"
        )
    return grid


def cluster_count_posterior(samples: PosteriorSamples) -> dict[int, float]:
    """Relative frequency of occupied-cluster counts across stored samples."""
    if samples.n_stored == 0:
        raise DataError("no stored samples")
    hist = Counter(int((snap.counts > 0).sum()) for snap in samples.clusters)
    return {k: v / len(samples.clusters) for k, v in sorted(hist.items())}
