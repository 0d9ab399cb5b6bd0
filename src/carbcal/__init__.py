"""Bayesian nonparametric calibration and summarisation of radiocarbon dates."""

__version__ = "0.1.0"

from carbcal.calcurve import CalibrationCurve, load_curve
from carbcal.calibrate import (
    DensityGrid,
    Determination,
    Hyperparameters,
    calibrate_independent,
    default_hyperparameters,
    hpd_intervals,
    likelihood,
    map_estimates,
    read_determinations,
    spd,
)
from carbcal.dpmm import (
    ChainConfig,
    DpmmState,
    PosteriorSamples,
    expected_clusters,
    run_chain,
    run_chains,
)
from carbcal.predictive import PredictiveDensity, cluster_count_posterior, predictive_density
from carbcal.slicesample import SliceConfig, slice_sample

__all__ = [
    "CalibrationCurve",
    "ChainConfig",
    "DensityGrid",
    "Determination",
    "DpmmState",
    "Hyperparameters",
    "PosteriorSamples",
    "PredictiveDensity",
    "SliceConfig",
    "calibrate_independent",
    "cluster_count_posterior",
    "default_hyperparameters",
    "expected_clusters",
    "hpd_intervals",
    "likelihood",
    "load_curve",
    "map_estimates",
    "predictive_density",
    "read_determinations",
    "run_chain",
    "run_chains",
    "slice_sample",
    "spd",
]
