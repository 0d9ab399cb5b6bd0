"""Synthetic calibration curves and example determination sets.

Real curve files are published data the user supplies; these generators
exist so the pipeline can be exercised end to end (demos, tests, CI)
without them.  The wiggly curve mimics the statistical character of a real
atmospheric record: a drifting mean with superimposed centennial wiggles
strong enough to invert the slope in places, and a reporting sd that grows
with age.
"""

from __future__ import annotations

import math

import numpy as np

from carbcal.calcurve import CalibrationCurve
from carbcal.calibrate import Determination, normal_mixture_density, write_csv

#: Weight, mean and sd of the bundled three-phase demo mixture (cal yr BP).
DEMO_PHASES = ((0.1, 3500.0, 200.0), (0.4, 4200.0, 100.0), (0.5, 5000.0, 300.0))


def wiggly_curve() -> CalibrationCurve:
    """Deterministic synthetic curve over 0-55 kyr BP, knots every 5 cal yr."""
    cal_age = 5.0 * np.arange(11_001)

    # Wiggle amplitudes chosen so the slope inverts on century scales, as the
    # real atmospheric record does.  A 25-yr-precision date then calibrates
    # to a posterior with a median 95.4% span of ~170 cal yr, multimodal
    # about a third of the time, matching published-curve behaviour.
    mean = 0.95 * cal_age + 150.0
    mean = mean + 30.0 * np.sin(2.0 * math.pi * cal_age / 210.0 + 1.0)
    mean = mean + 65.0 * np.sin(2.0 * math.pi * cal_age / 560.0)
    mean = mean + 70.0 * np.sin(2.0 * math.pi * cal_age / 1400.0 + 2.0)
    mean = mean + 110.0 * np.sin(2.0 * math.pi * cal_age / 8100.0 + 0.5)

    # Smoothed random walk for irregular, non-periodic structure.
    rng = np.random.default_rng(2014)
    walk = np.cumsum(rng.normal(0.0, 1.0, size=len(cal_age)))
    kernel = np.ones(41) / 41.0
    walk = np.convolve(walk, kernel, mode="same")
    mean = mean + 5.0 * (walk - walk.mean())

    sd = 5.0 + 15.0 * cal_age / 55_000.0 + 1.5 * np.sin(2.0 * math.pi * cal_age / 3000.0)
    return CalibrationCurve(cal_age, mean, sd, source="<synthetic:2014>")


def write_curve_file(curve: CalibrationCurve, path) -> None:
    """Write a curve in the standard file format (descending calendar age)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# Synthetic calibration curve (not a published record)\n")
        fh.write("# CAL BP, 14C age, Sigma\n")
        for age, m, s in zip(
            curve.cal_age[::-1], curve.c14_mean[::-1], curve.c14_sd[::-1]
        ):
            fh.write(f"{float(age)!r},{float(m)!r},{float(s)!r}\n")


def sample_determinations(
    true_theta, curve: CalibrationCurve, sigma_obs: float, rng, prefix: str = "obs"
) -> list[Determination]:
    """Observe each true age through the curve with the stated lab error."""
    true_theta = np.asarray(true_theta, dtype=float)
    m, rho = curve.at(true_theta)
    x = rng.normal(m, np.sqrt(sigma_obs**2 + rho**2))
    return [
        Determination(f"{prefix}{k}", float(x[k]), float(sigma_obs))
        for k in range(len(true_theta))
    ]


def three_phase_determinations(curve: CalibrationCurve, n: int = 100, seed: int = 3):
    """Demo set: ages from the ``DEMO_PHASES`` mixture, observed with 25 14C yr error.

    Returns (determinations, true_theta).  Draws falling outside the curve
    support are redrawn individually (the mixture tails are negligible at
    the support edges).
    """
    rng = np.random.default_rng(seed)
    weights, means, sds = np.array(DEMO_PHASES).T
    lo, hi = curve.support
    true_theta = np.empty(n)
    for k in range(n):
        while True:
            j = rng.choice(len(weights), p=weights)
            t = rng.normal(means[j], sds[j])
            if lo <= t <= hi:
                true_theta[k] = t
                break
    dets = sample_determinations(true_theta, curve, 25.0, rng)
    return dets, true_theta


def true_three_phase_density(theta):
    """Density of the demo mixture, for comparing reconstructions."""
    return normal_mixture_density(theta, *zip(*DEMO_PHASES))


def write_determination_file(dets, path) -> None:
    """Write determinations in the standard ``id,c14_age,c14_sig`` format."""
    write_csv(
        path,
        ["id", "c14_age", "c14_sig"],
        ((det.id, float(det.x), float(det.sigma)) for det in dets),
    )
