import math

import numpy as np
import pytest
from scipy import stats

import oracles
from carbcal import predictive
from carbcal.calibrate import Hyperparameters
from carbcal.dpmm import ClusterSample, base_marginal
from carbcal.errors import DataError
from carbcal.predictive import (
    _mixture_weights,
    cluster_count_posterior,
    predictive_density,
    predictive_grid,
    predictive_realisation,
)


def hyper():
    return Hyperparameters(
        lam=0.05, nu1=2.0, nu2=2 * 60.0**2, xi=500.0, psi=1e-6, slice_width=100.0
    )


def polya_sample(counts, phi, tau, alpha, mu_phi=500.0):
    return ClusterSample(
        phi=np.asarray(phi, dtype=float),
        tau=np.asarray(tau, dtype=float),
        counts=np.asarray(counts, dtype=np.int64),
        w=None,
        alpha=alpha,
        mu_phi=mu_phi,
    )


def walker_sample(w, phi, tau, counts, alpha=1.0, mu_phi=500.0):
    return ClusterSample(
        phi=np.asarray(phi, dtype=float),
        tau=np.asarray(tau, dtype=float),
        counts=np.asarray(counts, dtype=np.int64),
        w=np.asarray(w, dtype=float),
        alpha=alpha,
        mu_phi=mu_phi,
    )


def test_single_cluster_vanishing_alpha_is_normal_pdf():
    sample = polya_sample([10], [500.0], [1.0 / 50.0**2], alpha=1e-300)
    grid = np.linspace(200, 800, 601)
    out = predictive_realisation(sample, hyper(), grid)
    assert np.allclose(out, stats.norm.pdf(grid, 500.0, 50.0), atol=1e-12)


def test_no_occupied_clusters_is_pure_base_marginal():
    sample = walker_sample([], [], [], [], alpha=1.0)
    grid = np.linspace(-2000, 3000, 101)
    out = predictive_realisation(sample, hyper(), grid)
    assert np.allclose(out, base_marginal(grid, 500.0, hyper()), rtol=1e-12)


def test_realisation_integrates_to_one_on_wide_grid():
    # With many members and tiny alpha the heavy-tailed new-cluster term is
    # negligible, so the mixture mass inside a wide window reaches 1.
    sample = polya_sample([60, 40], [400.0, 650.0], [50.0**-2, 30.0**-2], alpha=1e-8)
    grid = np.arange(-1000.0, 2001.0, 1.0)
    out = predictive_realisation(sample, hyper(), grid)
    mass = np.trapezoid(out, grid)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_walker_weights_and_remainder():
    h = hyper()
    sample = walker_sample([0.5, 0.3], [450.0, 550.0], [1e-3, 1e-3], [5, 5])
    grid = np.linspace(0, 1000, 2001)
    out = predictive_realisation(sample, h, grid)
    manual = (
        0.5 * stats.norm.pdf(grid, 450.0, math.sqrt(1e3))
        + 0.3 * stats.norm.pdf(grid, 550.0, math.sqrt(1e3))
        + 0.2 * base_marginal(grid, 500.0, h)
    )
    assert np.allclose(out, manual, rtol=1e-10)


def test_polya_weights_match_seating_rule():
    h = hyper()
    alpha = 2.0
    sample = polya_sample([6, 4], [450.0, 550.0], [1e-3, 1e-3], alpha=alpha)
    grid = np.linspace(0, 1000, 501)
    out = predictive_realisation(sample, h, grid)
    manual = (
        6 / 12 * stats.norm.pdf(grid, 450.0, math.sqrt(1e3))
        + 4 / 12 * stats.norm.pdf(grid, 550.0, math.sqrt(1e3))
        + 2 / 12 * base_marginal(grid, 500.0, h)
    )
    assert np.allclose(out, manual, rtol=1e-10)


def test_inconsistent_walker_weights_rejected():
    sample = walker_sample([0.7, 0.5], [450.0, 550.0], [1e-3, 1e-3], [5, 5])
    with pytest.raises(AssertionError):
        predictive_realisation(sample, hyper(), np.linspace(0, 1000, 11))


def test_realisation_is_the_per_cluster_mixture_loop(synth_curve):
    # Snapshots of short chains of both samplers, and one with an empty stick.
    from carbcal.calibrate import default_hyperparameters
    from carbcal.dpmm import ChainConfig, run_chains
    from carbcal.synthetic import sample_determinations

    rng = np.random.default_rng(12)
    truth = np.concatenate([rng.normal(3300.0, 60.0, 15), rng.normal(4100.0, 120.0, 15)])
    dets = sample_determinations(truth, synth_curve, 25.0, rng)
    h = default_hyperparameters(dets, synth_curve)
    jobs = [
        (dets, ChainConfig(40, 20, 2, sampler, seed=3, hyper=h), None)
        for sampler in ("walker", "polya")
    ]
    snaps = [snap for samples in run_chains(jobs, synth_curve) for snap in samples.clusters]
    snaps.append(walker_sample([0.5, 0.0, 0.3], [3300.0, 3700.0, 4100.0], [3e-4] * 3, [5, 0, 5]))
    grid = np.arange(2800.0, 4600.0, 2.5)
    for snap in snaps:
        w, p_new = _mixture_weights(snap)
        want = oracles.ref_predictive_mixture(w, snap.phi, snap.tau, grid)
        if p_new > 0.0:
            want += p_new * base_marginal(grid, snap.mu_phi, h)
        assert predictive_realisation(snap, h, grid).tobytes() == want.tobytes()


def test_true_three_phase_density_is_the_per_phase_mixture_loop():
    from carbcal.synthetic import DEMO_PHASES, true_three_phase_density

    theta = np.arange(2000.0, 7000.0, 0.5)
    want = oracles.ref_three_phase_density(theta, DEMO_PHASES)
    assert true_three_phase_density(theta).tobytes() == want.tobytes()


class FakeSamples:
    def __init__(self, clusters):
        self.clusters = clusters
        self.n_stored = len(clusters)


def test_degenerate_ensemble_mean_equals_realisation():
    sample = polya_sample([60], [500.0], [1.0 / 40.0**2], alpha=1e-300)
    samples = FakeSamples([sample] * 150)
    grid = np.arange(200.0, 801.0, 1.0)
    pred = predictive_density(samples, hyper(), grid)
    realisation = predictive_realisation(sample, hyper(), grid)
    realisation /= realisation.sum() * 1.0
    assert np.allclose(pred.mean, realisation, rtol=1e-12)
    assert np.allclose(pred.lo, pred.mean)
    assert np.allclose(pred.hi, pred.mean)


def test_mean_curve_normalised_and_band_ordered():
    rng = np.random.default_rng(21)
    clusters = []
    for _ in range(200):
        phi = rng.normal(500.0, 30.0, size=2)
        tau = rng.gamma(3.0, 1.0 / 3.0, size=2) * 40.0**-2
        counts = [rng.integers(5, 20), rng.integers(5, 20)]
        clusters.append(polya_sample(counts, phi, tau, alpha=rng.gamma(1.0, 1.0)))
    samples = FakeSamples(clusters)
    grid = np.arange(0.0, 1001.0, 1.0)
    pred = predictive_density(samples, hyper(), grid)
    # grid-sum convention, as used for every DensityGrid in the package
    assert pred.mean.sum() * 1.0 == pytest.approx(1.0, abs=1e-6)
    assert np.all(pred.lo <= pred.hi)


def _normalised_rows(realisations, spacing):
    """The rows ``predictive_density`` takes its band from: each realisation over its grid sum."""
    return np.array([row / (row.sum() * spacing) for row in realisations])


@pytest.mark.filterwarnings("ignore:predictive built from only")
def test_band_is_the_two_quantile_calls_on_random_rows(monkeypatch):
    # each snapshot stands in for its own realisation, so the rows can be any arrays
    monkeypatch.setattr(predictive, "predictive_realisation", lambda snap, hyper, grid: snap.copy())
    rng = np.random.default_rng(26)
    for case in range(300):
        # stored counts log-uniform over 1 to 2000: as many small sets as large ones
        n_stored, points = int(np.exp(rng.uniform(0.0, math.log(2001)))), int(rng.integers(2, 601))
        raw = rng.gamma(0.5, 1.0, size=(n_stored, points))
        if case % 2:  # ties within a column: coarse values, and repeated rows
            raw = np.round(raw, 1)[rng.integers(0, 1 + n_stored // 4, size=n_stored)]
        raw[rng.random(raw.shape) < rng.random()] = 0.0
        raw[raw.sum(axis=1) == 0.0, rng.integers(points)] = 1.0
        grid = 1000.0 + 0.5 * np.arange(points)
        pred = predictive_density(FakeSamples(list(raw)), hyper(), grid)
        lo, hi = oracles.ref_predictive_band(_normalised_rows(raw, 0.5))
        assert repr(pred.lo.tolist()) == repr(lo.tolist()), case
        assert repr(pred.hi.tolist()) == repr(hi.tolist()), case


def test_band_is_the_two_quantile_calls_on_a_walker_run():
    from carbcal.calibrate import default_hyperparameters, map_estimates, read_determinations
    from carbcal.calcurve import load_curve
    from carbcal.dpmm import ChainConfig, run_chain
    from conftest import REPO_ROOT

    curve = load_curve(REPO_ROOT / "data" / "synthetic_curve.14c")
    dets = read_determinations(REPO_ROOT / "data" / "example_three_phase.csv")
    theta_map = map_estimates(dets, curve)
    h = default_hyperparameters(dets, curve, theta_map=theta_map)
    cfg = ChainConfig(n_iter=300, n_burn=100, thin=2, sampler="walker", seed=26, hyper=h)
    samples = run_chain(dets, curve, cfg, theta_map)
    grid = predictive_grid(curve, theta_map, 5.0, cfg.n_stored)
    pred = predictive_density(samples, h, grid)
    rows = [predictive_realisation(snap, h, grid) for snap in samples.clusters]
    lo, hi = oracles.ref_predictive_band(_normalised_rows(rows, grid[1] - grid[0]))
    assert repr(pred.lo.tolist()) == repr(lo.tolist())
    assert repr(pred.hi.tolist()) == repr(hi.tolist())


def test_predictive_warns_on_few_samples():
    sample = polya_sample([10], [500.0], [1e-3], alpha=0.5)
    samples = FakeSamples([sample] * 5)
    with pytest.warns(UserWarning, match="recommended"):
        predictive_density(samples, hyper(), np.linspace(0, 1000, 101))


def test_predictive_requires_samples():
    with pytest.raises(DataError):
        predictive_density(FakeSamples([]), hyper(), np.linspace(0, 1000, 11))


@pytest.mark.parametrize("grid", [[500.0], []])
def test_predictive_refuses_grid_of_fewer_than_two_points(grid):
    sample = polya_sample([10], [500.0], [1e-3], alpha=0.5)
    with pytest.raises(DataError, match="at least 2 points"):
        predictive_density(FakeSamples([sample] * 100), hyper(), np.array(grid))


def test_cluster_count_posterior_point_mass():
    sample = polya_sample([5, 5, 5], [1.0, 2.0, 3.0], [1.0, 1.0, 1.0], alpha=1.0)
    hist = cluster_count_posterior(FakeSamples([sample] * 40))
    assert hist == {3: 1.0}


def test_cluster_count_posterior_normalised():
    s2 = polya_sample([5, 5], [1.0, 2.0], [1.0, 1.0], alpha=1.0)
    s3 = polya_sample([5, 3, 2], [1.0, 2.0, 3.0], [1.0, 1.0, 1.0], alpha=1.0)
    hist = cluster_count_posterior(FakeSamples([s2] * 30 + [s3] * 10))
    assert sum(hist.values()) == pytest.approx(1.0, abs=1e-12)
    assert hist[2] == pytest.approx(0.75)
    # walker snapshots may carry empty represented sticks: not counted
    s_w = walker_sample([0.4, 0.1, 0.3], [1.0, 2.0, 3.0], [1.0, 1.0, 1.0], [5, 0, 5])
    hist_w = cluster_count_posterior(FakeSamples([s_w] * 4))
    assert hist_w == {2: 1.0}


def test_mean_stable_under_thinning_refinement(synth_curve):
    # Doubling the number of stored samples (halving thin) must move the
    # mean curve by less than Monte-Carlo noise.
    from carbcal.calibrate import default_hyperparameters
    from carbcal.dpmm import ChainConfig, run_chain
    from carbcal.synthetic import sample_determinations

    rng = np.random.default_rng(31)
    truth = rng.normal(3300.0, 80.0, size=20)
    dets = sample_determinations(truth, synth_curve, 25.0, rng)
    h = default_hyperparameters(dets, synth_curve)
    grid = np.arange(2800.0, 3801.0, 5.0)
    means = {}
    for thin in (10, 5):
        cfg = ChainConfig(
            n_iter=6000, n_burn=2000, thin=thin, sampler="walker", seed=9, hyper=h
        )
        samples = run_chain(dets, synth_curve, cfg)
        means[thin] = predictive_density(samples, h, grid).mean
    tv = 0.5 * np.abs(means[10] - means[5]).sum() * 5.0
    assert tv < 0.02


def test_default_grid_spans_map_ages(synth_curve):
    theta_map = np.array([3100.0, 3300.0, 3500.0])
    grid = predictive_grid(synth_curve, theta_map, 5.0, 100)
    assert grid[0] <= 3100.0 - 4 * 200.0 + 5.0
    assert grid[-1] >= 3500.0 + 4 * 200.0 - 5.0
    lo, hi = synth_curve.support
    assert grid[0] >= lo and grid[-1] <= hi
    assert np.allclose(np.diff(grid), 5.0)


def test_predictive_grid_refuses_in_order(synth_curve, physical_memory):
    # MAP ages 3100-3500 yr with a median absolute deviation of 200 yr: the
    # window is 2300-4300 yr, 401 points at 5 yr
    physical_memory(10**9)
    theta_map = np.array([3100.0, 3300.0, 3500.0])
    assert len(predictive_grid(synth_curve, theta_map, 5.0, 100)) == 401
    cases = [
        # too many points to hold, whatever the stored samples
        (1e-6, 1, r"^--resolution 1e-06: 2e\+09 points, whose densities for 1 stored samples need"),
        # few points, but too many stored samples' rows
        (5.0, 10**6, r"^--resolution 5: 401 points, whose densities for 1000000 stored samples"),
        # one point: refused, but only once the bound has passed
        (1e5, 1, r"^--resolution 100000 is wider than the predictive window .* at least 2 points"),
        (1e5, 10**9, r"^--resolution 100000: 1\.02 points, whose densities for 1000000000 stored"),
    ]
    for resolution, n_stored, message in cases:
        with pytest.raises(DataError, match=message):
            predictive_grid(synth_curve, theta_map, resolution, n_stored)
