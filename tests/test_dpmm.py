import copy
import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import oracles
from carbcal.calibrate import (
    Determination,
    Hyperparameters,
    default_hyperparameters,
    likelihood,
    map_estimates,
)
from carbcal.dpmm import (
    ChainConfig,
    DpmmState,
    PosteriorSamples,
    _draw_cluster_params,
    _extend_sticks,
    _trim_tail_sticks,
    _update_alpha_walker,
    base_marginal,
    expected_clusters,
    init_state,
    log_alpha_likelihood,
    polya_reallocate,
    run_chain,
    run_chains,
    update_alpha,
    update_cluster_params,
    update_mu_phi,
    update_theta,
    walker_reallocate,
    walker_update_weights,
)
from carbcal.errors import DataError
from carbcal.simstudy import gen_scenario
from carbcal.slicesample import SliceConfig
from conftest import make_linear_curve


def simple_hyper(**overrides):
    base = dict(
        lam=0.05,
        nu1=2.0,
        nu2=2 * 60.0**2,
        xi=500.0,
        psi=1e-6,
        eta1=1.0,
        eta2=1.0,
        slice_width=100.0,
    )
    base.update(overrides)
    return Hyperparameters(**base)


def observations(*dets):
    """Measurement and variance arrays in the form update_theta takes."""
    return np.array([d.x for d in dets]), np.array([d.sigma**2 for d in dets])


def age_step(state, x, var_obs, curve, hyper, rng):
    """One age update of one chain; returns its ages."""
    cfg = SliceConfig(hyper.slice_width, hyper.slice_max_steps, curve.support)
    update_theta([state], [rng], state.theta, x, var_obs, curve, cfg)
    return state.theta


def fixed_theta_state(thetas, labels, phi, tau, alpha=1.0, mu_phi=500.0):
    return DpmmState(
        theta=np.asarray(thetas, dtype=float),
        c=np.asarray(labels, dtype=np.int64),
        phi=np.asarray(phi, dtype=float),
        tau=np.asarray(tau, dtype=float),
        w=np.empty(0),
        alpha=alpha,
        mu_phi=mu_phi,
    )


# ---------------------------------------------------------------------------
# init_state


def test_init_single_obs_compacts_to_one_cluster(flat_curve):
    dets = [Determination("a", 2000.0, 25.0)]
    rng = np.random.default_rng(0)
    state = init_state(dets, flat_curve, simple_hyper(), rng)
    assert state.n_clusters == 1
    assert state.c.tolist() == [0]


def test_init_round_robin_labels(flat_curve):
    dets = [Determination(str(i), 2000.0, 25.0) for i in range(20)]
    rng = np.random.default_rng(0)
    state = init_state(dets, flat_curve, simple_hyper(), rng)
    counts = np.bincount(state.c)
    assert state.n_clusters == 10
    assert counts.tolist() == [2] * 10


def test_init_thetas_within_support(synth_curve):
    dets = [Determination(str(i), 3000.0 + 40 * i, 25.0) for i in range(7)]
    rng = np.random.default_rng(0)
    state = init_state(dets, synth_curve, simple_hyper(), rng, sampler="walker")
    lo, hi = synth_curve.support
    assert np.all((state.theta >= lo) & (state.theta <= hi))
    assert np.all(state.tau > 0)
    assert len(state.w) == state.n_clusters
    assert state.w.sum() < 1.0


def test_init_clusters_keep_first_age_update_on_the_likelihood(synth_curve):
    # Initial clusters drawn from the prior alone could sit far from their
    # round-robin members with an sd of a few years; the first age update then
    # dragged ages to where their likelihood is negligible, and some stayed
    # there for thousands of sweeps.  Clusters drawn given their members keep
    # every age where its measurement put it.
    scenario = gen_scenario("single_normal", 50, synth_curve, np.random.default_rng(2025))
    dets = scenario.dets
    hyper = default_hyperparameters(dets, synth_curve)
    theta_map = map_estimates(dets, synth_curve)
    x, var_obs = observations(*dets)
    at_map = np.array([likelihood(d, synth_curve, t) for d, t in zip(dets, theta_map)])
    for seed in range(10):
        rng = np.random.default_rng(seed)
        state = init_state(dets, synth_curve, hyper, rng, sampler="walker", theta_map=theta_map)
        age_step(state, x, var_obs, synth_curve, hyper, rng)
        at_new = np.array([likelihood(d, synth_curve, t) for d, t in zip(dets, state.theta)])
        assert np.all(at_new > np.exp(-30.0) * at_map)


# ---------------------------------------------------------------------------
# update_theta (step 1)


def test_update_theta_flat_curve_matches_truncated_normal(flat_curve):
    # Flat curve: the data carry no age information, so the conditional is
    # the cluster normal truncated to the curve support.
    phi, sd = 500.0, 150.0
    hyper = simple_hyper(slice_width=200.0)
    det = Determination("a", 2000.0, 25.0)
    x, var_obs = observations(det)
    state = fixed_theta_state([500.0], [0], [phi], [sd**-2])
    rng = np.random.default_rng(42)
    draws = np.empty(30_000)
    for k in range(30_000):
        draws[k] = age_step(state, x, var_obs, flat_curve, hyper, rng)[0]
    truncated = stats.truncnorm((0 - phi) / sd, (1000 - phi) / sd, loc=phi, scale=sd)
    ks = stats.kstest(draws[::3], truncated.cdf).statistic
    assert ks < 0.02
    assert draws.min() >= 0 and draws.max() <= 1000


def test_update_theta_degenerate_prior_pins_age(flat_curve):
    hyper = simple_hyper()
    det = Determination("a", 2000.0, 25.0)
    x, var_obs = observations(det)
    state = fixed_theta_state([500.0], [0], [500.0], [1e8])
    rng = np.random.default_rng(1)
    draws = np.array(
        [age_step(state, x, var_obs, flat_curve, hyper, rng)[0] for _ in range(500)]
    )
    assert np.all(np.abs(draws - 500.0) < 1e-3)
    assert np.abs(draws - 500.0).std() < 2e-4


def test_update_theta_identity_curve_conjugate_posterior():
    # m(theta) = theta with negligible curve sd: product of two normals.
    curve = make_linear_curve(0, 10_000, sd=1e-6)
    sigma, phi, tau = 30.0, 5200.0, 1.0 / 80.0**2
    x = 5000.0
    det = Determination("a", x, sigma)
    hyper = simple_hyper(slice_width=150.0)
    x_obs, var_obs = observations(det)
    state = fixed_theta_state([5000.0], [0], [phi], [tau])
    rng = np.random.default_rng(7)
    draws = np.array(
        [age_step(state, x_obs, var_obs, curve, hyper, rng)[0] for _ in range(40_000)]
    )
    prec = sigma**-2 + tau
    post_mean = (sigma**-2 * x + tau * phi) / prec
    post_sd = prec**-0.5
    assert draws[5000:].mean() == pytest.approx(post_mean, abs=4 * post_sd / math.sqrt(35_000 / 3))
    ks = stats.kstest(draws[5000::3], stats.norm(post_mean, post_sd).cdf).statistic
    assert ks < 0.02


def test_update_theta_all_dates_follow_their_own_conditionals():
    # Three dates in different clusters, updated together: each age must
    # follow its own normal-normal posterior on the identity curve.
    curve = make_linear_curve(0, 10_000, sd=1e-6)
    dets = [
        Determination("a", 5000.0, 30.0),
        Determination("b", 2000.0, 50.0),
        Determination("c", 7000.0, 20.0),
    ]
    x, var_obs = observations(*dets)
    phi, tau = np.array([5200.0, 1900.0, 7000.0]), np.array([80.0, 40.0, 1e3]) ** -2.0
    state = fixed_theta_state(x.copy(), [0, 1, 2], phi, tau)
    hyper = simple_hyper(slice_width=150.0)
    rng = np.random.default_rng(70)
    draws = np.array(
        [age_step(state, x, var_obs, curve, hyper, rng).copy() for _ in range(40_000)]
    )
    prec = 1.0 / var_obs + tau
    post_mean = (x / var_obs + tau * phi) / prec
    for i in range(3):
        ks = stats.kstest(draws[5000::3, i], stats.norm(post_mean[i], prec[i] ** -0.5).cdf)
        assert ks.statistic < 0.02


def test_run_chains_refuses_a_start_outside_the_curve_support(synth_curve):
    # The curve is clamped past its support, so the age density there is
    # finite; the slice kernel's interval then never held the start and the
    # chain never returned.
    dets = [Determination(str(i), 3000.0 + 40 * i, 25.0) for i in range(5)]
    theta_map = map_estimates(dets, synth_curve)
    theta_map[2] = synth_curve.support[1] + 1e6
    cfg = ChainConfig(n_iter=5, n_burn=0, thin=1, sampler="walker", seed=1, hyper=simple_hyper())
    with pytest.raises(ValueError, match="outside bounds"):
        list(run_chains([(dets, cfg, theta_map)], synth_curve))


# ---------------------------------------------------------------------------
# base marginal


def test_base_marginal_centre_value():
    hyper = simple_hyper(lam=0.5, nu1=2.0, nu2=200.0)
    scale = math.sqrt(hyper.nu2 * (hyper.lam + 1) / (hyper.nu1 * hyper.lam))
    df = 2 * hyper.nu1
    expected = math.gamma((df + 1) / 2) / (
        math.gamma(df / 2) * math.sqrt(df * math.pi) * scale
    )
    assert base_marginal(0.0, 0.0, hyper) == pytest.approx(expected, rel=1e-12)
    assert base_marginal(0.0, 0.0, hyper) == pytest.approx(
        stats.t.pdf(0.0, df, loc=0.0, scale=scale), rel=1e-12
    )


def test_base_marginal_array_matches_scalar():
    hyper = simple_hyper()
    theta = np.linspace(-3000.0, 4000.0, 707).reshape(7, 101)
    out = base_marginal(theta, 350.0, hyper)
    assert out.shape == theta.shape
    scalar = np.array([base_marginal(float(t), 350.0, hyper) for t in theta.ravel()])
    assert np.allclose(out.ravel(), scalar, rtol=1e-12, atol=0.0)


def test_base_marginal_symmetry():
    hyper = simple_hyper()
    for d in (10.0, 250.0, 4000.0):
        assert base_marginal(hyper.xi + d, hyper.xi, hyper) == pytest.approx(
            base_marginal(hyper.xi - d, hyper.xi, hyper), rel=1e-12
        )


def test_base_marginal_matches_two_d_quadrature():
    # Integrate N(theta; phi, 1/tau) against the normal-gamma base measure.
    lam, nu1, nu2, mu0 = 0.5, 2.0, 200.0, 0.0
    hyper = simple_hyper(lam=lam, nu1=nu1, nu2=nu2)

    def quad2d(theta):
        tau_grid = np.linspace(1e-6, 0.3, 2001)
        outer = np.empty_like(tau_grid)
        for i, tau in enumerate(tau_grid):
            sd_phi = 1.0 / math.sqrt(lam * tau)
            width = 12 * max(sd_phi, tau**-0.5)
            phi_grid = np.linspace(min(mu0, theta) - width, max(mu0, theta) + width, 2001)
            inner = stats.norm.pdf(theta, phi_grid, tau**-0.5) * stats.norm.pdf(
                phi_grid, mu0, sd_phi
            )
            outer[i] = np.trapezoid(inner, phi_grid) * stats.gamma.pdf(
                tau, nu1, scale=1 / nu2
            )
        return np.trapezoid(outer, tau_grid)

    for theta in (0.0, 15.0, 40.0):
        assert base_marginal(theta, mu0, hyper) == pytest.approx(quad2d(theta), abs=1e-6)


# ---------------------------------------------------------------------------
# polya urn updates


def test_polya_single_obs_stays_single_cluster():
    hyper = simple_hyper()
    rng = np.random.default_rng(3)
    state = fixed_theta_state([500.0], [0], [500.0], [1e-4])
    for _ in range(200):
        polya_reallocate(state, hyper, rng)
        assert state.n_clusters == 1
        assert state.c[0] == 0


def test_polya_tiny_alpha_never_opens_cluster():
    hyper = simple_hyper()
    rng = np.random.default_rng(4)
    state = fixed_theta_state(
        [480.0, 500.0, 520.0], [0, 0, 0], [500.0], [60.0**-2], alpha=1e-12
    )
    for _ in range(10_000):
        polya_reallocate(state, hyper, rng)
    assert state.n_clusters == 1


def test_polya_far_separated_groups_find_two_clusters():
    # Groups a million years apart: the 2-cluster partition holds essentially
    # all mass, confirmed by the enumeration oracle.
    thetas = np.array([0.0, 10.0, 20.0, 1e6, 1e6 + 10.0, 1e6 + 20.0])
    hyper = simple_hyper(lam=1e-9, nu1=2.0, nu2=5000.0, xi=5e5, psi=1e12)
    exact = oracles.partition_posterior(thetas, hyper)
    assert exact[(0, 0, 0, 1, 1, 1)] > 0.999

    rng = np.random.default_rng(5)
    state = fixed_theta_state(thetas, [0] * 6, [5e5], [1e-4], mu_phi=5e5)
    seen = []
    for sweep in range(600):
        polya_reallocate(state, hyper, rng)
        update_cluster_params(state, hyper, rng)
        update_alpha(state, hyper, rng)
        if sweep >= 100:
            seen.append(state.n_clusters)
    counts = np.bincount(seen)
    assert int(np.argmax(counts)) == 2


def test_polya_partition_posterior_matches_enumeration():
    # Moderately separated groups give a genuinely spread posterior over all
    # 203 partitions of six items; the chain must reproduce it.
    thetas = np.array([0.0, 40.0, 80.0, 260.0, 300.0, 340.0])
    hyper = simple_hyper(xi=170.0, psi=1e10)
    exact = oracles.partition_posterior(thetas, hyper)

    rng = np.random.default_rng(314)
    state = fixed_theta_state(thetas, [0, 0, 0, 1, 1, 1], [50.0, 300.0], [1e-3, 1e-3], mu_phi=170.0)
    freq = {}
    n_sweeps, burn = 50_000, 5_000
    for sweep in range(n_sweeps):
        polya_reallocate(state, hyper, rng)
        update_cluster_params(state, hyper, rng)
        update_alpha(state, hyper, rng)
        update_mu_phi(state, hyper, rng)
        if sweep >= burn:
            key = oracles.canon(state.c.tolist())
            freq[key] = freq.get(key, 0) + 1
    total = sum(freq.values())
    empirical = {k: v / total for k, v in freq.items()}
    assert oracles.total_variation(empirical, exact) < 0.03


def _polya_sweep_cases():
    """States whose sweeps open clusters, close them, or do both."""
    mixed = np.random.default_rng(11)
    thetas = np.concatenate(
        [mixed.normal(300.0, 20.0, 20), mixed.normal(700.0, 40.0, 25), mixed.normal(1500.0, 5.0, 15)]
    )
    labels = np.arange(60) % 8
    yield "mixture", fixed_theta_state(
        thetas, labels, np.linspace(300.0, 1500.0, 8), np.full(8, 30.0**-2), alpha=1.0
    )
    # A concentration this large makes a new cluster the likeliest move.
    yield "opens", fixed_theta_state(
        np.linspace(400.0, 600.0, 20), np.arange(20) % 2, [450.0, 550.0], [50.0**-2] * 2,
        alpha=50.0,
    )
    # Singletons sitting inside one big cluster, labels interleaved so that
    # closing one shifts the labels of dates on both sides of it.
    labels = [0] * 16
    for pos, label in zip((0, 3, 7, 10, 15), range(1, 6)):
        labels[pos] = label
    yield "closes", fixed_theta_state(
        np.linspace(480.0, 520.0, 16), labels, [500.0] + [5000.0] * 5, [30.0**-2] * 6,
        alpha=1e-6,
    )
    # Date 0 is a singleton far from its own cluster, so slot 0 is the first to
    # empty; date 5 empties slot 2, and date 8, far from every cluster, then
    # opens a new one behind both emptied slots.
    labels = [0, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1]
    yield "front", fixed_theta_state(
        [500.0, 490.0, 510.0, 505.0, 495.0, 500.0, 498.0, 502.0, 1300.0, 503.0, 497.0], labels,
        [5000.0, 500.0, 5000.0], [30.0**-2] * 3,
    )
    # Dates 0, 1 and 399 lie far from every cluster and from each other, so
    # each sweep opens a cluster at the first date, whose terms every later
    # date reads, one at the next date, and one at the last, which no date reads.
    yield "edges", fixed_theta_state(
        [3000.0, 8000.0, *np.linspace(400.0, 600.0, 397), -2000.0], np.arange(400) % 4,
        [420.0, 480.0, 540.0, 600.0], [30.0**-2] * 4,
    )
    # One date empties its own cluster, so every sweep opens one and drops one.
    yield "one", fixed_theta_state([500.0], [0], [500.0], [1e-4])


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_polya_sweep_matches_per_date_reference(seed):
    # One sweep must reproduce n calls of the per-date reference step bit for
    # bit: labels, cluster parameters and the generator's state after it.
    hyper = simple_hyper()
    events, opened_at = {}, {}
    for name, state in _polya_sweep_cases():
        ref = copy.deepcopy(state)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        opened = closed = 0
        opened_at[name] = set()
        for _ in range(3):
            polya_reallocate(state, hyper, rng)
            for i in range(len(ref.theta)):
                k, phi_before = ref.n_clusters, ref.phi.tolist()
                oracles.ref_polya_reallocate_one(ref, i, hyper, ref_rng)
                opened += ref.n_clusters > k
                closed += ref.n_clusters < k
                if ref.phi[-1] not in phi_before:  # a fresh draw: date i opened a cluster
                    opened_at[name].add(i)
            assert state.c.tolist() == ref.c.tolist(), name
            assert state.phi.tobytes() == ref.phi.tobytes(), name
            assert state.tau.tobytes() == ref.tau.tobytes(), name
            assert rng.bit_generator.state == ref_rng.bit_generator.state, name

            k = state.n_clusters
            assert len(state.phi) == len(state.tau) == k
            assert state.c.min() == 0 and state.c.max() == k - 1
            assert np.all(state.occupancy() > 0), name
        events[name] = (opened, closed)
    assert events["opens"][0] > 0
    assert events["closes"][1] > 0
    assert events["mixture"][0] > 0 and events["mixture"][1] > 0
    assert {0, 1, 399} <= opened_at["edges"]
    assert opened_at["one"] == {0}
    assert events["front"][0] > 0 and events["front"][1] > 0


# ---------------------------------------------------------------------------
# walker updates


def test_walker_weights_single_cluster_beta_mean():
    n, alpha = 12, 0.01
    state = fixed_theta_state([500.0] * n, [0] * n, [500.0], [1e-4], alpha=alpha)
    rng = np.random.default_rng(6)
    draws = np.array([walker_update_weights(state, rng)[0] for _ in range(20_000)])
    expected = (1 + n) / (1 + n + alpha)
    assert draws.mean() == pytest.approx(expected, abs=0.002)


def test_walker_empty_tail_stick_prior_mean():
    # A represented stick with no members and nothing beyond it has the prior
    # break v ~ Beta(1, alpha); recover its mean from the stick algebra.
    alpha = 2.5
    state = fixed_theta_state([500.0] * 4, [0] * 4, [500.0, 600.0], [1e-4, 1e-4], alpha=alpha)
    rng = np.random.default_rng(8)
    vs = []
    for _ in range(20_000):
        w = walker_update_weights(state, rng)
        vs.append(w[1] / (1.0 - w[0]))
    assert np.mean(vs) == pytest.approx(1.0 / (1.0 + alpha), abs=0.003)


def test_walker_stick_algebra_exact():
    hyper = simple_hyper()
    state = fixed_theta_state(
        [480.0, 500.0, 520.0, 900.0], [0, 0, 1, 1], [500.0, 900.0], [1e-3, 1e-3]
    )
    rng = np.random.default_rng(9)
    for _ in range(200):
        walker_update_weights(state, rng)
        _extend_sticks(state, hyper, rng, 1e-4)
        assert np.all(state.w > 0)
        assert state.w.sum() < 1.0
        assert state.w_remainder < 1e-4
        assert state.w.sum() + state.w_remainder == pytest.approx(1.0, abs=1e-12)


def test_walker_reallocate_singleton_candidate_set():
    state = fixed_theta_state([500.0], [0], [500.0], [1e-4])
    state.w = np.array([0.999])
    rng = np.random.default_rng(10)
    for _ in range(50):
        assert walker_reallocate(state, np.array([0.5]), rng).tolist() == [0]


def test_walker_reallocate_symmetric_sticks_uniform():
    state = fixed_theta_state([500.0], [0], [500.0, 500.0], [1e-4, 1e-4])
    state.w = np.array([0.4, 0.4])
    rng = np.random.default_rng(11)
    picks = np.array(
        [walker_reallocate(state, np.array([0.1]), rng)[0] for _ in range(20_000)]
    )
    assert abs((picks == 0).mean() - 0.5) < 0.02


def test_walker_reallocate_never_draws_stick_at_or_below_slice():
    # Sticks 1 and 3 sit exactly on and below the slice variable but carry
    # the only non-negligible normal density; they must still never be drawn.
    thetas = np.full(500, 900.0)
    state = fixed_theta_state(
        thetas, np.zeros(500), [100.0, 900.0, 300.0, 900.0], [1e-2, 1e-2, 1e-2, 1e-2]
    )
    state.w = np.array([0.3, 0.1, 0.3, 0.05])
    u = np.full(500, 0.1)
    rng = np.random.default_rng(12)
    for _ in range(200):
        labels = walker_reallocate(state, u, rng)
        assert set(labels.tolist()) <= {0, 2}


def test_walker_reallocate_per_date_candidate_sets():
    # Dates with different slice variables see different candidate sets.
    state = fixed_theta_state([500.0] * 3, [0, 0, 0], [500.0] * 3, [1e-4] * 3)
    state.w = np.array([0.5, 0.3, 0.1])
    u = np.array([0.4, 0.2, 0.05])
    rng = np.random.default_rng(13)
    picks = np.array([walker_reallocate(state, u, rng).copy() for _ in range(6_000)])
    assert np.all(picks[:, 0] == 0)
    assert set(picks[:, 1].tolist()) == {0, 1}
    assert set(picks[:, 2].tolist()) == {0, 1, 2}
    # equal normal densities: uniform over each candidate set
    assert abs((picks[:, 1] == 0).mean() - 0.5) < 0.03
    assert abs((picks[:, 2] == 2).mean() - 1 / 3) < 0.03


def test_walker_tail_trim_keeps_interior_empties():
    state = fixed_theta_state(
        [1.0, 2.0], [0, 2], [10.0, 20.0, 30.0, 40.0], [1.0, 1.0, 1.0, 1.0]
    )
    state.w = np.array([0.3, 0.2, 0.3, 0.1])
    state.w_remainder = 0.1
    _trim_tail_sticks(state)
    # stick 1 is an interior empty and must survive; stick 3 is tail
    assert state.n_clusters == 3
    assert state.w_remainder == pytest.approx(0.2)


def test_walker_partition_posterior_matches_enumeration():
    # Four points in two wells; the full walker transition must preserve the
    # exact partition posterior (15 partitions) within 2% TV.
    thetas = np.array([0.0, 50.0, 320.0, 370.0])
    hyper = simple_hyper(xi=185.0, psi=1e10)
    exact = oracles.partition_posterior(thetas, hyper)

    rng = np.random.default_rng(2718)
    state = fixed_theta_state(thetas, [0, 0, 1, 1], [25.0, 345.0], [1e-3, 1e-3], mu_phi=185.0)
    walker_update_weights(state, rng)
    freq = {}
    n_sweeps, burn = 100_000, 5_000
    for sweep in range(n_sweeps):
        walker_update_weights(state, rng)
        u = (1.0 - rng.random(4)) * state.w[state.c]
        _extend_sticks(state, hyper, rng, float(u.min()))
        walker_reallocate(state, u, rng)
        update_cluster_params(state, hyper, rng)
        _trim_tail_sticks(state)
        _update_alpha_walker(state, hyper, rng)
        update_mu_phi(state, hyper, rng)
        if sweep >= burn:
            key = oracles.canon(state.c.tolist())
            freq[key] = freq.get(key, 0) + 1
    total = sum(freq.values())
    empirical = {k: v / total for k, v in freq.items()}
    assert oracles.total_variation(empirical, exact) < 0.02


# ---------------------------------------------------------------------------
# conjugate cluster updates


def test_cluster_params_empty_cluster_draws_from_prior():
    hyper = simple_hyper()
    state = fixed_theta_state([500.0], [1], [0.0, 500.0], [1.0, 1e-3], mu_phi=444.0)
    rng = np.random.default_rng(12)
    taus, phis = [], []
    for _ in range(40_000):
        phi, tau = update_cluster_params(state, hyper, rng)
        taus.append(tau[0])
        phis.append(phi[0])
    taus, phis = np.array(taus), np.array(phis)
    assert taus.mean() == pytest.approx(hyper.nu1 / hyper.nu2, rel=0.03)
    # standardised conditional of phi given tau is exactly N(0, 1)
    z = (phis - 444.0) * np.sqrt(hyper.lam * taus)
    assert abs(z.mean()) < 0.02
    assert z.std() == pytest.approx(1.0, abs=0.02)


def test_cluster_params_single_point_at_centre():
    hyper = simple_hyper()
    mu = hyper.xi
    state = fixed_theta_state([mu], [0], [0.0], [1.0], mu_phi=mu)
    rng = np.random.default_rng(13)
    taus = np.array([update_cluster_params(state, hyper, rng)[1][0] for _ in range(40_000)])
    # with the single age at the centring both correction terms vanish:
    # tau ~ Gamma(nu1 + 1/2, nu2)
    expected = stats.gamma(hyper.nu1 + 0.5, scale=1 / hyper.nu2)
    ks = stats.kstest(taus, expected.cdf).statistic
    assert ks < 0.01


def test_cluster_params_three_members_match_analytic_posterior():
    hyper = simple_hyper()
    thetas = np.array([430.0, 505.0, 570.0])
    mu_phi = 480.0
    state = fixed_theta_state(thetas, [0, 0, 0], [0.0], [1.0], mu_phi=mu_phi)
    rng = np.random.default_rng(14)
    n_draws = 50_000
    taus = np.empty(n_draws)
    phis = np.empty(n_draws)
    for k in range(n_draws):
        phi, tau = update_cluster_params(state, hyper, rng)
        taus[k], phis[k] = tau[0], phi[0]

    n_j = 3
    tbar = thetas.mean()
    ss = ((thetas - tbar) ** 2).sum()
    lam_n = hyper.lam + n_j
    mu_n = (hyper.lam * mu_phi + n_j * tbar) / lam_n
    nu1_n = hyper.nu1 + n_j / 2
    nu2_n = hyper.nu2 + 0.5 * ss + hyper.lam * n_j * (tbar - mu_phi) ** 2 / (2 * lam_n)

    assert taus.mean() == pytest.approx(nu1_n / nu2_n, rel=0.02)
    assert taus.var() == pytest.approx(nu1_n / nu2_n**2, rel=0.05)
    assert phis.mean() == pytest.approx(mu_n, abs=4 * np.sqrt(nu2_n / (lam_n * (nu1_n - 1)) / n_draws))
    assert phis.var() == pytest.approx(nu2_n / (lam_n * (nu1_n - 1)), rel=0.05)


# ---------------------------------------------------------------------------
# hyperparameter updates


def test_alpha_prior_recovery_single_obs():
    # n = 1, one cluster: the partition likelihood is constant, so the chain
    # must sample the Gamma(1, 1) prior.
    hyper = simple_hyper()
    state = fixed_theta_state([500.0], [0], [500.0], [1e-4])
    rng = np.random.default_rng(15)
    draws = np.empty(100_000)
    for k in range(draws.size):
        draws[k] = update_alpha(state, hyper, rng)
    assert draws.mean() == pytest.approx(1.0, abs=0.02)
    assert draws.var() == pytest.approx(1.0, abs=0.05)


def test_alpha_conditional_matches_quadrature():
    hyper = simple_hyper()
    state = fixed_theta_state(
        np.arange(100, dtype=float), np.repeat(np.arange(5), 20), np.zeros(5), np.ones(5)
    )
    rng = np.random.default_rng(16)
    draws = np.empty(50_000)
    for k in range(draws.size):
        draws[k] = update_alpha(state, hyper, rng)

    counts = [20] * 5
    grid = np.linspace(1e-6, 15.0, 40_001)
    log_post = np.array(
        [
            -a + sum(math.lgamma(c) for c in counts) + log_alpha_likelihood(a, counts)
            for a in grid
        ]
    )
    dens = np.exp(log_post - log_post.max())
    cdf = np.cumsum(dens)
    cdf /= cdf[-1]
    ks = stats.kstest(draws[::2], lambda x: np.interp(x, grid, cdf)).statistic
    assert ks < 0.02


def test_mu_phi_dominant_prior():
    hyper = simple_hyper(psi=1e12, xi=777.0)
    state = fixed_theta_state([500.0], [0], [100.0], [1.0])
    rng = np.random.default_rng(17)
    draws = np.array([update_mu_phi(state, hyper, rng) for _ in range(500)])
    assert np.all(np.abs(draws - 777.0) < 0.01)


def test_mu_phi_dominant_likelihood_single_cluster():
    hyper = simple_hyper(psi=1e-12)
    phi1, tau1 = 321.0, 1e-2
    state = fixed_theta_state([500.0], [0], [phi1], [tau1])
    rng = np.random.default_rng(18)
    draws = np.array([update_mu_phi(state, hyper, rng) for _ in range(40_000)])
    draw_sd = 1.0 / math.sqrt(hyper.lam * tau1)
    assert draws.mean() == pytest.approx(phi1, abs=4 * draw_sd / math.sqrt(draws.size))
    assert draws.var() == pytest.approx(draw_sd**2, rel=0.05)


def test_mu_phi_symmetric_clusters():
    hyper = simple_hyper(psi=1e-12)
    state = fixed_theta_state([1.0, 2.0], [0, 1], [-250.0, 250.0], [1e-3, 1e-3])
    rng = np.random.default_rng(19)
    draws = np.array([update_mu_phi(state, hyper, rng) for _ in range(40_000)])
    assert abs(draws.mean()) < 3 * draws.std() / math.sqrt(draws.size)


# ---------------------------------------------------------------------------
# expected cluster count


def test_expected_clusters_first_term():
    for alpha in (0.1, 1.0, 17.3):
        assert expected_clusters(alpha, 1) == pytest.approx(1.0)


def test_expected_clusters_direct_sum():
    assert expected_clusters(1.0, 3) == pytest.approx(11.0 / 6.0)


def test_expected_clusters_validation():
    with pytest.raises(DataError):
        expected_clusters(0.0, 10)
    with pytest.raises(DataError):
        expected_clusters(1.0, 0)


# ---------------------------------------------------------------------------
# chain orchestration


def chain_setup(synth_curve, n=8):
    rng = np.random.default_rng(100)
    truth = rng.uniform(3000, 3400, size=n)
    from carbcal.synthetic import sample_determinations

    dets = sample_determinations(truth, synth_curve, 25.0, rng)
    return dets, default_hyperparameters(dets, synth_curve)


def assert_same_snapshots(snaps_a, snaps_b):
    """Every stored mixture value of two snapshot lists has the same bits."""
    assert len(snaps_a) == len(snaps_b)
    for snap_a, snap_b in zip(snaps_a, snaps_b):
        for name in ("phi", "tau", "counts"):
            assert getattr(snap_a, name).tobytes() == getattr(snap_b, name).tobytes(), name
        assert (snap_a.w is None) == (snap_b.w is None)
        if snap_a.w is not None:
            assert snap_a.w.tobytes() == snap_b.w.tobytes()
        assert repr((snap_a.alpha, snap_a.mu_phi)) == repr((snap_b.alpha, snap_b.mu_phi))


def test_run_chain_stored_count(synth_curve):
    dets, hyper = chain_setup(synth_curve)
    cfg = ChainConfig(n_iter=10, n_burn=5, thin=5, sampler="polya", seed=1, hyper=hyper)
    samples = run_chain(dets, synth_curve, cfg)
    assert samples.n_stored == 1
    assert cfg.n_stored == 1


@pytest.mark.parametrize("sampler", ["polya", "walker"])
def test_run_chain_deterministic(synth_curve, sampler):
    dets, hyper = chain_setup(synth_curve)
    cfg = ChainConfig(n_iter=60, n_burn=20, thin=2, sampler=sampler, seed=99, hyper=hyper)
    a = run_chain(dets, synth_curve, cfg)
    b = run_chain(dets, synth_curve, cfg)
    assert np.array_equal(a.theta, b.theta)
    for snap_a, snap_b in zip(a.clusters, b.clusters):
        assert np.array_equal(snap_a.counts, snap_b.counts)
        assert np.array_equal(snap_a.phi, snap_b.phi)
        assert np.array_equal(snap_a.tau, snap_b.tau)
        assert snap_a.alpha == snap_b.alpha
        assert snap_a.mu_phi == snap_b.mu_phi


@pytest.mark.parametrize("sampler", ["polya", "walker"])
def test_run_chain_invariants(synth_curve, sampler):
    dets, hyper = chain_setup(synth_curve)
    cfg = ChainConfig(n_iter=300, n_burn=100, thin=2, sampler=sampler, seed=5, hyper=hyper)
    samples = run_chain(dets, synth_curve, cfg)
    lo, hi = synth_curve.support
    assert 0.1 < samples.alpha_accept_rate < 0.9  # default proposal sd sanity
    assert np.all((samples.theta >= lo) & (samples.theta <= hi))
    for snap in samples.clusters:
        assert np.all(snap.tau > 0)
        assert len(snap.counts) == len(snap.phi)
        assert snap.counts.sum() == len(dets)
        if sampler == "walker":
            assert snap.w is not None
            assert np.all(snap.w > 0)
            assert snap.w.sum() < 1.0
            # every occupied stick is represented
            assert len(snap.w) == len(snap.phi)
        else:
            assert snap.w is None
            assert np.all(snap.counts > 0)  # polya compacts empties away


def test_chain_config_validation(synth_curve):
    dets, hyper = chain_setup(synth_curve)
    with pytest.raises(DataError):
        ChainConfig(n_iter=10, n_burn=10, thin=1, sampler="polya", seed=0, hyper=hyper)
    with pytest.raises(DataError):
        ChainConfig(n_iter=10, n_burn=0, thin=0, sampler="polya", seed=0, hyper=hyper)
    with pytest.raises(DataError):
        ChainConfig(n_iter=10, n_burn=0, thin=1, sampler="bogus", seed=0, hyper=hyper)
    # thin longer than the post-burn-in run would store nothing
    with pytest.raises(DataError, match="no sample would be stored"):
        ChainConfig(n_iter=10, n_burn=5, thin=6, sampler="polya", seed=0, hyper=hyper)


@pytest.mark.parametrize("sampler", ["polya", "walker"])
def test_posterior_samples_roundtrip(tmp_path, synth_curve, sampler):
    dets, hyper = chain_setup(synth_curve)
    cfg = ChainConfig(n_iter=40, n_burn=10, thin=3, sampler=sampler, seed=2, hyper=hyper)
    samples = run_chain(dets, synth_curve, cfg)
    samples.save(tmp_path / "out")
    loaded = PosteriorSamples.load(tmp_path / "out")
    assert np.array_equal(loaded.theta, samples.theta)
    assert loaded.det_ids == samples.det_ids
    assert loaded.config == samples.config
    assert_same_snapshots(samples.clusters, loaded.clusters)
    with open(tmp_path / "out" / "clusters.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    assert len(records) == samples.n_stored
    assert all(list(rec) == ["phi", "tau", "counts", "w", "alpha", "mu_phi"] for rec in records)


@pytest.mark.parametrize("sampler", ["polya", "walker"])
def test_samples_saved_with_labels_still_load(tmp_path, synth_curve, sampler):
    # clusters.jsonl as it was written when each snapshot kept every date's label
    dets, hyper = chain_setup(synth_curve)
    cfg = ChainConfig(n_iter=40, n_burn=10, thin=3, sampler=sampler, seed=2, hyper=hyper)
    samples = run_chain(dets, synth_curve, cfg)
    samples.save(tmp_path / "out")
    path = tmp_path / "out" / "clusters.jsonl"
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            labels = np.repeat(np.arange(len(rec["counts"])), rec["counts"]).tolist()
            fh.write(json.dumps({"c": labels, **rec}) + "\n")
    loaded = PosteriorSamples.load(tmp_path / "out")
    assert np.array_equal(loaded.theta, samples.theta)
    assert_same_snapshots(samples.clusters, loaded.clusters)


# ---------------------------------------------------------------------------
# lockstep chains


def chain_digest(samples):
    """sha256 of every stored value of a chain, in storage order."""
    h = hashlib.sha256(samples.theta.tobytes())
    for snap in samples.clusters:
        for arr in (snap.phi, snap.tau, snap.counts, snap.w):
            h.update(b"-" if arr is None else arr.tobytes())
        h.update(repr((snap.alpha, snap.mu_phi)).encode())
    h.update(repr(samples.alpha_accept_rate).encode())
    return h.hexdigest()


def assert_same_chain(a, b):
    assert a.theta.tobytes() == b.theta.tobytes()
    assert_same_snapshots(a.clusters, b.clusters)
    assert repr(a.alpha_accept_rate) == repr(b.alpha_accept_rate)
    assert a.config == b.config and a.det_ids == b.det_ids


#: Digests of the two 60-sweep chains below, as the one-chain `run_chain` loop
#: drew them before chains ran in lockstep.  A change here means a chain's
#: draws moved, from the code or from numpy's streams.  Re-pinned when
#: snapshots stopped keeping the dates' labels: this digest, which skips
#: them, read the same before and after that change.
ONE_CHAIN_DIGESTS = {
    "polya": "7d7585e229226346af54a68a834d5c271d8ecf46bd924e023b575cdd4706d1a3",
    "walker": "efbbf9c7a46038f8db37892f560d03db6241d05afa98c5519e69951426a43e3b",
}


@pytest.mark.parametrize("sampler", ["polya", "walker"])
def test_batch_of_one_keeps_the_one_chain_draws(synth_curve, sampler):
    dets, hyper = chain_setup(synth_curve)
    cfg = ChainConfig(n_iter=60, n_burn=20, thin=2, sampler=sampler, seed=99, hyper=hyper)
    [alone] = run_chains([(dets, cfg, None)], synth_curve)
    assert chain_digest(alone) == ONE_CHAIN_DIGESTS[sampler]
    assert_same_chain(alone, run_chain(dets, synth_curve, cfg))


@pytest.mark.parametrize(
    "n_iters, expected",
    [([50, 50, 50, 50], [2, 2]), ([40, 50, 60, 70], [1, 1, 1, 1])],
    ids=["one-run-length", "four-run-lengths"],
)
def test_run_chains_gives_each_chain_its_own_run(synth_curve, monkeypatch, n_iters, expected):
    # Mixed samplers, different dates and sizes and different hyperparameters
    # (slice widths included) in one batch; a change of run length or of
    # step cap starts a new batch.
    import carbcal.dpmm as dpmm

    jobs = []
    for k, (n, sampler) in enumerate([(8, "walker"), (5, "polya"), (11, "walker"), (3, "polya")]):
        rng = np.random.default_rng(300 + k)
        truth = rng.uniform(2000 + 900 * k, 2400 + 900 * k, size=n)
        from carbcal.synthetic import sample_determinations

        dets = sample_determinations(truth, synth_curve, 20.0 + 5 * k, rng)
        theta_map = map_estimates(dets, synth_curve)
        hyper = default_hyperparameters(dets, synth_curve, theta_map=theta_map)
        hyper = replace(hyper, slice_width=hyper.slice_width * (1 + 0.5 * k), slice_max_steps=3 + 4 * (k // 2))
        cfg = ChainConfig(
            n_iter=n_iters[k], n_burn=10, thin=3, sampler=sampler, seed=7 + k, hyper=hyper
        )
        jobs.append((dets, cfg, theta_map if k % 2 else None))
    batches = []
    run_batch = dpmm._run_batch

    def counting(batch, curve):
        batches.append(len(batch))
        return run_batch(batch, curve)

    monkeypatch.setattr(dpmm, "_run_batch", counting)
    together = list(run_chains(jobs, synth_curve))
    assert batches == expected
    assert len(together) == len(jobs)
    for (dets, cfg, theta_map), samples in zip(jobs, together):
        assert_same_chain(samples, run_chain(dets, synth_curve, cfg, theta_map))


def test_run_chains_splits_at_the_batch_cap(synth_curve, monkeypatch):
    import carbcal.dpmm as dpmm

    dets, hyper = chain_setup(synth_curve)
    jobs = [
        (dets, ChainConfig(n_iter=20, n_burn=5, thin=1, sampler=s, seed=k, hyper=hyper), None)
        for k, s in enumerate(["polya", "walker", "walker"])
    ]
    batches = []
    run_batch = dpmm._run_batch

    def counting(batch, curve):
        batches.append(len(batch))
        return run_batch(batch, curve)

    monkeypatch.setattr(dpmm, "_run_batch", counting)
    monkeypatch.setattr(dpmm, "BATCH_DATES", 2 * len(dets))
    capped = list(run_chains(jobs, synth_curve))
    assert batches == [2, 1]
    for (d, cfg, _), samples in zip(jobs, capped):
        assert_same_chain(samples, run_chain(d, synth_curve, cfg))


def test_run_chains_refuses_a_start_with_no_finite_density(synth_curve):
    dets, hyper = chain_setup(synth_curve)
    cfg = ChainConfig(n_iter=5, n_burn=1, thin=1, sampler="walker", seed=0, hyper=hyper)
    good = map_estimates(dets, synth_curve)
    bad = good.copy()
    bad[3] = np.nan  # no finite density
    with pytest.raises(ValueError, match="not finite"):
        list(run_chains([(dets, cfg, good), (dets, cfg, bad)], synth_curve))


def test_vague_precision_draws_stay_positive_and_finite():
    # numpy's gamma of shape 1e-3 underflows to exactly zero on about half its
    # draws; a zero precision gave an infinite cluster mean.
    hyper = simple_hyper(nu1=1e-3, nu2=1e-3)
    rng = np.random.default_rng(0)
    counts = np.zeros(2000)
    phi, tau = _draw_cluster_params(counts, counts, counts, 500.0, hyper, rng)
    assert np.all(tau >= np.finfo(float).tiny)
    assert np.all(np.isfinite(phi))


def test_cheap_draw_forms_match_gamma_and_normal():
    # The chain writes gamma(a, s) as s * standard_gamma(a) and normal(m, s)
    # as m + s * standard_normal(shape); both must give numpy's bits and
    # leave the stream where numpy's own draw leaves it.
    for seed in range(200):
        params = np.random.default_rng(10_000 + seed)
        for k in [None, *range(1, 10)]:
            a = params.uniform(0.1, 30.0, size=k)
            s = params.uniform(1e-4, 50.0, size=k)
            m = params.normal(3000.0, 500.0, size=k)
            ref, cheap = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(ref.gamma(a, s), s * cheap.standard_gamma(a))
            shape = None if k is None else (k,)
            assert np.array_equal(ref.normal(m, s), m + s * cheap.standard_normal(shape))
            assert ref.random() == cheap.random()
