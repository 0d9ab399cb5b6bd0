import copy
import math

import numpy as np
import pytest
from scipy import stats

from carbcal.slicesample import SliceConfig, slice_sample, slice_sample_array


def run_chain(log_density, start, cfg, rng, n_keep, thin=1):
    draws = np.empty(n_keep)
    x = start
    for k in range(n_keep):
        for _ in range(thin):
            x = slice_sample(log_density, x, cfg, rng)
        draws[k] = x
    return draws


def test_standard_normal_moments_and_ks():
    rng = np.random.default_rng(101)
    cfg = SliceConfig(width=2.0)
    draws = run_chain(lambda x: -0.5 * x * x, 0.0, cfg, rng, n_keep=50_000, thin=3)
    assert abs(draws.mean()) < 0.03
    assert abs(draws.std() - 1.0) < 0.03
    ks = stats.kstest(draws, "norm").statistic
    assert ks < 0.02


def test_uniform_target_respects_bounds():
    rng = np.random.default_rng(7)
    a, b = 2.0, 5.0
    cfg = SliceConfig(width=10.0, bounds=(a, b))
    draws = run_chain(lambda x: 0.0, 3.0, cfg, rng, n_keep=5_000)
    assert draws.min() >= a
    assert draws.max() <= b
    # and they actually look uniform
    ks = stats.kstest(draws, stats.uniform(loc=a, scale=b - a).cdf).statistic
    assert ks < 0.03


def bimodal_logpdf(x, sep=3.0):
    return np.logaddexp(-0.5 * (x - sep) ** 2, -0.5 * (x + sep) ** 2)


def test_well_separated_bimodal_mode_masses():
    # Modes six sd apart; trough-to-peak density ratio ~2%.  The spec's
    # illustration uses a 20-sd separation, which no stepping-out chain can
    # traverse in finite time; "well separated" is the operative contract.
    rng = np.random.default_rng(2024)
    cfg = SliceConfig(width=5.0)
    draws = run_chain(lambda x: bimodal_logpdf(x), 3.0, cfg, rng, n_keep=50_000, thin=10)
    upper_mass = float((draws > 0).mean())
    assert abs(upper_mass - 0.5) < 0.05

    mix_cdf = lambda x: 0.5 * stats.norm.cdf(x, -3.0, 1.0) + 0.5 * stats.norm.cdf(x, 3.0, 1.0)
    ks = stats.kstest(draws, mix_cdf).statistic
    assert ks < 0.02


def test_slice_condition_always_satisfied():
    rng = np.random.default_rng(5)
    log_density = lambda x: -0.5 * (x - 1.0) ** 2
    cfg = SliceConfig(width=1.5)
    x = 0.0
    for _ in range(2_000):
        # the level is a transition's first draw: replay it on a copy of the generator
        z = log_density(x) - copy.deepcopy(rng).standard_exponential()
        x = slice_sample(log_density, x, cfg, rng)
        assert log_density(x) > z


def test_default_bounds_draw_as_unbounded_in_both_kernels():
    target = lambda x: bimodal_logpdf(x, sep=2.0)
    draws = []
    for cfg in (SliceConfig(width=1.5), SliceConfig(width=1.5, bounds=(-math.inf, math.inf))):
        rng = np.random.default_rng(13)
        scalar = run_chain(target, 0.5, cfg, rng, n_keep=500)
        many = np.linspace(-3.0, 3.0, 7)
        for _ in range(100):
            many = slice_sample_array(lambda x, index: target(x), many, cfg, rng)
        draws.append(np.concatenate([scalar, many]).tobytes())
    assert draws[0] == draws[1]


def _nan_below_zero(x):
    return np.where(x < 0, np.nan, -0.5 * x * x)


@pytest.mark.parametrize(
    "target, cfg, start",
    [
        (bimodal_logpdf, SliceConfig(width=1.5, max_steps=3, bounds=(-4.0, 6.0)), 0.5),
        (_nan_below_zero, SliceConfig(width=4.0), 1.0),
    ],
)
def test_scalar_kernel_draws_as_the_array_kernel_on_one_coordinate(target, cfg, start):
    # slice_sample is kept beside slice_sample_array only for speed, as its
    # one-coordinate case: same draws, bit for bit, and same generator use
    for seed in range(5):
        rng_scalar, rng_array = np.random.default_rng(seed), np.random.default_rng(seed)
        scalar, array = np.empty(2000), np.empty(2000)
        x, y = start, np.array([start])
        for k in range(len(scalar)):
            x = slice_sample(lambda v: float(target(v)), x, cfg, rng_scalar)
            y = slice_sample_array(lambda v, index: target(v), y, cfg, rng_array)
            scalar[k], array[k] = x, y[0]
        assert scalar.tobytes() == array.tobytes()
        assert rng_scalar.bit_generator.state == rng_array.bit_generator.state


def test_stepping_out_never_exceeds_max_steps_or_bounds():
    rng = np.random.default_rng(9)
    calls = []

    def log_density(x):
        calls.append(x)
        return 0.0  # flat: stepping out would expand forever without the cap

    cfg = SliceConfig(width=1.0, max_steps=4, bounds=(-100.0, 100.0))
    for _ in range(200):
        calls.clear()
        new = slice_sample(log_density, 0.0, cfg, rng)
        assert -100.0 <= new <= 100.0
        evaluated = [c for c in calls]
        assert all(-100.0 <= c <= 100.0 for c in evaluated)
        # initial eval + at most max_steps per side + one accepted proposal
        assert len(evaluated) <= 1 + 2 * cfg.max_steps + 1
        assert min(evaluated) >= 0.0 - (1 + cfg.max_steps) * cfg.width
        assert max(evaluated) <= 0.0 + (1 + cfg.max_steps) * cfg.width


def test_nan_density_treated_as_outside_slice():
    rng = np.random.default_rng(11)

    def log_density(x):
        if x < 0:
            return float("nan")
        return -0.5 * x * x

    cfg = SliceConfig(width=4.0)
    draws = run_chain(log_density, 1.0, cfg, rng, n_keep=2_000)
    assert np.all(draws >= 0)


def test_invalid_start_raises():
    rng = np.random.default_rng(3)
    cfg = SliceConfig(width=1.0)
    with pytest.raises(ValueError):
        slice_sample(lambda x: -math.inf, 0.0, cfg, rng)


def test_start_outside_bounds_raises():
    # Clipped to the bounds, the initial interval no longer held the start,
    # so shrinkage never ended on a peaked density and a flatter one let an
    # out-of-bounds start through.
    cfg = SliceConfig(width=5.0, bounds=(0.0, 60.0))
    for sd in (1.0, 50.0):
        with pytest.raises(ValueError, match="outside bounds"):
            rng = np.random.default_rng(4)
            slice_sample(lambda x: -0.5 * ((x - 72.0) / sd) ** 2, 72.0, cfg, rng)
    with pytest.raises(ValueError, match="outside bounds"):
        slice_sample(lambda x: 0.0, -1e-9, cfg, np.random.default_rng(4))
    # a start on a bound is inside
    assert 0.0 <= slice_sample(lambda x: 0.0, 60.0, cfg, np.random.default_rng(4)) <= 60.0


def test_config_validation():
    with pytest.raises(ValueError):
        SliceConfig(width=0.0)
    with pytest.raises(ValueError):
        SliceConfig(width=1.0, max_steps=0)
    with pytest.raises(ValueError):
        SliceConfig(width=1.0, bounds=(2.0, 1.0))


def test_discretised_target_stationarity():
    # Five-cell step density on [0, 5); the empirical between-cell transition
    # kernel over 1e6 steps must preserve the target within 1% TV.
    levels = np.array([0.10, 0.50, 0.20, 0.15, 0.05])
    target = levels / levels.sum()
    log_levels = np.log(levels)

    def log_density(x):
        return log_levels[int(x)] if 0.0 <= x < 5.0 else -math.inf

    rng = np.random.default_rng(17)
    cfg = SliceConfig(width=1.5, bounds=(0.0, 5.0 - 1e-12))
    counts = np.zeros((5, 5))
    x = 1.3
    for _ in range(1_000_000):
        new = slice_sample(log_density, x, cfg, rng)
        counts[int(x), int(new)] += 1
        x = new
    kernel = counts / counts.sum(axis=1, keepdims=True)
    # stationary distribution of the empirical kernel by power iteration
    pi = np.full(5, 0.2)
    for _ in range(10_000):
        pi = pi @ kernel
    tv = 0.5 * np.abs(pi - target).sum()
    assert tv < 0.01


# ---------------------------------------------------------------------------
# array kernel: many independent chains advanced together


def run_array_chains(log_density, start, cfg, rng, burn, n_snapshots, thin):
    """Advance all chains ``burn`` steps, then pool ``n_snapshots`` states
    taken every ``thin`` steps."""
    x = np.asarray(start, dtype=float)
    for _ in range(burn):
        x = slice_sample_array(log_density, x, cfg, rng)
    pooled = []
    for _ in range(n_snapshots):
        for _ in range(thin):
            x = slice_sample_array(log_density, x, cfg, rng)
        pooled.append(x)
    return np.concatenate(pooled)


def test_array_standard_normal_ks():
    rng = np.random.default_rng(101)
    cfg = SliceConfig(width=2.0)
    draws = run_array_chains(
        lambda x, index: -0.5 * x * x, np.zeros(2000), cfg, rng, burn=30, n_snapshots=25, thin=3
    )
    assert abs(draws.mean()) < 0.03
    assert abs(draws.std() - 1.0) < 0.03
    assert stats.kstest(draws, "norm").statistic < 0.02


def test_array_well_separated_bimodal_ks_and_mode_masses():
    rng = np.random.default_rng(2024)
    cfg = SliceConfig(width=5.0)
    draws = run_array_chains(
        lambda x, index: bimodal_logpdf(x),
        np.full(2000, 3.0),
        cfg,
        rng,
        burn=300,
        n_snapshots=25,
        thin=10,
    )
    assert abs(float((draws > 0).mean()) - 0.5) < 0.05
    mix_cdf = lambda x: 0.5 * stats.norm.cdf(x, -3.0, 1.0) + 0.5 * stats.norm.cdf(x, 3.0, 1.0)
    assert stats.kstest(draws, mix_cdf).statistic < 0.02


def test_array_chains_use_their_own_densities():
    # Coordinate i targets N(i, 1); the index argument selects the density.
    means = np.arange(5, dtype=float) * 10.0
    rng = np.random.default_rng(8)
    draws = run_array_chains(
        lambda x, index: -0.5 * (x - means[index]) ** 2,
        means + 3.0,
        SliceConfig(width=2.0),
        rng,
        burn=20,
        n_snapshots=4000,
        thin=3,
    ).reshape(4000, 5)
    for i, mean in enumerate(means):
        assert stats.kstest(draws[:, i] - mean, "norm").statistic < 0.03


def test_array_uniform_target_respects_bounds():
    rng = np.random.default_rng(7)
    a, b = 2.0, 5.0
    cfg = SliceConfig(width=10.0, bounds=(a, b))
    draws = run_array_chains(
        lambda x, index: np.zeros_like(x), np.full(500, 3.0), cfg, rng, burn=0, n_snapshots=10, thin=1
    )
    assert draws.min() >= a
    assert draws.max() <= b
    ks = stats.kstest(draws, stats.uniform(loc=a, scale=b - a).cdf).statistic
    assert ks < 0.03


def test_array_stepping_out_never_exceeds_max_steps_or_bounds():
    rng = np.random.default_rng(9)
    cfg = SliceConfig(width=1.0, max_steps=4, bounds=(-100.0, 100.0))
    n = 200
    evaluated = [[] for _ in range(n)]

    def log_density(x, index):
        for i, point in zip(index.tolist(), x.tolist()):
            evaluated[i].append(point)
        return np.zeros_like(x)  # flat: stepping out would expand forever without the cap

    new = slice_sample_array(log_density, np.zeros(n), cfg, rng)
    assert np.all((new >= -100.0) & (new <= 100.0))
    for points in evaluated:
        # start + at most max_steps per side + one accepted proposal
        assert len(points) <= 1 + 2 * cfg.max_steps + 1
        assert min(points) >= -(1 + cfg.max_steps) * cfg.width
        assert max(points) <= (1 + cfg.max_steps) * cfg.width


def test_array_nan_density_treated_as_outside_slice():
    rng = np.random.default_rng(11)

    def log_density(x, index):
        return np.where(x < 0, np.nan, -0.5 * x * x)

    cfg = SliceConfig(width=4.0)
    draws = run_array_chains(
        log_density, np.ones(200), cfg, rng, burn=0, n_snapshots=20, thin=1
    )
    assert np.all(draws >= 0)


def test_array_invalid_start_raises():
    rng = np.random.default_rng(3)
    cfg = SliceConfig(width=1.0)
    with pytest.raises(ValueError):
        slice_sample_array(
            lambda x, index: np.where(index == 2, -math.inf, 0.0), np.zeros(4), cfg, rng
        )
    with pytest.raises(ValueError):
        slice_sample_array(lambda x, index: np.full(x.shape, np.nan), np.zeros(3), cfg, rng)


def test_array_start_outside_bounds_raises():
    cfg = SliceConfig(width=5.0, bounds=(0.0, 60.0))
    start = np.array([10.0, 72.0, 30.0])
    with pytest.raises(ValueError, match="starting point 72.0 outside bounds"):
        slice_sample_array(
            lambda x, index: -0.5 * (x - 72.0) ** 2, start, cfg, np.random.default_rng(4)
        )
    # starts on the bounds are inside
    new = slice_sample_array(
        lambda x, index: np.zeros_like(x), np.array([0.0, 60.0]), cfg, np.random.default_rng(4)
    )
    assert np.all((new >= 0.0) & (new <= 60.0))


# ---------------------------------------------------------------------------
# blocks of coordinates, each on its own generator


def block_target(x, index):
    # coordinate i: a normal centred at 7 * i with sd 1 + i / 3
    return -0.5 * ((x - 7.0 * index) / (1.0 + index / 3.0)) ** 2


def test_blocks_draw_what_each_block_draws_alone():
    sizes = [3, 1, 5, 2]
    widths = [0.5, 4.0, 1.5, 9.0]
    cuts = np.cumsum([0] + sizes)
    seeds = [11, 12, 13, 14]
    rngs = [np.random.default_rng(s) for s in seeds]
    cfg = SliceConfig(width=np.repeat(widths, sizes), max_steps=3, bounds=(-5.0, 100.0))
    x = 7.0 * np.arange(cuts[-1]) + 2.0
    alone = [x[a:b].copy() for a, b in zip(cuts, cuts[1:])]
    alone_rngs = [np.random.default_rng(s) for s in seeds]
    for _ in range(30):
        x = slice_sample_array(block_target, x, cfg, rngs, blocks=sizes)
        for k, (a, b) in enumerate(zip(cuts, cuts[1:])):
            own = SliceConfig(width=widths[k], max_steps=3, bounds=(-5.0, 100.0))
            alone[k] = slice_sample_array(
                lambda p, i, a=a: block_target(p, i + a), alone[k], own, alone_rngs[k]
            )
    assert x.tobytes() == np.concatenate(alone).tobytes()
    # every generator is left exactly where its block alone leaves it
    assert [r.random() for r in rngs] == [r.random() for r in alone_rngs]


def test_blocks_invalid_start_in_any_block_raises():
    rngs = [np.random.default_rng(k) for k in range(3)]
    cfg = SliceConfig(width=1.0)
    with pytest.raises(ValueError, match="not finite"):
        slice_sample_array(
            lambda x, index: np.where(index == 4, -math.inf, 0.0), np.zeros(6), cfg, rngs, [2, 2, 2]
        )
    with pytest.raises(ValueError, match="one generator per block"):
        slice_sample_array(lambda x, index: np.zeros_like(x), np.zeros(6), cfg, rngs, [2, 2])
    with pytest.raises(ValueError, match="one generator per block"):
        slice_sample_array(lambda x, index: np.zeros_like(x), np.zeros(6), cfg, rngs, [2, 2, 1])


def test_blocks_start_outside_bounds_in_any_block_raises():
    rngs = [np.random.default_rng(k) for k in range(3)]
    cfg = SliceConfig(width=np.repeat([1.0, 2.0, 3.0], 2), bounds=(0.0, 60.0))
    start = np.array([10.0, 20.0, 30.0, 40.0, 72.0, 50.0])
    with pytest.raises(ValueError, match="outside bounds"):
        slice_sample_array(
            lambda x, index: -0.5 * (x - 72.0) ** 2, start, cfg, rngs, blocks=[2, 2, 2]
        )


def test_per_coordinate_tuning_is_validated():
    with pytest.raises(ValueError):
        SliceConfig(width=np.array([1.0, 0.0]))
