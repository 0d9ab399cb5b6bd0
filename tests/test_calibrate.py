import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from carbcal.calibrate import (
    DensityGrid,
    Determination,
    Hyperparameters,
    calibrate_independent,
    default_hyperparameters,
    hpd_intervals,
    likelihood,
    map_estimates,
    prior_cluster_sd_quantile,
    read_determinations,
    spd,
    write_csv,
)
from carbcal.errors import DataError
from carbcal.synthetic import write_determination_file
from conftest import make_flat_curve, make_linear_curve


def test_likelihood_standard_normal_mode():
    # sd of the curve made negligible so the variance is sigma^2 alone
    curve = make_linear_curve(0, 100, sd=1e-9)
    det = Determination("a", 50.0, 1.0)
    assert likelihood(det, curve, 50.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi))


def test_likelihood_closed_form():
    curve = make_flat_curve(0, 100, mean=500.0, sd=3.0)
    det = Determination("a", 507.0, 4.0)
    v = 3.0**2 + 4.0**2
    expected = math.exp(-(7.0**2) / (2 * v)) / math.sqrt(2 * math.pi * v)
    assert likelihood(det, curve, 42.0) == pytest.approx(expected)


def test_likelihood_constant_on_flat_curve():
    curve = make_flat_curve(0, 1000, mean=800.0, sd=5.0)
    det = Determination("a", 810.0, 20.0)
    values = likelihood(det, curve, np.linspace(0, 1000, 57))
    assert np.ptp(values) == 0.0


def test_calibrate_independent_monotone_curve_peaks_at_truth():
    curve = make_linear_curve(0, 10_000, sd=1.0)
    det = Determination("a", 4321.0, 25.0)
    grid = calibrate_independent(det, curve, 1.0)
    assert grid.theta[int(np.argmax(grid.density))] == pytest.approx(4321.0, abs=1.0)
    # unimodal: density decreases monotonically away from the peak
    peak = int(np.argmax(grid.density))
    assert np.all(np.diff(grid.density[:peak]) >= 0)
    assert np.all(np.diff(grid.density[peak:]) <= 0)


@settings(max_examples=25, deadline=None)
@given(
    x=st.floats(100.0, 9_000.0),
    sigma=st.floats(5.0, 200.0),
    resolution=st.sampled_from([1.0, 2.0, 5.0]),
)
def test_calibrate_independent_normalized(x, sigma, resolution):
    curve = make_linear_curve(0, 10_000, sd=10.0)
    grid = calibrate_independent(Determination("a", x, sigma), curve, resolution)
    assert abs(grid.mass - 1.0) < 1e-9


def test_calibrate_independent_is_renormalized_likelihood():
    curve = make_linear_curve(0, 5_000, sd=20.0)
    det = Determination("a", 2222.0, 30.0)
    grid = calibrate_independent(det, curve, 5.0)
    lik = likelihood(det, curve, grid.theta)
    keep = lik > lik.max() * 1e-12  # skip cells where the likelihood underflows
    ratio = grid.density[keep] / lik[keep]
    assert np.allclose(ratio, ratio[0], rtol=1e-9)


def triangular_grid():
    theta = np.arange(0, 101, dtype=float)
    density = np.minimum(theta, 100 - theta)
    density /= density.sum() * 1.0
    return DensityGrid(theta, density, 1.0)


def test_hpd_unimodal_single_interval():
    grid = triangular_grid()
    intervals = hpd_intervals(grid, 0.6)
    assert len(intervals) == 1
    lo, hi, mass = intervals[0]
    assert lo < 50 < hi
    assert mass >= 0.6
    assert mass - 0.6 <= grid.density.max() * grid.resolution


def test_hpd_two_identical_bumps_split_equally():
    theta = np.arange(0, 200, dtype=float)
    bump = np.exp(-0.5 * ((np.arange(200) - 50) / 8.0) ** 2)
    density = bump + np.roll(bump, 100)
    density /= density.sum()
    grid = DensityGrid(theta, density, 1.0)
    intervals = hpd_intervals(grid, 0.5)
    assert len(intervals) == 2
    masses = sorted(m for _, _, m in intervals)
    assert masses[0] == pytest.approx(masses[1], rel=0.05)


def test_hpd_respects_level_within_one_cell():
    grid = triangular_grid()
    for level in (0.3, 0.683, 0.954):
        total = sum(m for _, _, m in hpd_intervals(grid, level))
        assert level <= total <= level + grid.density.max() * grid.resolution


def test_hpd_requires_normalized_grid():
    grid = DensityGrid(np.arange(10.0), np.ones(10), 1.0, normalized=False)
    with pytest.raises(DataError):
        hpd_intervals(grid, 0.5)


def brute_force_hpd(grid, level):
    """Independent oracle: greedy cell-picking without argsort."""
    cell_mass = (grid.density * grid.resolution).tolist()
    density = grid.density.tolist()
    chosen = [False] * len(density)
    total = 0.0
    while total < level:
        best, best_d = -1, -1.0
        for i, d in enumerate(density):
            if not chosen[i] and d > best_d:
                best, best_d = i, d
        chosen[best] = True
        total += cell_mass[best]
    intervals = []
    i = 0
    while i < len(chosen):
        if chosen[i]:
            j = i
            while j + 1 < len(chosen) and chosen[j + 1]:
                j += 1
            intervals.append(
                (float(grid.theta[i]), float(grid.theta[j]), float(sum(cell_mass[i : j + 1])))
            )
            i = j + 1
        else:
            i += 1
    return intervals


def test_curve_inversion_gives_disjoint_hpd_intervals(synth_curve):
    # A date on a slope inversion calibrates to a multimodal posterior whose
    # 95.4% region splits into disjoint intervals, with all appreciable mass
    # in a narrow window around the true age (the single-date workflow the
    # joint model improves on).
    true_age = 3150.0
    det = Determination("inv", float(synth_curve.at(true_age)[0]), 30.0)
    grid = calibrate_independent(det, synth_curve, 5.0)
    intervals = hpd_intervals(grid, 0.954)
    assert len(intervals) >= 2
    window = (grid.theta >= true_age - 400) & (grid.theta <= true_age + 400)
    assert grid.density[window].sum() * grid.resolution > 0.99


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    level=st.floats(0.05, 0.99),
    n_cells=st.integers(5, 120),
)
def test_hpd_properties_on_random_grids(seed, level, n_cells):
    rng = np.random.default_rng(seed)
    density = rng.gamma(0.7, 1.0, size=n_cells)
    density[density < 1e-12] = 1e-12
    res = float(rng.uniform(0.5, 10.0))
    density /= density.sum() * res
    grid = DensityGrid(np.arange(n_cells) * res, density, res)
    intervals = hpd_intervals(grid, level)
    # disjoint, sorted, and within one max-cell of the requested mass
    for (lo1, hi1, _), (lo2, _, _) in zip(intervals, intervals[1:]):
        assert hi1 < lo2
    total = sum(m for _, _, m in intervals)
    assert level <= total <= level + density.max() * res + 1e-12
    # every included cell at least as dense as every excluded cell
    included = np.zeros(n_cells, dtype=bool)
    for lo, hi, _ in intervals:
        included |= (grid.theta >= lo) & (grid.theta <= hi)
    if included.any() and (~included).any():
        assert density[included].min() >= density[~included].max() - 1e-12


def test_hpd_matches_brute_force_oracle_bit_identical(synth_curve):
    det = Determination("a", float(synth_curve.at(3200.0)[0]), 30.0)
    grid = calibrate_independent(det, synth_curve, 5.0)
    for level in (0.683, 0.954):
        got = hpd_intervals(grid, level)
        oracle = brute_force_hpd(grid, level)
        # endpoints bit-identical; masses agree up to summation order
        assert [(lo, hi) for lo, hi, _ in got] == [(lo, hi) for lo, hi, _ in oracle]
        for (_, _, m1), (_, _, m2) in zip(got, oracle):
            assert m1 == pytest.approx(m2, abs=1e-12)


def test_spd_single_det_equals_independent(synth_curve):
    det = Determination("a", 3010.0, 30.0)
    single = calibrate_independent(det, synth_curve, 5.0)
    summed = spd([det], synth_curve, 5.0)
    assert np.allclose(summed.density, single.density)


def test_spd_duplicate_dets_idempotent(synth_curve):
    det = Determination("a", 3010.0, 30.0)
    one = spd([det], synth_curve, 5.0)
    two = spd([det, det], synth_curve, 5.0)
    assert np.allclose(one.density, two.density)
    assert abs(two.mass - 1.0) < 1e-9


def test_spd_empty_input_rejected(synth_curve):
    with pytest.raises(DataError):
        spd([], synth_curve, 5.0)


def test_map_estimates_monotone_curve_recovers_truth():
    curve = make_linear_curve(0, 10_000, sd=1.0)
    truth = [1234.0, 5678.0]
    dets = [Determination(str(t), t, 25.0) for t in truth]
    est = map_estimates(dets, curve, 5.0)
    assert np.all(np.abs(est - truth) <= 5.0)


def test_map_estimates_flat_curve_tie_breaks_to_smallest():
    curve = make_flat_curve(0, 1000, mean=500.0, sd=5.0)
    det = Determination("a", 500.0, 25.0)
    assert map_estimates([det], curve, 10.0)[0] == 0.0


def test_map_estimates_matches_exhaustive_scan(synth_curve):
    dets = [Determination("a", 3010.0, 30.0), Determination("b", 12_345.0, 40.0)]
    est = map_estimates(dets, synth_curve, 5.0)
    lo, hi = synth_curve.support
    grid = np.arange(lo, hi + 2.5, 5.0)
    for det, e in zip(dets, est):
        values = likelihood(det, synth_curve, grid)
        assert e == grid[int(np.argmax(values))]


# ---------------------------------------------------------------------------
# default hyperparameters


def dets_with_map_ages(ages):
    """Determinations whose MAP ages, on the identity curve, are the ages."""
    return [Determination(f"d{k}", float(a), 25.0) for k, a in enumerate(ages)], make_linear_curve(
        0, 20_000, sd=1.0
    )


def test_default_hyperparameters_formulas():
    ages = [1000.0, 2000.0, 3000.0, 4000.0, 8000.0]
    dets, curve = dets_with_map_ages(ages)
    hyper = default_hyperparameters(dets, curve)
    theta = np.array(ages)
    spread = theta.max() - theta.min()
    mad = np.median(np.abs(theta - np.median(theta)))
    assert hyper.nu1 == 0.25
    assert hyper.nu2 == pytest.approx(mad**2 * 0.25 / 100.0)
    assert hyper.lam == pytest.approx((100.0 / spread) ** 2)
    assert hyper.xi == pytest.approx(np.median(theta))
    assert hyper.psi == pytest.approx(1.0 / spread**2)
    assert hyper.eta1 == 1.0 and hyper.eta2 == 1.0
    assert hyper.n_init_clusters == 10
    q75, q25 = np.percentile(theta, [75, 25])
    assert hyper.slice_width == pytest.approx(max(0.5 * (q75 - q25), 50.0))


def test_default_hyperparameters_mad_modes():
    ages = [1000.0, 2000.0, 3000.0, 4000.0, 8000.0]
    dets, curve = dets_with_map_ages(ages)
    theta = np.array(ages)
    hyper_max = default_hyperparameters(dets, curve, mad_mode="maximum")
    dev_max = np.max(np.abs(theta - np.median(theta)))
    assert hyper_max.nu2 == pytest.approx(dev_max**2 * 0.25 / 100.0)
    with pytest.raises(DataError):
        default_hyperparameters(dets, curve, mad_mode="bogus")


def test_default_hyperparameters_identical_ages_rejected():
    dets, curve = dets_with_map_ages([5000.0, 5000.0, 5000.0])
    with pytest.raises(DataError, match="manually"):
        default_hyperparameters(dets, curve)


def test_default_hyperparameters_needs_two_dets():
    dets, curve = dets_with_map_ages([5000.0])
    with pytest.raises(DataError):
        default_hyperparameters(dets, curve)


def test_prior_cluster_sd_quantiles_match_gamma_oracle():
    # mad = 1000 -> 5% quantile of the cluster-sd prior ~45 cal yr and
    # 75% quantile ~ mad itself.
    ages = [9000.0, 9800.0, 10_000.0, 11_000.0, 13_000.0]  # mad = 1000
    dets, curve = dets_with_map_ages(ages)
    hyper = default_hyperparameters(dets, curve)
    assert hyper.nu2 == pytest.approx(2500.0)

    q05 = prior_cluster_sd_quantile(hyper, 0.05)
    q75 = prior_cluster_sd_quantile(hyper, 0.75)
    assert q05 == pytest.approx(45.0, rel=0.15)
    assert q75 == pytest.approx(1000.0, rel=0.15)

    # independent oracle via scipy's gamma ppf
    oracle05 = stats.gamma.ppf(0.95, hyper.nu1, scale=1 / hyper.nu2) ** -0.5
    oracle75 = stats.gamma.ppf(0.25, hyper.nu1, scale=1 / hyper.nu2) ** -0.5
    assert q05 == pytest.approx(oracle05, rel=1e-9)
    assert q75 == pytest.approx(oracle75, rel=1e-9)


def test_prior_sd_quantile_reported_case():
    # spread statistic 132 -> nu2 = 43.56 -> 5% quantile of the cluster-sd
    # prior is 6 cal yr (a published worked case for these defaults)
    hyper = Hyperparameters(
        lam=(100.0 / 927.0) ** 2,
        nu1=0.25,
        nu2=132.0**2 * 0.25 / 100.0,
        xi=1000.0,
        psi=1.0 / 927.0**2,
    )
    assert prior_cluster_sd_quantile(hyper, 0.05) == pytest.approx(6.0, abs=0.1)


def test_cluster_mean_prior_spans_range():
    # With the default lam, a 50-cal-yr cluster has sd(phi | tau) = range/2,
    # so +-2 sd covers the observed range either side of the centre.
    ages = [1000.0, 2000.0, 3000.0, 4000.0, 8000.0]
    dets, curve = dets_with_map_ages(ages)
    hyper = default_hyperparameters(dets, curve)
    spread = 7000.0
    tau_50 = 1.0 / 50.0**2
    sd_phi = 1.0 / math.sqrt(hyper.lam * tau_50)
    assert sd_phi == pytest.approx(spread / 2.0)


# ---------------------------------------------------------------------------
# determination file i/o


def test_read_determinations_roundtrip(tmp_path):
    path = tmp_path / "dets.csv"
    path.write_text("id,c14_age,c14_sig\nkerr1,1500,30\nkerr2,1480.5,25\n")
    dets = read_determinations(path)
    assert [d.id for d in dets] == ["kerr1", "kerr2"]
    assert dets[1].x == 1480.5


def test_read_determinations_bad_header(tmp_path):
    path = tmp_path / "dets.csv"
    path.write_text("name,age,err\nx,1,2\n")
    with pytest.raises(DataError, match="header"):
        read_determinations(path)


def test_read_determinations_bad_row_has_line_number(tmp_path):
    path = tmp_path / "dets.csv"
    path.write_text("id,c14_age,c14_sig\nx,1500,30\ny,oops,30\n")
    with pytest.raises(DataError, match=r":3:"):
        read_determinations(path)


def test_read_determinations_rejects_nonpositive_sigma(tmp_path):
    path = tmp_path / "dets.csv"
    path.write_text("id,c14_age,c14_sig\nx,1500,0\n")
    with pytest.raises(DataError):
        read_determinations(path)


def test_read_determinations_empty_file(tmp_path):
    path = tmp_path / "dets.csv"
    path.write_text("")
    with pytest.raises(DataError):
        read_determinations(path)
    path.write_text("id,c14_age,c14_sig\n")
    with pytest.raises(DataError):
        read_determinations(path)


def test_read_determinations_rejects_line_break_in_id(tmp_path):
    path = tmp_path / "dets.csv"
    path.write_text('id,c14_age,c14_sig\nx,1500,30\n"a\rb",1500,30\n', newline="")
    with pytest.raises(DataError, match=r":3:.*line break"):
        read_determinations(path)
    with pytest.raises(DataError, match="line break"):
        Determination("a\nb", 1500.0, 30.0)


# Ids are whatever Determination accepts as read back: stripped, non-empty,
# no line break.  Commas and double quotes are drawn often.
_ids = st.text(
    alphabet=st.one_of(
        st.sampled_from(',"'),
        st.characters(exclude_categories=("Cs",), exclude_characters="\r\n"),
    ),
    min_size=1,
    max_size=12,
).filter(lambda s: s == s.strip() and s)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            _ids,
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_determination_file_roundtrip(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("dets") / "dets.csv"
    write_determination_file([Determination(*row) for row in rows], path)
    back = read_determinations(path)
    assert [(d.id, d.x, d.sigma) for d in back] == rows


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(_ids, st.floats(allow_nan=False), st.floats(allow_nan=False)),
        max_size=20,
    )
)
def test_write_csv_roundtrip(tmp_path_factory, rows):
    out = tmp_path_factory.mktemp("csv")
    write_csv(out / "rows.csv", ["id", "a", "b"], [(i, a, np.float64(b)) for i, a, b in rows])
    with open(out / "rows.csv", newline="", encoding="utf-8") as fh:
        back = list(csv.reader(fh))
    assert back[0] == ["id", "a", "b"]
    assert [(i, float(a), float(b)) for i, a, b in back[1:]] == rows
    # a numeric array takes the block path, which must write the same bytes
    numbers = [(a, b) for _, a, b in rows]
    write_csv(out / "rows2.csv", ["a", "b"], numbers)
    write_csv(out / "array.csv", ["a", "b"], np.array(numbers).reshape(-1, 2))
    assert (out / "array.csv").read_bytes() == (out / "rows2.csv").read_bytes()


def test_write_csv_array_blocks_match_rows(tmp_path):
    # wide enough that the array is written in several blocks of rows
    values = np.random.default_rng(4).normal(4000.0, 300.0, size=(7, 30_000))
    header = [f"d{k}" for k in range(values.shape[1])]
    write_csv(tmp_path / "array.csv", header, values)
    write_csv(tmp_path / "rows.csv", header, values.tolist())
    assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_calibrate_independent_rejects_date_off_the_curve(synth_curve):
    det = Determination("far", 90_000.0, 30.0)
    with pytest.raises(DataError, match="'far'.*no likelihood mass"):
        calibrate_independent(det, synth_curve, 5.0)
    with pytest.raises(DataError, match="'far'"):
        spd([Determination("near", 3000.0, 30.0), det], synth_curve, 5.0)
