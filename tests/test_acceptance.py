"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints (and the terminal summary repeats) one pass/fail line.
Criteria 6-9 concern behaviour against the published IntCal20 curve, which
cannot be redistributed here: criterion 6 requires the real file and fails
with instructions when it is absent; criteria 7-9 exercise method behaviour
and fall back to the bundled synthetic stand-in curve with thresholds
unchanged (the line records which curve was used).
"""

import filecmp
import json
import time

import numpy as np
import pytest
from scipy import stats

import oracles
from carbcal.calcurve import CalibrationCurve
from carbcal.calibrate import (
    Determination,
    Hyperparameters,
    calibrate_independent,
    default_hyperparameters,
    hpd_intervals,
    map_estimates,
    prior_cluster_sd_quantile,
)
from carbcal.cli import main
from carbcal.dpmm import (
    ChainConfig,
    DpmmState,
    log_alpha_likelihood,
    run_chains,
    update_alpha,
    update_cluster_params,
)
from carbcal.predictive import (
    cluster_count_posterior,
    predictive_density,
    predictive_grid,
)
from carbcal.simstudy import run_study
from carbcal.slicesample import SliceConfig, slice_sample
from carbcal.synthetic import three_phase_determinations, true_three_phase_density
from conftest import intcal20_path, record_criterion

pytestmark = pytest.mark.acceptance


def curve_label(curve):
    return "IntCal20" if "intcal" in str(curve.source).lower() else "synthetic stand-in"


# ---------------------------------------------------------------------------


def test_criterion_01_conjugacy_oracle():
    # One cluster of three fixed ages, replicated so each update call yields
    # a batch of independent posterior draws.
    t0 = time.time()
    hyper = Hyperparameters(
        lam=0.05, nu1=2.0, nu2=2 * 60.0**2, xi=500.0, psi=1e-6, slice_width=100.0
    )
    members = np.array([430.0, 505.0, 570.0])
    mu_phi = 480.0
    reps = 500
    state = DpmmState(
        theta=np.tile(members, reps),
        c=np.repeat(np.arange(reps), 3),
        phi=np.zeros(reps),
        tau=np.ones(reps),
        w=np.empty(0),
        alpha=1.0,
        mu_phi=mu_phi,
    )
    rng = np.random.default_rng(1001)
    n_calls = 200  # 200 x 500 = 1e5 draws
    taus = np.empty(n_calls * reps)
    phis = np.empty(n_calls * reps)
    for k in range(n_calls):
        phi, tau = update_cluster_params(state, hyper, rng)
        taus[k * reps : (k + 1) * reps] = tau
        phis[k * reps : (k + 1) * reps] = phi

    n_j = 3
    tbar = members.mean()
    ss = ((members - tbar) ** 2).sum()
    lam_n = hyper.lam + n_j
    mu_n = (hyper.lam * mu_phi + n_j * tbar) / lam_n
    nu1_n = hyper.nu1 + n_j / 2
    nu2_n = hyper.nu2 + 0.5 * ss + hyper.lam * n_j * (tbar - mu_phi) ** 2 / (2 * lam_n)

    z = (phis - mu_n) * np.sqrt(lam_n * taus)  # exactly N(0, 1) if correct
    errs = {
        "tau_mean": abs(taus.mean() / (nu1_n / nu2_n) - 1.0),
        "tau_var": abs(taus.var() / (nu1_n / nu2_n**2) - 1.0),
        "phi_given_tau_mean": abs(z.mean()),
        "phi_given_tau_var": abs(z.var() - 1.0),
    }
    elapsed = time.time() - t0
    ok = all(v < 0.01 for v in errs.values()) and elapsed < 5.0
    detail = ", ".join(f"{k}={v:.4f}" for k, v in errs.items()) + f", {elapsed:.1f}s"
    assert record_criterion(1, "conjugacy oracle", ok, detail)


def test_criterion_02_slice_sampler_correctness():
    t0 = time.time()
    rng = np.random.default_rng(101)
    cfg = SliceConfig(width=2.0)
    x = 0.0
    draws = np.empty(50_000)
    for k in range(draws.size):
        for _ in range(3):
            x = slice_sample(lambda v: -0.5 * v * v, x, cfg, rng)
        draws[k] = x
    ks_norm = stats.kstest(draws, "norm").statistic

    rng = np.random.default_rng(2024)
    cfg = SliceConfig(width=5.0)

    def bimodal(v):
        return np.logaddexp(-0.5 * (v - 3.0) ** 2, -0.5 * (v + 3.0) ** 2)

    x = 3.0
    bim = np.empty(50_000)
    for k in range(bim.size):
        for _ in range(10):
            x = slice_sample(bimodal, x, cfg, rng)
        bim[k] = x
    mix_cdf = lambda q: 0.5 * stats.norm.cdf(q, -3, 1) + 0.5 * stats.norm.cdf(q, 3, 1)
    ks_bim = stats.kstest(bim, mix_cdf).statistic
    upper_mass = float((bim > 0).mean())
    elapsed = time.time() - t0

    ok = ks_norm < 0.02 and ks_bim < 0.02 and abs(upper_mass - 0.5) < 0.05 and elapsed < 30.0
    detail = (
        f"KS(N(0,1))={ks_norm:.4f}, KS(bimodal)={ks_bim:.4f}, "
        f"mode mass={upper_mass:.3f}, {elapsed:.1f}s"
    )
    assert record_criterion(2, "slice sampler correctness", ok, detail)


def test_criterion_03_alpha_conditional():
    hyper = Hyperparameters(
        lam=0.05, nu1=2.0, nu2=2 * 60.0**2, xi=500.0, psi=1e-6, slice_width=100.0
    )
    # fixed allocations: n = 100 over five equal clusters
    state = DpmmState(
        theta=np.arange(100, dtype=float),
        c=np.repeat(np.arange(5), 20),
        phi=np.zeros(5),
        tau=np.ones(5),
        w=np.empty(0),
        alpha=1.0,
        mu_phi=0.0,
    )
    rng = np.random.default_rng(16)
    draws = np.empty(100_000)
    for k in range(draws.size):
        draws[k] = update_alpha(state, hyper, rng)
    counts = [20] * 5
    grid = np.linspace(1e-6, 15.0, 40_001)
    log_post = np.array([-a + log_alpha_likelihood(a, counts) for a in grid])
    dens = np.exp(log_post - log_post.max())
    cdf = np.cumsum(dens)
    cdf /= cdf[-1]
    ks = stats.kstest(draws, lambda q: np.interp(q, grid, cdf)).statistic

    # prior recovery: n = 1, one cluster -> likelihood constant in alpha
    state1 = DpmmState(
        theta=np.zeros(1),
        c=np.zeros(1, dtype=np.int64),
        phi=np.zeros(1),
        tau=np.ones(1),
        w=np.empty(0),
        alpha=1.0,
        mu_phi=0.0,
    )
    rng = np.random.default_rng(15)
    prior_draws = np.empty(100_000)
    for k in range(prior_draws.size):
        prior_draws[k] = update_alpha(state1, hyper, rng)
    mean_err = abs(prior_draws.mean() - 1.0)
    var_err = abs(prior_draws.var() - 1.0)

    ok = ks < 0.02 and mean_err < 0.02 and var_err < 0.02
    detail = f"KS={ks:.4f}, prior mean err={mean_err:.4f}, prior var err={var_err:.4f}"
    assert record_criterion(3, "alpha conditional", ok, detail)


def test_criterion_04_induced_cluster_count_prior():
    t0 = time.time()
    rng = np.random.default_rng(11)
    chunk, chunks = 200_000, 8  # 1.6e6 Monte-Carlo draws
    hits = 0
    idx = np.arange(1, 101)
    for _ in range(chunks):
        alpha = rng.gamma(1.0, 1.0, size=chunk)
        p = alpha[:, None] / (alpha[:, None] + idx[None, :] - 1)
        counts = (rng.random((chunk, 100)) < p).sum(axis=1)
        hits += int(((counts >= 1) & (counts <= 13)).sum())
    prob = hits / (chunk * chunks)
    elapsed = time.time() - t0
    ok = abs(prob - 0.95) <= 0.02 and elapsed < 10.0
    detail = f"P(k100 in [1,13])={prob:.4f}, {elapsed:.1f}s"
    assert record_criterion(4, "induced cluster-count prior", ok, detail)


def test_criterion_05_hyperparameter_quantiles():
    # MAP ages engineered so mad = 1000 on the identity curve
    from conftest import make_linear_curve

    curve = make_linear_curve(0, 20_000, sd=1.0)
    ages = [9_000.0, 9_800.0, 10_000.0, 11_000.0, 13_000.0]
    dets = [Determination(f"d{k}", a, 25.0) for k, a in enumerate(ages)]
    hyper = default_hyperparameters(dets, curve)
    assert hyper.nu2 == pytest.approx(2500.0)

    q05 = prior_cluster_sd_quantile(hyper, 0.05)
    q75 = prior_cluster_sd_quantile(hyper, 0.75)
    oracle05 = float(stats.gamma.ppf(0.95, hyper.nu1, scale=1 / hyper.nu2) ** -0.5)
    oracle75 = float(stats.gamma.ppf(0.25, hyper.nu1, scale=1 / hyper.nu2) ** -0.5)
    ok = (
        abs(q05 / 45.0 - 1.0) < 0.15
        and abs(q75 / 1000.0 - 1.0) < 0.15
        and abs(q05 / oracle05 - 1.0) < 1e-9
        and abs(q75 / oracle75 - 1.0) < 1e-9
    )
    detail = f"5% quantile={q05:.1f} (target 45), 75% quantile={q75:.1f} (target 1000)"
    assert record_criterion(5, "hyperparameter quantiles", ok, detail)


def brute_force_hpd(grid, level):
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
    intervals, i = [], 0
    while i < len(chosen):
        if chosen[i]:
            j = i
            while j + 1 < len(chosen) and chosen[j + 1]:
                j += 1
            intervals.append((float(grid.theta[i]), float(grid.theta[j])))
            i = j + 1
        else:
            i += 1
    return intervals


def test_criterion_06_fig1_reproduction_intcal20():
    path = intcal20_path()
    if path is None:
        record_criterion(
            6,
            "single-date reproduction vs IntCal20",
            False,
            "IntCal20 curve file not available in this environment; "
            "obtain intcal20.14c (intcal.org) and set CARBCAL_INTCAL20",
        )
        pytest.fail(
            "criterion 6 requires the published IntCal20 curve file; "
            "set CARBCAL_INTCAL20 or place it at data/intcal20.14c"
        )
    from carbcal.calcurve import load_curve

    curve = load_curve(path)
    t0 = time.time()
    det = Determination("fig1", 3000.0, 30.0)
    grid = calibrate_independent(det, curve, 1.0)
    window = (grid.theta >= 3000) & (grid.theta <= 3400)
    mass_in_window = float(grid.density[window].sum() * grid.resolution)
    intervals = hpd_intervals(grid, 0.954)
    oracle = brute_force_hpd(grid, 0.954)
    endpoints_identical = [(lo, hi) for lo, hi, _ in intervals] == oracle
    elapsed = time.time() - t0
    ok = (
        mass_in_window >= 0.99
        and len(intervals) >= 2
        and endpoints_identical
        and elapsed < 1.0
    )
    detail = (
        f"mass in 3000-3400={mass_in_window:.4f}, intervals={len(intervals)}, "
        f"oracle endpoints identical={endpoints_identical}, {elapsed:.2f}s"
    )
    assert record_criterion(6, "single-date reproduction vs IntCal20", ok, detail)


def test_criterion_07_desk_scale_simulation_study(reference_curve):
    t0 = time.time()
    rows, runs = run_study(
        ["single_normal"],
        [50],
        10,
        reference_curve,
        master_seed=2024,
        chain_len=(10_000, 5_000, 5),
        jobs=2,
    )
    elapsed = time.time() - t0
    l1_rows = {r["sampler"]: r for r in rows if r["loss"] == "l1"}
    ok = True
    parts = []
    for sampler in ("polya", "walker"):
        row = l1_rows[sampler]
        ok = ok and row["prop_improved"] >= 0.8 and row["mean_improvement"] > 10.0
        parts.append(
            f"{sampler}: improved {row['prop_improved']*10:.0f}/10, "
            f"mean {row['mean_improvement']:.1f}%"
        )
    ok = ok and elapsed < 1800.0
    detail = "; ".join(parts) + f"; {elapsed/60:.1f} min on {curve_label(reference_curve)}"
    assert record_criterion(7, "desk-scale simulation study", ok, detail)


@pytest.fixture(scope="session")
def three_phase_fixture(reference_curve):
    """Shared n=100 three-phase dataset with both 50k-iteration chains."""
    dets, truth = three_phase_determinations(reference_curve, n=100, seed=3)
    hyper = default_hyperparameters(dets, reference_curve)
    theta_map = map_estimates(dets, reference_curve)
    cfgs = [
        ChainConfig(n_iter=50_000, n_burn=25_000, thin=5, sampler=sampler, seed=42, hyper=hyper)
        for sampler in ("polya", "walker")
    ]
    grid = predictive_grid(reference_curve, theta_map, 5.0, cfgs[0].n_stored)
    out = {"dets": dets, "truth": truth, "hyper": hyper, "grid": grid}
    # one lockstep batch; each chain draws what it draws when run alone
    for cfg, samples in zip(cfgs, run_chains([(dets, cfg, None) for cfg in cfgs], reference_curve)):
        out[cfg.sampler] = {
            "samples": samples,
            "pred": predictive_density(samples, hyper, grid),
            "khist": cluster_count_posterior(samples),
        }
    return out


def test_criterion_08_three_normal_reconstruction(reference_curve, three_phase_fixture):
    grid = three_phase_fixture["grid"]
    support = (grid >= 2900) & (grid <= 5900)  # +-3 sd around outer phases
    true_density = true_three_phase_density(grid[support])
    ok = True
    parts = []
    for sampler in ("polya", "walker"):
        khist = three_phase_fixture[sampler]["khist"]
        mode = max(khist, key=khist.get)
        pred = three_phase_fixture[sampler]["pred"]
        inside = (true_density >= pred.lo[support]) & (true_density <= pred.hi[support])
        coverage = float(inside.mean())
        ok = ok and mode in (3, 4) and coverage >= 0.90
        parts.append(f"{sampler}: k-mode={mode}, band coverage={coverage*100:.1f}%")
    detail = "; ".join(parts) + f" on {curve_label(reference_curve)}"
    assert record_criterion(8, "three-phase reconstruction", ok, detail)


def test_criterion_09_sampler_variant_agreement(reference_curve, three_phase_fixture):
    grid = three_phase_fixture["grid"]
    spacing = float(grid[1] - grid[0])
    tv = 0.5 * float(
        np.abs(
            three_phase_fixture["polya"]["pred"].mean
            - three_phase_fixture["walker"]["pred"].mean
        ).sum()
        * spacing
    )
    ok = tv < 0.05
    detail = f"TV(polya, walker)={tv:.4f} on {curve_label(reference_curve)}"
    assert record_criterion(9, "sampler-variant agreement", ok, detail)


def test_criterion_10_small_instance_exactness():
    ages = np.arange(0.0, 1001.0, 10.0)
    curve = CalibrationCurve(ages, np.full_like(ages, 2000.0), np.full_like(ages, 10.0))
    dets = [Determination(s, 2000.0, 25.0) for s in ("a", "b", "c")]
    hyper = Hyperparameters(
        lam=1.0,
        nu1=2.0,
        nu2=2 * 120.0**2,
        xi=500.0,
        psi=1e8,
        eta1=1.0,
        eta2=1.0,
        slice_width=150.0,
    )
    res = 5.0
    cells = np.arange(res / 2, 1000.0, res)
    g, cdf = oracles.flat_curve_three_point_marginal(cells, hyper)

    ok = True
    parts = []
    cfgs = [
        ChainConfig(n_iter=120_000, n_burn=20_000, thin=10, sampler=sampler, seed=5, hyper=hyper)
        for sampler in ("polya", "walker")
    ]
    # one lockstep batch; each chain draws what it draws when run alone
    for cfg, samples in zip(cfgs, run_chains([(dets, cfg, None) for cfg in cfgs], curve)):
        ks = stats.kstest(
            samples.theta[:, 0], lambda x: np.interp(x, g, cdf, left=0.0, right=1.0)
        ).statistic
        ok = ok and ks < 0.03
        parts.append(f"{cfg.sampler}: KS={ks:.4f}")
    detail = "; ".join(parts)
    assert record_criterion(10, "small-instance exactness", ok, detail)


def test_criterion_11_determinism(tmp_path, synth_curve, synth_curve_file):
    rng = np.random.default_rng(77)
    truth = rng.uniform(3000, 3600, size=6)
    m, rho = synth_curve.at(truth)
    x = rng.normal(m, np.sqrt(25.0**2 + rho**2))
    dets_path = tmp_path / "dets.csv"
    dets_path.write_text(
        "id,c14_age,c14_sig\n"
        + "".join(f"d{k},{float(x[k])!r},25.0\n" for k in range(6))
    )
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        rc = main(
            [
                "dpmm",
                str(dets_path),
                "--curve",
                str(synth_curve_file),
                "--out",
                str(out),
                "--iters",
                "400",
                "--burn",
                "100",
                "--thin",
                "3",
                "--seed",
                "12345",
            ]
        )
        assert rc == 0
        outs.append(out)
    a, b = outs
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    identical = files_a == files_b
    offenders = []
    for rel in files_a:
        if rel.name == "manifest.json":
            ma = json.loads((a / rel).read_text())
            mb = json.loads((b / rel).read_text())
            ma.pop("output_dir"), mb.pop("output_dir")
            if ma != mb:
                identical = False
                offenders.append(str(rel))
        elif not filecmp.cmp(a / rel, b / rel, shallow=False):
            identical = False
            offenders.append(str(rel))
    detail = f"{len(files_a)} files byte-compared" + (
        f"; differing: {offenders}" if offenders else ""
    )
    assert record_criterion(11, "determinism", identical, detail)
