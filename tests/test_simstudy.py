import math
import weakref
from dataclasses import asdict
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from carbcal.calibrate import calibrate_independent
from carbcal.errors import DataError
from carbcal.simstudy import (
    FAMILIES,
    FAMILY_BOUNDS,
    SIGMA_OBS,
    flat_curve_flag,
    gen_scenario,
    grid_loss,
    check_study_storage,
    improvement,
    posterior_loss,
    run_study,
)
from carbcal.synthetic import sample_determinations
from conftest import make_flat_curve


def test_gen_scenario_uniform_within_bounds(synth_curve):
    rng = np.random.default_rng(1)
    scen = gen_scenario("uniform", 40, synth_curve, rng)
    lo, hi = FAMILY_BOUNDS["uniform"]
    assert scen.true_theta.min() >= lo and scen.true_theta.max() <= hi
    start = scen.truth_descriptor["start"]
    length = scen.truth_descriptor["length"]
    assert np.all((scen.true_theta >= start) & (scen.true_theta <= start + length))
    assert all(d.sigma == SIGMA_OBS for d in scen.dets)


def test_gen_scenario_three_normal_weights(synth_curve):
    rng = np.random.default_rng(2)
    scen = gen_scenario("three_normal", 30, synth_curve, rng)
    assert sum(scen.truth_descriptor["w"]) == pytest.approx(1.0)
    lo, hi = FAMILY_BOUNDS["three_normal"]
    assert scen.true_theta.min() >= lo and scen.true_theta.max() <= hi


def test_gen_scenario_single_normal_bounds_and_determinism(synth_curve):
    a = gen_scenario("single_normal", 25, synth_curve, np.random.default_rng(33))
    b = gen_scenario("single_normal", 25, synth_curve, np.random.default_rng(33))
    assert np.array_equal(a.true_theta, b.true_theta)
    assert [d.x for d in a.dets] == [d.x for d in b.dets]
    lo, hi = FAMILY_BOUNDS["single_normal"]
    assert a.true_theta.min() >= lo and a.true_theta.max() <= hi


@pytest.mark.parametrize("family", FAMILIES)
def test_gen_scenario_draws_what_numpy_distribution_calls_draw(synth_curve, family):
    # the reference rejection loop draws with numpy's gamma, normal, dirichlet,
    # choice and uniform; every scenario and the stream after it must match
    lo, hi = FAMILY_BOUNDS[family]
    for seed in range(200):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        scen = gen_scenario(family, 12, synth_curve, rng)
        while True:
            theta, descriptor = oracles.ref_draw_truth(family, 12, ref_rng)
            if theta.min() >= lo and theta.max() <= hi:
                break
        dets = sample_determinations(theta, synth_curve, SIGMA_OBS, ref_rng, prefix="sim")
        assert scen.true_theta.tobytes() == theta.tobytes()
        assert scen.truth_descriptor == descriptor
        assert scen.dets == dets
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_gen_scenario_rejects_unknown_family(synth_curve):
    with pytest.raises(DataError):
        gen_scenario("lognormal", 10, synth_curve, np.random.default_rng(0))


def test_posterior_loss_exact_draws():
    assert posterior_loss([7.0, 7.0, 7.0], 7.0, "l1") == 0.0
    assert posterior_loss([7.0, 7.0], 7.0, "l2") == 0.0


def test_posterior_loss_symmetric_two_point():
    draws = [10.0 - 3.0, 10.0 + 3.0]
    assert posterior_loss(draws, 10.0, "l1") == pytest.approx(3.0)
    assert posterior_loss(draws, 10.0, "l2") == pytest.approx(9.0)


def test_posterior_loss_folded_normal():
    rng = np.random.default_rng(3)
    s = 40.0
    draws = rng.normal(100.0, s, size=400_000)
    assert posterior_loss(draws, 100.0, "l1") == pytest.approx(s * math.sqrt(2 / math.pi), rel=0.01)
    assert posterior_loss(draws, 100.0, "l2") == pytest.approx(s * s, rel=0.01)


def test_posterior_loss_validation():
    with pytest.raises(DataError):
        posterior_loss([], 0.0, "l1")
    with pytest.raises(DataError):
        posterior_loss([1.0], 0.0, "l3")


def test_improvement_identities():
    assert improvement(5.0, 5.0) == 0.0
    assert improvement(2.5, 5.0) == 50.0
    assert improvement(10.0, 5.0) == -100.0
    with pytest.raises(DataError):
        improvement(1.0, 0.0)


@settings(max_examples=40, deadline=None)
@given(ratio=st.floats(0.01, 10.0), base=st.floats(0.1, 1e6))
def test_improvement_scale_invariant(ratio, base):
    assert improvement(ratio * base, base) == pytest.approx(100.0 * (1 - ratio), abs=1e-6)


def test_grid_loss_vs_monte_carlo(synth_curve):
    # Independent-calibration loss two ways: quadrature on the grid and
    # Monte-Carlo sampling from the same grid; must agree within 1%.
    from carbcal.calibrate import Determination

    det = Determination("a", 3010.0, 25.0)
    grid = calibrate_independent(det, synth_curve, 5.0)
    truth = 3200.0
    rng = np.random.default_rng(10)
    draws = rng.choice(grid.theta, p=grid.density / grid.density.sum(), size=500_000)
    for kind in ("l1", "l2"):
        quad = grid_loss(grid, truth, kind)
        mc = posterior_loss(draws, truth, kind)
        assert mc == pytest.approx(quad, rel=0.01)


def test_flat_curve_flag():
    flat = make_flat_curve(0, 1000, mean=2000.0, sd=10.0)
    assert flat_curve_flag(flat, np.array([200.0, 400.0, 600.0]))


def test_flat_curve_flag_negative(synth_curve):
    truth = np.linspace(3000, 4000, 20)
    assert not flat_curve_flag(synth_curve, truth)


def test_run_study_smoke_and_parallel_determinism(synth_curve):
    rows, runs = run_study(
        ["uniform"], [6], 2, synth_curve, master_seed=7, chain_len=(60, 20, 4), jobs=1
    )
    assert len(runs) == 2
    assert {r["sampler"] for r in rows} == {"polya", "walker"}
    assert {r["loss"] for r in rows} == {"l1", "l2"}
    for r in runs:
        assert set(r.indep_loss) == {"l1", "l2"}
        assert all(v > 0 for v in r.indep_loss.values())
        assert all(v > 0 for v in r.dpmm_loss.values())
        keys = {f"{s}_{k}" for s in ("polya", "walker") for k in ("l1", "l2")}
        assert set(r.dpmm_loss) == keys and set(r.improvement) == keys

    rows2, runs2 = run_study(
        ["uniform"], [6], 2, synth_curve, master_seed=7, chain_len=(60, 20, 4), jobs=2
    )
    assert rows == rows2
    for a, b in zip(runs, runs2):
        assert a.improvement == b.improvement


def test_run_study_same_results_for_any_jobs_and_batch_cap(synth_curve, monkeypatch):
    import carbcal.dpmm as dpmm

    def study(jobs):
        rows, runs = run_study(
            ["three_normal", "uniform"], [5, 7], 1, synth_curve,
            master_seed=11, chain_len=(30, 10, 2), jobs=jobs,
        )
        return rows, [asdict(r) for r in runs]

    serial = study(1)
    assert [r["run_index"] for r in serial[1]] == [0, 1, 2, 3]
    assert study(2) == serial
    assert study(3) == serial
    # a cap below two chains' dates splits the study's chains into many batches
    monkeypatch.setattr(dpmm, "BATCH_DATES", 9)
    assert study(1) == serial


def test_study_storage_bound_counts_what_the_workers_hold(physical_memory):
    import carbcal.dpmm as dpmm

    # the counts checked by hand: 5 runs of 200 dates on 2 workers hold 5 + 4
    # chains; runs of 50 and 100 dates on 2 workers hold 2 chains of each
    assert oracles.ref_study_held(["uniform"], [200], 5, 2, 1000) == (9, 1800)
    assert oracles.ref_study_held(["uniform"], [50, 100], 1, 2, 1000) == (4, 300)
    # 100 stored samples: 800 bytes a date
    chain_len = (110, 10, 1)
    grid = product(
        [["uniform"], list(FAMILIES)],
        [[5], [200], [50, 100], [100, 50], [400, 30, 700], [1200, 5]],
        [1, 3, 5],
        [1, 2, 3, 7],
    )
    for families, n_values, n_runs, jobs in grid:
        case = (families, n_values, n_runs, jobs)
        chains, dates = oracles.ref_study_held(*case, dpmm.BATCH_DATES)
        physical_memory(800 * dates)
        check_study_storage(families, n_values, n_runs, chain_len, jobs)
        physical_memory(800 * dates - 1)
        with pytest.raises(DataError, match=rf"the draws of {chains} chain\(s\) held at once"):
            check_study_storage(families, n_values, n_runs, chain_len, jobs)


def test_study_holds_no_chain_past_its_batch(synth_curve, monkeypatch):
    import carbcal.dpmm as dpmm

    # each chain of 5 dates its own lockstep batch: no chain of a batch may
    # still be alive when the next batch starts
    monkeypatch.setattr(dpmm, "BATCH_DATES", 5)
    run_batch = dpmm._run_batch
    returned, alive = [], []

    def spy(batch, curve):
        alive.append(sum(ref() is not None for ref in returned))
        samples = run_batch(batch, curve)
        returned.extend(weakref.ref(s.theta) for s in samples)
        return samples

    monkeypatch.setattr(dpmm, "_run_batch", spy)
    run_study(["uniform"], [5], 2, synth_curve, master_seed=3, chain_len=(20, 10, 2))
    assert alive == [0, 0, 0, 0]
