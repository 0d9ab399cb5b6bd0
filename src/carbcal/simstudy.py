"""Simulation harness quantifying the gain over independent calibration.

Each run draws a fresh truth from one of three scenario families, observes
it through the curve, then calibrates twice: jointly with the mixture model
(both sampler variants) and independently on a grid.  Posterior losses
against the known truth quantify the improvement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from carbcal.calcurve import CalibrationCurve
from carbcal.calibrate import (
    Determination,
    Hyperparameters,
    default_hyperparameters,
    default_resolution,
    independent_grids,
    map_estimates,
)
from carbcal.dpmm import SAMPLERS, ChainConfig, run_chains
from carbcal.errors import DataError
from carbcal.synthetic import sample_determinations

#: Laboratory measurement sd used throughout the study (14C yr).
SIGMA_OBS = 25.0

FAMILIES = ("single_normal", "three_normal", "uniform")

#: Accepted calendar-age window per family (cal yr BP).
FAMILY_BOUNDS = {
    "single_normal": (100.0, 49_500.0),
    "three_normal": (100.0, 15_000.0),
    "uniform": (100.0, 15_000.0),
}

LOSS_KINDS = ("l1", "l2")


@dataclass(frozen=True)
class Scenario:
    """One generated truth plus its observed determinations."""

    family: str
    n: int
    true_theta: np.ndarray
    dets: list[Determination]
    truth_descriptor: dict


def _draw_truth(family: str, n: int, rng) -> tuple[np.ndarray, dict]:
    """One candidate truth of ``family``: ``n`` ages and the parameters that drew them.

    Each draw is numpy's own arithmetic on the generator's ``standard_*`` and
    ``random`` streams, in numpy's order, so the bits and the stream position
    are those of ``gamma(1, s)``, ``normal(m, s)``, ``dirichlet([1, 1, 1])``,
    ``choice(3, n, p=w)`` and ``uniform(a, b)``, without their per-call
    argument handling: ``three_normal`` accepts about one try in 1,260.
    A size-``n`` draw with scalar parameters stays numpy's call, whose one
    loop is as fast.  The parameters are returned as drawn (floats or
    arrays); only an accepted truth's are converted for its descriptor.
    """
    if family == "single_normal":
        tau = (1.0 / 10_000.0) * rng.standard_exponential()
        phi = 10_000.0 + (10.0 / tau) * rng.standard_normal()  # variance 100 / tau^2
        return rng.normal(phi, tau**-0.5, size=n), {"tau": tau, "phi": phi}
    if family == "three_normal":
        tau = (1.0 / 10_000.0) * rng.standard_exponential(3)
        phi = 3_000.0 + (10.0 / tau) * rng.standard_normal(3)
        g = rng.standard_exponential(3)
        w = g * (1.0 / (g[0] + g[1] + g[2]))
        cdf = w.cumsum()
        cdf /= cdf[-1]
        comp = cdf.searchsorted(rng.random(n), side="right")
        theta = phi[comp] + tau[comp] ** -0.5 * rng.standard_normal(n)
        return theta, {"tau": tau, "phi": phi, "w": w}
    # "uniform", the one family left: gen_scenario has checked the name
    start = 100.0 + (14_000.0 - 100.0) * rng.random()
    length = 50.0 + (1_000.0 - 50.0) * rng.random()
    return rng.uniform(start, start + length, size=n), {"start": start, "length": length}


def gen_scenario(family: str, n: int, curve: CalibrationCurve, rng) -> Scenario:
    """Draw a scenario, rejecting and redrawing whole samples out of bounds."""
    if n < 1:
        raise DataError("scenario size must be >= 1")
    if family not in FAMILY_BOUNDS:
        raise DataError(f"unknown scenario family {family!r}; choose from {FAMILIES}")
    lo, hi = FAMILY_BOUNDS[family]
    while True:
        theta, params = _draw_truth(family, n, rng)
        if theta.min() >= lo and theta.max() <= hi:
            break
    # plain floats, and lists of them for three_normal's components
    descriptor = {key: np.asarray(value).tolist() for key, value in params.items()}
    dets = sample_determinations(theta, curve, SIGMA_OBS, rng, prefix="sim")
    return Scenario(family, n, theta, dets, descriptor)


def _loss(dev: np.ndarray, kind: str) -> np.ndarray:
    """Pointwise loss of the deviations from the truth."""
    if kind == "l1":
        return np.abs(dev)
    if kind == "l2":
        return dev * dev
    raise DataError(f"unknown loss kind {kind!r}; use 'l1' or 'l2'")


def posterior_loss(draws, true_theta: float, kind: str) -> float:
    """Monte-Carlo posterior expected loss of one age against its truth."""
    draws = np.asarray(draws, dtype=float)
    if draws.size == 0:
        raise DataError("posterior_loss needs at least one draw")
    return float(_loss(draws - true_theta, kind).mean())


def grid_loss(grid, true_theta: float, kind: str) -> float:
    """Posterior expected loss of a normalized density grid by quadrature."""
    return float((_loss(grid.theta - true_theta, kind) * grid.density).sum() * grid.resolution)


def improvement(loss_np: float, loss_indep: float) -> float:
    """Percent reduction in loss relative to independent calibration."""
    if loss_indep <= 0:
        raise DataError("independent-calibration loss must be > 0")
    return 100.0 * (1.0 - loss_np / loss_indep)


def flat_curve_flag(curve: CalibrationCurve, true_theta) -> bool:
    """True when the curve mean moves less than two lab sds over the truth's span.

    Identifiability is then poor for every calibration method; joint
    calibration is particularly penalised.
    """
    true_theta = np.asarray(true_theta, dtype=float)
    lo, hi = float(true_theta.min()), float(true_theta.max())
    knots = curve.cal_age
    inside = (knots >= lo) & (knots <= hi)
    span_ages = np.concatenate([[lo], knots[inside], [hi]])
    m, _ = curve.at(span_ages)
    return float(np.std(m)) < 2.0 * SIGMA_OBS


@dataclass
class RunResult:
    """Losses and improvements for one simulation run.

    ``indep_loss`` is keyed by loss kind (``"l1"``, ``"l2"``); ``dpmm_loss``
    and ``improvement`` by ``"<sampler>_<kind>"`` (``"polya_l1"``, ...), the
    keys ``results.json`` shows.
    """

    family: str
    n: int
    run_index: int
    seed: int
    flat_curve: bool
    indep_loss: dict = field(default_factory=dict)
    dpmm_loss: dict = field(default_factory=dict)
    improvement: dict = field(default_factory=dict)  # percent


@dataclass
class _PreparedRun:
    """A run up to its chains: the result so far and what its chains need."""

    result: RunResult
    scenario: Scenario
    theta_map: np.ndarray
    hyper: Hyperparameters


def _execute_run(args) -> _PreparedRun:
    """Everything of one run before its chains, on the run's own generator.

    Draws the scenario, computes the MAP ages and hyperparameters the chains
    start from, and the independent-calibration losses.
    """
    family, n, run_index, run_seed, curve, chain_len = args
    rng = np.random.default_rng(run_seed)
    scenario = gen_scenario(family, n, curve, rng)
    truth = scenario.true_theta
    try:
        theta_map = map_estimates(scenario.dets, curve)
        hyper = default_hyperparameters(scenario.dets, curve, theta_map=theta_map)
    except DataError as exc:  # a study has many runs: name the one at fault
        run = f"simulation run {run_index} ({family}, n={n}, seed {run_seed})"
        raise DataError(f"{run}: {exc}") from None
    result = RunResult(family, n, run_index, run_seed, flat_curve_flag(curve, truth))

    resolution = default_resolution(curve.support[1] - curve.support[0])
    indep = {kind: [] for kind in LOSS_KINDS}
    for grid, t in zip(independent_grids(scenario.dets, curve, resolution), truth):
        for kind in LOSS_KINDS:
            indep[kind].append(grid_loss(grid, t, kind))
    result.indep_loss = {kind: float(np.mean(losses)) for kind, losses in indep.items()}
    return _PreparedRun(result, scenario, theta_map, hyper)


def _execute_runs(tasks) -> list[RunResult]:
    """Run ``tasks`` in order: prepare each, run all their chains together, then score them.

    Each run gets one chain per sampler variant, seeded from the run seed;
    ``run_chains`` advances them all in lockstep batches, and each chain's
    samples are the ones it would draw alone.
    """
    if not tasks:
        return []
    prepared = [_execute_run(task) for task in tasks]
    jobs = []
    for (*_, chain_len), run in zip(tasks, prepared):
        for variant_index, sampler in enumerate(SAMPLERS):
            seed = 2 * run.result.seed + variant_index + 1
            cfg = ChainConfig(*chain_len, sampler=sampler, seed=seed, hyper=run.hyper)
            jobs.append((run.scenario.dets, cfg, run.theta_map))
    curve = tasks[0][4]  # one curve for the whole study
    chains = run_chains(jobs, curve)
    for run in prepared:
        result, truth = run.result, run.scenario.true_theta
        for sampler in SAMPLERS:
            samples = next(chains)
            for kind in LOSS_KINDS:
                losses = [posterior_loss(d, t, kind) for d, t in zip(samples.theta.T, truth)]
                loss = float(np.mean(losses))
                result.dpmm_loss[f"{sampler}_{kind}"] = loss
                result.improvement[f"{sampler}_{kind}"] = improvement(loss, result.indep_loss[kind])
    return [run.result for run in prepared]


def summarise(runs: list[RunResult]) -> list[dict]:
    """Aggregate per (family, n, sampler, loss kind) over runs."""
    rows = []
    keys = sorted({(r.family, r.n) for r in runs}, key=lambda k: (k[0], k[1]))
    for family, n in keys:
        group = [r for r in runs if r.family == family and r.n == n]
        for sampler in SAMPLERS:
            for kind in LOSS_KINDS:
                imps = np.array([r.improvement[f"{sampler}_{kind}"] for r in group])
                rows.append(
                    {
                        "family": family,
                        "n": n,
                        "sampler": sampler,
                        "loss": kind,
                        "n_runs": len(group),
                        "prop_improved": float((imps > 0).mean()),
                        "mean_improvement": float(imps.mean()),
                        "max_improvement": float(imps.max()),
                        "min_improvement": float(imps.min()),
                    }
                )
    return rows


def run_study(
    families,
    n_values,
    n_runs: int,
    curve: CalibrationCurve,
    master_seed: int = 0,
    chain_len: tuple[int, int, int] = (10_000, 5_000, 5),
    jobs: int = 1,
) -> tuple[list[dict], list[RunResult]]:
    """Full study: (summary rows, per-run results).

    Runs are independent, seeded as master XOR a global run index, and each
    chain reproduces alone, so the result is identical whether executed
    serially or in parallel.  ``jobs`` workers, at most one per run, share
    the runs: ordered by n, they are dealt out in turn, so each worker gets
    a like share of every size and family.
    """
    tasks = []
    run_index = 0
    for family in families:
        if family not in FAMILIES:
            raise DataError(f"unknown scenario family {family!r}; choose from {FAMILIES}")
        for n in n_values:
            for _ in range(n_runs):
                tasks.append((family, n, run_index, master_seed ^ run_index, curve, chain_len))
                run_index += 1
    workers = min(jobs, len(tasks))
    if workers > 1:
        # imported here: it loads multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        by_n = sorted(tasks, key=lambda task: task[1])
        chunks = [by_n[w::workers] for w in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            runs = [run for chunk in pool.map(_execute_runs, chunks) for run in chunk]
        runs.sort(key=lambda run: run.run_index)
    else:
        runs = _execute_runs(tasks)
    return summarise(runs), runs
