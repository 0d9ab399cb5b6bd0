"""Command-line surface: calibrate, spd, dpmm, simulate.

Every subcommand writes a run manifest into the output directory before any
long computation starts, so an interrupted run can still be reproduced.
Numeric output uses round-trip float formatting to keep reruns and
cross-machine diffs meaningful.  Exit codes: 0 success, 1 usage, 2 data
error, 3 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import carbcal
from carbcal.calcurve import load_curve
from carbcal.calibrate import (
    DensityGrid,
    Hyperparameters,
    calibrate_independent,
    default_hyperparameters,
    default_resolution,
    hpd_intervals,
    map_estimates,
    read_determinations,
    spd,
)
from carbcal.dpmm import ChainConfig, run_chain
from carbcal.errors import CarbcalError, DataError
from carbcal.predictive import (
    cluster_count_posterior,
    default_predictive_grid,
    predictive_density,
)
from carbcal import simstudy

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

HPD_LEVELS = (0.683, 0.954)

_HYPER_KEYS = {
    "lambda": float,
    "nu1": float,
    "nu2": float,
    "xi": float,
    "psi": float,
    "eta1": float,
    "eta2": float,
    "slice_width": float,
    "slice_max_steps": int,
    "alpha_prop_sd": float,
    "n_init_clusters": int,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass
class RunManifest:
    """Everything needed to reproduce a run bit-exactly."""

    subcommand: str
    inputs: list
    curve: str
    config: dict
    seed: int | None
    output_dir: str
    version: str


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""

    def parse(raw: str) -> int:
        value = int(raw)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "integer"  # named in argparse's "invalid integer value" message
    return parse


def _fmt(value) -> str:
    return repr(float(value))


def _safe_id(raw: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", raw) or "unnamed"


def _resolve_outdir(out, force: bool, seed) -> Path:
    if out is not None:
        outdir = Path(out)
    else:
        tag = hashlib.sha1(str(seed).encode()).hexdigest()[:8]
        outdir = Path(f"carbcal-{time.strftime('%Y%m%d-%H%M%S')}-{tag}")
    if outdir.exists() and any(outdir.iterdir()) and not force:
        raise DataError(f"output directory {outdir} exists and is not empty; use --force")
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _write_manifest(outdir: Path, manifest: RunManifest) -> None:
    with open(outdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(asdict(manifest), fh, indent=2)
        fh.write("\n")


def _write_grid(grid: DensityGrid, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("cal_age,density\n")
        for t, d in zip(grid.theta, grid.density):
            fh.write(f"{_fmt(t)},{_fmt(d)}\n")


def _write_hpd(intervals, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("lo,hi,mass\n")
        for lo, hi, mass in intervals:
            fh.write(f"{_fmt(lo)},{_fmt(hi)},{_fmt(mass)}\n")


def _parse_hyper_overrides(pairs) -> dict:
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise DataError(f"--hyper expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        key = key.strip()
        if key not in _HYPER_KEYS:
            raise DataError(
                f"unknown hyperparameter {key!r}; valid keys: {', '.join(sorted(_HYPER_KEYS))}"
            )
        try:
            overrides[key] = _HYPER_KEYS[key](raw)
        except ValueError:
            raise DataError(f"--hyper {key}: cannot parse {raw!r}")
    return overrides


def _resolve_hyper(dets, curve, overrides: dict) -> Hyperparameters:
    """Adaptive defaults, overridden key by key; or fully manual."""
    required = {"lambda", "nu1", "nu2", "xi", "psi"}
    try:
        hyper = default_hyperparameters(dets, curve)
    except DataError:
        if required <= overrides.keys():
            kwargs = dict(overrides)
            kwargs["lam"] = kwargs.pop("lambda")
            return Hyperparameters(**kwargs)
        raise
    return hyper.with_overrides(**overrides)


def _add_common(parser, needs_dets=True):
    if needs_dets:
        parser.add_argument("determinations", help="CSV file: id,c14_age,c14_sig")
    parser.add_argument(
        "--curve",
        default=os.environ.get("CARBCAL_CURVE"),
        help="calibration curve file (default: $CARBCAL_CURVE)",
    )
    parser.add_argument("--out", help="output directory (default: timestamped)")
    parser.add_argument("--force", action="store_true", help="allow writing into a non-empty directory")


def _require_curve(args, parser):
    if not args.curve:
        parser.error("a curve file is required (--curve or $CARBCAL_CURVE)")
    return load_curve(args.curve)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_calibrate(args, parser) -> int:
    curve = _require_curve(args, parser)
    dets = read_determinations(args.determinations)
    resolution = args.resolution or default_resolution(curve.support[1] - curve.support[0])
    outdir = _resolve_outdir(args.out, args.force, seed=None)
    _write_manifest(
        outdir,
        RunManifest(
            subcommand="calibrate",
            inputs=[str(args.determinations)],
            curve=str(args.curve),
            config={"resolution": resolution, "hpd_levels": list(HPD_LEVELS)},
            seed=None,
            output_dir=str(outdir),
            version=carbcal.__version__,
        ),
    )
    for det in dets:
        grid = calibrate_independent(det, curve, resolution)
        stem = _safe_id(det.id)
        _write_grid(grid, outdir / f"{stem}_posterior.csv")
        for level in HPD_LEVELS:
            _write_hpd(hpd_intervals(grid, level), outdir / f"{stem}_hpd_{level}.csv")
    print(f"calibrated {len(dets)} determination(s) -> {outdir}")
    return EXIT_OK


def _cmd_spd(args, parser) -> int:
    curve = _require_curve(args, parser)
    dets = read_determinations(args.determinations)
    resolution = args.resolution or default_resolution(curve.support[1] - curve.support[0])
    outdir = _resolve_outdir(args.out, args.force, seed=None)
    _write_manifest(
        outdir,
        RunManifest(
            subcommand="spd",
            inputs=[str(args.determinations)],
            curve=str(args.curve),
            config={"resolution": resolution},
            seed=None,
            output_dir=str(outdir),
            version=carbcal.__version__,
        ),
    )
    _write_grid(spd(dets, curve, resolution), outdir / "spd.csv")
    print(f"spd over {len(dets)} determination(s) -> {outdir}")
    return EXIT_OK


def _hpd_from_draws(draws: np.ndarray, resolution: float):
    """Histogram the draws onto a grid, then threshold as usual."""
    lo = math.floor(draws.min() / resolution) * resolution
    hi = math.ceil(draws.max() / resolution) * resolution
    edges = np.arange(lo - 0.5 * resolution, hi + resolution, resolution)
    centres = 0.5 * (edges[:-1] + edges[1:])
    counts, _ = np.histogram(draws, bins=edges)
    density = counts / (counts.sum() * resolution)
    grid = DensityGrid(centres, density, resolution)
    return hpd_intervals(grid, 0.954)


def _write_age_summaries(samples, resolution: float, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,mean,level,lo,hi,mass\n")
        for i, det_id in enumerate(samples.det_ids):
            draws = samples.theta[:, i]
            mean = float(draws.mean())
            for lo, hi, mass in _hpd_from_draws(draws, resolution):
                fh.write(
                    f"{det_id},{_fmt(mean)},0.954,{_fmt(lo)},{_fmt(hi)},{_fmt(mass)}\n"
                )


def _run_one_dpmm_chain(dets, curve, cfg, outdir: Path, suffix: str, resolution: float):
    samples = run_chain(dets, curve, cfg)
    samples.save(outdir / f"samples{suffix}")

    theta_map = map_estimates(dets, curve)
    grid = default_predictive_grid(curve, theta_map, resolution)
    pred = predictive_density(samples, cfg.hyper, grid)
    with open(outdir / f"predictive{suffix}.csv", "w", encoding="utf-8") as fh:
        fh.write("cal_age,mean,lo,hi\n")
        for t, m, lo, hi in zip(pred.theta, pred.mean, pred.lo, pred.hi):
            fh.write(f"{_fmt(t)},{_fmt(m)},{_fmt(lo)},{_fmt(hi)}\n")

    hist = cluster_count_posterior(samples)
    with open(outdir / f"cluster_counts{suffix}.csv", "w", encoding="utf-8") as fh:
        fh.write("k,probability\n")
        for k, p in hist.items():
            fh.write(f"{k},{_fmt(p)}\n")

    _write_age_summaries(samples, resolution, outdir / f"age_summaries{suffix}.csv")


def _cmd_dpmm(args, parser) -> int:
    curve = _require_curve(args, parser)
    dets = read_determinations(args.determinations)
    overrides = _parse_hyper_overrides(args.hyper)
    hyper = _resolve_hyper(dets, curve, overrides)
    resolution = args.resolution or default_resolution(curve.support[1] - curve.support[0])
    cfg = ChainConfig(
        n_iter=args.iters,
        n_burn=args.burn if args.burn is not None else args.iters // 2,
        thin=args.thin,
        sampler=args.sampler,
        seed=args.seed,
        hyper=hyper,
    )
    outdir = _resolve_outdir(args.out, args.force, seed=args.seed)
    config_echo = asdict(cfg)
    config_echo["resolution"] = resolution
    config_echo["chains"] = args.chains
    _write_manifest(
        outdir,
        RunManifest(
            subcommand="dpmm",
            inputs=[str(args.determinations)],
            curve=str(args.curve),
            config=config_echo,
            seed=args.seed,
            output_dir=str(outdir),
            version=carbcal.__version__,
        ),
    )
    for chain_index in range(args.chains):
        suffix = "" if args.chains == 1 else f"_chain{chain_index}"
        chain_cfg = (
            cfg
            if chain_index == 0
            else ChainConfig(
                n_iter=cfg.n_iter,
                n_burn=cfg.n_burn,
                thin=cfg.thin,
                sampler=cfg.sampler,
                seed=cfg.seed + chain_index,
                hyper=cfg.hyper,
            )
        )
        _run_one_dpmm_chain(dets, curve, chain_cfg, outdir, suffix, resolution)
    print(f"dpmm ({args.sampler}) on {len(dets)} determination(s) -> {outdir}")
    return EXIT_OK


def _cmd_simulate(args, parser) -> int:
    curve = _require_curve(args, parser)
    families = [f.strip() for f in args.family.split(",") if f.strip()]
    for family in families:
        if family not in simstudy.FAMILIES:
            parser.error(
                f"invalid family {family!r}; valid families: {', '.join(simstudy.FAMILIES)}"
            )
    n_values = [int(v) for v in args.n.split(",")]
    outdir = _resolve_outdir(args.out, args.force, seed=args.seed)
    _write_manifest(
        outdir,
        RunManifest(
            subcommand="simulate",
            inputs=[],
            curve=str(args.curve),
            config={
                "families": families,
                "n_values": n_values,
                "runs": args.runs,
                "iters": args.iters,
                "burn": args.burn,
                "thin": args.thin,
                "jobs": args.jobs,
            },
            seed=args.seed,
            output_dir=str(outdir),
            version=carbcal.__version__,
        ),
    )
    rows, runs = simstudy.run_study(
        families,
        n_values,
        args.runs,
        curve,
        master_seed=args.seed,
        chain_len=(args.iters, args.burn, args.thin),
        jobs=args.jobs,
    )
    header = [
        "family",
        "n",
        "sampler",
        "loss",
        "n_runs",
        "prop_improved",
        "mean_improvement",
        "max_improvement",
        "min_improvement",
    ]
    with open(outdir / "results.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    _fmt(row[k]) if isinstance(row[k], float) else str(row[k])
                    for k in header
                )
                + "\n"
            )
    payload = {
        "summary": rows,
        "runs": [
            {
                "family": r.family,
                "n": r.n,
                "run_index": r.run_index,
                "seed": r.seed,
                "flat_curve": r.flat_curve,
                "indep_loss": r.indep_loss,
                "dpmm_loss": {f"{s}_{k}": v for (s, k), v in r.dpmm_loss.items()},
                "improvement": {f"{s}_{k}": v for (s, k), v in r.improvement.items()},
            }
            for r in runs
        ],
    }
    with open(outdir / "results.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"simulation study ({len(runs)} run(s)) -> {outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> _Parser:
    parser = _Parser(prog="carbcal", description=__doc__)
    parser.add_argument("--version", action="version", version=f"carbcal {carbcal.__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_cal = sub.add_parser("calibrate", help="independent grid calibration per determination")
    _add_common(p_cal)
    p_cal.add_argument("--resolution", type=float, help="grid spacing in cal yr")
    p_cal.set_defaults(func=_cmd_calibrate)

    p_spd = sub.add_parser("spd", help="summed probability distribution")
    _add_common(p_spd)
    p_spd.add_argument("--resolution", type=float, help="grid spacing in cal yr")
    p_spd.set_defaults(func=_cmd_spd)

    p_dpmm = sub.add_parser("dpmm", help="joint nonparametric calibration and summarisation")
    _add_common(p_dpmm)
    p_dpmm.add_argument("--sampler", choices=("polya", "walker"), default="walker")
    p_dpmm.add_argument("--iters", type=int, default=50_000)
    p_dpmm.add_argument("--burn", type=int, default=None, help="default: half of --iters")
    p_dpmm.add_argument("--thin", type=int, default=5)
    p_dpmm.add_argument("--seed", type=_int_at_least(0), default=0)
    p_dpmm.add_argument("--chains", type=_int_at_least(1), default=1)
    p_dpmm.add_argument("--resolution", type=float, help="output grid spacing in cal yr")
    p_dpmm.add_argument(
        "--hyper",
        action="append",
        metavar="KEY=VALUE",
        help=f"override a hyperparameter; keys: {', '.join(sorted(_HYPER_KEYS))}",
    )
    p_dpmm.set_defaults(func=_cmd_dpmm)

    p_sim = sub.add_parser("simulate", help="calibration-loss simulation study")
    _add_common(p_sim, needs_dets=False)
    p_sim.add_argument("--family", default="single_normal", help="comma-separated families")
    p_sim.add_argument("--n", default="50", help="comma-separated determination counts")
    p_sim.add_argument("--runs", type=int, default=10)
    p_sim.add_argument("--iters", type=int, default=10_000)
    p_sim.add_argument("--burn", type=int, default=5_000)
    p_sim.add_argument("--thin", type=int, default=5)
    p_sim.add_argument("--seed", type=_int_at_least(0), default=0)
    p_sim.add_argument("--jobs", type=int, default=1)
    p_sim.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except SystemExit:
        raise
    except CarbcalError as exc:
        print(f"carbcal: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
