"""Command-line surface: calibrate, spd, dpmm, simulate.

Every subcommand writes a run manifest into the output directory before any
long computation starts (``_start_run``), so an interrupted run can still be
reproduced.  Every CSV output goes through ``carbcal.calibrate.write_csv``,
which quotes fields where needed and formats floats in round-trip form, to
keep reruns and cross-machine diffs meaningful.  Exit codes: 0 success,
1 usage, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import time
import traceback
from dataclasses import MISSING, asdict, fields, replace
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
    hpd_from_draws,
    hpd_intervals,
    map_estimates,
    read_determinations,
    spd,
    write_csv,
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

#: ``--hyper`` key -> parser; ``lambda`` names the field ``lam``.
_HYPER_KEYS = {
    "lambda" if f.name == "lam" else f.name: int if f.type in (int, "int") else float
    for f in fields(Hyperparameters)
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""

    def parse(raw: str) -> int:
        value = int(raw)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "integer"  # named in argparse's "invalid integer value" message
    return parse


def _safe_id(raw: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", raw) or "unnamed"


def _start_run(args, config: dict, seed=None) -> Path:
    """Create the output directory and write the manifest that reproduces the run."""
    if args.out is not None:
        outdir = Path(args.out)
    else:
        tag = hashlib.sha1(str(seed).encode()).hexdigest()[:8]
        outdir = Path(f"carbcal-{time.strftime('%Y%m%d-%H%M%S')}-{tag}")
    if outdir.exists() and any(outdir.iterdir()) and not args.force:
        raise DataError(f"output directory {outdir} exists and is not empty; use --force")
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "subcommand": args.subcommand,
        "inputs": [str(args.determinations)] if "determinations" in args else [],
        "curve": str(args.curve),
        "config": config,
        "seed": seed,
        "output_dir": str(outdir),
        "version": carbcal.__version__,
    }
    with open(outdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return outdir


def _write_grid(grid: DensityGrid, path: Path) -> None:
    write_csv(path, ["cal_age", "density"], np.column_stack((grid.theta, grid.density)))


def _write_hpd(intervals, path: Path) -> None:
    write_csv(path, ["lo", "hi", "mass"], intervals)


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
            overrides["lam" if key == "lambda" else key] = _HYPER_KEYS[key](raw)
        except ValueError:
            raise DataError(f"--hyper {key}: cannot parse {raw!r}")
    return overrides


def _resolve_hyper(dets, curve, overrides: dict) -> Hyperparameters:
    """Adaptive defaults, overridden field by field; or fully manual."""
    required = {f.name for f in fields(Hyperparameters) if f.default is MISSING}
    try:
        hyper = default_hyperparameters(dets, curve)
    except DataError:
        if required <= overrides.keys():
            return Hyperparameters(**overrides)
        raise
    return replace(hyper, **overrides)


def _add_common(parser, needs_dets=True):
    if needs_dets:
        parser.add_argument("determinations", help="CSV file: id,c14_age,c14_sig")
        parser.add_argument("--resolution", type=float, help="output grid spacing in cal yr")
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


def _resolution(args, curve) -> float:
    """``--resolution``, or the default grid spacing for the curve's span."""
    resolution = args.resolution or default_resolution(curve.support[1] - curve.support[0])
    if not resolution > 0:
        raise DataError(f"--resolution must be > 0, got {resolution:g}")
    return resolution


# ---------------------------------------------------------------------------
# subcommands


def _cmd_calibrate(args, parser) -> int:
    curve = _require_curve(args, parser)
    dets = read_determinations(args.determinations)
    by_stem = {}
    for det in dets:
        first = by_stem.setdefault(_safe_id(det.id), det)
        if first is not det:
            raise DataError(
                f"{args.determinations}: ids {first.id!r} and {det.id!r} "
                f"would both write {_safe_id(det.id)}_posterior.csv"
            )
    resolution = _resolution(args, curve)
    outdir = _start_run(args, {"resolution": resolution, "hpd_levels": list(HPD_LEVELS)})
    for stem, det in by_stem.items():
        try:
            grid = calibrate_independent(det, curve, resolution)
        except DataError as exc:
            raise DataError(f"{args.determinations}: {exc}") from None
        _write_grid(grid, outdir / f"{stem}_posterior.csv")
        for level in HPD_LEVELS:
            _write_hpd(hpd_intervals(grid, level), outdir / f"{stem}_hpd_{level}.csv")
    print(f"calibrated {len(dets)} determination(s) -> {outdir}")
    return EXIT_OK


def _cmd_spd(args, parser) -> int:
    curve = _require_curve(args, parser)
    dets = read_determinations(args.determinations)
    resolution = _resolution(args, curve)
    outdir = _start_run(args, {"resolution": resolution})
    try:
        grid = spd(dets, curve, resolution)
    except DataError as exc:
        raise DataError(f"{args.determinations}: {exc}") from None
    _write_grid(grid, outdir / "spd.csv")
    print(f"spd over {len(dets)} determination(s) -> {outdir}")
    return EXIT_OK


def _write_age_summaries(samples, resolution: float, path: Path) -> None:
    level = HPD_LEVELS[-1]
    rows = []
    for det_id, draws in zip(samples.det_ids, samples.theta.T):
        mean = float(draws.mean())
        for lo, hi, mass in hpd_from_draws(draws, resolution, level):
            rows.append((det_id, mean, level, lo, hi, mass))
    write_csv(path, ["id", "mean", "level", "lo", "hi", "mass"], rows)


def _cmd_dpmm(args, parser) -> int:
    curve = _require_curve(args, parser)
    dets = read_determinations(args.determinations)
    overrides = _parse_hyper_overrides(args.hyper)
    hyper = _resolve_hyper(dets, curve, overrides)
    resolution = _resolution(args, curve)
    cfg = ChainConfig(
        n_iter=args.iters,
        n_burn=args.burn if args.burn is not None else args.iters // 2,
        thin=args.thin,
        sampler=args.sampler,
        seed=args.seed,
        hyper=hyper,
    )
    config = asdict(cfg)
    config.update(resolution=resolution, chains=args.chains)
    outdir = _start_run(args, config, seed=args.seed)
    grid = default_predictive_grid(curve, map_estimates(dets, curve), resolution)
    for k in range(args.chains):
        suffix = "" if args.chains == 1 else f"_chain{k}"
        samples = run_chain(dets, curve, replace(cfg, seed=cfg.seed + k))
        samples.save(outdir / f"samples{suffix}")
        pred = predictive_density(samples, hyper, grid)
        write_csv(
            outdir / f"predictive{suffix}.csv",
            ["cal_age", "mean", "lo", "hi"],
            np.column_stack((pred.theta, pred.mean, pred.lo, pred.hi)),
        )
        write_csv(
            outdir / f"cluster_counts{suffix}.csv",
            ["k", "probability"],
            cluster_count_posterior(samples).items(),
        )
        _write_age_summaries(samples, resolution, outdir / f"age_summaries{suffix}.csv")
    print(f"dpmm ({args.sampler}) on {len(dets)} determination(s) -> {outdir}")
    return EXIT_OK


def _cmd_simulate(args, parser) -> int:
    curve = _require_curve(args, parser)
    families = [f.strip() for f in args.family.split(",") if f.strip()]
    if not families:
        parser.error("--family names no family")
    for family in families:
        if family not in simstudy.FAMILIES:
            parser.error(
                f"invalid family {family!r}; valid families: {', '.join(simstudy.FAMILIES)}"
            )
    n_values = [int(v) for v in args.n.split(",")]
    config = {
        "families": families,
        "n_values": n_values,
        "runs": args.runs,
        "iters": args.iters,
        "burn": args.burn,
        "thin": args.thin,
        "jobs": args.jobs,
    }
    outdir = _start_run(args, config, seed=args.seed)
    rows, runs = simstudy.run_study(
        families,
        n_values,
        args.runs,
        curve,
        master_seed=args.seed,
        chain_len=(args.iters, args.burn, args.thin),
        jobs=args.jobs,
    )
    write_csv(outdir / "results.csv", list(rows[0]), (row.values() for row in rows))
    payload = {
        "summary": rows,
        "runs": [
            {
                **asdict(r),
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
    p_cal.set_defaults(func=_cmd_calibrate)

    p_spd = sub.add_parser("spd", help="summed probability distribution")
    _add_common(p_spd)
    p_spd.set_defaults(func=_cmd_spd)

    p_dpmm = sub.add_parser("dpmm", help="joint nonparametric calibration and summarisation")
    _add_common(p_dpmm)
    p_dpmm.add_argument("--sampler", choices=("polya", "walker"), default="walker")
    p_dpmm.add_argument("--iters", type=int, default=50_000)
    p_dpmm.add_argument("--burn", type=int, default=None, help="default: half of --iters")
    p_dpmm.add_argument("--thin", type=int, default=5)
    p_dpmm.add_argument("--seed", type=_int_at_least(0), default=0)
    p_dpmm.add_argument("--chains", type=_int_at_least(1), default=1)
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
    p_sim.add_argument("--runs", type=_int_at_least(1), default=10)
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
