"""Command-line surface: calibrate, spd, dpmm, simulate.

This module parses arguments and orders each subcommand's steps.  Bad input,
and a run too large for physical memory (by bounds that live beside the
arrays they count), are refused before any output; then ``_start_run``
writes a run manifest, so an interrupted run can still be reproduced, and a
study that fails with a data error takes it back.  CSV outputs quote fields
where needed and format floats in round-trip form (``calibrate.write_csv``,
``calibrate.GridWriter`` and, for age summaries, ``_write_age_summaries``).
Exit codes: 0 success, 1 usage, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import math
import os
import re
import sys
import time
import traceback
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import carbcal
from carbcal.calcurve import load_curve
from carbcal.calibrate import (
    CALIBRATE_POINT_BYTES,
    COARSE_RESOLUTION,
    SPD_POINT_BYTES,
    DensityGrid,
    GridWriter,
    Hyperparameters,
    check_grid,
    default_resolution,
    hpd_intervals,
    hyper_key,
    independent_grids,
    map_estimates,
    read_determinations,
    resolve_hyperparameters,
    spd,
    summarise_draws,
    uniform_grid,
    write_csv,
    write_json,
)
from carbcal.dpmm import ChainConfig, check_storage, run_chain, run_chains
from carbcal.errors import CarbcalError, DataError
from carbcal.predictive import cluster_count_posterior, predictive_density, predictive_grid

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

HPD_LEVELS = (0.683, 0.954)

#: ``--hyper`` key -> the Hyperparameters field it sets; ``lambda`` sets ``lam``.
_HYPER_KEYS = {hyper_key(f.name): f for f in fields(Hyperparameters)}


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


def _check_outdir(outdir: Path, force: bool) -> None:
    """Refuse an output path that is not a directory, or is non-empty without ``--force``."""
    if outdir.exists() and not outdir.is_dir():
        raise DataError(f"output path {outdir} exists and is not a directory")
    if outdir.exists() and any(outdir.iterdir()) and not force:
        raise DataError(f"output directory {outdir} exists and is not empty; use --force")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _start_run(args, config: dict, seed=None) -> Path:
    """Create the output directory and write the manifest that reproduces the run."""
    if args.out is not None:
        outdir = Path(args.out)
    else:
        tag = hashlib.sha1(str(seed).encode()).hexdigest()[:8]
        outdir = Path(f"carbcal-{time.strftime('%Y%m%d-%H%M%S')}-{tag}")
    _check_outdir(outdir, args.force)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {outdir}: {exc.strerror}") from None
    inputs = [str(args.determinations)] if "determinations" in args else []
    manifest = {
        "subcommand": args.subcommand,
        "inputs": inputs,
        "curve": str(args.curve),
        "sha256": {path: _sha256(path) for path in [*inputs, str(args.curve)]},
        "config": config,
        "seed": seed,
        "output_dir": str(outdir),
        "version": carbcal.__version__,
        "numpy_version": np.__version__,
    }
    write_json(outdir / "manifest.json", manifest)
    return outdir


def _write_grid(writer: GridWriter, grid: DensityGrid, path: Path) -> None:
    writer.write(path, grid)


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
        field = _HYPER_KEYS[key]
        try:
            overrides[field.name] = (int if field.type in (int, "int") else float)(raw)
        except ValueError:
            raise DataError(f"--hyper {key}: cannot parse {raw!r}")
    return overrides


def _by_key(dets, key, clash: str) -> dict:
    """``dets`` by ``key(det)``, in order; a repeat is refused with ``clash`` naming both rows."""
    by_key = {}
    for det in dets:
        first = by_key.setdefault(key(det), det)
        if first is not det:
            raise DataError(f"{det}: " + clash.format(key=key(det), first=first))
    return by_key


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


def _add_chain_options(parser, iters: int) -> None:
    """The chain-length and seed options that ``dpmm`` and ``simulate`` share."""
    parser.add_argument("--iters", type=int, default=iters)
    parser.add_argument("--burn", type=int, help="default: half of --iters")
    parser.add_argument("--thin", type=int, default=5)
    parser.add_argument("--seed", type=_int_at_least(0), default=0)


def _require_curve(args, parser):
    if not args.curve:
        parser.error("a curve file is required (--curve or $CARBCAL_CURVE)")
    return load_curve(args.curve)


def _resolution(args, curve) -> float:
    """``--resolution``, or the default grid spacing for the curve's span."""
    if args.resolution is None:
        return default_resolution(curve.support[1] - curve.support[0])
    if not (math.isfinite(args.resolution) and args.resolution > 0):
        raise DataError(f"--resolution must be a finite number > 0, got {args.resolution:g}")
    return args.resolution


# ---------------------------------------------------------------------------
# subcommands


def _cmd_calibrate(args, parser) -> int:
    curve = _require_curve(args, parser)
    dets = read_determinations(args.determinations)
    clash = "would write {key}_posterior.csv, as would {first}"
    by_stem = _by_key(dets, lambda det: _safe_id(det.id), clash)
    resolution = _resolution(args, curve)
    check_grid(resolution, *curve.support, CALIBRATE_POINT_BYTES, "whose rows and densities")
    # refuses a date off the grid before any output; at a resolution coarser
    # than the MAP grid, the grid written is the one to check
    map_estimates(dets, curve, max(COARSE_RESOLUTION, resolution))
    outdir = _start_run(args, {"resolution": resolution, "hpd_levels": list(HPD_LEVELS)})
    writer = GridWriter(uniform_grid(*curve.support, resolution))
    for stem, grid in zip(by_stem, independent_grids(dets, curve, resolution)):
        _write_grid(writer, grid, outdir / f"{stem}_posterior.csv")
        for level in HPD_LEVELS:
            _write_hpd(hpd_intervals(grid, level), outdir / f"{stem}_hpd_{level}.csv")
    print(f"calibrated {len(dets)} determination(s) -> {outdir}")
    return EXIT_OK


def _cmd_spd(args, parser) -> int:
    curve = _require_curve(args, parser)
    dets = read_determinations(args.determinations)
    resolution = _resolution(args, curve)
    check_grid(resolution, *curve.support, SPD_POINT_BYTES, "whose rows and densities")
    map_estimates(dets, curve, max(COARSE_RESOLUTION, resolution))  # as in _cmd_calibrate
    outdir = _start_run(args, {"resolution": resolution})
    grid = spd(dets, curve, resolution)
    _write_grid(GridWriter(grid.theta), grid, outdir / "spd.csv")
    print(f"spd over {len(dets)} determination(s) -> {outdir}")
    return EXIT_OK


def _write_age_summaries(samples, resolution: float, path: Path) -> None:
    """Write each date's mean and HPD intervals as ``write_csv`` would write their rows."""
    level = HPD_LEVELS[-1]
    mean, date, intervals = summarise_draws(samples.theta, resolution, level)
    # each date's quoted id, mean and level, formatted once by a csv writer
    prefixes = []
    writer = csv.writer(SimpleNamespace(write=prefixes.append), lineterminator="")
    writer.writerows(zip(samples.det_ids, mean.tolist(), itertools.repeat(level)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("id,mean,level,lo,hi,mass\n")
        lines = (
            f"{prefixes[k]},{lo!r},{hi!r},{mass!r}\n"
            for k, (lo, hi, mass) in zip(date.tolist(), intervals.tolist())
        )
        # written 1024 lines at a time, so that the whole text is never held
        for text in iter(lambda: "".join(itertools.islice(lines, 1 << 10)), ""):
            fh.write(text)


def _cmd_dpmm(args, parser) -> int:
    curve = _require_curve(args, parser)
    dets = read_determinations(args.determinations)
    _by_key(dets, lambda det: det.id, "repeats {first}; dpmm needs one row per determination")
    overrides = _parse_hyper_overrides(args.hyper)
    hyper, theta_map = resolve_hyperparameters(args.determinations, dets, curve, overrides)
    resolution = _resolution(args, curve)
    cfg = ChainConfig(
        n_iter=args.iters,
        n_burn=args.burn,
        thin=args.thin,
        sampler=args.sampler,
        seed=args.seed,
        hyper=hyper,
    )
    check_storage(args.iters, args.burn, args.thin, [[len(dets)] * args.chains])
    grid = predictive_grid(curve, theta_map, resolution, cfg.n_stored)
    config = asdict(cfg)
    config.update(resolution=resolution, chains=args.chains)
    outdir = _start_run(args, config, seed=args.seed)
    if args.chains == 1:  # run_chain: the one-chain case of run_chains
        chains = iter([run_chain(dets, curve, cfg, theta_map)])
    else:
        jobs = [(dets, replace(cfg, seed=cfg.seed + k), theta_map) for k in range(args.chains)]
        chains = run_chains(jobs, curve)
    for k in range(args.chains):
        samples = next(chains)  # its one reference, deleted before the next batch runs
        suffix = "" if args.chains == 1 else f"_chain{k}"
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
        del samples
    print(f"dpmm ({args.sampler}) on {len(dets)} determination(s) -> {outdir}")
    return EXIT_OK


def _cmd_simulate(args, parser) -> int:
    # imported here: the other subcommands need none of it
    from carbcal import simstudy

    curve = _require_curve(args, parser)
    families = [f.strip() for f in args.family.split(",")]
    for family in families:  # an empty item is refused here, as --n refuses one
        if family not in simstudy.FAMILIES:
            parser.error(
                f"invalid family {family!r}; valid families: {', '.join(simstudy.FAMILIES)}"
            )
    try:
        n_values = [_int_at_least(2)(v) for v in args.n.split(",")]
    except (ValueError, argparse.ArgumentTypeError):
        parser.error(f"argument --n: expected comma-separated integers >= 2, got {args.n!r}")
    # a repeated item would pool its runs into one row of results.csv
    for option, items in (("--family", families), ("--n", n_values)):
        repeated = next((v for k, v in enumerate(items) if v in items[:k]), None)
        if repeated is not None:
            parser.error(f"argument {option}: {repeated!r} is given more than once")
    chain_len = (args.iters, args.burn, args.thin)
    simstudy.check_study_storage(families, n_values, args.runs, chain_len, args.jobs)
    config = {
        "families": families,
        "n_values": n_values,
        "runs": args.runs,
        "iters": args.iters,
        "burn": args.burn,
        "thin": args.thin,
        "jobs": args.jobs,
    }
    fresh = args.out is None or not Path(args.out).exists()
    outdir = _start_run(args, config, seed=args.seed)
    try:
        rows, runs = simstudy.run_study(
            families,
            n_values,
            args.runs,
            curve,
            master_seed=args.seed,
            chain_len=chain_len,
            jobs=args.jobs,
        )
    except CarbcalError:
        # a study that failed leaves nothing that a rerun would need --force to replace
        (outdir / "manifest.json").unlink()
        if fresh:
            outdir.rmdir()
        raise
    write_csv(outdir / "results.csv", list(rows[0]), (row.values() for row in rows))
    write_json(outdir / "results.json", {"summary": rows, "runs": [asdict(r) for r in runs]})
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
    _add_chain_options(p_dpmm, iters=50_000)
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
    _add_chain_options(p_sim, iters=10_000)
    p_sim.add_argument("--jobs", type=_int_at_least(1), default=1)
    p_sim.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "burn" in args and args.burn is None:
        args.burn = args.iters // 2
    try:
        if args.out is not None:
            _check_outdir(Path(args.out), args.force)
        with warnings.catch_warnings():  # each warning one line, no source; restored after
            warnings.showwarning = lambda msg, *_: sys.stderr.write(f"carbcal: warning: {msg}\n")
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
