import contextlib
import csv
import filecmp
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from carbcal import calibrate, cli
from carbcal.calcurve import load_curve
from carbcal.calibrate import calibrate_independent, read_determinations, spd, write_csv
from carbcal.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
SITE = str(REPO_ROOT / "data" / "example_three_phase.csv")
SITE_CURVE = str(REPO_ROOT / "data" / "synthetic_curve.14c")


def write_dets(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "c14_age", "c14_sig"])
        writer.writerows(rows)
    return str(path)


def dirs_identical(a, b, ignore=()):
    a, b = Path(a), Path(b)
    names_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    names_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert names_a == names_b
    for rel in names_a:
        if rel.name in ignore:
            continue
        if not filecmp.cmp(a / rel, b / rel, shallow=False):
            return False, rel
    return True, None


@pytest.fixture
def dets_file(tmp_path, synth_curve):
    x = float(synth_curve.at(3200.0)[0])
    return write_dets(tmp_path / "dets.csv", [("sample1", x, 30.0)])


def test_calibrate_writes_posterior_and_hpd(tmp_path, dets_file, synth_curve_file):
    out = tmp_path / "run"
    rc = main(
        ["calibrate", dets_file, "--curve", str(synth_curve_file), "--out", str(out)]
    )
    assert rc == 0
    assert (out / "manifest.json").is_file()
    assert (out / "sample1_posterior.csv").is_file()
    assert (out / "sample1_hpd_0.683.csv").is_file()
    assert (out / "sample1_hpd_0.954.csv").is_file()
    rows = (out / "sample1_posterior.csv").read_text().strip().splitlines()
    assert rows[0] == "cal_age,density"
    grid = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    spacing = grid[1, 0] - grid[0, 0]
    assert grid[:, 1].sum() * spacing == pytest.approx(1.0, abs=1e-9)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "calibrate"
    assert manifest["seed"] is None


def test_calibrate_rerun_is_byte_identical(tmp_path, dets_file, synth_curve_file):
    out = tmp_path / "run"
    assert main(["calibrate", dets_file, "--curve", str(synth_curve_file), "--out", str(out)]) == 0
    assert (
        main(
            [
                "calibrate",
                dets_file,
                "--curve",
                str(synth_curve_file),
                "--out",
                str(out),
                "--force",
            ]
        )
        == 0
    )
    # same directory rewritten in place: compare against a sibling run
    out2 = tmp_path / "run2"
    assert main(["calibrate", dets_file, "--curve", str(synth_curve_file), "--out", str(out2)]) == 0
    same, offender = dirs_identical(out, out2, ignore=("manifest.json",))
    assert same, offender


def test_calibrate_empty_input_no_outputs(tmp_path, synth_curve_file):
    dets = tmp_path / "empty.csv"
    dets.write_text("id,c14_age,c14_sig\n")
    out = tmp_path / "run"
    rc = main(["calibrate", str(dets), "--curve", str(synth_curve_file), "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_refuses_to_overwrite_without_force(tmp_path, dets_file, synth_curve_file):
    out = tmp_path / "run"
    assert main(["calibrate", dets_file, "--curve", str(synth_curve_file), "--out", str(out)]) == 0
    rc = main(["calibrate", dets_file, "--curve", str(synth_curve_file), "--out", str(out)])
    assert rc == 2


def test_missing_curve_is_usage_error(tmp_path, dets_file, monkeypatch):
    monkeypatch.delenv("CARBCAL_CURVE", raising=False)
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", dets_file, "--out", str(tmp_path / "x")])
    assert exc.value.code == 1


def test_curve_from_environment(tmp_path, dets_file, synth_curve_file, monkeypatch):
    monkeypatch.setenv("CARBCAL_CURVE", str(synth_curve_file))
    out = tmp_path / "run"
    assert main(["calibrate", dets_file, "--out", str(out)]) == 0


def test_spd_single_det_matches_posterior(tmp_path, dets_file, synth_curve_file):
    out_cal = tmp_path / "cal"
    out_spd = tmp_path / "spd"
    assert main(["calibrate", dets_file, "--curve", str(synth_curve_file), "--out", str(out_cal)]) == 0
    assert main(["spd", dets_file, "--curve", str(synth_curve_file), "--out", str(out_spd)]) == 0
    post = np.loadtxt(out_cal / "sample1_posterior.csv", delimiter=",", skiprows=1)
    summed = np.loadtxt(out_spd / "spd.csv", delimiter=",", skiprows=1)
    assert np.array_equal(post[:, 0], summed[:, 0])
    assert np.allclose(post[:, 1], summed[:, 1], rtol=1e-12, atol=0.0)


def test_spd_duplicated_rows_unchanged(tmp_path, synth_curve, synth_curve_file):
    x = float(synth_curve.at(3200.0)[0])
    one = write_dets(tmp_path / "one.csv", [("a", x, 30.0)])
    two = write_dets(tmp_path / "two.csv", [("a", x, 30.0), ("b", x, 30.0)])
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["spd", one, "--curve", str(synth_curve_file), "--out", str(out1)]) == 0
    assert main(["spd", two, "--curve", str(synth_curve_file), "--out", str(out2)]) == 0
    assert (out1 / "spd.csv").read_text() == (out2 / "spd.csv").read_text()


def dpmm_args(dets, curve, out, **kw):
    args = ["dpmm", dets, "--curve", str(curve), "--out", str(out)]
    defaults = {"iters": 10, "burn": 5, "thin": 5, "seed": 3}
    defaults.update(kw)
    for key, val in defaults.items():
        args += [f"--{key}", str(val)]
    return args


@pytest.fixture
def dets_file_multi(tmp_path, synth_curve):
    rng = np.random.default_rng(55)
    truth = rng.uniform(3000, 3500, size=8)
    m, rho = synth_curve.at(truth)
    x = rng.normal(m, np.sqrt(25.0**2 + rho**2))
    return write_dets(
        tmp_path / "multi.csv", [(f"d{k}", float(x[k]), 25.0) for k in range(8)]
    )


def test_dpmm_minimal_run_artifacts(tmp_path, dets_file_multi, synth_curve_file):
    out = tmp_path / "run"
    rc = main(dpmm_args(dets_file_multi, synth_curve_file, out))
    assert rc == 0
    for name in (
        "manifest.json",
        "predictive.csv",
        "cluster_counts.csv",
        "age_summaries.csv",
    ):
        assert (out / name).is_file(), name
    for name in ("theta.csv", "clusters.jsonl", "config.json"):
        assert (out / "samples" / name).is_file(), name
    theta_rows = (out / "samples" / "theta.csv").read_text().strip().splitlines()
    assert len(theta_rows) == 1 + 1  # header + one stored sample
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["n_iter"] == 10
    assert manifest["config"]["hyper"]["nu1"] == 0.25


def test_dpmm_identical_seed_identical_outputs(tmp_path, dets_file_multi, synth_curve_file):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args1 = dpmm_args(dets_file_multi, synth_curve_file, out1, iters=60, burn=20, thin=4)
    args2 = dpmm_args(dets_file_multi, synth_curve_file, out2, iters=60, burn=20, thin=4)
    assert main(args1) == 0
    assert main(args2) == 0
    same, offender = dirs_identical(out1, out2, ignore=("manifest.json",))
    assert same, offender
    # manifests differ only in the output directory they record
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    m1.pop("output_dir"), m2.pop("output_dir")
    assert m1 == m2


def test_dpmm_multiple_chains_suffixed(tmp_path, dets_file_multi, synth_curve_file):
    out = tmp_path / "run"
    rc = main(dpmm_args(dets_file_multi, synth_curve_file, out, chains=2))
    assert rc == 0
    assert (out / "samples_chain0" / "theta.csv").is_file()
    assert (out / "samples_chain1" / "theta.csv").is_file()
    assert (out / "predictive_chain0.csv").is_file()
    assert (out / "predictive_chain1.csv").is_file()


def test_dpmm_hyper_override(tmp_path, dets_file_multi, synth_curve_file):
    out = tmp_path / "run"
    args = dpmm_args(dets_file_multi, synth_curve_file, out) + [
        "--hyper",
        "nu1=0.5",
        "--hyper",
        "lambda=0.25",
    ]
    assert main(args) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["hyper"]["nu1"] == 0.5
    assert manifest["config"]["hyper"]["lam"] == 0.25


def test_dpmm_bad_hyper_key(tmp_path, dets_file_multi, synth_curve_file):
    out = tmp_path / "run"
    args = dpmm_args(dets_file_multi, synth_curve_file, out) + ["--hyper", "bogus=1"]
    assert main(args) == 2


def test_simulate_one_row_table(tmp_path, synth_curve_file):
    out = tmp_path / "sim"
    rc = main(
        [
            "simulate",
            "--curve",
            str(synth_curve_file),
            "--out",
            str(out),
            "--family",
            "uniform",
            "--n",
            "5",
            "--runs",
            "1",
            "--iters",
            "40",
            "--burn",
            "10",
            "--thin",
            "3",
            "--seed",
            "2",
        ]
    )
    assert rc == 0
    rows = (out / "results.csv").read_text().strip().splitlines()
    assert rows[0].startswith("family,n,sampler,loss")
    assert len(rows) == 1 + 4  # two samplers x two losses
    payload = json.loads((out / "results.json").read_text())
    assert len(payload["runs"]) == 1
    assert "polya_l1" in payload["runs"][0]["improvement"]


def test_simulate_invalid_family_usage_error(tmp_path, synth_curve_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "simulate",
                "--curve",
                str(synth_curve_file),
                "--out",
                str(tmp_path / "x"),
                "--family",
                "cauchy",
            ]
        )
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "single_normal" in err and "three_normal" in err and "uniform" in err


def test_data_error_exit_code(tmp_path, synth_curve_file):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,c14_age,c14_sig\nx,not_a_number,30\n")
    rc = main(["calibrate", str(bad), "--curve", str(synth_curve_file), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_manifest_written_before_long_computation(
    tmp_path, dets_file_multi, synth_curve_file, monkeypatch
):
    # A run killed mid-chain must still leave the manifest behind.
    import carbcal.cli as cli

    def boom(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_chain", boom)
    out = tmp_path / "run"
    with pytest.raises(KeyboardInterrupt):
        main(dpmm_args(dets_file_multi, synth_curve_file, out))
    assert (out / "manifest.json").is_file()


@pytest.mark.parametrize("subcommand", ["dpmm", "simulate"])
def test_negative_seed_is_usage_error(
    tmp_path, dets_file_multi, synth_curve_file, subcommand, capsys
):
    out = tmp_path / "run"
    if subcommand == "dpmm":
        args = dpmm_args(dets_file_multi, synth_curve_file, out, seed=-1)
    else:
        args = ["simulate", "--curve", str(synth_curve_file), "--out", str(out), "--seed", "-1"]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 1
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_zero_chains_is_usage_error_before_manifest(tmp_path, dets_file_multi, synth_curve_file):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(dpmm_args(dets_file_multi, synth_curve_file, out, chains=0))
    assert exc.value.code == 1
    assert not (out / "manifest.json").exists()


def test_thin_beyond_post_burn_iterations_fails_before_chain(
    tmp_path, dets_file_multi, synth_curve_file, monkeypatch
):
    import carbcal.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("chain started")

    monkeypatch.setattr(cli, "run_chain", must_not_run)
    out = tmp_path / "run"
    rc = main(dpmm_args(dets_file_multi, synth_curve_file, out, iters=10, burn=5, thin=6))
    assert rc == 2
    assert not (out / "manifest.json").exists()


def test_ids_with_comma_and_quote_survive_outputs(tmp_path, synth_curve, synth_curve_file):
    rng = np.random.default_rng(8)
    ids = ["x,y", 'q"uote'] + [f"d{k}" for k in range(4)]
    m, _ = synth_curve.at(rng.uniform(3000, 3500, size=len(ids)))
    dets = write_dets(tmp_path / "dets.csv", [(i, float(x), 25.0) for i, x in zip(ids, m)])
    cal = tmp_path / "cal"
    assert main(["calibrate", dets, "--curve", str(synth_curve_file), "--out", str(cal)]) == 0
    assert (cal / "x_y_posterior.csv").is_file() and (cal / "q_uote_posterior.csv").is_file()

    out = tmp_path / "run"
    assert main(dpmm_args(dets, synth_curve_file, out)) == 0
    with open(out / "samples" / "theta.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ids
    assert all(len(row) == len(ids) for row in rows[1:])
    with open(out / "age_summaries.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    assert sorted({row[0] for row in rows}) == sorted(ids)
    assert all(len(row) == 6 for row in rows)


@pytest.mark.parametrize("ids", [("a_2", "a/2"), ("a", "a")])
def test_calibrate_colliding_file_stems_rejected(tmp_path, synth_curve_file, capsys, ids):
    dets = write_dets(
        tmp_path / "dets.csv", [("b", 3000.0, 30.0), (ids[0], 3100.0, 30.0), (ids[1], 3200.0, 30.0)]
    )
    out = tmp_path / "run"
    rc = main(["calibrate", dets, "--curve", str(synth_curve_file), "--out", str(out)])
    assert rc == 2
    assert not (out / "manifest.json").exists()
    err = capsys.readouterr().err
    assert "dets.csv" in err and repr(ids[0]) in err and repr(ids[1]) in err


@pytest.mark.parametrize("subcommand", ["calibrate", "spd"])
def test_date_off_the_curve_is_data_error(tmp_path, synth_curve_file, capsys, subcommand):
    dets = write_dets(tmp_path / "dets.csv", [("near", 3000.0, 30.0), ("far", 90000.0, 30.0)])
    out = tmp_path / "run"
    rc = main([subcommand, dets, "--curve", str(synth_curve_file), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "dets.csv" in err and "'far'" in err
    assert not out.exists()


def test_nonpositive_resolution_fails_before_manifest(tmp_path, dets_file_multi, synth_curve_file):
    out = tmp_path / "run"
    rc = main(dpmm_args(dets_file_multi, synth_curve_file, out, resolution=-5))
    assert rc == 2
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("extra", [["--runs", "0"], ["--family", ","]])
def test_simulate_empty_study_is_usage_error(tmp_path, synth_curve_file, extra):
    out = tmp_path / "sim"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--curve", str(synth_curve_file), "--out", str(out)] + extra)
    assert exc.value.code == 1
    assert not out.exists()


@pytest.mark.parametrize("family", ["uniform,", "uniform,,three_normal"])
def test_simulate_empty_family_item_is_usage_error(tmp_path, synth_curve_file, capsys, family):
    # such an item used to be dropped, where an empty --n item is refused
    out = tmp_path / "sim"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--curve", str(synth_curve_file), "--out", str(out), "--family", family,
              "--runs", "1", "--iters", "40", "--burn", "20", "--thin", "1"])
    assert exc.value.code == 1
    assert "invalid family ''" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, repeated",
    [(["--family", "uniform,uniform"], "--family: 'uniform'"), (["--n", "50,50"], "--n: 50")],
)
def test_simulate_repeated_item_is_usage_error(tmp_path, synth_curve_file, capsys, extra, repeated):
    # a repeated item used to pool its runs into one results.csv row, n_runs 2 for --runs 1
    out = tmp_path / "sim"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--curve", str(synth_curve_file), "--out", str(out), "--runs", "1"] + extra)
    assert exc.value.code == 1
    assert f"argument {repeated} is given more than once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["calibrate", "spd", "dpmm"])
def test_non_finite_curve_value_is_data_error(
    tmp_path, synth_curve_file, dets_file_multi, capsys, subcommand
):
    lines = synth_curve_file.read_text().splitlines()
    k = next(k for k, line in enumerate(lines) if line.startswith("4500.0,"))
    age, mean, _ = lines[k].split(",")
    lines[k] = f"{age},{mean},nan"
    curve_file = tmp_path / "nan_sd.14c"
    curve_file.write_text("\n".join(lines) + "\n")
    out = tmp_path / "run"
    rc = main([subcommand, dets_file_multi, "--curve", str(curve_file), "--out", str(out)])
    assert rc == 2
    assert f"{curve_file}:{k + 1}: non-finite" in capsys.readouterr().err
    assert not out.exists()


FULL_HYPER = ["lambda=1e-4", "nu1=0.25", "nu2=100", "xi=3000", "psi=1e-6"]


@pytest.mark.parametrize("hyper", [[], FULL_HYPER])
def test_dpmm_date_off_the_curve_is_data_error(tmp_path, synth_curve_file, capsys, hyper):
    dets = write_dets(
        tmp_path / "dets.csv", [("a", 3000.0, 30.0), ("b", 3100.0, 30.0), ("far", 90000.0, 30.0)]
    )
    out = tmp_path / "run"
    args = dpmm_args(dets, synth_curve_file, out)
    for pair in hyper:
        args += ["--hyper", pair]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "dets.csv" in err and "'far'" in err and "no likelihood mass" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "override", ["slice_max_steps=0", "xi=nan", "lambda=inf", "nu1=inf", "slice_width=inf"]
)
def test_dpmm_bad_hyper_value_is_data_error_before_output(
    tmp_path, dets_file_multi, synth_curve_file, capsys, override
):
    # An infinite slice_width would keep the slice shrinkage loop from ever ending.
    out = tmp_path / "run"
    rc = main(dpmm_args(dets_file_multi, synth_curve_file, out) + ["--hyper", override])
    assert rc == 2
    assert f"hyperparameter {override.partition('=')[0]} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra",
    [["--n", "5,"], ["--n", "0"], ["--n", "5,-1"], ["--jobs", "0"], ["--jobs", "-3"], ["--n", "1"]],
)
def test_simulate_bad_integer_option_is_usage_error(tmp_path, synth_curve_file, extra):
    out = tmp_path / "sim"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--curve", str(synth_curve_file), "--out", str(out)] + extra)
    assert exc.value.code == 1
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["calibrate", "dpmm"])
@pytest.mark.parametrize("resolution", ["0", "inf"])
def test_zero_or_non_finite_resolution_fails_before_manifest(
    tmp_path, dets_file_multi, synth_curve_file, capsys, subcommand, resolution
):
    # A zero resolution used to fall back to the default grid spacing.
    out = tmp_path / "run"
    args = [subcommand, dets_file_multi, "--curve", str(synth_curve_file), "--out", str(out)]
    rc = main(args + ["--resolution", resolution])
    assert rc == 2
    assert "--resolution" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra",
    [["--iters", "10", "--burn", "20"], ["--thin", "0"], ["--iters", "10", "--burn", "5", "--thin", "6"]],
)
def test_simulate_bad_chain_length_fails_before_output(tmp_path, synth_curve_file, extra):
    out = tmp_path / "sim"
    rc = main(["simulate", "--curve", str(synth_curve_file), "--out", str(out)] + extra)
    assert rc == 2
    assert not out.exists()


def test_dpmm_repeated_id_is_data_error(tmp_path, synth_curve_file, capsys):
    dets = write_dets(
        tmp_path / "dets.csv", [("a", 3000.0, 30.0), ("b", 3100.0, 30.0), ("a", 3200.0, 30.0)]
    )
    out = tmp_path / "run"
    assert main(dpmm_args(dets, synth_curve_file, out)) == 2
    err = capsys.readouterr().err
    assert "dets.csv" in err and "'a'" in err
    assert not out.exists()


@pytest.mark.parametrize("case", ["missing_dets", "missing_curve", "non_utf8_dets"])
def test_unreadable_input_is_data_error_before_output(
    tmp_path, dets_file, synth_curve_file, capsys, case
):
    dets, curve = dets_file, str(synth_curve_file)
    if case == "missing_dets":
        dets = str(tmp_path / "missing.csv")
        named = f"{dets}: cannot read determination file"
    elif case == "missing_curve":
        curve = str(tmp_path / "missing.14c")
        named = f"{curve}: cannot read curve file"
    else:
        dets = str(tmp_path / "latin.csv")
        Path(dets).write_bytes(b"id,c14_age,c14_sig\nsample\xff,3000,30\n")
        named = f"{dets}:2: not valid UTF-8 text"
    out = tmp_path / "run"
    assert main(["calibrate", dets, "--curve", curve, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not out.exists()


def test_out_naming_a_file_is_data_error_before_computation(
    tmp_path, dets_file_multi, synth_curve_file, capsys, monkeypatch
):
    import carbcal.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("computation started")

    monkeypatch.setattr(cli, "map_estimates", must_not_run)
    target = tmp_path / "taken.txt"
    target.write_text("keep me\n")
    assert main(dpmm_args(dets_file_multi, synth_curve_file, target) + ["--force"]) == 2
    err = capsys.readouterr().err
    assert f"output path {target} exists and is not a directory" in err
    assert target.read_text() == "keep me\n"


def _count_map_calls(monkeypatch) -> list:
    """Count ``map_estimates`` calls through every module attribute bound to it."""
    import carbcal.calibrate
    import carbcal.simstudy  # noqa: F401  (loaded now, so its binding is wrapped too)

    original = carbcal.calibrate.map_estimates
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "carbcal" or name.startswith("carbcal."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def test_dpmm_makes_one_map_pass_per_run(tmp_path, dets_file_multi, synth_curve_file, monkeypatch):
    calls = _count_map_calls(monkeypatch)
    rc = main(dpmm_args(dets_file_multi, synth_curve_file, tmp_path / "run", chains=2))
    assert rc == 0
    assert len(calls) == 1


def test_simulate_makes_one_map_pass_per_simulation_run(tmp_path, synth_curve_file, monkeypatch):
    calls = _count_map_calls(monkeypatch)
    args = ["simulate", "--curve", str(synth_curve_file), "--out", str(tmp_path / "run")]
    args += ["--family", "three_normal", "--n", "8", "--runs", "3"]
    args += ["--iters", "10", "--burn", "5", "--thin", "1", "--seed", "4"]
    assert main(args) == 0
    assert len(calls) == 3


def test_cli_import_leaves_scipy_and_multiprocessing_unloaded():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import carbcal.cli, sys; "
        "heavy = ('scipy', 'multiprocessing', 'concurrent.futures'); "
        "print(sorted(m for m in sys.modules if m in heavy or m.startswith(tuple(h + '.' for h in heavy))))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_out_below_a_file_is_data_error(tmp_path, dets_file, synth_curve_file, capsys):
    (tmp_path / "taken.txt").write_text("keep me\n")
    out = tmp_path / "taken.txt" / "run"
    assert main(["calibrate", dets_file, "--curve", str(synth_curve_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"cannot create output directory {out}" in err and "Traceback" not in err


def write_csv_bytes(tmp_path, grid):
    """The bytes ``write_csv`` writes for a calibrated grid: the reference."""
    ref = tmp_path / "ref.csv"
    write_csv(ref, ["cal_age", "density"], np.column_stack((grid.theta, grid.density)))
    return ref.read_bytes()


def test_calibrate_grids_at_two_resolutions_in_one_process_match_write_csv(
    tmp_path, dets_file_multi, synth_curve, synth_curve_file
):
    runs = {"2.5": 2.5, None: 5.0}  # the default spacing of a 0-55 kyr curve is 5 yr
    for option, resolution in runs.items():
        out = tmp_path / f"run_{resolution}"
        args = ["calibrate", dets_file_multi, "--curve", str(synth_curve_file), "--out", str(out)]
        assert main(args + (["--resolution", option] if option else [])) == 0
        for det in read_determinations(dets_file_multi):
            grid = calibrate_independent(det, synth_curve, resolution)
            assert (out / f"{det.id}_posterior.csv").read_bytes() == write_csv_bytes(tmp_path, grid)


def test_spd_file_matches_write_csv(tmp_path, dets_file_multi, synth_curve, synth_curve_file):
    out = tmp_path / "run"
    args = ["spd", dets_file_multi, "--curve", str(synth_curve_file), "--out", str(out)]
    assert main(args + ["--resolution", "2.5"]) == 0
    grid = spd(read_determinations(dets_file_multi), synth_curve, 2.5)
    assert (out / "spd.csv").read_bytes() == write_csv_bytes(tmp_path, grid)


def test_dpmm_resolution_wider_than_predictive_window_fails_before_output(tmp_path, capsys):
    # used to run the whole chain, then fail with an IndexError (exit 3) in predictive_density
    out = tmp_path / "run"
    args = ["dpmm", SITE, "--curve", SITE_CURVE, "--out", str(out), "--iters", "20"]
    assert main(args + ["--resolution", "100000"]) == 2
    err = capsys.readouterr().err
    assert "--resolution 100000" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("subcommand, resolution", [("calibrate", "100000"), ("spd", "30000")])
def test_resolution_coarser_than_the_dates_fails_before_output(
    tmp_path, capsys, subcommand, resolution
):
    # the 5 yr MAP pre-check used to pass, leaving manifest.json behind when the
    # coarse output grid then missed every date
    out = tmp_path / "run"
    args = [subcommand, SITE, "--curve", SITE_CURVE, "--out", str(out)]
    assert main(args + ["--resolution", resolution]) == 2
    err = capsys.readouterr().err
    assert "'obs0'" in err and "no likelihood mass" in err and f"{resolution} cal yr grid" in err
    assert not out.exists()


def test_calibrate_bundled_dates_at_coarse_resolution(tmp_path):
    out = tmp_path / "run"
    args = ["calibrate", SITE, "--curve", SITE_CURVE, "--out", str(out)]
    assert main(args + ["--resolution", "10"]) == 0
    dets = read_determinations(SITE)
    assert len(list(out.glob("*_posterior.csv"))) == len(dets) == 100
    grid = calibrate_independent(dets[-1], load_curve(SITE_CURVE), 10.0)
    assert (out / f"{dets[-1].id}_posterior.csv").read_bytes() == write_csv_bytes(tmp_path, grid)


@pytest.mark.parametrize(
    "extra",
    [
        ["--iters", "100", "--hyper", "eta1=0.001", "--hyper", "eta2=0.001", "--seed", "2"],
        ["--iters", "300", "--hyper", "nu1=0.005", "--seed", "1"],
    ],
)
def test_dpmm_vague_gamma_priors_write_finite_outputs(tmp_path, extra):
    # A gamma draw of shape far below one underflowed to zero: a zero starting
    # concentration crashed the stick draws, and a zero precision put a
    # cluster mean at infinity.
    out = tmp_path / "run"
    args = ["dpmm", SITE, "--curve", SITE_CURVE, "--out", str(out), "--thin", "1"]
    assert main(args + extra) == 0
    non_finite = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
    for path in out.rglob("*"):
        if path.is_file():
            assert not non_finite.search(path.read_text()), path.name


@pytest.mark.parametrize("sampler", ["walker", "polya"])
def test_dpmm_chains_match_single_chain_runs(tmp_path, dets_file_multi, synth_curve_file, sampler):
    # Chains run together; each writes what a one-chain run with its seed writes.
    together = tmp_path / "together"
    opts = dict(iters=40, burn=10, thin=3, seed=21, sampler=sampler)
    assert main(dpmm_args(dets_file_multi, synth_curve_file, together, chains=3, **opts)) == 0
    for k in range(3):
        alone = tmp_path / f"alone{k}"
        assert main(dpmm_args(dets_file_multi, synth_curve_file, alone, **dict(opts, seed=21 + k))) == 0
        for path in alone.rglob("*"):
            if path.is_dir() or path.name == "manifest.json":
                continue
            rel = path.relative_to(alone)
            parts = list(rel.parts)
            stem, dot, ext = parts[0].partition(".")
            parts[0] = f"{stem}_chain{k}{dot}{ext}"
            assert path.read_bytes() == together.joinpath(*parts).read_bytes(), rel


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("subcommand", ["calibrate", "spd", "dpmm", "simulate"])
def test_manifest_records_input_hashes_and_numpy_version(
    tmp_path, dets_file_multi, synth_curve_file, subcommand
):
    manifests = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        if subcommand == "dpmm":
            args = dpmm_args(dets_file_multi, synth_curve_file, out)
        elif subcommand == "simulate":
            args = ["simulate", "--curve", str(synth_curve_file), "--out", str(out), "--n", "4"]
            args += ["--runs", "1", "--iters", "6", "--burn", "3", "--thin", "1"]
        else:
            args = [subcommand, dets_file_multi, "--curve", str(synth_curve_file), "--out", str(out)]
        assert main(args) == 0
        manifests.append(json.loads((out / "manifest.json").read_text()))
    first = manifests[0]
    expected = {str(synth_curve_file): sha256_of(synth_curve_file)}
    if subcommand != "simulate":
        expected[dets_file_multi] = sha256_of(dets_file_multi)
    assert first["sha256"] == expected
    assert first["numpy_version"] == np.__version__
    # reruns' manifests differ only in the output directory they record
    differ = {key for key in first if first[key] != manifests[1][key]}
    assert differ == {"output_dir"}


def test_demo_data_script_reproduces_the_bundled_determinations(tmp_path, capsys):
    import importlib.util
    import shutil

    spec = importlib.util.spec_from_file_location(
        "generate_demo_data", REPO_ROOT / "scripts" / "generate_demo_data.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    shutil.copy(SITE_CURVE, tmp_path / "synthetic_curve.14c")
    script.generate(tmp_path)
    assert (tmp_path / "example_three_phase.csv").read_bytes() == Path(SITE).read_bytes()
    # the bundled curve is read, never rewritten
    assert (tmp_path / "synthetic_curve.14c").read_bytes() == Path(SITE_CURVE).read_bytes()
    assert "synthetic_curve.14c" not in capsys.readouterr().out


# every error about one date starts with its file and line: (rows, offending line,
# the line of an earlier row the error names too, subcommand, extra arguments)
NEAR = [("a", 3000.0, 30.0), ("b", 3100.0, 30.0)]
NAMED_ROW_CASES = {
    "bad_sigma": (NEAR + [("c", 3200.0, -30.0)], 4, None, "calibrate", []),
    "non_finite_age": (NEAR + [("c", "inf", 30.0)], 4, None, "calibrate", []),
    "off_curve_calibrate": (NEAR + [("far", 90000.0, 30.0)], 4, None, "calibrate", []),
    "off_curve_spd": (NEAR + [("far", 90000.0, 30.0)], 4, None, "spd", []),
    "off_curve_dpmm": (NEAR + [("far", 90000.0, 30.0)], 4, None, "dpmm", []),
    "off_curve_dpmm_manual_hyper": (
        NEAR + [("far", 90000.0, 30.0)], 4, None, "dpmm",
        [arg for pair in FULL_HYPER for arg in ("--hyper", pair)],
    ),
    "coarse_resolution": (NEAR, 2, None, "calibrate", ["--resolution", "100000"]),
    "repeated_id_dpmm": (NEAR + [("a", 3200.0, 30.0)], 4, 2, "dpmm", []),
    "colliding_stems_calibrate": (NEAR + [("a/2", 3200.0, 30.0), ("a_2", 3300.0, 30.0)], 5, 4,
                                  "calibrate", []),
}


@pytest.mark.parametrize("case", list(NAMED_ROW_CASES))
def test_date_error_names_its_file_and_line(tmp_path, synth_curve_file, capsys, case):
    rows, line, first_line, subcommand, extra = NAMED_ROW_CASES[case]
    dets = write_dets(tmp_path / "dets.csv", rows)
    out = tmp_path / "run"
    args = [subcommand, dets, "--curve", str(synth_curve_file), "--out", str(out)]
    if subcommand == "dpmm":
        args += ["--iters", "10", "--thin", "1"]
    assert main(args + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"carbcal: error: {dets}:{line}: determination "), err
    if first_line is not None:
        assert f"{dets}:{first_line}: determination " in err
    assert not out.exists()


def test_simulate_burn_defaults_to_half_of_iters(tmp_path, synth_curve_file):
    # --burn defaulted to 5000 here, so any --iters of 5000 or less needed a --burn too
    out = tmp_path / "sim"
    args = ["simulate", "--curve", str(synth_curve_file), "--out", str(out)]
    assert main(args + ["--n", "5", "--runs", "1", "--iters", "40", "--thin", "1"]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["burn"] == 20


def test_simulate_error_names_its_run(tmp_path, capsys):
    # on the bundled curve, run 28 of this study draws two dates with one MAP age
    args = ["simulate", "--curve", SITE_CURVE, "--out", str(tmp_path / "sim")]
    args += ["--family", "single_normal", "--n", "2", "--runs", "29"]
    args += ["--iters", "20", "--burn", "10", "--thin", "1", "--seed", "0"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("carbcal: error: simulation run 28 (single_normal, n=2, seed 28): ")
    assert "identical" in err and "manually" not in err


def test_failed_simulate_leaves_no_output(tmp_path, capsys):
    # run 28 of this study fails; its manifest.json once stayed, so a rerun needed --force
    out = tmp_path / "sim"
    args = ["simulate", "--curve", SITE_CURVE, "--out", str(out), "--family", "single_normal"]
    args += ["--n", "2", "--runs", "60", "--seed", "0", "--iters", "40", "--burn", "20"]
    args += ["--thin", "1"]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("carbcal: error: simulation run 28 ")
    assert not out.exists()
    out.mkdir()  # a directory the run did not make stays, empty
    assert main(args) == 2
    assert list(out.iterdir()) == []


def test_dpmm_dates_with_one_map_age_name_the_hyper_keys(tmp_path, synth_curve_file, capsys):
    dets = write_dets(tmp_path / "dets.csv", [("a", 3000.0, 30.0), ("b", 3000.0, 30.0)])
    out = tmp_path / "run"
    assert main(dpmm_args(dets, synth_curve_file, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"carbcal: error: {dets}: all preliminary MAP calendar ages are identical")
    assert "--hyper" in err and all(key in err for key in ("lambda", "nu1", "nu2", "xi", "psi"))
    assert not out.exists()
    # the five keys the message names are enough
    hyper = [arg for pair in FULL_HYPER for arg in ("--hyper", pair)]
    assert main(dpmm_args(dets, synth_curve_file, out) + hyper) == 0


def test_warnings_are_printed_as_one_line(tmp_path, capsys):
    args = ["dpmm", SITE, "--curve", SITE_CURVE, "--out", str(tmp_path / "run")]
    assert main(args + ["--iters", "40", "--thin", "1"]) == 0
    err = capsys.readouterr().err
    assert "carbcal: warning: predictive built from only 20 stored samples" in err
    assert "UserWarning" not in err and "predictive_density(" not in err


@pytest.mark.parametrize("subcommand", ["dpmm", "simulate"])
def test_bad_chain_length_names_the_options(tmp_path, capsys, subcommand):
    out = tmp_path / "run"
    args = [subcommand, "--curve", SITE_CURVE, "--out", str(out), "--iters", "10", "--burn", "20"]
    assert main(args + ([SITE] if subcommand == "dpmm" else [])) == 2
    err = capsys.readouterr().err
    assert "--burn 20" in err and "--iters 10" in err, err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["dpmm", "simulate"])
def test_chain_too_large_to_store_is_refused_before_output(tmp_path, capsys, subcommand):
    # 5e11 stored samples: far more than any machine's memory holds
    out = tmp_path / "run"
    args = [subcommand, "--curve", SITE_CURVE, "--out", str(out), "--iters", "1000000000000"]
    args += ["--thin", "1"] + ([SITE] if subcommand == "dpmm" else ["--n", "5", "--runs", "1"])
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("carbcal: error: ") and "Traceback" not in err, err
    assert all(option in err for option in ("--iters", "--burn", "--thin")), err
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand, extra, memory, held",
    [
        # 100 stored samples of the 100 bundled dates: 80 kB a chain, 240 kB for 3
        # (and about 130 points of predictive grid at 1 kB each, for the one-chain run)
        ("dpmm", [SITE, "--resolution", "50", "--chains", "3"], 200_000, 3),
        # 4 kB a chain of 5 dates; each of 2 workers holds its run's 2 chains: 16 kB
        ("simulate", ["--n", "5", "--runs", "2", "--jobs", "2"], 12_000, 4),
    ],
)
def test_batch_too_large_to_store_is_refused_before_output(
    tmp_path, capsys, monkeypatch, subcommand, extra, memory, held
):
    # one chain fits in ``memory`` bytes, the chains held at once do not
    real = os.sysconf
    fake = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": memory}
    monkeypatch.setattr(os, "sysconf", lambda name: fake[name] if name in fake else real(name))
    out = tmp_path / "run"
    args = [subcommand, "--curve", SITE_CURVE, "--out", str(out)]
    args += ["--iters", "110", "--burn", "10", "--thin", "1", *extra]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("carbcal: error: --iters 110, --burn 10 and --thin 1: ")
    assert f"the draws of {held} chain(s) held at once" in err and "Traceback" not in err, err
    assert not out.exists()
    if subcommand == "dpmm":
        assert main(args[:-2]) == 0  # the same run with one chain


@pytest.mark.parametrize("subcommand", ["calibrate", "spd", "dpmm"])
def test_grid_too_fine_to_hold_is_refused_before_output(tmp_path, capsys, subcommand):
    # 5.5e13 points over the 55 kyr curve: calibrate and spd wrote manifest.json,
    # then exited 3 with an _ArrayMemoryError; dpmm exited 3 before the manifest
    out = tmp_path / "run"
    args = [subcommand, SITE, "--curve", SITE_CURVE, "--out", str(out), "--resolution", "1e-9"]
    assert main(args + (["--iters", "20"] if subcommand == "dpmm" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("carbcal: error: --resolution 1e-09: ") and "Traceback" not in err, err
    assert "physical memory" in err, err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["calibrate", "spd"])
def test_grid_bound_counts_the_formatted_rows(tmp_path, capsys, monkeypatch, subcommand):
    # 11,001 points at the default 5 yr: 176 kB at the 16 bytes a point once
    # counted, which passed, but calibrate and spd hold about 2 MB of rows and arrays
    real = os.sysconf
    fake = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 1_000_000}
    monkeypatch.setattr(os, "sysconf", lambda name: fake[name] if name in fake else real(name))
    dets = write_dets(tmp_path / "dets.csv", [("one", 3000.0, 25.0)])
    out = tmp_path / "run"
    assert main([subcommand, dets, "--curve", SITE_CURVE, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("carbcal: error: --resolution 5: 1.1e+04 points, whose rows"), err
    assert not out.exists()


def test_predictive_bound_counts_the_rows_once(tmp_path, capsys, monkeypatch):
    # about 1300 points at the default 5 yr and 100 stored samples: the band is
    # taken from the predictive's rows in place, so the run needs 8 bytes a point
    # and sample and 128 more a point, 1.2 MB; 16 bytes a point and sample, the
    # rows and the copy np.quantile once sorted, would be 2.4 MB
    real = os.sysconf
    fake = {"SC_PAGE_SIZE": 1}
    monkeypatch.setattr(os, "sysconf", lambda name: fake[name] if name in fake else real(name))
    out = tmp_path / "run"
    args = ["dpmm", SITE, "--curve", SITE_CURVE, "--out", str(out)]
    args += ["--iters", "200", "--burn", "100", "--thin", "1"]
    fake["SC_PHYS_PAGES"] = 1_100_000
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("carbcal: error: --resolution 5: 1.3e+03 points, whose densities"), err
    assert not out.exists()
    fake["SC_PHYS_PAGES"] = 1_500_000
    assert main(args) == 0
    assert (out / "predictive.csv").exists()


def _summary_draws(rng, n_stored, n_dates, resolution):
    """Draws of ``n_dates`` dates, each of one of the kinds an age summary must get right."""
    columns = []
    for k in range(n_dates):
        centre = [-740.25, 3150.0, 45678.9][k % 3]  # negative and five-digit ages
        kind = k % 5
        if kind == 0:  # continuous, with long runs of cells when there are many draws
            draws = centre + rng.normal(0.0, 40.0 * resolution, size=n_stored)
        elif kind == 1:  # two modes: two intervals at least
            draws = centre + rng.normal(0.0, 2.0 * resolution, size=n_stored)
            draws[::2] += 50.0 * resolution
        elif kind == 2:  # one value
            draws = np.full(n_stored, centre + 0.3 * resolution)
        elif kind == 3:  # on the cell edges numpy makes, and a float either side of them
            draws = centre + rng.normal(0.0, 6.0 * resolution, size=n_stored)
            lo = math.floor(draws.min() / resolution) * resolution
            hi = math.ceil(draws.max() / resolution) * resolution
            edges = np.arange(lo - 0.5 * resolution, hi + resolution, resolution)
            edges = edges[(edges > draws.min()) & (edges < draws.max())]
            near = np.concatenate([edges, *(np.nextafter(edges, to) for to in (-np.inf, np.inf))])
            inner = np.argsort(draws)[1:-1]  # the smallest and largest draws keep the edges
            if len(near):
                draws[inner] = rng.choice(near, size=len(inner))
        else:  # on the cell centres, with tied counts
            cells = np.round(centre / resolution) + rng.integers(-5, 6, size=n_stored)
            draws = cells * resolution
        columns.append(draws)
    return np.column_stack(columns)


@pytest.mark.parametrize("resolution", [0.1, 0.3, 0.5, 1.0, 5.0, 20.0])
def test_age_summaries_match_the_per_date_reference_byte_for_byte(
    tmp_path, monkeypatch, resolution
):
    rng = np.random.default_rng(29)
    level = cli.HPD_LEVELS[-1]
    ids = ["a,b", 'q"t', "", "plain", " s p ", "ünï", "x/y", "#1", "e\\", "z"]
    path = tmp_path / "age_summaries.csv"
    for n_stored in (1, 2, 9, 400, 3000):
        # blocks of 4 dates: 3 dates fill less than one, 10 are not a multiple
        for n_dates, block in ((3, 4), (10, 4), (10, 1)):
            monkeypatch.setattr(calibrate, "SUMMARY_BLOCK_DRAWS", block * n_stored)
            theta = _summary_draws(rng, n_stored, n_dates, resolution)
            samples = SimpleNamespace(det_ids=ids[:n_dates], theta=theta)
            cli._write_age_summaries(samples, resolution, path)
            rows = oracles.ref_age_summary_rows(ids[:n_dates], theta, resolution, level)
            want = io.StringIO()
            writer = csv.writer(want, lineterminator="\n")
            writer.writerow(["id", "mean", "level", "lo", "hi", "mass"])
            writer.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in rows)
            assert path.read_bytes() == want.getvalue().encode(), (n_stored, n_dates, block)
            mean, date, intervals = calibrate.summarise_draws(theta, resolution, level)
            mass = np.bincount(date, weights=intervals[:, 2], minlength=n_dates)
            assert np.all(mass >= level - 1e-12), mass
            # the library at another level, against the reference cell for cell
            rows = oracles.ref_age_summary_rows(range(n_dates), theta, resolution, 0.5)
            mean, date, intervals = calibrate.summarise_draws(theta, resolution, 0.5)
            mean = mean.tolist()
            got = [(k, mean[k], 0.5, *cells) for k, cells in zip(date.tolist(), intervals.tolist())]
            assert repr(got) == repr(rows)


@pytest.mark.parametrize("subcommand", ["calibrate", "spd", "dpmm"])
def test_age_whose_square_overflows_is_a_plain_data_error(tmp_path, capsys, subcommand):
    # the residual of an age of 1e155 squares to inf: a numpy overflow warning
    # came before the error, and under warnings-as-errors a traceback
    dets = write_dets(tmp_path / "dets.csv", NEAR + [("far", 1e155, 30.0)])
    out = tmp_path / "run"
    assert main([subcommand, dets, "--curve", SITE_CURVE, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"carbcal: error: {dets}:4: determination 'far'"), err
    assert "warning" not in err
    assert not out.exists()


def _mostly(usual, odd):
    """Draws of ``usual`` nine times in ten, else one of the ``odd`` values."""
    return st.integers(0, 9).flatmap(lambda k: st.sampled_from(odd) if k == 0 else usual)


_ODD_IDS = ["a", "a", "b,c", 'q"t', " s p ", "ünï", "", "x/y", "x_y", "#1"]
_AGES = _mostly(
    st.floats(500.0, 45000.0).map(repr),
    ["nan", "inf", "-inf", "-1e6", "1e6", "1e155", "1e308", "-0", "", "abc"],
)
_SIGMAS = _mostly(
    st.floats(1.0, 300.0).map(repr),
    ["0", "-5", "nan", "inf", "1e-300", "1e-9", "1e6", "1e300", ""],
)
_HYPER_FLOATS = (
    "lambda", "nu1", "nu2", "xi", "psi", "eta1", "eta2", "slice_width", "alpha_prop_sd",
)
_HYPER = st.one_of(
    st.tuples(st.sampled_from(_HYPER_FLOATS), _mostly(
        st.floats(-1e6, 1e6).map(repr), ["nan", "inf", "0", "1e-300", "x"])),
    # a step cap bounds time, not memory: with a tiny slice width, a cap of
    # 1e6 steps would keep one example stepping out for minutes
    st.tuples(
        st.sampled_from(["slice_max_steps", "n_init_clusters"]), st.integers(-2, 1000).map(str)
    ),
    st.just(("n_init_clusters", "1000000")),
)


@st.composite
def _determinations_text(draw):
    rows = [
        (draw(_mostly(st.just(f"d{k}"), _ODD_IDS)), draw(_AGES), draw(_SIGMAS))
        for k in range(draw(st.integers(1, 5)))
    ]
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=eol, quoting=quoting)
    writer.writerow(["id", "c14_age", "c14_sig"])
    for row in rows:
        writer.writerow(row)
        buf.write(eol if draw(st.integers(0, 4)) == 0 else "")  # a blank row
    return ("\ufeff" if draw(st.booleans()) else "") + buf.getvalue()


@st.composite
def _cli_case(draw):
    subcommand = draw(st.sampled_from(["calibrate", "spd", "dpmm"]))
    args = [subcommand]
    resolution = draw(_mostly(st.none(), ["0", "-5", "inf", "nan", "0.5", "5", "1e6"]))
    if resolution is not None:
        args += ["--resolution", resolution]
    if subcommand == "dpmm":
        args += ["--iters", str(draw(st.integers(1, 60)))]
        args += ["--thin", draw(st.sampled_from(["1", "5"]))]
        args += ["--sampler", draw(st.sampled_from(["polya", "walker"]))]
        args += ["--chains", str(draw(_mostly(st.integers(1, 3), [0, -1])))]
        burn = draw(_mostly(st.none(), ["-1", "0", "1", "30", "60", "100"]))
        args += [] if burn is None else ["--burn", burn]
        for key, value in draw(st.lists(_HYPER, max_size=2)):
            args += ["--hyper", f"{key}={value}"]
    return draw(_determinations_text()), args


_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=_cli_case())
def test_any_input_exits_cleanly_with_finite_outputs(tmp_path_factory, case):
    # The input contract: whatever the file and options, exit 0, 1 (usage) or
    # 2 (data), never a traceback, and no non-finite number in any output.
    text, args = case
    work = tmp_path_factory.mktemp("contract")
    dets, out = work / "dets.csv", work / "run"
    dets.write_text(text, encoding="utf-8", newline="")
    argv = [args[0], str(dets), "--curve", SITE_CURVE, "--out", str(out), *args[1:]]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    for path in out.rglob("*") if out.exists() else ():
        if path.is_file():
            found = _NON_FINITE.search(path.read_text(encoding="utf-8"))
            assert found is None, (argv, path.name, found)
