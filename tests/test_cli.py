import csv
import filecmp
import json
from pathlib import Path

import numpy as np
import pytest

from carbcal.cli import main


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
    assert not (out / "far_posterior.csv").exists() and not (out / "spd.csv").exists()


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
