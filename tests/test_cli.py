"""Command-line front-end tests: exit codes, CSV schemas, manifests, replay."""

import csv
import json

import numpy as np
import pytest

from mariner_chan.cli import _write_json, main, worker_count
from mariner_chan.sparsity import PdpRecord, gini, split_equal, split_random


def run(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, list(reader)


def test_geometry_outputs_thresholds(tmp_path):
    out = tmp_path / "geo"
    assert run("geometry", "--out", str(out)) == 0
    th = json.loads((out / "thresholds.json").read_text())
    assert th["d_break_m"] == pytest.approx(7738.7, abs=1.0)
    assert th["d_06f_m"] == pytest.approx(12630.0, abs=20.0)
    assert th["d_los_vision_m"] == pytest.approx(24987.0, abs=5.0)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "geometry"
    assert manifest["version"]
    assert len(manifest["config_sha256"]) == 64


def test_pathloss_eval_csv_schema(tmp_path):
    out = tmp_path / "pl"
    assert run("pathloss", "eval", "--model", "fspl", "--dmin", "1000",
               "--dmax", "2000", "--step", "500", "--out", str(out)) == 0
    header, rows = read_csv(out / "pathloss.csv")
    assert header == ["d_m", "pl_db"]
    assert [float(r["d_m"]) for r in rows] == [1000.0, 1500.0, 2000.0]


def test_pathloss_fit_round_trip(tmp_path):
    out = tmp_path / "sweep"
    assert run("pathloss", "eval", "--model", "dual-ci-mtr", "--v-w", "7.7",
               "--dmin", "2000", "--dmax", "30000", "--step", "100",
               "--config", str(_config(tmp_path, {"fit": {"n1": 2.10, "n2": 6.03}})),
               "--out", str(out)) == 0
    fit_out = tmp_path / "fit"
    assert run("pathloss", "fit", "--model", "dual-ci-mtr", "--v-w", "7.7",
               "--input", str(out / "pathloss.csv"), "--out", str(fit_out)) == 0
    report = json.loads((fit_out / "fit.json").read_text())
    assert report["params"]["n1"] == pytest.approx(2.10, abs=0.01)
    assert report["params"]["n2"] == pytest.approx(6.03, abs=0.01)


def _config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def test_config_file_with_flag_override(tmp_path):
    cfg = _config(tmp_path, {"geometry": {"h_t": 10.0, "h_r": 2.0}})
    out = tmp_path / "geo"
    assert run("geometry", "--config", str(cfg), "--h-t", "25.0", "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["geometry"]["h_t"] == 25.0  # flag wins
    assert manifest["config"]["geometry"]["h_r"] == 2.0   # file value kept


def test_unknown_config_key_is_validation_error(tmp_path):
    cfg = _config(tmp_path, {"geometry": {"heights": 10.0}})
    assert run("geometry", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2


def test_missing_input_is_validation_error(tmp_path):
    assert run("temporal", "--pdp", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path / "x")) == 2


def test_bad_csv_schema_is_validation_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("delay,power\n0,1\n")
    assert run("temporal", "--pdp", str(bad), "--out", str(tmp_path / "x")) == 2


def test_smallscale_sample_fit_gof_loop(tmp_path):
    out = tmp_path / "samples"
    assert run("smallscale", "sample", "--family", "rician",
               "--params", '{"s": 0.994, "sigma": 0.081}', "-n", "20000",
               "--seed", "1", "--out", str(out)) == 0
    header, rows = read_csv(out / "envelope.csv")
    assert header == ["amplitude"]
    assert len(rows) == 20000

    fit_out = tmp_path / "fit"
    assert run("smallscale", "fit", "--family", "rician",
               "--input", str(out / "envelope.csv"), "--out", str(fit_out)) == 0
    report = json.loads((fit_out / "fit.json").read_text())
    assert report["family"] == "Rician"
    assert report["params"]["s"] == pytest.approx(0.994, rel=0.05)

    gof_out = tmp_path / "gof"
    assert run("smallscale", "gof", "--family", "rician",
               "--params", json.dumps(report["params"]),
               "--input", str(out / "envelope.csv"), "--out", str(gof_out)) == 0
    gof = json.loads((gof_out / "gof.json").read_text())
    assert gof["ks"] < 0.02


def test_sparsity_and_temporal_pipeline(tmp_path):
    pdp = tmp_path / "pdp.csv"
    with open(pdp, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["delay_ns", "power_linear"])
        for i, p in enumerate([0.9, 0.05, 0.03, 0.02]):
            w.writerow([i * 50, p])
    s_out = tmp_path / "sparsity"
    assert run("sparsity", "--pdp", str(pdp), "--out", str(s_out)) == 0
    m = json.loads((s_out / "sparsity.json").read_text())
    assert m["n_mpc"] == 4
    assert 0 < m["gini"] < 1
    t_out = tmp_path / "temporal"
    assert run("temporal", "--pdp", str(pdp), "--out", str(t_out)) == 0
    t = json.loads((t_out / "temporal.json").read_text())
    assert t["rms_delay_spread_ns"] > 0


def test_sounder_sim_extract_pipeline(tmp_path):
    sim_out = tmp_path / "sim"
    assert run("sounder", "sim", "--length", "255", "--snr-db", "40",
               "--n-taps", "4", "--seed", "5", "--out", str(sim_out)) == 0
    ext_out = tmp_path / "ext"
    assert run("sounder", "extract", "--length", "255",
               "--input", str(sim_out / "rx.iq"), "--max-taps", "4",
               "--out", str(ext_out)) == 0
    _, true_rows = read_csv(sim_out / "true_pdp.csv")
    _, est_rows = read_csv(ext_out / "pdp.csv")
    true_p = np.array([float(r["power_linear"]) for r in true_rows])
    est_p = np.array([float(r["power_linear"]) for r in est_rows])
    assert np.max(np.abs(10 * np.log10(est_p / true_p))) < 0.5


def test_swift_sim_and_pdf(tmp_path):
    out = tmp_path / "swift"
    assert run("swift", "sim", "--duration", "5", "--seed", "9",
               "--out", str(out)) == 0
    header, rows = read_csv(out / "swift.csv")
    assert header == ["t_s", "fading_db"]
    assert len(rows) == 51
    pdf_out = tmp_path / "pdf"
    assert run("swift", "pdf", "--input", str(out / "swift.csv"),
               "--out", str(pdf_out)) == 0
    header, _ = read_csv(pdf_out / "swift_pdf.csv")
    assert header == ["bin_center_db", "density"]


def test_decompose(tmp_path):
    src = tmp_path / "grouped.csv"
    with open(src, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["group", "amplitude"])
        for g, amp in [(0, 1.0), (0, 1.2), (1, 2.0), (1, 2.4)]:
            w.writerow([g, amp])
    out = tmp_path / "dec"
    assert run("decompose", "--input", str(src), "--out", str(out)) == 0
    header, rows = read_csv(out / "swift_deviations.csv")
    assert header == ["group", "fading_db"]
    assert len(rows) == 2
    header, rows = read_csv(out / "smallscale.csv")
    assert header == ["amplitude"]
    assert len(rows) == 4


def test_replay_is_byte_identical(tmp_path):
    out1 = tmp_path / "run1"
    assert run("swift", "sim", "--duration", "5", "--seed", "3",
               "--out", str(out1)) == 0
    out2 = tmp_path / "run2"
    assert run("replay", str(out1 / "manifest.json"), "--out", str(out2)) == 0
    assert (out1 / "swift.csv").read_bytes() == (out2 / "swift.csv").read_bytes()


def test_replay_bad_manifest(tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps({"command": "nope"}))
    assert run("replay", str(bad)) == 2


def test_lemma_check_subcommand(tmp_path):
    out = tmp_path / "lemma"
    assert run("sparsity", "lemma-check", "--n-trials", "200", "--seed", "0",
               "--out", str(out)) == 0
    res = json.loads((out / "lemma_check.json").read_text())
    assert res["max_equal_split_gap"] < 1e-12
    assert res["random_split_violations"] == 0


def test_lemma_check_deterministic_across_worker_counts(tmp_path, monkeypatch):
    monkeypatch.setenv("MARINER_CHAN_THREADS", "1")
    assert run("sparsity", "lemma-check", "--n-trials", "300", "--seed", "4",
               "--out", str(tmp_path / "a")) == 0
    monkeypatch.setenv("MARINER_CHAN_THREADS", "4")
    assert run("sparsity", "lemma-check", "--n-trials", "300", "--seed", "4",
               "--out", str(tmp_path / "b")) == 0
    assert ((tmp_path / "a" / "lemma_check.json").read_bytes()
            == (tmp_path / "b" / "lemma_check.json").read_bytes())


def _lemma_report_reference(n_trials, seed, max_n=50, max_m=8):
    """The lemma-check report as the CLI built it trial by trial."""
    rng = np.random.default_rng(seed)
    gaps, violations = [], 0
    for _ in range(n_trials):
        n, m = int(rng.integers(2, max_n + 1)), int(rng.integers(1, max_m + 1))
        powers, split_seed = rng.exponential(1.0, size=max_n), int(rng.integers(0, 2**63))
        pdp = PdpRecord(delays=np.arange(n) * 50e-9, powers=powers[:n])
        g0 = gini(pdp)
        g_eq = gini(split_equal(pdp, m))
        g_rand = gini(split_random(pdp, m, seed=split_seed))
        gaps.append(abs(g_eq - g0))
        violations += g_rand < g_eq - 1e-12
    return {"n_trials": n_trials, "max_equal_split_gap": max(gaps),
            "random_split_violations": violations}


@pytest.mark.parametrize("seed", [0, 4, 5])
def test_lemma_check_matches_the_trial_loop_byte_for_byte(tmp_path, seed):
    assert run("sparsity", "lemma-check", "--n-trials", "1000", "--seed", str(seed),
               "--out", str(tmp_path)) == 0
    reference = tmp_path / "reference.json"
    _write_json(reference, _lemma_report_reference(1000, seed))
    assert (tmp_path / "lemma_check.json").read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("argv, env", [
    (["--n-trials", "0"], None),
    (["--n-trials", "-3"], None),
    (["--max-n", "1"], None),
    (["--max-m", "0"], None),
    ([], "bogus"),
])
def test_lemma_check_bad_input_is_validation_error(tmp_path, monkeypatch, capsys, argv, env):
    if env is not None:
        monkeypatch.setenv("MARINER_CHAN_THREADS", env)
    assert run("sparsity", "lemma-check", "--n-trials", "10", *argv,
               "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "lemma_check.json").exists()


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("MARINER_CHAN_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("MARINER_CHAN_THREADS", "bogus")
    from mariner_chan.cli import ValidationError
    with pytest.raises(ValidationError):
        worker_count()
    monkeypatch.delenv("MARINER_CHAN_THREADS")
    assert worker_count() >= 1


def test_infinite_path_loss_is_validation_error(tmp_path):
    src = tmp_path / "pl.csv"
    src.write_text("d_m,pl_db\n1000,100.0\n2000,inf\n3000,110.0\n")
    assert run("pathloss", "fit", "--model", "ci", "--input", str(src),
               "--out", str(tmp_path / "fit")) == 2


def test_swift_zero_dt_is_validation_error(tmp_path):
    assert run("swift", "sim", "--duration", "5", "--dt", "0",
               "--out", str(tmp_path / "swift")) == 2


def test_sounder_zero_taps_is_validation_error(tmp_path):
    assert run("sounder", "sim", "--length", "255", "--n-taps", "0",
               "--out", str(tmp_path / "sim")) == 2


def test_laplace_sample_then_fit(tmp_path):
    # criterion 5's Laplace at a seed whose raw draws include a non-positive value
    out = tmp_path / "samples"
    assert run("smallscale", "sample", "--family", "laplace",
               "--params", '{"mu": 1.011, "b": 0.065}', "-n", "100000",
               "--seed", "41", "--out", str(out)) == 0
    assert run("smallscale", "fit", "--family", "laplace",
               "--input", str(out / "envelope.csv"), "--out", str(tmp_path / "fit")) == 0


def test_fit_diagnostics_stay_out_of_the_manifest(tmp_path):
    out = tmp_path / "samples"
    assert run("smallscale", "sample", "--family", "twdp",
               "--params", '{"k": 10.0, "delta": 0.7, "sigma": 0.1}', "-n", "200",
               "--seed", "2", "--out", str(out)) == 0
    fit_out = tmp_path / "fit"
    assert run("smallscale", "fit", "--family", "twdp",
               "--input", str(out / "envelope.csv"), "--out", str(fit_out)) == 0
    report = json.loads((fit_out / "fit.json").read_text())
    assert report["diagnostics"]["objective_evals"] > 0
    assert report["diagnostics"]["quad_nodes"] >= 8
    manifest = json.loads((fit_out / "manifest.json").read_text())
    assert set(manifest) == {"command", "config", "config_sha256", "seed", "version"}
    assert "diagnostics" not in manifest["config"]
