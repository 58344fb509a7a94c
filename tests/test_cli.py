"""Command-line front-end tests: exit codes, CSV schemas, manifests, replay."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mariner_chan import cli
from mariner_chan.cli import _write_json, main, worker_count
from mariner_chan.sounder import save_iq
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


def test_dual_ci_mtr_fit_without_samples_beyond_the_break(tmp_path):
    sweep = tmp_path / "sweep"
    assert run("pathloss", "eval", "--model", "dual-ci-mtr", "--dmin", "1000",
               "--dmax", "3000", "--step", "100", "--out", str(sweep)) == 0
    for model in ("dual-ci", "dual-ci-mtr"):
        out = tmp_path / model
        assert run("pathloss", "fit", "--model", model, "--input", str(sweep / "pathloss.csv"),
                   "--out", str(out)) == 0
        report = json.loads((out / "fit.json").read_text())
        assert report["params"]["n1"] == pytest.approx(2.0, abs=0.01)
        assert math.isnan(report["params"]["n2"])
        assert report["warnings"] == ["no samples beyond the break distance; n2 unset"]


# signed zero, the smallest subnormal and a negative subnormal, both infinities, nan
_CSV_EDGES = [-0.0, 5e-324, -1e-310, math.inf, -math.inf, math.nan]
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(rows=st.lists(st.tuples(_FINITE, _FINITE), max_size=30))
@settings(max_examples=100, deadline=None)
def test_csv_columns_round_trip_bit_for_bit(tmp_path_factory, rows):
    a, b = np.array(rows + list(zip(_CSV_EDGES, reversed(_CSV_EDGES)))).T
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    cli._write_csv(path, {"a": a, "b": b})
    for back, column in zip(cli._read_csv_columns(str(path), ["a", "b"]), (a, b)):
        assert back.tobytes() == column.tobytes()
    # columns are found by name: reordered, padded with an extra column, blank lines between
    lines = ["b,extra,a", *(f"{y!r},pad,{x!r}" for x, y in zip(a.tolist(), b.tolist()))]
    path.write_text("\n\n".join(lines) + "\n")
    for back, column in zip(cli._read_csv_columns(str(path), ["a", "b"]), (a, b)):
        assert back.tobytes() == column.tobytes()


def _one_run_per_command(tmp):
    """Small argv for every command, in an order where each input exists."""
    (tmp / "grouped.csv").write_text("group,amplitude\n0,1.0\n0,1.2\n1,2.0\n1,2.4\n")
    rician = ["--family", "rician", "--params", '{"s": 0.994, "sigma": 0.081}']
    return {
        "geometry": ["geometry", "--h-t", "20"],
        "pathloss-eval": ["pathloss", "eval", "--model", "dual-ci", "--dmin", "1000",
                          "--dmax", "12000", "--step", "500"],
        "pathloss-fit": ["pathloss", "fit", "--model", "dual-ci",
                         "--input", f"{tmp}/pathloss-eval/pathloss.csv"],
        "swift-sim": ["swift", "sim", "--duration", "3", "--seed", "5"],
        "swift-pdf": ["swift", "pdf", "--input", f"{tmp}/swift-sim/swift.csv"],
        "smallscale-sample": ["smallscale", "sample", *rician, "-n", "500", "--seed", "2"],
        "smallscale-fit": ["smallscale", "fit", "--family", "rician",
                           "--input", f"{tmp}/smallscale-sample/envelope.csv"],
        "smallscale-gof": ["smallscale", "gof", *rician, "--bins", "20",
                           "--input", f"{tmp}/smallscale-sample/envelope.csv"],
        "sounder-sim": ["sounder", "sim", "--length", "255", "--n-taps", "4", "--seed", "2"],
        "sounder-extract": ["sounder", "extract", "--length", "255", "--max-taps", "4",
                            "--input", f"{tmp}/sounder-sim/rx.iq"],
        "sparsity": ["sparsity", "--pdp", f"{tmp}/sounder-extract/pdp.csv"],
        "sparsity-lemma-check": ["sparsity", "lemma-check", "--n-trials", "50", "--seed", "3"],
        "temporal": ["temporal", "--pdp", f"{tmp}/sounder-extract/pdp.csv"],
        "decompose": ["decompose", "--input", f"{tmp}/grouped.csv"],
    }


def test_every_command_runs_and_replays_byte_for_byte(tmp_path):
    runs = _one_run_per_command(tmp_path)
    assert set(runs) == set(cli._COMMANDS)
    for name, argv in runs.items():
        out, again = tmp_path / name, tmp_path / f"{name}-replay"
        assert run(*argv, "--out", str(out)) == 0, name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == name
        assert set(manifest["config"]) == cli._COMMANDS[name].keys()
        assert run("replay", str(out / "manifest.json"), "--out", str(again)) == 0, name
        replayed = json.loads((again / "manifest.json").read_text())
        assert replayed["config"] == dict(manifest["config"], out=str(again))
        outputs = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert outputs and outputs == sorted(p.name for p in again.iterdir()
                                             if p.name != "manifest.json")
        for output in outputs:
            assert (out / output).read_bytes() == (again / output).read_bytes(), (name, output)


def _invalid_inputs(tmp):
    (tmp / "one_row.csv").write_text("t_s,fading_db\n0.0,1.5\n")
    (tmp / "series.csv").write_text("t_s,fading_db\n0.0,0.5\n0.1,1.5\n0.2,-0.3\n")
    (tmp / "envelope.csv").write_text("amplitude\n0.9\n1.0\n1.1\n1.2\n")
    (tmp / "nan_envelope.csv").write_text("amplitude\n" + "1.0\n" * 40 + "nan\n")
    (tmp / "nan_distance.csv").write_text("d_m,pl_db\n100.0,80.0\nnan,90.0\n1000.0,100.0\n")
    (tmp / "short_row.csv").write_text("d_m,pl_db\n1000,100\n2000\n3000,110\n")
    (tmp / "negative_n1.json").write_text(json.dumps({"fit": {"n1": -1}}))
    (tmp / "bad_keys.json").write_text(json.dumps({"command": "geometry", "config": {}}))
    (tmp / "list.json").write_text("[1, 2]")
    (tmp / "no_rate_yaw.json").write_text(json.dumps(_swift_manifest_without_rate_yaw(tmp)))
    save_iq(tmp / "rx.iq", np.ones(255, dtype=complex))


def _swift_manifest_without_rate_yaw(tmp):
    motion = {k: v for k, v in cli._MOTION_DEFAULTS.items() if k != "rate_yaw"}
    config = {"geometry": cli._GEOMETRY_DEFAULTS, "sea": cli._SEA_DEFAULTS, "motion": motion,
              "duration": 2.0, "dt": 0.1, "seed": 0, "out": str(tmp / "swift")}
    return {"command": "swift-sim", "config": config}


_INVALID = {
    "swift-pdf-one-row": ["swift", "pdf", "--input", "{tmp}/one_row.csv"],
    "ci-below-d0": ["pathloss", "eval", "--model", "ci", "--dmin", "0.5", "--dmax", "10",
                    "--step", "1"],
    "dual-ci-negative-n1": ["pathloss", "eval", "--model", "dual-ci", "--dmin", "1000",
                            "--dmax", "2000", "--step", "500",
                            "--config", "{tmp}/negative_n1.json"],
    "gof-one-bin": ["smallscale", "gof", "--family", "rician",
                    "--params", '{"s": 1.0, "sigma": 0.1}', "--input", "{tmp}/envelope.csv",
                    "--bins", "1"],
    "pathloss-fit-nan-distance": ["pathloss", "fit", "--model", "ci",
                                  "--input", "{tmp}/nan_distance.csv"],
    "short-row": ["pathloss", "fit", "--model", "ci", "--input", "{tmp}/short_row.csv"],
    "smallscale-fit-nan-amplitude": ["smallscale", "fit", "--family", "rician",
                                     "--input", "{tmp}/nan_envelope.csv"],
    "extract-zero-taps": ["sounder", "extract", "--length", "255", "--input", "{tmp}/rx.iq",
                          "--max-taps", "0"],
    "extract-negative-taps": ["sounder", "extract", "--length", "255",
                              "--input", "{tmp}/rx.iq", "--max-taps", "-2"],
    "extract-missing-iq": ["sounder", "extract", "--input", "{tmp}/nope.iq"],
    "swift-pdf-zero-bin-width": ["swift", "pdf", "--input", "{tmp}/series.csv",
                                 "--bin-width", "0"],
    "swift-pdf-negative-bin-width": ["swift", "pdf", "--input", "{tmp}/series.csv",
                                     "--bin-width", "-1"],
    "replay-bad-keys": ["replay", "{tmp}/bad_keys.json"],
    "replay-list": ["replay", "{tmp}/list.json"],
    "replay-missing-block-key": ["replay", "{tmp}/no_rate_yaw.json"],
    "config-list": ["geometry", "--config", "{tmp}/list.json"],
}


@pytest.mark.parametrize("argv", list(_INVALID.values()), ids=list(_INVALID))
def test_invalid_input_exits_2(tmp_path, capsys, argv):
    _invalid_inputs(tmp_path)
    out = tmp_path / "out"
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert run(*argv, "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "manifest.json").exists()


def test_replay_names_the_block_and_the_missing_key(tmp_path, capsys):
    _invalid_inputs(tmp_path)
    assert run("replay", str(tmp_path / "no_rate_yaw.json")) == 2
    err = capsys.readouterr().err
    assert "'motion'" in err and "rate_yaw" in err


def test_flags_before_a_subcommand_take_effect(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_json(tmp_path / "config.json", {"seed": 4, "out": "from_config"})
    assert run("sparsity", "--out", "mine", "lemma-check", "--n-trials", "5") == 0
    assert (tmp_path / "mine" / "lemma_check.json").exists()
    assert run("sparsity", "--config", "config.json", "lemma-check", "--n-trials", "5") == 0
    manifest = json.loads((tmp_path / "from_config" / "manifest.json").read_text())
    assert manifest["seed"] == 4
    assert not (tmp_path / "out").exists()


def test_runtime_failure_exits_1(tmp_path, capsys, monkeypatch):
    def fail(resolved):
        raise RuntimeError("reflection solver found no root")

    geometry = cli._COMMANDS["geometry"]
    monkeypatch.setitem(cli._COMMANDS, "geometry", dataclasses.replace(geometry, handler=fail))
    assert run("geometry", "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err.startswith("runtime error: ")
    assert not (tmp_path / "manifest.json").exists()
