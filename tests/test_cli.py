"""Command-line front-end tests: exit codes, CSV schemas, manifests, replay."""

import argparse
import csv
import dataclasses
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mariner_chan import cli
from mariner_chan.cli import _write_json, main, worker_count
from mariner_chan.sounder import IQ_MAGIC, save_iq
from mariner_chan.sparsity import PdpRecord, gini, split_equal


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


def _loaded_after_cli_import(module: str) -> bool:
    """Whether a fresh interpreter has ``module`` loaded after ``import mariner_chan.cli``."""
    code = f"import mariner_chan.cli, sys; print({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout.strip() == "True"


def test_cli_import_leaves_scipy_stats_unloaded():
    # the envelope families are closed forms over scipy.special; scipy.stats
    # would add about half a second to every command's start-up
    assert not _loaded_after_cli_import("scipy.stats")


def test_cli_import_leaves_scipy_optimize_unloaded():
    # only the Rician, Nakagami and TWDP fitters use it, and import it when they run
    assert not _loaded_after_cli_import("scipy.optimize")


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


def _lemma_draws(rng, n_trials, max_n=50, max_m=8):
    """The trials' n, m and powers, drawn from rng in the documented order."""
    n = rng.integers(2, max_n + 1, size=n_trials)
    m = rng.integers(1, max_m + 1, size=n_trials)
    return n, m, rng.exponential(1.0, size=(n_trials, max_n))


def _lemma_report_reference(n_trials, seed, max_n=50, max_m=8):
    """The lemma-check report built trial by trial from the documented single
    stream: n, m and powers, then Dirichlet(1) shares for each (n, m) cell in
    sorted order."""
    rng = np.random.default_rng(seed)
    n, m, powers = _lemma_draws(rng, n_trials, max_n, max_m)
    cells = sorted(set(zip(n.tolist(), m.tolist())))
    shares = {(nk, mk): iter(rng.dirichlet(np.ones(mk), size=(np.sum((n == nk) & (m == mk)), nk)))
              for nk, mk in cells}
    gaps, violations = [], 0
    for nk, mk, row in zip(n.tolist(), m.tolist(), powers):
        pdp = PdpRecord(delays=np.arange(nk) * 50e-9, powers=row[:nk])
        g_eq = gini(split_equal(pdp, mk))
        random_split = (next(shares[nk, mk]) * pdp.powers[:, None]).ravel()
        gaps.append(abs(g_eq - gini(pdp)))
        violations += gini(PdpRecord(np.arange(nk * mk) * 1e-9, random_split)) < g_eq - 1e-12
    return {"n_trials": n_trials, "max_equal_split_gap": max(gaps),
            "random_split_violations": violations}


@pytest.mark.parametrize("seed", [0, 7])
def test_lemma_check_draws_its_trials_from_one_stream_in_order(tmp_path, monkeypatch, seed):
    """n, m and powers come from default_rng(seed) in that order, one call
    each, and the batch gets that same generator, continued."""
    calls, batch = [], cli.split_lemma_batch

    def recorded(n, m, powers, rng):
        calls.append((n, m, powers, rng, rng.bit_generator.state))
        return batch(n, m, powers, rng)

    monkeypatch.setattr(cli, "split_lemma_batch", recorded)
    assert run("sparsity", "lemma-check", "--n-trials", "300", "--seed", str(seed),
               "--out", str(tmp_path)) == 0
    ((n, m, powers, rng, state),) = calls
    expected = np.random.default_rng(seed)
    for got, want in zip((n, m, powers), _lemma_draws(expected, 300)):
        assert np.array_equal(got, want)
    assert state == expected.bit_generator.state
    # the batch drew its shares from the same stream, after the trials
    assert rng.bit_generator.state != state


@pytest.mark.parametrize("seed", [0, 4, 5])
def test_lemma_check_matches_the_trial_loop_byte_for_byte(tmp_path, seed):
    assert run("sparsity", "lemma-check", "--n-trials", "1000", "--seed", str(seed),
               "--out", str(tmp_path)) == 0
    reference = tmp_path / "reference.json"
    _write_json(reference, _lemma_report_reference(1000, seed))
    assert (tmp_path / "lemma_check.json").read_bytes() == reference.read_bytes()


def test_lemma_check_matches_the_trial_loop_when_m_outranges_n(tmp_path):
    # m up to 12 beside n up to 3: a cell key packed as 10*n + m would merge (2, 12) with (3, 2)
    assert run("sparsity", "lemma-check", "--n-trials", "1000", "--seed", "6",
               "--max-n", "3", "--max-m", "12", "--out", str(tmp_path)) == 0
    reference = tmp_path / "reference.json"
    _write_json(reference, _lemma_report_reference(1000, 6, max_n=3, max_m=12))
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


def _csv_writer_bytes(path, columns):
    """The file ``csv.writer`` writes for the columns: the bytes ``_write_csv`` must match."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*(c.tolist() for c in columns.values())))
    return path.read_bytes()


_EDGES = np.array([*_CSV_EDGES, 1e308])


@pytest.mark.parametrize("columns", [
    {"x": _EDGES},
    {"group": np.array([0, 0, 1, 12]).astype(int), "fading_db": np.array([0.5, -0.25, 1e-9, 3.0])},
    {"d_m": np.array([100.0]), "pl_db": np.array([72.5])},
    {"delay_ns": np.array([]), "power_linear": np.array([])},
    {"a": _EDGES, "b": _EDGES[::-1] * 0.1},
], ids=["edges", "int-groups", "one-row", "zero-rows", "two-columns"])
def test_write_csv_bytes_are_csv_writers(tmp_path, columns):
    cli._write_csv(tmp_path / "out.csv", columns)
    assert (tmp_path / "out.csv").read_bytes() == _csv_writer_bytes(tmp_path / "ref.csv", columns)


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


def _tree(path):
    """Every file under path with its size and modification time."""
    return {p: (p.stat().st_size, p.stat().st_mtime_ns) for p in path.rglob("*")}


def test_handlers_return_their_outputs_and_write_nothing(tmp_path):
    """A handler maps its resolved config to {file name: content}: given a run's
    recorded config, it returns exactly the names the run wrote, and creates
    nothing under its out directory; _execute alone writes."""
    for name, argv in _one_run_per_command(tmp_path).items():
        out = tmp_path / name
        assert run(*argv, "--out", str(out)) == 0, name
        config = json.loads((out / "manifest.json").read_text())["config"]
        before = _tree(out)
        outputs = cli._COMMANDS[name].handler(config)
        assert sorted(outputs) == sorted(p.name for p in before if p.name != "manifest.json"), name
        assert _tree(out) == before, name


def test_execute_writes_through_the_module_writers_manifest_last(tmp_path, monkeypatch):
    # the writers are module globals looked up per run, so a wrapper bound to one sees its writes
    writes = []

    def recorded(writer, real):
        def write(path, *rest):
            writes.append((writer, Path(path).name))
            return real(path, *rest)
        return write

    for writer in ("_write_csv", "_write_json", "save_iq", "_write_manifest"):
        monkeypatch.setattr(cli, writer, recorded(writer, getattr(cli, writer)))
    out = tmp_path / "out"
    assert run("sounder", "sim", "--length", "255", "--seed", "2", "--out", str(out)) == 0
    assert writes == [("save_iq", "rx.iq"), ("_write_csv", "true_pdp.csv"),
                      ("_write_manifest", "out"), ("_write_json", "manifest.json")]


def _invalid_inputs(tmp):
    (tmp / "one_row.csv").write_text("t_s,fading_db\n0.0,1.5\n")
    (tmp / "series.csv").write_text("t_s,fading_db\n0.0,0.5\n0.1,1.5\n0.2,-0.3\n")
    (tmp / "envelope.csv").write_text("amplitude\n0.9\n1.0\n1.1\n1.2\n")
    (tmp / "nan_envelope.csv").write_text("amplitude\n" + "1.0\n" * 40 + "nan\n")
    (tmp / "nan_distance.csv").write_text("d_m,pl_db\n100.0,80.0\nnan,90.0\n1000.0,100.0\n")
    (tmp / "short_row.csv").write_text("d_m,pl_db\n1000,100\n2000\n3000,110\n")
    (tmp / "nan_pdp.csv").write_text("delay_ns,power_linear\n0.0,1.0\n50.0,nan\n100.0,0.5\n")
    (tmp / "negative_groups.csv").write_text("group,amplitude\n0,-1\n0,-2\n1,1\n1,2\n")
    (tmp / "fractional_groups.csv").write_text("group,amplitude\n1,1\n1,2\n1.5,1\n1.5,2\n")
    (tmp / "nan_groups.csv").write_text("group,amplitude\n0,1\n0,2\nnan,1\n")
    (tmp / "negative_n1.json").write_text(json.dumps({"fit": {"n1": -1}}))
    (tmp / "bad_keys.json").write_text(json.dumps({"command": "geometry", "config": {}}))
    (tmp / "list.json").write_text("[1, 2]")
    (tmp / "pathloss.csv").write_text("d_m,pl_db\n1000,100\n2000,106\n3000,110\n")
    for name, config in {"geometry_list": {"geometry": []}, "fit_list": {"fit": []},
                         "fit_nn2": {"fit": {"n1": 2.5, "nn2": 9}},
                         "fit_abc": {"fit": {"n1": "abc"}}, "fit_d0": {"fit": {"d0": "x"}},
                         "fit_zero_break": {"fit": {"d_break": 0}},
                         "seed_abc": {"seed": "abc"}, "seed_fraction": {"seed": 1.5},
                         "seed_bool": {"seed": True}, "out_number": {"out": 5},
                         "motion_abc": {"motion": {"amp_roll_deg": "x"}},
                         "sea_fraction": {"sea": {"n_harmonics": 2.5}},
                         "geometry_nan": {"geometry": {"h_t": math.nan}}}.items():
        (tmp / f"{name}.json").write_text(json.dumps(config))
    motion = {k: v for k, v in cli._MOTION_DEFAULTS.items() if k != "rate_yaw"}
    (tmp / "no_rate_yaw.json").write_text(json.dumps(_swift_manifest(tmp, motion=motion)))
    (tmp / "seed_abc_manifest.json").write_text(json.dumps(_swift_manifest(tmp, seed="abc")))
    # recorded flag values of the wrong type or outside their choices
    (tmp / "duration_x_manifest.json").write_text(json.dumps(_swift_manifest(tmp, duration="x")))
    (tmp / "dt_bool_manifest.json").write_text(json.dumps(_swift_manifest(tmp, dt=True)))
    lemma = {"n_trials": 1.5, "max_n": 50, "max_m": 8, "seed": 0, "out": str(tmp / "lemma")}
    (tmp / "n_trials_fraction_manifest.json").write_text(
        json.dumps({"command": "sparsity-lemma-check", "config": lemma}))
    (tmp / "sparsity_no_pdp_manifest.json").write_text(
        json.dumps({"command": "sparsity", "config": {"input": None, "out": str(tmp / "sp")}}))
    sweep = {"geometry": cli._GEOMETRY_DEFAULTS, "sea": cli._SEA_DEFAULTS, "model": "dual-ci",
             "dmin": 1000.0, "dmax": 2000.0, "step": 500.0, "params": {"d_break": "x"},
             "out": str(tmp / "sweep")}
    (tmp / "fit_abc_manifest.json").write_text(json.dumps({"command": "pathloss-eval",
                                                           "config": sweep}))
    (tmp / "model_bogus_manifest.json").write_text(json.dumps(
        {"command": "pathloss-eval", "config": dict(sweep, model="bogus", params={})}))
    save_iq(tmp / "rx.iq", np.ones(255, dtype=complex))
    (tmp / "short_header.iq").write_bytes(IQ_MAGIC + bytes(2))
    (tmp / "huge_count.iq").write_bytes(IQ_MAGIC + struct.pack("<Q", 2**62) + bytes(16))


def _swift_manifest(tmp, motion=cli._MOTION_DEFAULTS, seed=0, duration=2.0, dt=0.1):
    config = {"geometry": cli._GEOMETRY_DEFAULTS, "sea": cli._SEA_DEFAULTS, "motion": motion,
              "duration": duration, "dt": dt, "seed": seed, "out": str(tmp / "swift")}
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
    "sparsity-nan-power": ["sparsity", "--pdp", "{tmp}/nan_pdp.csv"],
    "temporal-nan-power": ["temporal", "--pdp", "{tmp}/nan_pdp.csv"],
    "decompose-negative-amplitude": ["decompose", "--input", "{tmp}/negative_groups.csv"],
    "decompose-fractional-group": ["decompose", "--input", "{tmp}/fractional_groups.csv"],
    "decompose-nan-group": ["decompose", "--input", "{tmp}/nan_groups.csv"],
    "smallscale-fit-nan-amplitude": ["smallscale", "fit", "--family", "rician",
                                     "--input", "{tmp}/nan_envelope.csv"],
    "extract-zero-taps": ["sounder", "extract", "--length", "255", "--input", "{tmp}/rx.iq",
                          "--max-taps", "0"],
    "extract-negative-taps": ["sounder", "extract", "--length", "255",
                              "--input", "{tmp}/rx.iq", "--max-taps", "-2"],
    "extract-missing-iq": ["sounder", "extract", "--input", "{tmp}/nope.iq"],
    "extract-short-iq-header": ["sounder", "extract", "--input", "{tmp}/short_header.iq"],
    "extract-huge-iq-count": ["sounder", "extract", "--input", "{tmp}/huge_count.iq"],
    "swift-pdf-zero-bin-width": ["swift", "pdf", "--input", "{tmp}/series.csv",
                                 "--bin-width", "0"],
    "swift-pdf-negative-bin-width": ["swift", "pdf", "--input", "{tmp}/series.csv",
                                     "--bin-width", "-1"],
    "swift-pdf-inf-bin-width": ["swift", "pdf", "--input", "{tmp}/series.csv",
                                "--bin-width", "inf"],
    "swift-sim-nan-dt": ["swift", "sim", "--duration", "5", "--dt", "nan"],
    "swift-sim-inf-duration": ["swift", "sim", "--duration", "inf"],
    "pathloss-nan-step": ["pathloss", "eval", "--model", "ci", "--dmin", "100",
                          "--dmax", "200", "--step", "nan"],
    "pathloss-nan-dmin": ["pathloss", "eval", "--model", "ci", "--dmin", "nan",
                          "--dmax", "200", "--step", "10"],
    "pathloss-inf-dmax": ["pathloss", "eval", "--model", "ci", "--dmin", "100",
                          "--dmax", "inf", "--step", "10"],
    "replay-bad-keys": ["replay", "{tmp}/bad_keys.json"],
    "replay-list": ["replay", "{tmp}/list.json"],
    "replay-missing-block-key": ["replay", "{tmp}/no_rate_yaw.json"],
    "config-list": ["geometry", "--config", "{tmp}/list.json"],
    "config-geometry-list": ["geometry", "--config", "{tmp}/geometry_list.json"],
    "fit-unknown-key": ["pathloss", "eval", "--model", "dual-ci", "--dmin", "1000",
                        "--dmax", "2000", "--step", "500", "--config", "{tmp}/fit_nn2.json"],
    "fit-non-numeric": ["pathloss", "eval", "--model", "dual-ci", "--dmin", "1000",
                        "--dmax", "2000", "--step", "500", "--config", "{tmp}/fit_abc.json"],
    "fit-list": ["pathloss", "eval", "--model", "dual-ci", "--dmin", "1000",
                 "--dmax", "2000", "--step", "500", "--config", "{tmp}/fit_list.json"],
    "pathloss-fit-non-numeric-d0": ["pathloss", "fit", "--model", "ci",
                                    "--input", "{tmp}/pathloss.csv",
                                    "--config", "{tmp}/fit_d0.json"],
    "pathloss-huge-sweep": ["pathloss", "eval", "--model", "fspl", "--dmin", "1",
                            "--dmax", "1e300", "--step", "1"],
    "swift-sim-huge-duration": ["swift", "sim", "--duration", "1e300"],
    "sounder-sim-more-taps-than-length": ["sounder", "sim", "--length", "255",
                                          "--n-taps", "300"],
    "seed-string": ["swift", "sim", "--duration", "2", "--config", "{tmp}/seed_abc.json"],
    "seed-fraction": ["sparsity", "lemma-check", "--n-trials", "5",
                      "--config", "{tmp}/seed_fraction.json"],
    "seed-bool": ["smallscale", "sample", "--family", "rician",
                  "--params", '{"s": 1.0, "sigma": 0.1}', "--config", "{tmp}/seed_bool.json"],
    "replay-seed-string": ["replay", "{tmp}/seed_abc_manifest.json"],
    "replay-fit-string": ["replay", "{tmp}/fit_abc_manifest.json"],
    "replay-duration-string": ["replay", "{tmp}/duration_x_manifest.json"],
    "replay-dt-bool": ["replay", "{tmp}/dt_bool_manifest.json"],
    "replay-n-trials-fraction": ["replay", "{tmp}/n_trials_fraction_manifest.json"],
    "replay-model-bogus": ["replay", "{tmp}/model_bogus_manifest.json"],
    "replay-sparsity-no-pdp": ["replay", "{tmp}/sparsity_no_pdp_manifest.json"],
    "out-number": ["geometry", "--config", "{tmp}/out_number.json"],
    "motion-string": ["swift", "sim", "--duration", "2", "--config", "{tmp}/motion_abc.json"],
    "sea-fractional-harmonics": ["swift", "sim", "--duration", "2",
                                 "--config", "{tmp}/sea_fraction.json"],
    "geometry-nan-config": ["geometry", "--config", "{tmp}/geometry_nan.json"],
    "geometry-nan-flag": ["geometry", "--h-t", "nan"],
    "dual-ci-zero-break": ["pathloss", "eval", "--model", "dual-ci", "--dmin", "1000",
                           "--dmax", "2000", "--step", "500",
                           "--config", "{tmp}/fit_zero_break.json"],
}


def _run_invalid(tmp_path, monkeypatch, name):
    """Run the _INVALID row from tmp_path, out at its default there, and return its
    exit code; the run must create nothing, not even its output directory."""
    _invalid_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    before = _tree(tmp_path)
    code = run(*(arg.replace("{tmp}", str(tmp_path)) for arg in _INVALID[name]))
    assert _tree(tmp_path) == before
    return code


@pytest.mark.parametrize("name", list(_INVALID))
def test_invalid_input_exits_2(tmp_path, capsys, monkeypatch, name):
    assert _run_invalid(tmp_path, monkeypatch, name) == 2
    assert capsys.readouterr().err.startswith("error: ")


# numpy's arange would otherwise refuse the sweeps and axes with its own
# message, and the library would take a config block's values unchecked
@pytest.mark.parametrize("name, message", [
    ("swift-pdf-inf-bin-width", "bin width must be positive and finite, got inf"),
    ("swift-sim-nan-dt", "need finite dt > 0 and duration >= dt, got nan, 5.0"),
    ("swift-sim-inf-duration", "need finite dt > 0 and duration >= dt, got 0.1, inf"),
    ("pathloss-nan-step", "bad sweep range (100.0, 200.0, nan)"),
    ("pathloss-nan-dmin", "bad sweep range (nan, 200.0, 10.0)"),
    ("pathloss-inf-dmax", "bad sweep range (100.0, inf, 10.0)"),
    ("pathloss-huge-sweep", "sweep (1.0, 1e+300, 1.0) has more than 1000000 points"),
    ("swift-sim-huge-duration", "time axis (1e+300, 0.1) has more than 1000000 steps"),
    ("sounder-sim-more-taps-than-length",
     "channel has 300 taps, more than the sequence length 255"),
    ("config-geometry-list", "config block 'geometry' must be a JSON object"),
    ("fit-list", "config block 'fit' must be a JSON object"),
    ("fit-unknown-key", "unknown key in config block 'fit': 'nn2'"),
    ("fit-non-numeric", "config block 'fit': n1 must be a finite number, got 'abc'"),
    ("pathloss-fit-non-numeric-d0", "config block 'fit': d0 must be a finite number, got 'x'"),
    ("seed-string", "seed must be an integer, got 'abc'"),
    ("seed-fraction", "seed must be an integer, got 1.5"),
    ("seed-bool", "seed must be an integer, got True"),
    ("replay-seed-string", "seed must be an integer, got 'abc'"),
    ("replay-fit-string", "config block 'fit': d_break must be a finite number, got 'x'"),
    ("replay-duration-string", "duration must be a number, got 'x'"),
    ("replay-dt-bool", "dt must be a number, got True"),
    ("replay-n-trials-fraction", "n_trials must be an integer, got 1.5"),
    ("replay-model-bogus", "model must be one of ['fspl', 'two-ray', 'mtr', 'ci', 'dual-ci', "
                           "'dual-ci-mtr'], got 'bogus'"),
    ("replay-sparsity-no-pdp", "sparsity requires --pdp (or the lemma-check subcommand)"),
    ("out-number", "out must be a string, got 5"),
    ("motion-string", "config block 'motion': amp_roll_deg must be a finite number, got 'x'"),
    ("sea-fractional-harmonics", "config block 'sea': n_harmonics must be an integer, got 2.5"),
    ("geometry-nan-config", "config block 'geometry': h_t must be a finite number, got nan"),
    ("geometry-nan-flag", "config block 'geometry': h_t must be a finite number, got nan"),
    ("dual-ci-zero-break",
     "config block 'fit' {'d_break': 0}: break distance must be positive, got 0")])
def test_non_finite_sweep_and_axis_values_are_named(tmp_path, capsys, monkeypatch, name, message):
    assert _run_invalid(tmp_path, monkeypatch, name) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_replay_names_the_block_and_the_missing_key(tmp_path, capsys):
    _invalid_inputs(tmp_path)
    assert run("replay", str(tmp_path / "no_rate_yaw.json")) == 2
    err = capsys.readouterr().err
    assert "'motion'" in err and "rate_yaw" in err


@pytest.mark.parametrize("name, value", [("fractional", "1.5"), ("nan", "nan")])
def test_decompose_names_a_group_id_that_is_not_an_integer(tmp_path, capsys, name, value):
    _invalid_inputs(tmp_path)
    assert run("decompose", "--input", str(tmp_path / f"{name}_groups.csv")) == 2
    assert f"group ids must be integers, got {value}" in capsys.readouterr().err


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


def _help(capsys, *argv):
    """What ``mariner-chan argv`` prints and its exit code, for a run that exits in argparse."""
    with pytest.raises(SystemExit) as exit_:
        run(*argv)
    out = capsys.readouterr()
    return exit_.value.code, out.out + out.err


def test_help_lists_every_command_and_group(capsys):
    code, text = _help(capsys, "--help")
    assert code == 0
    for word in {*(cmd.words[0] for cmd in cli._COMMANDS.values()), *cli._GROUP_HELP, "replay"}:
        assert word in text
    for group, group_help in cli._GROUP_HELP.items():
        assert group_help in text
        code, text_group = _help(capsys, group, "--help")
        assert code == 0
        for cmd in cli._COMMANDS.values():
            if cmd.words[0] == group and len(cmd.words) == 2:
                assert cmd.words[1] in text_group and cmd.help in text_group


@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
def test_command_help_lists_every_flag(capsys, name):
    cmd = cli._COMMANDS[name]
    code, text = _help(capsys, *cmd.words, "--help")
    assert code == 0 and cmd.help in text
    flags = ["--config", "--out", *(option for option, _ in cmd.flags),
             *(f"--{key.replace('_', '-')}"
               for block in cmd.blocks for key in cli._BLOCKS[block][1]),
             *(["--seed"] if cmd.seed else [])]
    for flag in flags:
        assert re.search(rf"(^|[\s\[,]){re.escape(flag)}\b", text), flag


def test_an_unknown_command_lists_every_choice(capsys):
    code, text = _help(capsys, "nope")
    assert code == 2 and "invalid choice: 'nope'" in text
    for word in {*(cmd.words[0] for cmd in cli._COMMANDS.values()), "replay"}:
        assert f"'{word}'" in text
    code, text = _help(capsys, "smallscale", "nope")
    assert code == 2 and all(f"'{word}'" in text for word in ("fit", "sample", "gof"))


def test_main_reads_sys_argv(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["mariner-chan", "geometry", "--out", str(tmp_path)])
    assert main() == 0
    assert (tmp_path / "thresholds.json").exists()


def test_a_command_word_as_a_flag_value(tmp_path, monkeypatch):
    # "fit" also names the command pathloss fit; here it is the output directory
    monkeypatch.chdir(tmp_path)
    assert run("pathloss", "eval", "--out", "fit", "--model", "fspl", "--dmin", "1000",
               "--dmax", "2000", "--step", "500") == 0
    assert (tmp_path / "fit" / "pathloss.csv").exists()


def test_a_parser_holds_only_the_invoked_commands_arguments():
    parser = cli._build_parser(["geometry"])
    assert parser.parse_args(["geometry", "--h-t", "30"]).h_t == 30.0
    with pytest.raises(SystemExit):
        parser.parse_args(["sparsity", "--pdp", "pdp.csv"])


def _built_parsers(monkeypatch, argv):
    """The prog of each parser that ``_build_parser(argv)`` creates."""
    progs, init = [], argparse.ArgumentParser.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recorded)
    cli._build_parser(argv)
    return progs


_TOP_WORDS = ["geometry", "pathloss", "swift", "smallscale", "sparsity", "temporal", "sounder",
              "decompose", "replay"]


def test_a_parser_builds_only_the_invoked_groups_subcommands(monkeypatch):
    progs = _built_parsers(monkeypatch, ["geometry", "--h-t", "30", "--out", "fit"])
    assert progs == ["mariner-chan", *(f"mariner-chan {word}" for word in _TOP_WORDS)]
    progs = _built_parsers(monkeypatch, ["pathloss", "eval", "--model", "fspl"])
    assert [p for p in progs if len(p.split()) == 3] == ["mariner-chan pathloss eval",
                                                        "mariner-chan pathloss fit"]


# help and usage errors: each must print what the parser with every command built prints
_HELP_AND_ERRORS = [
    [], ["--help"], ["--version"], ["nope"], ["--nope"], ["smallscale", "nope"],
    ["sparsity", "nope"], ["pathloss"], ["swift"], ["smallscale"], ["sounder"],
    ["pathloss", "eval"], ["geometry", "--bogus"], ["geometry", "pathloss"], ["replay"],
    ["sounder", "sim", "--seed", "x"], ["sparsity", "lemma-check", "--nope"],
    ["pathloss", "eval", "--model", "bogus", "--dmin", "1", "--dmax", "2", "--step", "1"],
    ["sparsity", "--out", "x", "lemma-check", "--help"],
    *([word, "--help"] for word in _TOP_WORDS),
    *([*cmd.words, "--help"] for cmd in cli._COMMANDS.values()),
]


@pytest.mark.parametrize("argv", _HELP_AND_ERRORS, ids=" ".join)
def test_help_and_errors_match_the_fully_built_parser(capsys, argv):
    printed = []
    every_word = [word for cmd in cli._COMMANDS.values() for word in cmd.words]
    for parser in (cli._build_parser(argv), cli._build_parser([*argv, *every_word])):
        with pytest.raises(SystemExit) as exit_:
            parser.parse_args(argv)
        out = capsys.readouterr()
        printed.append((exit_.value.code, out.out, out.err))
    assert printed[0] == printed[1]
