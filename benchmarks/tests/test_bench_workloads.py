"""The workloads on shortened inputs: a failing CLI step counts as a failed
operation, and another seed changes the inputs but not the verdict.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from mariner_chan import cli, swift

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


@pytest.fixture
def short_cli(monkeypatch):
    monkeypatch.setenv("MARINER_CHAN_THREADS", "1")
    monkeypatch.setattr(workloads, "LEMMA_TRIALS", 200)
    monkeypatch.setattr(workloads, "PL_SWEEP", ["--dmin", "1000", "--dmax", "20000",
                                                "--step", "50"])
    monkeypatch.setattr(workloads, "PL_SWEEP_POINTS", 381)
    monkeypatch.setattr(workloads, "N_RICIAN", 2000)


def test_cli_step_with_nonzero_exit_counts_as_failed(short_cli, tmp_path, monkeypatch):
    real_main = cli.main
    monkeypatch.setattr(cli, "main", lambda argv: 1 if argv[:2] == ["sparsity", "lemma-check"]
                        else real_main(argv))
    pipeline = workloads.CliPipeline(1, tmp_path)
    result = pipeline.run_round(0)
    assert (result.attempted, result.failed) == (13, 1)
    assert pipeline.check() == []


def test_cli_other_seed_changes_inputs_not_verdict(short_cli, tmp_path):
    argvs = []
    for seed in (1, 2):
        pipeline = workloads.CliPipeline(seed, tmp_path / str(seed))
        result = pipeline.run_round(0)
        assert result.failed == 0
        assert pipeline.check() == []
        argvs.append(pipeline._steps(workloads.round_seed(seed, 0), tmp_path))
    assert argvs[0] != argvs[1]


def test_cli_check_fails_on_a_perturbed_output(short_cli, tmp_path, monkeypatch):
    real_main = cli.main

    def main(argv):
        code = real_main(argv)
        if argv[:2] == ["sparsity", "lemma-check"]:
            path = Path(argv[argv.index("--out") + 1]) / "lemma_check.json"
            report = json.loads(path.read_text())
            path.write_text(json.dumps(dict(report, random_split_violations=1)))
        return code

    monkeypatch.setattr(cli, "main", main)
    pipeline = workloads.CliPipeline(1, tmp_path)
    assert pipeline.run_round(0).failed == 0
    assert any("lemma-check" in p for p in pipeline.check())


def test_swift_other_seed_changes_inputs_not_verdict(tmp_path):
    stds = []
    for seed in (1, 2):
        ensemble = workloads.SwiftEnsemble(seed, tmp_path)
        ensemble.min_rounds = 3
        for i in range(3):
            assert ensemble.run_round(i).failed == 0
        assert ensemble.check() == []
        stds.append(ensemble.stds[0])
    assert not np.array_equal(*stds)


def test_swift_check_fails_on_a_perturbed_solve(tmp_path, monkeypatch):
    ensemble = workloads.SwiftEnsemble(1, tmp_path)
    ensemble.min_rounds = 1
    ensemble.run_round(0)
    real_solve = swift.solve_effective_heights

    def moved(*args, **kwargs):
        ht, hr, d1 = real_solve(*args, **kwargs)
        return ht, hr, d1 + 1.0

    monkeypatch.setattr(swift, "solve_effective_heights", moved)
    assert any("reflection balance" in p for p in ensemble.check())


def test_envelope_other_seed_changes_inputs_not_verdict(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "N_TWDP_FIT", 100)
    monkeypatch.setattr(workloads, "N_FIT", 3000)
    monkeypatch.setattr(workloads, "N_GOF", 1000)
    monkeypatch.setattr(workloads, "ENVELOPE_POOL", 1)
    draws = []
    for seed in (1, 2):
        fit = workloads.EnvelopeFit(seed, tmp_path)
        assert fit.run_round(0).failed == 0
        assert fit.check() == []
        draws.append(fit.sets[0]["twdp"])
    assert not np.array_equal(*draws)


def test_tracer_wraps_the_callers_name_and_restores_it():
    geom = workloads.LinkGeometry(5.8e9, 25.0, 4.0, 3000.0)
    cfg = workloads.WaveSpectrumConfig(v_w=7.7, seed=1)
    original = swift.mtr_path_loss
    tracer = tracing.Tracer("test")
    with tracer.active():
        assert swift.mtr_path_loss is not original
        series = swift.simulate_swift(geom, cfg, swift.MotionConfig(), swift.AntennaPattern(),
                                      duration=5.0, dt=0.1)
    assert swift.mtr_path_loss is original
    totals = tracer.totals()
    assert totals["pathloss.mtr_path_loss"]["calls"] == series.t.size
    assert totals["swift.simulate_swift"]["calls"] == 1
    outer = totals["swift.simulate_swift"]
    assert 0 < outer["self_s"] < outer["s"]
    metrics = tracing.layer_metrics(tracer, rounds=1)
    assert 0 < metrics["swift.bisect_share"] <= 1
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(metrics) == declared - set(workloads.STAGES) - {"trace.overhead"}


def test_traced_run_reports_every_layer_and_writes_spans(tmp_path):
    class ShortSwift(workloads.SwiftEnsemble):
        def run_round(self, i):
            geom = self.geoms[0]
            cfg = workloads.WaveSpectrumConfig(v_w=7.7, seed=i)
            series, dt = workloads._timed(swift.simulate_swift, geom, cfg, self.still,
                                          self.pattern, duration=3.0, dt=0.1)
            return workloads.Round({"wall": dt}, attempted=1)

    ensemble = ShortSwift(1, tmp_path)
    rounds = [ensemble.run_round(i) for i in range(2)]
    values, replayed = run.traced_metrics(ensemble, rounds, 60.0, "test-run",
                                          tmp_path / "spans" / "short.npz")
    assert len(replayed) == 2
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(values) == declared - set(workloads.STAGES)
    assert values["pathloss.mtr_path_loss.calls"] == 31
    with np.load(tmp_path / "spans" / "short.npz") as spans:
        assert str(spans["run_id"]) == "test-run"
        assert spans["spans"].shape[1] == len(tracing.SPAN_FIELDS)


def test_measure_runs_whole_rounds_within_the_time():
    class Counting:
        min_rounds = 3

        def __init__(self):
            self.calls = []

        def run_round(self, i):
            self.calls.append(i)
            return workloads.Round({"wall": 0.0}, attempted=2)

    w = Counting()
    rounds = run.measure(w, 0.0, w.min_rounds)
    assert w.calls == [0, 1, 2] and len(rounds) == 3
    w = Counting()
    assert len(run.measure(w, 60.0, 1, order=range(4, -1, -1))) == 5
    assert w.calls == [4, 3, 2, 1, 0]
