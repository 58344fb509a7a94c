"""The benchmark's workloads.

A workload builds its inputs from the workload seed when it is created and
then runs whole rounds of the same operations.  ``run_round(i)`` times the
program's calls in round ``i`` and keeps what the checks need; ``check()``
returns the problems found over every round run.  The inputs of round ``i``
depend only on the seed and ``i``, so a traced replay of a round does the
same work as its untraced run.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats

from mariner_chan import cli, smallscale, swift
from mariner_chan.geometry import LinkGeometry, break_distance
from mariner_chan.seastate import WaveSpectrumConfig, build_harmonics

import checks


@dataclass
class Round:
    values: dict[str, float]  # "wall": seconds in the program's calls; stage figures
    attempted: int
    failed: int = 0


# stage figures, reported with the per-layer metrics by the workload that has the stage
STAGES = ("swift_steps_per_s", "twdp_fit_s", "fit_s", "gof_s", "pathloss_points_per_s",
          "pathloss_fit_s", "sounder_s", "lemma_trials_per_s")


def round_seed(seed: int, i: int) -> int:
    """Seed of round i, drawn from the workload seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def _median(rounds: list[Round], key: str) -> float:
    return float(np.median([r.values[key] for r in rounds]))


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# swift_ensemble
# ---------------------------------------------------------------------------

# criterion 6's setups, (d, h_r, v_w): the wind pair at 6 km, the height pair at 3 km
SWIFT_SETUPS = ((6000.0, 4.0, 7.7), (6000.0, 4.0, 5.6), (3000.0, 4.0, 7.7), (3000.0, 1.0, 7.7))
SWIFT_DURATION, SWIFT_DT = 93.0, 0.1  # the CLI defaults
# the CLI's default vessel motion: roll, pitch, yaw amplitudes (deg) and rates (rad/s)
CLI_MOTION = (5.0, 5.0, 2.0, 1.1, 1.1, 0.6)


class SwiftEnsemble:
    """One round: one sea seed, the four setups, once still and once moving."""

    min_rounds = 50        # the monotonicity check needs 50 seed pairs
    solve_checked = 4      # rounds whose reflection solve is checked at every step
    surface_stride = 31    # every 31st step of those is checked against the summed surface

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.geoms = [LinkGeometry(5.8e9, 25.0, h_r, d) for d, h_r, _ in SWIFT_SETUPS]
        self.pattern = swift.AntennaPattern()
        self.still = swift.MotionConfig()
        self.stds: dict[int, np.ndarray] = {}  # round -> fading std [still/moving, setup]
        self.problems: list[str] = []

    def _motions(self, s: int):
        amps, rates = CLI_MOTION[:3], CLI_MOTION[3:]
        moving = swift.MotionConfig.with_random_phases(
            *(math.radians(a) for a in amps), *rates, seed=s)
        return self.still, moving

    def run_round(self, i: int) -> Round:
        s = round_seed(self.seed, i)
        stds = np.empty((2, len(SWIFT_SETUPS)))
        wall, steps = 0.0, 0
        for a, motion in enumerate(self._motions(s)):
            for b, (geom, (_, _, v_w)) in enumerate(zip(self.geoms, SWIFT_SETUPS)):
                cfg = WaveSpectrumConfig(v_w=v_w, seed=s)
                series, dt = _timed(swift.simulate_swift, geom, cfg, motion, self.pattern,
                                    duration=SWIFT_DURATION, dt=SWIFT_DT, seed=s)
                wall += dt
                steps += series.t.size
                stds[a, b] = np.nanstd(series.fading_db)
                if i < self.solve_checked:
                    self.problems += checks.zero_mean(f"round {i} series {a},{b}",
                                                      series.fading_db)
        self.stds[i] = stds
        return Round({"wall": wall, "swift_steps_per_s": steps / wall}, attempted=stds.size)

    def stages(self, rounds: list[Round]) -> dict[str, float]:
        return {"swift_steps_per_s": _median(rounds, "swift_steps_per_s")}

    def check(self) -> list[str]:
        problems = list(dict.fromkeys(self.problems))
        times = np.arange(0.0, SWIFT_DURATION + 0.5 * SWIFT_DT, SWIFT_DT)
        sampled = slice(None, None, self.surface_stride)
        for i in range(min(self.solve_checked, len(self.stds))):
            s = round_seed(self.seed, i)
            for geom, (_, _, v_w) in zip(self.geoms, SWIFT_SETUPS):
                harmonics = build_harmonics(WaveSpectrumConfig(v_w=v_w, seed=s))
                ht, hr, d1 = swift.solve_effective_heights(geom, harmonics, times)
                label = f"round {i}, d={geom.d:g} m, h_r={geom.h_r:g} m, v_w={v_w}"
                problems += checks.reflection_balance(label, geom.d, ht, hr, d1)
                problems += checks.effective_heights(label, geom.h_t, geom.h_r, geom.d, harmonics,
                                                     times[sampled], ht[sampled], hr[sampled],
                                                     d1[sampled])
        stds = np.array([self.stds[i] for i in sorted(self.stds)])
        for a, motion in enumerate(("still", "moving")):
            problems += checks.monotone(f"wind at 6 km, {motion}", stds[:, a, 0] - stds[:, a, 1],
                                        min_pairs=self.min_rounds)
            problems += checks.monotone(f"Rx height at 3 km, {motion}",
                                        stds[:, a, 2] - stds[:, a, 3], min_pairs=self.min_rounds)
        return problems


# ---------------------------------------------------------------------------
# envelope_fit
# ---------------------------------------------------------------------------

TWDP_TRUTH = ("twdp", {"k": 10.0, "delta": 0.7, "sigma": 0.1})
# criterion 5's generating parameters for the five other families
ENVELOPE_FAMILIES = (
    ("rician", {"s": 0.994, "sigma": 0.081}),
    ("nakagami", {"mu": 32.031, "omega": 1.015}),
    ("lognormal", {"mu": -0.007, "sigma": 0.083}),
    ("laplace", {"mu": 1.011, "b": 0.065}),
    ("asym-laplace", {"mu": 1.033, "b1": 0.045, "b2": 0.081}),
)
N_TWDP_FIT = 200       # few points: the fit makes thousands of density evaluations
N_FIT = 100_000        # per family for the five other fits
N_GOF = 10_000         # one TWDP CDF over many points
ENVELOPE_POOL = 6      # distinct input sets; round i uses set i % ENVELOPE_POOL
CDF_POINTS = (0.5, 0.8, 1.0, 1.2, 1.5)  # where the TWDP CDF is checked, in RMS envelopes

_FAMILY_CLASSES = {"rician": smallscale.Rician, "twdp": smallscale.Twdp,
                   "nakagami": smallscale.Nakagami, "lognormal": smallscale.Lognormal,
                   "laplace": smallscale.Laplace, "asym-laplace": smallscale.AsymLaplace}


def _model(family: str, params: dict):
    return _FAMILY_CLASSES[family](**params)


def _envelope(family: str, params: dict, n: int, seed: int) -> np.ndarray:
    """n positive amplitudes from a family.  The Laplace families put mass on
    x <= 0 (about 9e-8 per draw for criterion 5's Laplace); such draws are
    drawn again, as an amplitude cannot be negative.
    """
    model, rng = _model(family, params), np.random.default_rng(seed)
    x = model.sample(n, rng)
    while np.any(bad := x <= 0):
        x[bad] = model.sample(int(np.sum(bad)), rng)
    return x


class EnvelopeFit:
    """One round: fit_mle for TWDP on a small set and for the five other
    families on large sets, then ks_statistic and pdf_rmse of the
    generating TWDP model on a large set.
    """

    min_rounds = 1

    def __init__(self, seed: int, workdir: Path):
        self.sets = []
        for j in range(ENVELOPE_POOL):
            s = round_seed(seed, j)
            draws = {"twdp": _envelope(*TWDP_TRUTH, N_TWDP_FIT, s)}
            for family, params in ENVELOPE_FAMILIES:
                draws[family] = _envelope(family, params, N_FIT, s)
            draws["gof"] = _envelope(*TWDP_TRUTH, N_GOF, s + 1)
            self.sets.append(draws)
        self.gof_model = _model(*TWDP_TRUTH)
        self.results: dict[int, dict] = {}  # input set -> fitted params and gof figures

    def run_round(self, i: int) -> Round:
        draws = self.sets[i % ENVELOPE_POOL]
        fitted = {}
        report, twdp_s = _timed(smallscale.fit_mle, "twdp",
                                smallscale.EnvelopeSamples(draws["twdp"]))
        fitted["twdp"] = vars(report.model)
        fit_s = 0.0
        for family, _ in ENVELOPE_FAMILIES:
            report, dt = _timed(smallscale.fit_mle, family,
                                smallscale.EnvelopeSamples(draws[family]))
            fitted[family] = vars(report.model)
            fit_s += dt
        t0 = time.perf_counter()
        ks = smallscale.ks_statistic(draws["gof"], self.gof_model)
        rmse = smallscale.pdf_rmse(draws["gof"], self.gof_model)
        gof_s = time.perf_counter() - t0
        self.results[i % ENVELOPE_POOL] = {"fitted": fitted, "ks": ks, "pdf_rmse": rmse}
        return Round({"wall": twdp_s + fit_s + gof_s, "twdp_fit_s": twdp_s, "fit_s": fit_s,
                      "gof_s": gof_s}, attempted=len(ENVELOPE_FAMILIES) + 3)

    def stages(self, rounds: list[Round]) -> dict[str, float]:
        return {key: _median(rounds, key) for key in ("twdp_fit_s", "fit_s", "gof_s")}

    def check(self) -> list[str]:
        problems = []
        k, sigma = TWDP_TRUTH[1]["k"], TWDP_TRUTH[1]["sigma"]
        grid = np.linspace(0.0, 0.6, 61)
        problems += checks.matches(
            "TWDP density with delta=0 against scipy's Rician",
            smallscale.Twdp(k=k, delta=0.0, sigma=sigma).pdf(grid),
            stats.rice.pdf(grid, math.sqrt(2.0 * k), scale=sigma), tol=1e-8)
        for j, result in sorted(self.results.items()):
            draws = self.sets[j]
            for family, params in (TWDP_TRUTH, *ENVELOPE_FAMILIES):
                x = draws[family]
                c = float(np.mean(x))
                truth = checks.unit_mean_params(family, params, c)
                problems += checks.mle_not_worse(
                    f"set {j}, {family}", checks.loglik(family, result["fitted"][family], x / c),
                    checks.loglik(family, truth, x / c), tol=1e-6 * x.size)
            for name, p in (("generating", TWDP_TRUTH[1]), ("fitted", result["fitted"]["twdp"])):
                model = smallscale.Twdp(**p)
                xs = np.array(CDF_POINTS) * p["sigma"] * math.sqrt(2.0 * (1.0 + p["k"]))
                ref = [checks.twdp_cdf_by_quad(v, p["k"], p["delta"], p["sigma"]) for v in xs]
                problems += checks.matches(f"set {j}, {name} TWDP CDF against quadrature",
                                           model.cdf(xs), ref, tol=1e-9)
            problems += checks.ks_below(f"set {j}", result["ks"], N_GOF)
        return problems


# ---------------------------------------------------------------------------
# cli_pipeline
# ---------------------------------------------------------------------------

CLI_GEOMETRY = LinkGeometry(5.8e9, 25.0, 4.0, 3000.0)  # the CLI's default link
PL_SWEEP = ["--dmin", "1000", "--dmax", "33800", "--step", "1"]
PL_SWEEP_POINTS = 32_801
FSPL_SWEEP = ["--dmin", "100", "--dmax", "20000", "--step", "100"]
SHADOW_DB = 4.0
SOUNDER = {"gamma_ns": 24.0, "delta_tau_ns": 50.0, "n_taps": 5}  # the CLI defaults, 30 dB SNR
LEMMA_TRIALS = 10_000
RICIAN = ("rician", {"s": 0.994, "sigma": 0.081})
N_RICIAN = 10_000


class CliPipeline:
    """One round: the measurement chain through ``cli.main``, one command
    per step, each writing into the round's own directory.
    """

    min_rounds = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        # the lemma batch on one worker: the default thread pool spreads widely
        os.environ["MARINER_CHAN_THREADS"] = "1"
        self.problems: list[str] = []

    def _steps(self, s: int, d: Path) -> list[tuple[str, list[str]]]:
        return [
            ("pathloss_eval", ["pathloss", "eval", "--model", "dual-ci-mtr", *PL_SWEEP,
                               "--out", f"{d}/pl"]),
            ("pathloss_fit", ["pathloss", "fit", "--model", "dual-ci-mtr",
                              "--input", f"{d}/pl_shadowed.csv", "--out", f"{d}/plfit"]),
            ("fspl_eval", ["pathloss", "eval", "--model", "fspl", *FSPL_SWEEP,
                           "--out", f"{d}/fspl"]),
            ("sounder_sim", ["sounder", "sim", "--seed", str(s), "--out", f"{d}/snd"]),
            ("sounder_extract", ["sounder", "extract", "--input", f"{d}/snd/rx.iq",
                                 "--max-taps", str(SOUNDER["n_taps"]), "--out", f"{d}/cir"]),
            ("sparsity", ["sparsity", "--pdp", f"{d}/cir/pdp.csv", "--out", f"{d}/sparsity"]),
            ("temporal", ["temporal", "--pdp", f"{d}/cir/pdp.csv", "--out", f"{d}/temporal"]),
            ("lemma", ["sparsity", "lemma-check", "--n-trials", str(LEMMA_TRIALS),
                       "--seed", str(s), "--out", f"{d}/lemma"]),
            ("swift_sim", ["swift", "sim", "--seed", str(s), "--out", f"{d}/swift"]),
            ("swift_pdf", ["swift", "pdf", "--input", f"{d}/swift/swift.csv",
                           "--out", f"{d}/swift_pdf"]),
            ("smallscale_sample", ["smallscale", "sample", "--family", RICIAN[0],
                                   "--params", json.dumps(RICIAN[1]), "-n", str(N_RICIAN),
                                   "--seed", str(s), "--out", f"{d}/envelope"]),
            ("smallscale_fit", ["smallscale", "fit", "--family", RICIAN[0],
                                "--input", f"{d}/envelope/envelope.csv", "--out", f"{d}/fit"]),
            ("replay", ["replay", f"{d}/swift/manifest.json", "--out", f"{d}/replay"]),
        ]

    def run_round(self, i: int) -> Round:
        s = round_seed(self.seed, i)
        d = self.workdir / f"round{i}"
        times, exits = {}, {}
        for name, argv in self._steps(s, d):
            if name == "pathloss_fit":
                self._shadowed_copy(d, s)
            exits[name], times[name] = _timed(cli.main, argv)
        failed = sum(code != 0 for code in exits.values())
        self.problems += self._check_round(d, exits)
        shutil.rmtree(d, ignore_errors=True)
        return Round({
            "wall": sum(times.values()),
            "pathloss_points_per_s": PL_SWEEP_POINTS / times["pathloss_eval"],
            "pathloss_fit_s": times["pathloss_fit"],
            "sounder_s": times["sounder_sim"] + times["sounder_extract"],
            "lemma_trials_per_s": LEMMA_TRIALS / times["lemma"],
        }, attempted=len(exits), failed=failed)

    def _shadowed_copy(self, d: Path, s: int) -> None:
        """The sweep with seeded shadowing added, as pathloss fit's input."""
        src = d / "pl" / "pathloss.csv"
        if not src.is_file():
            return
        data = np.loadtxt(src, delimiter=",", skiprows=1, ndmin=2)
        data = data[np.isfinite(data[:, 1])]
        rng = np.random.default_rng(s)
        data[:, 1] += rng.normal(0.0, SHADOW_DB, size=len(data))
        np.savetxt(d / "pl_shadowed.csv", data, delimiter=",", header="d_m,pl_db",
                   comments="", fmt="%.17g")

    def _check_round(self, d: Path, exits: dict[str, int]) -> list[str]:
        ok = {name for name, code in exits.items() if code == 0}
        problems = []

        def load(path):
            return json.loads((d / path).read_text())

        def csv(path):
            return np.loadtxt(d / path, delimiter=",", skiprows=1, ndmin=2)

        if "fspl_eval" in ok:
            data = csv("fspl/pathloss.csv")
            problems += checks.fspl_points(data[:, 0], data[:, 1], CLI_GEOMETRY.f_c)
        if {"pathloss_eval", "pathloss_fit"} <= ok:
            clean = csv("pl/pathloss.csv")
            if len(clean) != PL_SWEEP_POINTS:
                problems.append(f"sweep wrote {len(clean)} points, not {PL_SWEEP_POINTS}")
            problems += checks.dual_slope_recovery(load("plfit/fit.json"),
                                                   self._design(clean), SHADOW_DB, 2.0, 4.0)
        gamma, delta_tau = SOUNDER["gamma_ns"] * 1e-9, SOUNDER["delta_tau_ns"] * 1e-9
        if {"sounder_sim", "sounder_extract"} <= ok:
            problems += checks.pdp_taps(csv("cir/pdp.csv")[:, 1], gamma, delta_tau)
        if "temporal" in ok:
            problems += checks.delay_spread(load("temporal/temporal.json")["rms_delay_spread_ns"]
                                            * 1e-9, gamma, delta_tau, SOUNDER["n_taps"])
        if "sparsity" in ok:
            problems += checks.sparsity_of_pdp(load("sparsity/sparsity.json"), gamma, delta_tau,
                                               SOUNDER["n_taps"])
        if "lemma" in ok:
            problems += checks.lemma_report(load("lemma/lemma_check.json"), LEMMA_TRIALS)
        if "swift_pdf" in ok:
            pdf = csv("swift_pdf/swift_pdf.csv")
            problems += checks.density_integrates(pdf[:, 1], 0.25)
        if "smallscale_fit" in ok:
            x = csv("envelope/envelope.csv")[:, 0]
            c = float(np.mean(x))
            fitted = load("fit/fit.json")["params"]
            truth = checks.unit_mean_params(RICIAN[0], RICIAN[1], c)
            problems += checks.mle_not_worse("cli rician fit",
                                             checks.loglik(RICIAN[0], fitted, x / c),
                                             checks.loglik(RICIAN[0], truth, x / c),
                                             tol=1e-6 * x.size)
        if {"swift_sim", "replay"} <= ok:
            problems += checks.identical("swift sim", (d / "swift/swift.csv").read_bytes(),
                                         (d / "replay/swift.csv").read_bytes())
        return problems

    def _design(self, clean: np.ndarray) -> np.ndarray:
        """Columns [g(d), 10*log10(d/d_break)] of the dual-slope CI-MTR model,
        read off the noiseless sweep made with n1 = 2 and n2 = 4.
        """
        d, pl = clean[:, 0], clean[:, 1]
        d_break = break_distance(CLI_GEOMETRY)
        x2 = np.where(d > d_break, 10.0 * np.log10(d / d_break), 0.0)
        g = (pl - 4.0 * x2) / 2.0
        return np.column_stack([g, x2])[np.isfinite(pl)]

    def stages(self, rounds: list[Round]) -> dict[str, float]:
        keys = ("pathloss_points_per_s", "pathloss_fit_s", "sounder_s", "lemma_trials_per_s")
        return {key: _median(rounds, key) for key in keys}

    def check(self) -> list[str]:
        return list(dict.fromkeys(self.problems))


WORKLOADS = {"swift_ensemble": SwiftEnsemble, "envelope_fit": EnvelopeFit,
             "cli_pipeline": CliPipeline}
