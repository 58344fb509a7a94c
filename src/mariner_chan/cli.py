"""Batch command-line front end.

Every run resolves its configuration (JSON config file plus flag overrides),
executes one analysis, writes plot-ready CSV/JSON outputs into the output
directory, and records a ``manifest.json`` with the resolved configuration,
seed, config hash, and toolkit version.  ``mariner-chan replay manifest.json``
re-executes a recorded run and reproduces byte-identical outputs.

``_COMMANDS`` is the one place a command is defined; the argument parser,
the configuration resolution and replay's manifest check are built from it.
Exit codes: 0 success; 2 invalid input (``ValidationError``, the library's
``ValueError`` checks, ``FileNotFoundError``); 1 any other failure.

CSV schemas (headers mandatory, full round-trip decimal precision):
  pathloss:  d_m,pl_db
  pdp:       delay_ns,power_linear
  envelope:  amplitude
  swift:     t_s,fading_db
Columns are read by header name, in any order; extra columns are ignored and
blank lines skipped.  A row that lacks a requested column, or a value that is
not a number, exits 2.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .geometry import LinkGeometry, break_distance, thresholds
from .pathloss import (
    CiParams,
    DualSlopeParams,
    SeaStateParams,
    ci_path_loss,
    dual_ci_mtr_path_loss,
    dual_ci_path_loss,
    fspl,
    mtr_path_loss,
    two_ray_simplified,
)
from .plfit import fit_ci, fit_dual_ci, fit_dual_ci_mtr
from .seastate import WaveSpectrumConfig
from .smallscale import (
    FAMILIES,
    EnvelopeSamples,
    FadingModel,
    fit_mle,
    ks_statistic,
    pdf_rmse,
    sample as sample_fading,
)
from .sounder import Cir, ZcConfig, extract_cir, load_iq, pdp_from_cir, save_iq, simulate_link
from .sparsity import PdpRecord, metrics, split_lemma_batch
from .sparsity import gini, split_equal, split_random  # noqa: F401  names the benchmark tracer wraps
from .swift import AntennaPattern, MotionConfig, decompose_scales, empirical_pdf, simulate_swift
from .temporal import delay_stats, fit_exp_pdp, synth_exp_pdp


class ValidationError(Exception):
    """Bad user input (exit code 2)."""


def worker_count() -> int:
    """Worker cap from MARINER_CHAN_THREADS (default: CPU count)."""
    env = os.environ.get("MARINER_CHAN_THREADS")
    if env is None:
        return os.cpu_count() or 1
    try:
        n = int(env)
    except ValueError as exc:
        raise ValidationError(f"MARINER_CHAN_THREADS must be an integer, got {env!r}") from exc
    return max(1, n)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _write_csv(path: Path, columns: dict[str, np.ndarray]) -> None:
    """One column per ``{header: array}`` entry, each float as its shortest round-trip repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*(c.tolist() for c in columns.values())))


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_csv_columns(path: str, columns: list[str]) -> list[np.ndarray]:
    """The named columns of a CSV file, as float arrays in the order asked for."""
    with open(path) as fh:
        header = next(csv.reader([fh.readline()]))
        missing = [c for c in columns if c not in header]
        if missing:
            raise ValidationError(f"{path}: missing CSV columns {missing}")
        lines = fh.read().splitlines()
    if not any(lines):
        raise ValidationError(f"{path}: no data rows")
    try:
        table = np.loadtxt(lines, delimiter=",", quotechar='"', comments=None,
                           ndmin=2, usecols=[header.index(c) for c in columns])
    except ValueError as exc:  # a non-numeric value, or a row without a requested column
        raise ValidationError(f"{path}: non-numeric or missing CSV value ({exc})") from exc
    return list(table.T)


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} {path} is not a JSON object")
    return obj


_GEOMETRY_DEFAULTS = {"f_c": 5.8e9, "h_t": 25.0, "h_r": 4.0, "d": 3000.0,
                      "r_e": 6_371_000.0, "k_eff": 1.0}
_SEA_DEFAULTS = {"v_w": 7.7, "gamma_refl_real": -1.0, "gamma_refl_imag": 0.0,
                 "n_harmonics": 5, "omega_lo": None, "omega_hi": None}
_MOTION_DEFAULTS = {"amp_roll_deg": 5.0, "amp_pitch_deg": 5.0, "amp_yaw_deg": 2.0,
                    "rate_roll": 1.1, "rate_pitch": 1.1, "rate_yaw": 0.6}

# config block: (defaults, the keys a float flag of the same name overrides)
_BLOCKS = {
    "geometry": (_GEOMETRY_DEFAULTS, tuple(_GEOMETRY_DEFAULTS)),
    "sea": (_SEA_DEFAULTS, ("v_w",)),
    "motion": (_MOTION_DEFAULTS, ()),
}


def _resolve_block(config: dict, block: str, args) -> dict:
    defaults, flag_keys = _BLOCKS[block]
    resolved = dict(defaults)
    resolved.update(config.get(block, {}))
    resolved.update({k: getattr(args, k) for k in flag_keys if getattr(args, k) is not None})
    unknown = set(resolved) - set(defaults)
    if unknown:
        raise ValidationError(f"unknown keys in config block {block!r}: {sorted(unknown)}")
    return resolved


def _geometry_from(resolved: dict) -> LinkGeometry:
    try:
        return LinkGeometry(**resolved)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"invalid geometry: {exc}") from exc


def _sea_from(resolved: dict) -> SeaStateParams:
    try:
        return SeaStateParams(
            v_w=resolved["v_w"],
            gamma_refl=complex(resolved["gamma_refl_real"], resolved["gamma_refl_imag"]))
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"invalid sea state: {exc}") from exc


def _fading_model(family: str, params: dict) -> FadingModel:
    if family not in FAMILIES:
        raise ValidationError(f"unknown fading family {family!r}")
    try:
        return FAMILIES[family][0](**params)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"invalid {family} parameters {params}: {exc}") from exc


def _parse_params(text: str) -> dict:
    try:
        params = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"--params must be a JSON object: {exc}") from exc
    if not isinstance(params, dict):
        raise ValidationError("--params must be a JSON object")
    return params


def _write_manifest(outdir: Path, command: str, resolved: dict) -> None:
    payload = json.dumps({"command": command, "config": resolved}, sort_keys=True)
    manifest = {
        "command": command,
        "config": resolved,
        "config_sha256": hashlib.sha256(payload.encode()).hexdigest(),
        "seed": resolved.get("seed"),
        "version": __version__,
    }
    _write_json(outdir / "manifest.json", manifest)


def _outdir(resolved: dict) -> Path:
    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# command implementations (dispatch on resolved config for replayability)
# ---------------------------------------------------------------------------

def _run_geometry(resolved: dict) -> None:
    geom = _geometry_from(resolved["geometry"])
    th = thresholds(geom)
    out = _outdir(resolved)
    _write_json(out / "thresholds.json", {
        "d_break_m": th.d_break, "d_06f_m": th.d_06f, "d_los_vision_m": th.d_los_vision,
    })


_PL_MODELS = ("fspl", "two-ray", "mtr", "ci", "dual-ci", "dual-ci-mtr")


def _pl_evaluator(resolved: dict):
    model = resolved["model"]
    geom = _geometry_from(resolved["geometry"])
    sea = _sea_from(resolved["sea"])
    p = resolved["params"]
    d_break = p.get("d_break") or break_distance(geom)
    if model == "fspl":
        return lambda d: fspl(geom.f_c, d)
    if model == "two-ray":
        return lambda d: two_ray_simplified(geom, d)
    if model == "mtr":
        return lambda d: mtr_path_loss(geom, sea, d=d)
    if model == "ci":
        ci = CiParams(n=p.get("n", 2.0), d0=p.get("d0", 1.0))
        return lambda d: ci_path_loss(ci, geom.f_c, d)
    if model == "dual-ci":
        ds = DualSlopeParams(n1=p.get("n1", 2.0), n2=p.get("n2", 4.0), d_break=d_break)
        return lambda d: dual_ci_path_loss(ds, geom.f_c, d, d0=p.get("d0", 1.0))
    if model == "dual-ci-mtr":
        ds = DualSlopeParams(n1=p.get("n1", 2.0), n2=p.get("n2", 4.0), d_break=d_break)
        return lambda d: dual_ci_mtr_path_loss(ds, geom, sea, d)
    raise ValidationError(f"unknown path loss model {model!r}; expected one of {_PL_MODELS}")


def _run_pathloss_eval(resolved: dict) -> None:
    evaluate = _pl_evaluator(resolved)
    dmin, dmax, step = resolved["dmin"], resolved["dmax"], resolved["step"]
    if dmin <= 0 or dmax < dmin or step <= 0:
        raise ValidationError(f"bad sweep range ({dmin}, {dmax}, {step})")
    distances = np.arange(dmin, dmax + 0.5 * step, step)
    pl = evaluate(distances)
    out = _outdir(resolved)
    _write_csv(out / "pathloss.csv", {"d_m": distances, "pl_db": pl})


def _run_pathloss_fit(resolved: dict) -> None:
    d, pl = _read_csv_columns(resolved["input"], ["d_m", "pl_db"])
    geom = _geometry_from(resolved["geometry"])
    sea = _sea_from(resolved["sea"])
    model, d0 = resolved["model"], resolved["d0"]
    if model == "ci":
        report = fit_ci(d, pl, geom.f_c, d0)
        params = {"n": report.params.n, "d0": report.params.d0}
    elif model in ("dual-ci", "dual-ci-mtr"):
        report = (fit_dual_ci(d, pl, geom.f_c, break_distance(geom), d0) if model == "dual-ci"
                  else fit_dual_ci_mtr(d, pl, geom, sea))
        params = {"n1": report.params.n1, "n2": report.params.n2,
                  "d_break_m": report.params.d_break}
    else:
        raise ValidationError(f"model {model!r} is not fittable; use ci, dual-ci, dual-ci-mtr")
    out = _outdir(resolved)
    _write_json(out / "fit.json", {
        "model": model, "params": params, "rmse_db": report.rmse_db,
        "n_samples": report.n_samples, "warnings": report.warnings,
    })


def _run_swift_sim(resolved: dict) -> None:
    geom = _geometry_from(resolved["geometry"])
    sea_block = resolved["sea"]
    sea = _sea_from(sea_block)
    seed = resolved["seed"]
    mo = resolved["motion"]
    sea_cfg = WaveSpectrumConfig(
        v_w=sea_block["v_w"], n_harmonics=sea_block["n_harmonics"],
        omega_lo=sea_block["omega_lo"], omega_hi=sea_block["omega_hi"], seed=seed)
    motion = MotionConfig.with_random_phases(
        math.radians(mo["amp_roll_deg"]), math.radians(mo["amp_pitch_deg"]),
        math.radians(mo["amp_yaw_deg"]),
        mo["rate_roll"], mo["rate_pitch"], mo["rate_yaw"], seed=seed)
    series = simulate_swift(geom, sea_cfg, motion, AntennaPattern(),
                            duration=resolved["duration"], dt=resolved["dt"],
                            seed=seed, sea=sea)
    out = _outdir(resolved)
    _write_csv(out / "swift.csv", {"t_s": series.t, "fading_db": series.fading_db})


def _run_swift_pdf(resolved: dict) -> None:
    (fading,) = _read_csv_columns(resolved["input"], ["fading_db"])
    centers, density = empirical_pdf(fading, resolved["bin_width"])
    out = _outdir(resolved)
    _write_csv(out / "swift_pdf.csv", {"bin_center_db": centers, "density": density})


def _run_smallscale_fit(resolved: dict) -> None:
    (amps,) = _read_csv_columns(resolved["input"], ["amplitude"])
    report = fit_mle(resolved["family"], EnvelopeSamples(amps))
    out = _outdir(resolved)
    _write_json(out / "fit.json", report.to_dict())


def _run_smallscale_sample(resolved: dict) -> None:
    model = _fading_model(resolved["family"], resolved["params"])
    draws = sample_fading(model, resolved["n"], resolved["seed"])
    out = _outdir(resolved)
    _write_csv(out / "envelope.csv", {"amplitude": draws})


def _run_smallscale_gof(resolved: dict) -> None:
    model = _fading_model(resolved["family"], resolved["params"])
    (amps,) = _read_csv_columns(resolved["input"], ["amplitude"])
    data = EnvelopeSamples(amps)
    out = _outdir(resolved)
    _write_json(out / "gof.json", {
        "family": resolved["family"], "params": resolved["params"],
        "ks": ks_statistic(data, model),
        "pdf_rmse": pdf_rmse(data, model, bins=resolved["bins"]),
    })


def _read_pdp(path: str) -> PdpRecord:
    delay_ns, power = _read_csv_columns(path, ["delay_ns", "power_linear"])
    return PdpRecord(delays=delay_ns * 1e-9, powers=power)


def _run_sparsity(resolved: dict) -> None:
    pdp = _read_pdp(resolved["input"])
    m = metrics(pdp)
    out = _outdir(resolved)
    _write_json(out / "sparsity.json", {
        "gini": m.gini,
        "k_factor_db": None if math.isinf(m.k_factor_db) else m.k_factor_db,
        "n_mpc": m.n_mpc,
    })


def _run_lemma_check(resolved: dict) -> None:
    n_trials, seed = resolved["n_trials"], resolved["seed"]
    max_n, max_m = resolved["max_n"], resolved["max_m"]
    if n_trials < 1 or max_n < 2 or max_m < 1:
        raise ValidationError("lemma-check needs n_trials >= 1, max_n >= 2 and max_m >= 1, "
                              f"got {n_trials}, {max_n} and {max_m}")
    # validates MARINER_CHAN_THREADS; the batch runs in this thread, within any cap
    worker_count()
    rng = np.random.default_rng(seed)
    # drawn trial by trial, interleaved, so each seed keeps its trials
    trials = [(rng.integers(2, max_n + 1), rng.integers(1, max_m + 1),
               rng.exponential(1.0, size=max_n), rng.integers(0, 2**63))
              for _ in range(n_trials)]
    gaps, violations = split_lemma_batch(*map(np.array, zip(*trials)))
    out = _outdir(resolved)
    _write_json(out / "lemma_check.json", {
        "n_trials": n_trials,
        "max_equal_split_gap": float(gaps.max()),
        "random_split_violations": int(violations.sum()),
    })


def _run_temporal(resolved: dict) -> None:
    pdp = _read_pdp(resolved["input"])
    stats = delay_stats(pdp)
    result = {
        "mean_excess_delay_ns": stats.mean_excess_delay * 1e9,
        "rms_delay_spread_ns": stats.rms_delay_spread * 1e9,
    }
    if pdp.n_mpc >= 2:
        fit = fit_exp_pdp(pdp)
        result["exp_fit"] = {
            "p0_bar": fit.p0_bar,
            "gamma_ns": None if math.isinf(fit.gamma) else fit.gamma * 1e9,
            "r2": fit.r2,
            "decaying": fit.decaying,
        }
    out = _outdir(resolved)
    _write_json(out / "temporal.json", result)


def _run_sounder_sim(resolved: dict) -> None:
    delta_tau = resolved["delta_tau_ns"] * 1e-9
    cfg = ZcConfig(length=resolved["length"], root=resolved["root"])
    pdp = synth_exp_pdp(gamma=resolved["gamma_ns"] * 1e-9, delta_tau=delta_tau,
                        n_taps=resolved["n_taps"])
    rng = np.random.default_rng(resolved["seed"])
    phases = rng.uniform(0.0, 2.0 * math.pi, size=pdp.n_mpc)
    taps = np.sqrt(pdp.powers) * np.exp(1j * phases)
    rx = simulate_link(Cir(taps=taps, delta_tau=delta_tau), cfg,
                       snr_db=resolved["snr_db"], seed=resolved["seed"] + 1)
    out = _outdir(resolved)
    save_iq(out / "rx.iq", rx)
    _write_csv(out / "true_pdp.csv", {"delay_ns": pdp.delays * 1e9, "power_linear": pdp.powers})


def _run_sounder_extract(resolved: dict) -> None:
    cfg = ZcConfig(length=resolved["length"], root=resolved["root"])
    rx = load_iq(resolved["input"])
    cir = extract_cir(rx, cfg, delta_tau=resolved["delta_tau_ns"] * 1e-9)
    pdp = pdp_from_cir(cir, max_taps=resolved["max_taps"])
    out = _outdir(resolved)
    _write_csv(out / "pdp.csv", {"delay_ns": pdp.delays * 1e9, "power_linear": pdp.powers})


def _run_decompose(resolved: dict) -> None:
    group_ids, amps = _read_csv_columns(resolved["input"], ["group", "amplitude"])
    ids = np.unique(group_ids)
    swift_db, small = decompose_scales([amps[group_ids == gid] for gid in ids])
    out = _outdir(resolved)
    _write_csv(out / "swift_deviations.csv", {"group": ids.astype(int), "fading_db": swift_db})
    _write_csv(out / "smallscale.csv", {"amplitude": np.concatenate(small)})


# ---------------------------------------------------------------------------
# the command table
# ---------------------------------------------------------------------------

def _dest(flag: tuple[str, dict]) -> str:
    """The config key a flag sets: its argparse dest."""
    option, kwargs = flag
    return kwargs.get("dest", option.lstrip("-").replace("-", "_"))


@dataclass(frozen=True)
class _Command:
    """A command; ``flags`` are (option, argparse keywords) pairs, and
    ``fit_key`` is the config key read from the config file's ``fit`` block."""

    words: tuple[str, ...]
    handler: Callable[[dict], None]
    help: str
    flags: tuple[tuple[str, dict], ...] = ()
    blocks: tuple[str, ...] = ()
    seed: bool = False
    fit_key: str | None = None

    def keys(self) -> set[str]:
        """The top-level keys of the command's resolved config."""
        keys = {*self.blocks, *map(_dest, self.flags), "out", self.fit_key} - {None}
        return keys | {"seed"} if self.seed else keys


def _input(help: str) -> tuple[str, dict]:
    return ("--input", {"required": True, "help": help})


def _opt(option: str, type: type, default=None) -> tuple[str, dict]:
    return (option, {"type": type, "default": default})


_FAMILY = ("--family", {"required": True, "choices": sorted(FAMILIES)})
_PARAMS = ("--params", {"required": True, "help": "JSON object of family parameters"})
_ENVELOPE = _input("envelope CSV (amplitude)")
_ZC = (_opt("--length", int, 65535), _opt("--root", int, 1), _opt("--delta-tau-ns", float, 50.0))
_PDP = {"dest": "input", "metavar": "PDP", "help": "PDP CSV (delay_ns,power_linear)"}

_COMMANDS = {
    "geometry": _Command(("geometry",), _run_geometry, "threshold distances for a link",
                         blocks=("geometry",)),
    "pathloss-eval": _Command(
        ("pathloss", "eval"), _run_pathloss_eval, "sweep a model over distance, emit CSV",
        (("--model", {"required": True, "choices": _PL_MODELS}),
         *((f"--{k}", {"type": float, "required": True}) for k in ("dmin", "dmax", "step"))),
        blocks=("geometry", "sea"), fit_key="params"),
    "pathloss-fit": _Command(
        ("pathloss", "fit"), _run_pathloss_fit, "fit PLEs to measured samples",
        (("--model", {"required": True, "choices": ["ci", "dual-ci", "dual-ci-mtr"]}),
         _input("pathloss CSV (d_m,pl_db)")),
        blocks=("geometry", "sea"), fit_key="d0"),
    "swift-sim": _Command(("swift", "sim"), _run_swift_sim, "simulate a fading series",
                          (_opt("--duration", float, 93.0), _opt("--dt", float, 0.1)),
                          blocks=("geometry", "sea", "motion"), seed=True),
    "swift-pdf": _Command(("swift", "pdf"), _run_swift_pdf, "histogram PDF of a fading series",
                          (_input("swift CSV (t_s,fading_db)"), _opt("--bin-width", float, 0.25))),
    "smallscale-fit": _Command(("smallscale", "fit"), _run_smallscale_fit,
                               "MLE fit of one family to envelope samples", (_FAMILY, _ENVELOPE)),
    "smallscale-sample": _Command(("smallscale", "sample"), _run_smallscale_sample,
                                  "draw samples from a parameterized family",
                                  (_FAMILY, _PARAMS, _opt("-n", int, 10000)), seed=True),
    "smallscale-gof": _Command(("smallscale", "gof"), _run_smallscale_gof,
                               "goodness of fit of a parameterized family",
                               (_FAMILY, _PARAMS, _ENVELOPE, _opt("--bins", int, 50))),
    "sparsity": _Command(("sparsity",), _run_sparsity, "sparsity metrics of a PDP",
                         (("--pdp", _PDP),)),
    "sparsity-lemma-check": _Command(
        ("sparsity", "lemma-check"), _run_lemma_check, "randomized split-invariance checks",
        (_opt("--n-trials", int, 10000), _opt("--max-n", int, 50), _opt("--max-m", int, 8)),
        seed=True),
    "temporal": _Command(("temporal",), _run_temporal, "delay spread and exponential PDP fit",
                         (("--pdp", {**_PDP, "required": True}),)),
    "sounder-sim": _Command(
        ("sounder", "sim"), _run_sounder_sim, "simulate a sounding link, emit IQ + true PDP",
        (*_ZC, _opt("--snr-db", float, 30.0), _opt("--gamma-ns", float, 24.0),
         _opt("--n-taps", int, 5)), seed=True),
    "sounder-extract": _Command(
        ("sounder", "extract"), _run_sounder_extract, "extract CIR/PDP from recorded IQ",
        (_input("IQ file (MCIQ1)"), *_ZC, _opt("--max-taps", int))),
    "decompose": _Command(("decompose",), _run_decompose,
                          "split grouped amplitudes into fading scales",
                          (_input("CSV with columns group,amplitude"),)),
}

# help for the words that only group commands
_GROUP_HELP = {"pathloss": "path loss model sweeps and fits", "swift": "SWIFT fading simulation",
               "smallscale": "fading distribution fitting and sampling",
               "sounder": "Zadoff-Chu sounding simulation"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mariner-chan",
                                     description="Maritime channel modeling toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    parsers, subparsers = {(): parser}, {}
    command_words = {cmd.words for cmd in _COMMANDS.values()}

    def add_parser(words: tuple[str, ...], help: str) -> argparse.ArgumentParser:
        parent = words[:-1]
        if parent not in parsers:
            add_parser(parent, _GROUP_HELP[parent[0]])
        if parent not in subparsers:
            # a group needs a subcommand; a command that has subcommands runs without one
            subparsers[parent] = parsers[parent].add_subparsers(
                dest="subcmd" if parent else "cmd", required=parent not in command_words)
        parsers[words] = subparsers[parent].add_parser(words[-1], help=help)
        return parsers[words]

    for name, cmd in _COMMANDS.items():
        p = add_parser(cmd.words, cmd.help)
        p.set_defaults(command=name)
        # no default: a subcommand's would overwrite its parent's (sparsity --out X lemma-check)
        p.add_argument("--config", default=argparse.SUPPRESS,
                       help="JSON config file; flags override file values")
        p.add_argument("--out", default=argparse.SUPPRESS, help="output directory")
        if cmd.seed:
            p.add_argument("--seed", type=int, help="random seed")
        for block in cmd.blocks:
            for key in _BLOCKS[block][1]:
                p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=float)
        for option, kwargs in cmd.flags:
            p.add_argument(option, **kwargs)

    p = add_parser(("replay",), "re-execute a recorded run")
    p.add_argument("manifest", help="manifest.json from a previous run")
    p.add_argument("--out", default=None, help="override output directory")
    return parser


def _resolve(args) -> tuple[str, dict]:
    cmd = _COMMANDS[args.command]
    config = _load_json(args.config, "config file") if "config" in args else {}
    resolved = {block: _resolve_block(config, block, args) for block in cmd.blocks}
    resolved.update({_dest(flag): getattr(args, _dest(flag)) for flag in cmd.flags})
    if cmd.seed:
        resolved["seed"] = config.get("seed", 0) if args.seed is None else args.seed
    resolved["out"] = getattr(args, "out", None) or config.get("out", "out")
    # pathloss eval takes its model parameters, and pathloss fit its d0, from the fit block
    if cmd.fit_key:
        fit = config.get("fit", {})
        resolved[cmd.fit_key] = fit if cmd.fit_key == "params" else fit.get("d0", 1.0)
    if _PARAMS in cmd.flags:
        resolved["params"] = _parse_params(resolved["params"])
    if args.command == "sparsity" and resolved["input"] is None:
        raise ValidationError("sparsity requires --pdp (or the lemma-check subcommand)")
    return args.command, resolved


def _execute(command: str, resolved: dict) -> None:
    _COMMANDS[command].handler(resolved)
    _write_manifest(_outdir(resolved), command, resolved)


def _run_replay(manifest_path: str, out_override: str | None) -> None:
    manifest = _load_json(manifest_path, "manifest")
    command = manifest.get("command")
    resolved = manifest.get("config")
    if (command not in _COMMANDS or not isinstance(resolved, dict)
            or set(resolved) != _COMMANDS[command].keys()):
        raise ValidationError(f"manifest {manifest_path} is not a valid run record")
    for block in _COMMANDS[command].blocks:
        keys = set(resolved[block]) if isinstance(resolved[block], dict) else set()
        expected = set(_BLOCKS[block][0])
        if keys != expected:
            raise ValidationError(
                f"manifest {manifest_path}: config block {block!r} lacks keys "
                f"{sorted(expected - keys)} and has unknown keys {sorted(keys - expected)}")
    if out_override is not None:
        resolved = dict(resolved, out=out_override)
    _execute(command, resolved)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.cmd == "replay":
            _run_replay(args.manifest, args.out)
        else:
            _execute(*_resolve(args))
    except (ValidationError, ValueError, FileNotFoundError) as exc:  # invalid input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure, such as a solver's RuntimeError
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
