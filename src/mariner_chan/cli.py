"""Batch command-line front end.

Every run resolves its configuration (JSON config file plus flag overrides),
executes one analysis, writes plot-ready CSV/JSON outputs into the output
directory, and records a ``manifest.json`` with the resolved configuration,
seed, config hash, and toolkit version.  ``mariner-chan replay manifest.json``
re-executes a recorded run and reproduces byte-identical outputs.

CSV schemas (headers mandatory, full round-trip decimal precision):
  pathloss:  d_m,pl_db
  pdp:       delay_ns,power_linear
  envelope:  amplitude
  swift:     t_s,fading_db
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from pathlib import Path

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
from .plfit import PathLossSample, fit_ci, fit_dual_ci, fit_dual_ci_mtr
from .seastate import WaveSpectrumConfig
from .smallscale import (
    AsymLaplace,
    EnvelopeSamples,
    FadingModel,
    Laplace,
    Lognormal,
    Nakagami,
    Rician,
    Twdp,
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

def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_csv_columns(path: str, columns: list[str]) -> list[np.ndarray]:
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in columns if c not in (reader.fieldnames or [])]
            if missing:
                raise ValidationError(f"{path}: missing CSV columns {missing}")
            rows = [[float(r[c]) for c in columns] for r in reader]
    except FileNotFoundError as exc:
        raise ValidationError(f"input file not found: {path}") from exc
    except ValueError as exc:
        raise ValidationError(f"{path}: non-numeric CSV value ({exc})") from exc
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    arr = np.array(rows, dtype=float)
    return [arr[:, i] for i in range(len(columns))]


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ValidationError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file {path} is not valid JSON: {exc}") from exc


_GEOMETRY_DEFAULTS = {"f_c": 5.8e9, "h_t": 25.0, "h_r": 4.0, "d": 3000.0,
                      "r_e": 6_371_000.0, "k_eff": 1.0}
_SEA_DEFAULTS = {"v_w": 7.7, "gamma_refl_real": -1.0, "gamma_refl_imag": 0.0,
                 "n_harmonics": 5, "omega_lo": None, "omega_hi": None}
_MOTION_DEFAULTS = {"amp_roll_deg": 5.0, "amp_pitch_deg": 5.0, "amp_yaw_deg": 2.0,
                    "rate_roll": 1.1, "rate_pitch": 1.1, "rate_yaw": 0.6}


def _resolve_block(config: dict, block: str, defaults: dict, overrides: dict) -> dict:
    resolved = dict(defaults)
    resolved.update(config.get(block, {}))
    resolved.update({k: v for k, v in overrides.items() if v is not None})
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


_FAMILY_CLASSES: dict[str, type] = {
    "rician": Rician, "twdp": Twdp, "nakagami": Nakagami,
    "lognormal": Lognormal, "laplace": Laplace, "asym-laplace": AsymLaplace,
}


def _fading_model(family: str, params: dict) -> FadingModel:
    cls = _FAMILY_CLASSES.get(family)
    if cls is None:
        raise ValidationError(f"unknown fading family {family!r}")
    try:
        return cls(**params)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"invalid {family} parameters {params}: {exc}") from exc


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
    p = resolved.get("params", {})
    d_break = p.get("d_break") or break_distance(geom)
    if model == "fspl":
        return lambda d: fspl(geom.f_c, d)
    if model == "two-ray":
        return lambda d: two_ray_simplified(geom.at_distance(d))
    if model == "mtr":
        return lambda d: mtr_path_loss(geom.at_distance(d), sea)
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
    rows = [(float(d), float(evaluate(float(d)))) for d in distances]
    out = _outdir(resolved)
    _write_csv(out / "pathloss.csv", ["d_m", "pl_db"], rows)


def _run_pathloss_fit(resolved: dict) -> None:
    d, pl = _read_csv_columns(resolved["input"], ["d_m", "pl_db"])
    geom = _geometry_from(resolved["geometry"])
    sea = _sea_from(resolved["sea"])
    model = resolved["model"]
    d0 = resolved.get("d0", 1.0)
    try:
        samples = [PathLossSample(di, pli) for di, pli in zip(d, pl)]
        if model == "ci":
            report = fit_ci(samples, geom.f_c, d0)
            params = {"n": report.params.n, "d0": report.params.d0}
        elif model == "dual-ci":
            report = fit_dual_ci(samples, geom.f_c, break_distance(geom), d0)
            params = {"n1": report.params.n1, "n2": report.params.n2,
                      "d_break_m": report.params.d_break}
        elif model == "dual-ci-mtr":
            report = fit_dual_ci_mtr(samples, geom, sea)
            params = {"n1": report.params.n1, "n2": report.params.n2,
                      "d_break_m": report.params.d_break}
        else:
            raise ValidationError(f"model {model!r} is not fittable; use ci, dual-ci, dual-ci-mtr")
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
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
    try:
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
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    out = _outdir(resolved)
    _write_csv(out / "swift.csv", ["t_s", "fading_db"],
               zip(series.t.tolist(), series.fading_db.tolist()))


def _run_swift_pdf(resolved: dict) -> None:
    (fading,) = _read_csv_columns(resolved["input"], ["fading_db"])
    centers, density = empirical_pdf(fading, resolved["bin_width"])
    out = _outdir(resolved)
    _write_csv(out / "swift_pdf.csv", ["bin_center_db", "density"],
               zip(centers.tolist(), density.tolist()))


def _run_smallscale_fit(resolved: dict) -> None:
    (amps,) = _read_csv_columns(resolved["input"], ["amplitude"])
    try:
        data = EnvelopeSamples(amps)
        report = fit_mle(resolved["family"], data)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    out = _outdir(resolved)
    _write_json(out / "fit.json", report.to_dict())


def _run_smallscale_sample(resolved: dict) -> None:
    model = _fading_model(resolved["family"], resolved["params"])
    try:
        draws = sample_fading(model, resolved["n"], resolved["seed"])
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    out = _outdir(resolved)
    _write_csv(out / "envelope.csv", ["amplitude"], ((float(v),) for v in draws))


def _run_smallscale_gof(resolved: dict) -> None:
    model = _fading_model(resolved["family"], resolved["params"])
    (amps,) = _read_csv_columns(resolved["input"], ["amplitude"])
    try:
        data = EnvelopeSamples(amps)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    out = _outdir(resolved)
    _write_json(out / "gof.json", {
        "family": resolved["family"], "params": resolved["params"],
        "ks": ks_statistic(data, model),
        "pdf_rmse": pdf_rmse(data, model, bins=resolved.get("bins", 50)),
    })


def _read_pdp(path: str) -> PdpRecord:
    delay_ns, power = _read_csv_columns(path, ["delay_ns", "power_linear"])
    try:
        return PdpRecord(delays=delay_ns * 1e-9, powers=power)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


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
    max_n, max_m = resolved.get("max_n", 50), resolved.get("max_m", 8)
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
    try:
        cfg = ZcConfig(length=resolved["length"], root=resolved["root"])
        pdp = synth_exp_pdp(gamma=resolved["gamma_ns"] * 1e-9, delta_tau=delta_tau,
                            n_taps=resolved["n_taps"])
        rng = np.random.default_rng(resolved["seed"])
        phases = rng.uniform(0.0, 2.0 * math.pi, size=pdp.n_mpc)
        taps = np.sqrt(pdp.powers) * np.exp(1j * phases)
        rx = simulate_link(Cir(taps=taps, delta_tau=delta_tau), cfg,
                           snr_db=resolved["snr_db"], seed=resolved["seed"] + 1)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    out = _outdir(resolved)
    save_iq(out / "rx.iq", rx)
    _write_csv(out / "true_pdp.csv", ["delay_ns", "power_linear"],
               zip((pdp.delays * 1e9).tolist(), pdp.powers.tolist()))


def _run_sounder_extract(resolved: dict) -> None:
    try:
        cfg = ZcConfig(length=resolved["length"], root=resolved["root"])
        rx = load_iq(resolved["input"])
        cir = extract_cir(rx, cfg, delta_tau=resolved["delta_tau_ns"] * 1e-9)
    except (ValueError, FileNotFoundError) as exc:
        raise ValidationError(str(exc)) from exc
    pdp = pdp_from_cir(cir, max_taps=resolved.get("max_taps"))
    out = _outdir(resolved)
    _write_csv(out / "pdp.csv", ["delay_ns", "power_linear"],
               zip((pdp.delays * 1e9).tolist(), pdp.powers.tolist()))


def _run_decompose(resolved: dict) -> None:
    group_ids, amps = _read_csv_columns(resolved["input"], ["group", "amplitude"])
    groups = []
    for gid in np.unique(group_ids):
        groups.append(amps[group_ids == gid])
    try:
        swift_db, small = decompose_scales(groups)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    out = _outdir(resolved)
    _write_csv(out / "swift_deviations.csv", ["group", "fading_db"],
               zip([int(g) for g in np.unique(group_ids)], swift_db.tolist()))
    flat = np.concatenate(small)
    _write_csv(out / "smallscale.csv", ["amplitude"], ((float(v),) for v in flat))


_HANDLERS = {
    "geometry": _run_geometry,
    "pathloss-eval": _run_pathloss_eval,
    "pathloss-fit": _run_pathloss_fit,
    "swift-sim": _run_swift_sim,
    "swift-pdf": _run_swift_pdf,
    "smallscale-fit": _run_smallscale_fit,
    "smallscale-sample": _run_smallscale_sample,
    "smallscale-gof": _run_smallscale_gof,
    "sparsity": _run_sparsity,
    "sparsity-lemma-check": _run_lemma_check,
    "temporal": _run_temporal,
    "sounder-sim": _run_sounder_sim,
    "sounder-extract": _run_sounder_extract,
    "decompose": _run_decompose,
}


def _execute(command: str, resolved: dict) -> None:
    _HANDLERS[command](resolved)
    _write_manifest(_outdir(resolved), command, resolved)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, seed_default: int | None = 0) -> None:
    p.add_argument("--config", help="JSON config file; flags override file values")
    p.add_argument("--out", default="out", help="output directory")
    if seed_default is not None:
        p.add_argument("--seed", type=int, default=None, help="random seed")


def _geometry_overrides(args) -> dict:
    return {k: getattr(args, k, None) for k in _GEOMETRY_DEFAULTS}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mariner-chan",
                                     description="Maritime channel modeling toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def geometry_flags(p):
        for key in _GEOMETRY_DEFAULTS:
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=float, default=None)

    p = sub.add_parser("geometry", help="threshold distances for a link")
    _add_common(p, seed_default=None)
    geometry_flags(p)

    p = sub.add_parser("pathloss", help="path loss model sweeps and fits")
    pl_sub = p.add_subparsers(dest="subcmd", required=True)
    pe = pl_sub.add_parser("eval", help="sweep a model over distance, emit CSV")
    _add_common(pe, seed_default=None)
    geometry_flags(pe)
    pe.add_argument("--model", required=True, choices=_PL_MODELS)
    pe.add_argument("--dmin", type=float, required=True)
    pe.add_argument("--dmax", type=float, required=True)
    pe.add_argument("--step", type=float, required=True)
    pe.add_argument("--v-w", dest="v_w", type=float, default=None)
    pf = pl_sub.add_parser("fit", help="fit PLEs to measured samples")
    _add_common(pf, seed_default=None)
    geometry_flags(pf)
    pf.add_argument("--model", required=True, choices=["ci", "dual-ci", "dual-ci-mtr"])
    pf.add_argument("--input", required=True, help="pathloss CSV (d_m,pl_db)")
    pf.add_argument("--v-w", dest="v_w", type=float, default=None)

    p = sub.add_parser("swift", help="SWIFT fading simulation")
    sw_sub = p.add_subparsers(dest="subcmd", required=True)
    ss = sw_sub.add_parser("sim", help="simulate a fading series")
    _add_common(ss)
    geometry_flags(ss)
    ss.add_argument("--v-w", dest="v_w", type=float, default=None)
    ss.add_argument("--duration", type=float, default=93.0)
    ss.add_argument("--dt", type=float, default=0.1)
    sp = sw_sub.add_parser("pdf", help="histogram PDF of a fading series")
    _add_common(sp, seed_default=None)
    sp.add_argument("--input", required=True, help="swift CSV (t_s,fading_db)")
    sp.add_argument("--bin-width", type=float, default=0.25)

    p = sub.add_parser("smallscale", help="fading distribution fitting and sampling")
    sm_sub = p.add_subparsers(dest="subcmd", required=True)
    sf = sm_sub.add_parser("fit", help="MLE fit of one family to envelope samples")
    _add_common(sf, seed_default=None)
    sf.add_argument("--family", required=True, choices=sorted(_FAMILY_CLASSES))
    sf.add_argument("--input", required=True, help="envelope CSV (amplitude)")
    ssm = sm_sub.add_parser("sample", help="draw samples from a parameterized family")
    _add_common(ssm)
    ssm.add_argument("--family", required=True, choices=sorted(_FAMILY_CLASSES))
    ssm.add_argument("--params", required=True, help="JSON object of family parameters")
    ssm.add_argument("-n", type=int, default=10000)
    sg = sm_sub.add_parser("gof", help="goodness of fit of a parameterized family")
    _add_common(sg, seed_default=None)
    sg.add_argument("--family", required=True, choices=sorted(_FAMILY_CLASSES))
    sg.add_argument("--params", required=True, help="JSON object of family parameters")
    sg.add_argument("--input", required=True, help="envelope CSV (amplitude)")
    sg.add_argument("--bins", type=int, default=50)

    p = sub.add_parser("sparsity", help="sparsity metrics of a PDP")
    sp_sub = p.add_subparsers(dest="subcmd")
    lc = sp_sub.add_parser("lemma-check", help="randomized split-invariance checks")
    _add_common(lc)
    lc.add_argument("--n-trials", type=int, default=10000)
    lc.add_argument("--max-n", type=int, default=50)
    lc.add_argument("--max-m", type=int, default=8)
    p.add_argument("--pdp", help="PDP CSV (delay_ns,power_linear)")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", default="out")

    p = sub.add_parser("temporal", help="delay spread and exponential PDP fit")
    _add_common(p, seed_default=None)
    p.add_argument("--pdp", required=True, help="PDP CSV (delay_ns,power_linear)")

    p = sub.add_parser("sounder", help="Zadoff-Chu sounding simulation")
    so_sub = p.add_subparsers(dest="subcmd", required=True)
    si = so_sub.add_parser("sim", help="simulate a sounding link, emit IQ + true PDP")
    _add_common(si)
    si.add_argument("--length", type=int, default=65535)
    si.add_argument("--root", type=int, default=1)
    si.add_argument("--snr-db", type=float, default=30.0)
    si.add_argument("--gamma-ns", type=float, default=24.0)
    si.add_argument("--n-taps", type=int, default=5)
    si.add_argument("--delta-tau-ns", type=float, default=50.0)
    se = so_sub.add_parser("extract", help="extract CIR/PDP from recorded IQ")
    _add_common(se, seed_default=None)
    se.add_argument("--input", required=True, help="IQ file (MCIQ1)")
    se.add_argument("--length", type=int, default=65535)
    se.add_argument("--root", type=int, default=1)
    se.add_argument("--delta-tau-ns", type=float, default=50.0)
    se.add_argument("--max-taps", type=int, default=None)

    p = sub.add_parser("decompose", help="split grouped amplitudes into fading scales")
    _add_common(p, seed_default=None)
    p.add_argument("--input", required=True, help="CSV with columns group,amplitude")

    p = sub.add_parser("replay", help="re-execute a recorded run")
    p.add_argument("manifest", help="manifest.json from a previous run")
    p.add_argument("--out", default=None, help="override output directory")

    return parser


def _resolve(args) -> tuple[str, dict]:
    config = _load_config(getattr(args, "config", None))
    cmd = args.cmd
    out = getattr(args, "out", None) or config.get("out", "out")
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = config.get("seed", 0)

    if cmd == "geometry":
        geom = _resolve_block(config, "geometry", _GEOMETRY_DEFAULTS, _geometry_overrides(args))
        return "geometry", {"geometry": geom, "out": out}

    if cmd == "pathloss":
        geom = _resolve_block(config, "geometry", _GEOMETRY_DEFAULTS, _geometry_overrides(args))
        sea = _resolve_block(config, "sea", _SEA_DEFAULTS, {"v_w": getattr(args, "v_w", None)})
        if args.subcmd == "eval":
            return "pathloss-eval", {
                "geometry": geom, "sea": sea, "model": args.model,
                "params": config.get("fit", {}),
                "dmin": args.dmin, "dmax": args.dmax, "step": args.step, "out": out,
            }
        return "pathloss-fit", {
            "geometry": geom, "sea": sea, "model": args.model,
            "input": args.input, "d0": config.get("fit", {}).get("d0", 1.0), "out": out,
        }

    if cmd == "swift":
        if args.subcmd == "sim":
            geom = _resolve_block(config, "geometry", _GEOMETRY_DEFAULTS,
                                  _geometry_overrides(args))
            sea = _resolve_block(config, "sea", _SEA_DEFAULTS,
                                 {"v_w": getattr(args, "v_w", None)})
            motion = _resolve_block(config, "motion", _MOTION_DEFAULTS, {})
            return "swift-sim", {
                "geometry": geom, "sea": sea, "motion": motion,
                "duration": args.duration, "dt": args.dt, "seed": seed, "out": out,
            }
        return "swift-pdf", {"input": args.input, "bin_width": args.bin_width, "out": out}

    if cmd == "smallscale":
        if args.subcmd == "fit":
            return "smallscale-fit", {"family": args.family, "input": args.input, "out": out}
        params = _parse_params(args.params)
        if args.subcmd == "sample":
            return "smallscale-sample", {"family": args.family, "params": params,
                                         "n": args.n, "seed": seed, "out": out}
        return "smallscale-gof", {"family": args.family, "params": params,
                                  "input": args.input, "bins": args.bins, "out": out}

    if cmd == "sparsity":
        if getattr(args, "subcmd", None) == "lemma-check":
            return "sparsity-lemma-check", {
                "n_trials": args.n_trials, "max_n": args.max_n, "max_m": args.max_m,
                "seed": seed, "out": out,
            }
        if not args.pdp:
            raise ValidationError("sparsity requires --pdp (or the lemma-check subcommand)")
        return "sparsity", {"input": args.pdp, "out": out}

    if cmd == "temporal":
        return "temporal", {"input": args.pdp, "out": out}

    if cmd == "sounder":
        if args.subcmd == "sim":
            return "sounder-sim", {
                "length": args.length, "root": args.root, "snr_db": args.snr_db,
                "gamma_ns": args.gamma_ns, "n_taps": args.n_taps,
                "delta_tau_ns": args.delta_tau_ns, "seed": seed, "out": out,
            }
        return "sounder-extract", {
            "input": args.input, "length": args.length, "root": args.root,
            "delta_tau_ns": args.delta_tau_ns, "max_taps": args.max_taps, "out": out,
        }

    if cmd == "decompose":
        return "decompose", {"input": args.input, "out": out}

    raise ValidationError(f"unknown command {cmd!r}")


def _parse_params(text: str) -> dict:
    try:
        params = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"--params must be a JSON object: {exc}") from exc
    if not isinstance(params, dict):
        raise ValidationError("--params must be a JSON object")
    return params


def _run_replay(manifest_path: str, out_override: str | None) -> None:
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read manifest {manifest_path}: {exc}") from exc
    command = manifest.get("command")
    resolved = manifest.get("config")
    if command not in _HANDLERS or not isinstance(resolved, dict):
        raise ValidationError(f"manifest {manifest_path} is not a valid run record")
    if out_override is not None:
        resolved = dict(resolved, out=out_override)
    _execute(command, resolved)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.cmd == "replay":
            _run_replay(args.manifest, args.out)
        else:
            command, resolved = _resolve(args)
            _execute(command, resolved)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
