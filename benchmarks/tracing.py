"""Spans around the library's layer functions, for the traced run.

``cli``, ``swift`` and ``plfit`` bind the names they import when they are
imported, so a wrapper is installed on the name in the module that calls
the function: ``cli.dual_ci_mtr_path_loss``, ``swift.mtr_path_loss`` and
``swift.surface_height`` are wrapped there, not in ``pathloss`` or
``seastate``.  ``smallscale._fit_twdp`` looks ``_twdp_logpdf_order`` up at
call time, so the wrapper on ``smallscale._twdp_logpdf_order`` counts every
TWDP density evaluation.

Each span records its name, start, end, its parent span and, through the
file it is written to, the run id.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

SPAN_FIELDS = ("name", "start", "end", "span", "parent")
FFTS_PER_SOUNDER_CALL = 3  # forward, forward, inverse; each reads and writes L complex128


def _file_bytes(position: int):
    def count(args, kwargs, result):
        return os.path.getsize(args[position])
    return count


def _fft_bytes(args, kwargs, result):
    return FFTS_PER_SOUNDER_CALL * 2 * 16 * args[1].length


# (module, attribute, span name or None for a counter only, counter name, counter)
HOOKS = [
    ("swift", "simulate_swift", "swift.simulate_swift", None, None),
    ("cli", "simulate_swift", "swift.simulate_swift", None, None),
    ("swift", "solve_effective_heights", "swift.solve_effective_heights",
     "swift.steps_solved", lambda a, k, r: np.size(a[2])),
    ("swift", "_bisect_effective_heights", None,
     "swift.steps_bisected", lambda a, k, r: len(a[3])),
    ("swift", "surface_height", "seastate.surface_height", None, None),
    ("swift", "mtr_path_loss", "pathloss.mtr_path_loss", None, None),
    ("cli", "mtr_path_loss", "pathloss.mtr_path_loss", None, None),
    ("swift", "rotation_angles", "swift.rotation_angles", None, None),
    ("swift", "pattern_loss", "swift.pattern_loss", None, None),
    ("swift", "polarization_loss", "swift.polarization_loss", None, None),
    ("pathloss", "mtr_factors", "pathloss.mtr_factors", None, None),
    ("plfit", "mtr_factors", "pathloss.mtr_factors", None, None),
    ("pathloss", "reflection_geometry", "geometry.reflection_geometry", None, None),
    ("cli", "dual_ci_mtr_path_loss", "pathloss.dual_ci_mtr_path_loss", None, None),
    ("cli", "fit_dual_ci_mtr", "plfit.fit_dual_ci_mtr", None, None),
    ("plfit", "mtr_regressor", "plfit.mtr_regressor", None, None),
    ("smallscale", "_twdp_logpdf_order", "smallscale.twdp_logpdf",
     "smallscale.twdp_quad_nodes_total", lambda a, k, r: k.get("order", a[-1])),
    ("smallscale", "_twdp_cdf", "smallscale.twdp_cdf", None, None),
    ("smallscale", "ks_statistic", "smallscale.ks_statistic", None, None),
    ("cli", "ks_statistic", "smallscale.ks_statistic", None, None),
    ("smallscale", "pdf_rmse", "smallscale.pdf_rmse", None, None),
    ("cli", "pdf_rmse", "smallscale.pdf_rmse", None, None),
    ("smallscale", "fit_mle", lambda a: f"smallscale.fit_mle.{a[0]}", None, None),
    ("cli", "fit_mle", lambda a: f"smallscale.fit_mle.{a[0]}", None, None),
    ("cli", "simulate_link", "sounder.simulate_link", "sounder.fft.bytes_computed", _fft_bytes),
    ("cli", "extract_cir", "sounder.extract_cir", "sounder.fft.bytes_computed", _fft_bytes),
    ("cli", "save_iq", "sounder.save_iq", "sounder.save_iq.bytes", _file_bytes(0)),
    ("cli", "load_iq", "sounder.load_iq", "sounder.load_iq.bytes", _file_bytes(0)),
    ("cli", "gini", "sparsity.gini", None, None),
    ("sparsity", "gini", "sparsity.gini", None, None),
    ("cli", "split_equal", "sparsity.split_equal", None, None),
    ("cli", "split_random", "sparsity.split_random", None, None),
    ("cli", "worker_count", "cli.worker_count", "sparsity.lemma_workers", lambda a, k, r: r),
    ("cli", "delay_stats", "temporal.delay_stats", None, None),
    ("cli", "fit_exp_pdp", "temporal.fit_exp_pdp", None, None),
    ("cli", "_write_csv", "cli.write_csv", "cli.write_csv.bytes", _file_bytes(0)),
    ("cli", "_read_csv_columns", "cli.read_csv", "cli.read_csv.bytes", _file_bytes(0)),
    ("cli", "_write_manifest", "cli.manifest", None, None),
    ("cli", "main", "cli.main", None, None),
]

LAYERS = ("swift", "seastate", "pathloss", "geometry", "plfit", "smallscale", "sounder",
          "sparsity", "temporal", "cli")


class Tracer:
    """Records a span for every call of a hooked function while active."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._spans = array("d")  # SPAN_FIELDS, five values per span
        self._next_id = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self.counters: dict[str, float] = defaultdict(float)
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        return self._local.__dict__.setdefault("stack", [])

    def _name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def _wrap(self, fn, span, counter_name, counter):
        fixed_id = self._name_id(span) if isinstance(span, str) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span is None:
                result = fn(*args, **kwargs)
            else:
                name_id = fixed_id if fixed_id is not None else self._name_id(span(args))
                stack = self._stack()
                span_id = next(self._next_id)
                # a worker thread's outermost span belongs to the span that waits for it
                opener = stack or self._main_stack
                parent = opener[-1] if opener else -1
                stack.append(span_id)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    self._spans.extend((name_id, start, end, span_id, parent))
            if counter is not None:
                with self._lock:
                    self.counters[counter_name] += counter(args, kwargs, result)
            return result
        return wrapper

    @contextmanager
    def active(self):
        """Install every hook; restore the original functions on exit."""
        saved = []
        self._main_stack = self._stack()
        try:
            for module_name, attr, span, counter_name, counter in HOOKS:
                module = importlib.import_module(f"mariner_chan.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, span, counter_name, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def spans(self) -> np.ndarray:
        """All closed spans, one row per span, columns SPAN_FIELDS."""
        return np.frombuffer(self._spans, dtype=float).reshape(-1, len(SPAN_FIELDS)).copy()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds (the span
        minus the time its child spans cover).
        """
        rows = self.spans()
        if not len(rows):
            return {}
        name, start, end, span_id, parent = rows.T
        dur = end - start
        ids = span_id.astype(np.int64)
        self_s = dur - _covered_by_children(start, end, ids, parent.astype(np.int64))
        out = {}
        for k, label in enumerate(self.names):
            sel = name == k
            out[label] = {"calls": float(np.sum(sel)), "s": float(np.sum(dur[sel])),
                          "self_s": float(np.sum(self_s[sel]))}
        return out

    def write(self, path) -> None:
        np.savez_compressed(path, spans=self.spans(), fields=np.array(SPAN_FIELDS),
                            names=np.array(self.names), run_id=np.array(self.run_id))


def _covered_by_children(start, end, ids, parent) -> np.ndarray:
    """Time of each span covered by the union of its child spans.  Children
    in one thread nest without overlap; children in worker threads may
    overlap each other, so the union is taken, not the sum.
    """
    covered = np.zeros(int(ids.max()) + 1)
    kids = np.flatnonzero(parent >= 0)
    if kids.size:
        kids = kids[np.lexsort((start[kids], parent[kids]))]
        p = parent[kids]
        group = np.cumsum(np.r_[True, p[1:] != p[:-1]]) - 1
        # shift each parent's children past the previous parent's, so that a
        # running maximum of end times never crosses from one group to the next
        shift = group * (float(end.max() - start.min()) + 1.0)
        s, e = start[kids] + shift, end[kids] + shift
        reach = np.maximum.accumulate(np.r_[-np.inf, e[:-1]])
        np.add.at(covered, p, np.maximum(0.0, e - np.maximum(s, reach)))
    return covered[ids]


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer figures per traced round, by the names BENCHMARK.json lists."""
    totals = tracer.totals()
    c = tracer.counters

    def get(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0.0)

    out = {}
    for name in ("swift.simulate_swift", "swift.solve_effective_heights"):
        out[f"{name}.self_s"] = get(name, "self_s")
    for name in ("seastate.surface_height", "pathloss.mtr_path_loss", "pathloss.mtr_factors",
                 "geometry.reflection_geometry", "plfit.mtr_regressor", "sparsity.gini"):
        out[f"{name}.calls"] = get(name, "calls")
    for name in ("swift.rotation_angles", "swift.pattern_loss", "swift.polarization_loss",
                 "pathloss.dual_ci_mtr_path_loss", "plfit.fit_dual_ci_mtr",
                 "smallscale.twdp_logpdf", "smallscale.twdp_cdf", "smallscale.ks_statistic",
                 "smallscale.pdf_rmse", "sounder.simulate_link", "sounder.extract_cir",
                 "sounder.save_iq", "sounder.load_iq", "sparsity.split_equal",
                 "sparsity.split_random", "temporal.delay_stats", "temporal.fit_exp_pdp",
                 "cli.write_csv", "cli.read_csv", "cli.manifest"):
        out[f"{name}.s"] = get(name, "s")
    for family in ("rician", "twdp", "nakagami", "lognormal", "laplace", "asym-laplace"):
        out[f"smallscale.fit_mle.{family}.s"] = get(f"smallscale.fit_mle.{family}", "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v["self_s"] for k, v in totals.items()
                                     if k.startswith(layer + "."))
    for name in ("sounder.fft.bytes_computed", "sounder.save_iq.bytes", "sounder.load_iq.bytes",
                 "cli.write_csv.bytes", "cli.read_csv.bytes"):
        out[name] = c[name]
    out = {k: v / rounds for k, v in out.items()}
    # ratios and settings are not summed over rounds
    evals = get("smallscale.twdp_logpdf", "calls")
    out["smallscale.twdp_logpdf.evals"] = evals / rounds
    out["smallscale.twdp_quad_nodes"] = (c["smallscale.twdp_quad_nodes_total"] / evals
                                         if evals else 0.0)
    solved = c["swift.steps_solved"]
    out["swift.bisect_share"] = c["swift.steps_bisected"] / solved if solved else 0.0
    lemma_checks = get("cli.worker_count", "calls")
    out["sparsity.lemma_workers"] = (c["sparsity.lemma_workers"] / lemma_checks
                                     if lemma_checks else 0.0)
    return out
