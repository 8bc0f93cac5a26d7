"""Spans around calls into the ``mfbsde`` modules, and the per-layer
metrics computed from them.

The traced study process wraps each public function listed in ``SPANS`` on
every module attribute that binds it (``simulate_blocks`` is bound in
``forward``, ``harness``, ``cli``, ``backward`` and ``fluctuation``), so no
call slips past through another module's import.  A span records its name,
start, end and parent; spans stay in memory and are written when the study
ends.  A span's self time is its duration minus the durations of its direct
children.  The per-layer time metrics plus the root's self time must add up
to the separately measured study time (``reported_total_s``); a span outside
the root's tree, or a span name no metric reports, breaks that sum.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass, field

# (module, function) -> span name; the module is where the function is defined
SPANS = {
    ("noise", "generator"): "noise.generator",
    ("forward", "solve_limit_forward"): "forward.limit_law",
    ("forward", "solve_sde_n"): "forward.picard",
    ("forward", "simulate_blocks"): "forward.blocks",
    ("backward", "solve_bsde_n"): "backward.bsde_n",
    ("backward", "solve_mfbsde"): "backward.mfbsde",
    ("backward", "solve_linear_limit_bsde"): "backward.linear_limit",
    ("fluctuation", "value_law"): "fluctuation.value_law",
    ("fluctuation", "solve_limit_system"): "fluctuation.limit_system",
    ("fluctuation", "theoretical_covariance"): "fluctuation.covariance",
    ("fluctuation", "empirical_fields"): "fluctuation.empirical_fields",
    ("fluctuation", "clt_compare"): "fluctuation.compare",
    ("harness", "run_convergence_study"): "harness.study",
    ("harness", "run_clt_study"): "harness.study",
    ("harness", "emit_report"): "harness.report",
}

ROOT = "study"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the parent span, -1 for the root


@dataclass
class Recorder:
    """In-memory span list plus counters taken from wrapped calls' results."""

    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1))
            self._stack.append(idx)
            self.spans[idx].start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx].end = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_totals(spans) -> dict[str, float]:
    """Self time summed per span name."""
    totals: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + t
    return totals


# ---------------------------------------------------------------------------
# counters read off wrapped calls' return values


def _on_sde_n(rec: Recorder, result) -> None:
    rec.count("forward.picard_sweeps", result.provenance["picard_sweeps_run"])


def _on_blocks(rec: Recorder, sim) -> None:
    B, P, n1, _ = sim.xn.shape
    paths = B * P * (2 if sim.xlim is not None else 1)
    rec.count("forward.block_path_steps", paths * (n1 - 1))
    arrays = (sim.dw, sim.xn, sim.xlim, sim.env_x, sim.env_y, sim.terminal_curve, sim.driver_curve)
    rec.peak("forward.block_mb_peak", sum(a.nbytes for a in arrays if a is not None) / 1e6)


def _on_solution(rec: Recorder, sol) -> None:
    blocks = sol.block_shape[0] if sol.block_shape is not None else 1
    d = sol.z_values.shape[-1]
    rec.count("backward.regressions", sol.grid.steps * blocks * (1 + d))


def _on_report(rec: Recorder, written) -> None:
    rec.count("harness.report_bytes", sum(os.path.getsize(p) for p in written))


ON_RESULT = {
    "forward.picard": _on_sde_n,
    "forward.blocks": _on_blocks,
    "backward.bsde_n": _on_solution,
    "backward.mfbsde": _on_solution,
    "backward.linear_limit": _on_solution,
    "harness.report": _on_report,
}


def install(rec: Recorder, package: str = "mfbsde") -> int:
    """Wrap every binding of every ``SPANS`` function in the loaded package.

    Returns the number of bindings replaced.
    """
    originals = {}
    for (mod, fn), name in SPANS.items():
        func = getattr(sys.modules[f"{package}.{mod}"], fn)
        originals[id(func)] = rec.wrap(name, func, ON_RESULT.get(name))
    replaced = 0
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
                replaced += 1
    return replaced


# ---------------------------------------------------------------------------
# per-layer metrics


TIME_METRICS = {
    "noise.generator_s": "noise.generator",
    "forward.limit_law_s": "forward.limit_law",
    "forward.picard_s": "forward.picard",
    "forward.blocks_s": "forward.blocks",
    "backward.bsde_n_s": "backward.bsde_n",
    "backward.mfbsde_s": "backward.mfbsde",
    "backward.linear_limit_s": "backward.linear_limit",
    "fluctuation.value_law_s": "fluctuation.value_law",
    "fluctuation.limit_system_s": "fluctuation.limit_system",
    "fluctuation.covariance_s": "fluctuation.covariance",
    "fluctuation.empirical_fields_s": "fluctuation.empirical_fields",
    "fluctuation.compare_s": "fluctuation.compare",
    "harness.study_self_s": "harness.study",
    "harness.report_s": "harness.report",
}

COUNT_METRICS = (
    "forward.picard_sweeps",
    "forward.block_path_steps",
    "forward.block_mb_peak",
    "backward.regressions",
    "harness.report_bytes",
)


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced study (idle layers read 0)."""
    totals = layer_totals(rec.spans)
    out = {m: totals.get(span, 0.0) for m, span in TIME_METRICS.items()}
    out["noise.generator_calls"] = sum(1 for s in rec.spans if s.name == "noise.generator")
    for m in COUNT_METRICS:
        out[m] = rec.counters.get(m, 0)
    # rates over the layer's inclusive time, which includes its RNG work
    block_s = sum(s.end - s.start for s in rec.spans if s.name == "forward.blocks")
    out["forward.block_path_steps_per_s"] = out["forward.block_path_steps"] / block_s if block_s > 0 else 0.0
    solve_s = out["backward.bsde_n_s"] + out["backward.mfbsde_s"] + out["backward.linear_limit_s"]
    out["backward.regressions_per_s"] = out["backward.regressions"] / solve_s if solve_s > 0 else 0.0
    return out



def reported_total_s(rec: Recorder) -> float:
    """The per-layer time metrics plus the root span's self time.

    For a study traced under one root, this equals the study's wall time up
    to the root wrapper's own cost.
    """
    layers = layer_metrics(rec)
    root = [t for s, t in zip(rec.spans, self_times(rec.spans)) if s.name == ROOT]
    return sum(layers[m] for m in TIME_METRICS) + sum(root)
