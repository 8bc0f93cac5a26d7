"""Experiment orchestration: configs, convergence and fluctuation studies,
report emission.

Errors are always measured on coupled runs: the N-environment solve and the
limit solve share Brownian streams, inner paths and discretization, so the
time-discretization bias and the regression noise are common to both sides
and the remaining difference isolates the environment-size effect.  Closed
forms validate the limit solvers separately (see the test suite).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .backward import min_block_paths, solve_bsde_n, solve_mfbsde
from .fluctuation import (
    CLT_MIN_SAMPLES,
    KERNEL_MIN_CLOUD,
    FieldLattice,
    _field_labels,
    _sample_covariance,
    clt_compare,
    empirical_fields,
    solve_limit_system,
    value_law,
)
from .forward import LawFlow, block_batches, simulate_blocks, solve_limit_forward
from .model import ModelSpec, _is_number, catalog_model
from .noise import StreamKey, TimeGrid

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "StudyReport",
    "parse_config",
    "run_convergence_study",
    "run_clt_study",
    "emit_report",
    "fit_loglog_slope",
    "coupled_gaps",
    "study_law",
    "model_from_block",
]

SCHEMA_VERSION = 1

_STUDY_DEFAULTS = {
    "kind": "convergence",
    "n_values": None,
    "n": None,
    "reps": 2000,
    "inner_paths": 128,
    "degree": 2,
    "env_cloud": 4096,        # sizes every cloud a study draws
    "field_reps": 10_000,
    "metrics": None,          # defaults to x, y and z
    "probe_times": [1.0],
    "y_probe_times": [0.5],
    "lattice_times": [0.25, 0.5, 1.0],
    "seed": None,
}
_METRICS = ("x", "y", "z")

# verdict thresholds
_SLOPE_BANDS = {"x": [-1.25, -0.75], "y": [-1.3, -0.7], "z": [-1.3, -0.7]}
_VARIANCE_TOLERANCE = 0.15
_KS_ALPHA = 0.01
# below this, an error series is roundoff of an identically-zero quantity
# (statistical error scales here are > 1e-10), not a rate to fit
_EXACT_TOL = 1e-20


class ConfigError(ValueError):
    """Invalid configuration; carries the full list of violations."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


def model_from_block(block) -> ModelSpec:
    """The catalog model a model block names (see `catalog_model`).

    Any fault of the block, from a missing name to a parameter the family
    does not take or a value out of range, raises
    ``ConfigError(["invalid model block: ..."])``.
    """
    try:
        if not isinstance(block, dict):
            raise ValueError("the model block must be a JSON object")
        params = dict(block)
        if "name" not in params:
            raise ValueError("model.name is required")
        return catalog_model(params.pop("name"), **params)
    except ValueError as exc:
        raise ConfigError([f"invalid model block: {exc}"]) from None


@dataclass(frozen=True)
class ExperimentConfig:
    """A study document that `parse_config` validated, flag overrides
    included: the model block and the model and grid built from it, the
    study keys with their defaults, and the output dir.  A run reads these
    and builds nothing again."""

    model_block: dict
    model: ModelSpec
    grid: TimeGrid
    study: dict
    out_dir: str

    def root_key(self) -> StreamKey:
        return StreamKey(seed=int(self.study["seed"]))

    def canonical(self) -> dict:
        return {
            "model": self.model_block,
            "grid": {"steps": self.grid.steps},
            "study": self.study,
            "output": {"dir": self.out_dir},
        }

    def digest(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def parse_config(
    text: str,
    kind: Optional[str] = None,
    *,
    seed: Optional[int] = None,
    n: Optional[int] = None,
    reps: Optional[int] = None,
    out: Optional[str] = None,
) -> ExperimentConfig:
    """Parse and validate a JSON configuration document.

    ``kind`` is the study kind of the command that runs the document; a
    document of another kind is a violation, and the study is then checked
    as one of ``kind``.  ``seed``, ``n`` and ``reps`` override the study
    keys of those names and ``out`` the output dir; each is merged into the
    document before any rule is checked, and None leaves the document's
    value.  Strict mode: unknown keys are rejected and every violation found
    is reported, not just the first.
    """
    violations: list[str] = []
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["top level must be an object"])
    known_top = {"model", "grid", "study", "output"}
    for key in doc:
        if key not in known_top:
            violations.append(f"unknown top-level key {key!r}")

    model_block = doc.get("model")
    model = None
    if not isinstance(model_block, dict):
        violations.append("missing or invalid 'model' block")
        model_block = {}
    else:
        try:
            model = model_from_block(model_block)
        except ConfigError as exc:
            violations.extend(exc.violations)

    grid_block = doc.get("grid", {})
    if not isinstance(grid_block, dict):
        violations.append("'grid' must be an object")
        grid_block = {}
    for key in grid_block:
        if key != "steps":
            violations.append(f"unknown grid key {key!r}")
    steps = grid_block.get("steps", 64)
    if not (_is_int(steps) and steps >= 1):
        violations.append("grid.steps must be a positive integer")
        steps = 64

    study_in = doc.get("study", {})
    if not isinstance(study_in, dict):
        violations.append("'study' must be an object")
        study_in = {}
    study = dict(_STUDY_DEFAULTS)
    for key, value in study_in.items():
        if key not in _STUDY_DEFAULTS:
            violations.append(f"unknown study key {key!r}")
        else:
            study[key] = value
    study.update((k, v) for k, v in (("seed", seed), ("n", n), ("reps", reps)) if v is not None)
    if study["seed"] is None:
        violations.append("study.seed is required (no wall-clock seeding)")
    elif not _is_int(study["seed"]):
        violations.append(f"study.seed must be an integer, got {study['seed']!r}")
    if kind is not None and study["kind"] != kind:
        violations.append(f"study.kind must be {kind!r} for the {kind} command, got {study['kind']!r}")
    elif study["kind"] not in ("convergence", "clt"):
        violations.append(f"study.kind must be 'convergence' or 'clt', got {study['kind']!r}")
    kind = kind or study["kind"]
    if kind == "convergence":
        nv = study["n_values"]
        if not isinstance(nv, list) or len(nv) < 3:
            violations.append("study.n_values needs at least 3 entries for slope fits")
        elif any(not _is_int(v) or v < 1 for v in nv):
            violations.append("study.n_values must be positive integers")
        elif any(b <= a for a, b in zip(nv, nv[1:])):
            violations.append("study.n_values must be strictly increasing")
    if study["metrics"] is None:
        study["metrics"] = list(_METRICS)

    out_block = doc.get("output", {})
    if not isinstance(out_block, dict):
        violations.append("'output' must be an object")
        out_block = {}
    for key in out_block:
        if key != "dir":
            violations.append(f"unknown output key {key!r}")
    out_dir = out_block.get("dir", "out") if out is None else out
    if not (isinstance(out_dir, str) and out_dir):
        violations.append(f"output.dir must be a non-empty string, got {out_dir!r}")

    grid = None if model is None else TimeGrid(model.horizon, steps)
    violations += _study_violations(study, kind == "clt", grid, model)
    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(model_block, model, grid, study, out_dir)


def _is_int(value) -> bool:
    """A JSON integer; ``true`` and ``false`` are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _study_violations(
    study: dict, clt: bool, grid: Optional[TimeGrid], model: Optional[ModelSpec]
) -> list[str]:
    """Violations a study would otherwise hit mid-run, or that would make it
    compute nothing: a size below 1, bad metrics or degree, probe or lattice
    times that are not finite numbers or not grid nodes, an empty lattice,
    too few inner paths or value-law paths for the regression basis, a cloud
    too small for its law or kernel, clt ensembles too small to compare and
    too few field replications for a sample covariance.  Without a grid and
    model (an invalid model block) the checks that need them are skipped.
    """
    out = []
    sizes = {}
    for key in ("reps", "inner_paths", "env_cloud", "field_reps"):
        if _is_int(study[key]) and study[key] >= 1:
            sizes[key] = study[key]
        else:
            out.append(f"study.{key} must be a positive integer")
    metrics = study["metrics"]
    if (
        not isinstance(metrics, list)
        or not metrics
        or any(m not in _METRICS for m in metrics)
        or len(set(metrics)) != len(metrics)
    ):
        out.append(
            f"study.metrics must be a non-empty list of distinct entries of {list(_METRICS)}, "
            f"got {metrics!r}"
        )
        metrics = []
    backward = _measures_backward(metrics)
    # a cloud law needs two paths; a clt study's field kernel needs more
    least_cloud = KERNEL_MIN_CLOUD if clt else 2
    if sizes.get("env_cloud", least_cloud) < least_cloud:
        scope = " for clt studies" if clt else ""
        out.append(
            f"study.env_cloud must be at least {least_cloud}{scope}, got {sizes['env_cloud']}"
        )
    if clt:
        if not _is_int(study["n"]) or study["n"] < 1:
            out.append("study.n must be a positive integer for clt studies")
        # the approximation and the limit ensemble both have reps members
        if sizes.get("reps", CLT_MIN_SAMPLES) < CLT_MIN_SAMPLES:
            out.append(
                f"study.reps must be at least {CLT_MIN_SAMPLES} for clt studies, "
                f"got {sizes['reps']}"
            )
        # a sample covariance divides by field_reps - 1
        if sizes.get("field_reps", 2) < 2:
            out.append(
                f"study.field_reps must be at least 2 for clt studies, got {sizes['field_reps']}"
            )
        read = {"probe_times": "x" in metrics, "y_probe_times": backward, "lattice_times": True}
        for key in (k for k, used in read.items() if used):
            times = study[key]
            if not isinstance(times, list):
                out.append(f"study.{key} must be a list of grid times")
                continue
            if key == "lattice_times" and not times:
                out.append("study.lattice_times must not be empty")
            first = {}  # node -> its first entry; a second one would collapse into it
            for t in times:
                if not _is_number(t):
                    out.append(f"study.{key} entry {t!r} is not a finite number")
                elif grid is not None:
                    try:
                        node = grid.node_at(t)
                    except ValueError:
                        out.append(f"study.{key} entry {t!r} is not a node of {grid}")
                        continue
                    if node in first:
                        out.append(f"study.{key} entries {first[node]!r} and {t!r} name one node")
                    first.setdefault(node, t)
    degree = study["degree"]
    if not _is_int(degree) or degree < 0:
        out.append(f"study.degree must be an integer >= 0, got {degree!r}")
    elif model is not None:
        need = min_block_paths(model.dim, degree)
        if backward and sizes.get("inner_paths", need) < need:
            out.append(
                f"study.inner_paths must be at least 10 * basis size = {need} "
                f"for y or z metrics, got {sizes['inner_paths']}"
            )
        # the value law is regressed as one block of env_cloud paths; a clt
        # study's limit system solves backward whatever the metrics
        if builds_value_law(model, clt or backward) and sizes.get("env_cloud", need) < need:
            scope = "clt studies" if clt else "y or z metrics"
            out.append(
                f"study.env_cloud must be at least 10 * basis size = {need} "
                f"for {scope} when the driver reads partner y, got {sizes['env_cloud']}"
            )
    return out


# ---------------------------------------------------------------------------
# slope estimation


def fit_loglog_slope(n_values, errors, stderrs) -> dict:
    """Weighted least squares of log(error) on log(N).

    Weights are 1 / se^2 of log(error) by the delta method; returns slope,
    intercept, slope stderr and the 95 percent confidence interval.
    """
    n_values = np.asarray(n_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    stderrs = np.asarray(stderrs, dtype=float)
    keep = np.isfinite(errors) & (errors > 0)
    if keep.sum() < 3:
        return {"slope": None, "points": int(keep.sum()), "verdict": "degraded"}
    x = np.log(n_values[keep])
    y = np.log(errors[keep])
    se_log = np.where(errors[keep] > 0, stderrs[keep] / errors[keep], np.inf)
    w = 1.0 / np.maximum(se_log, 1e-6) ** 2
    A = np.stack([np.ones_like(x), x], axis=1)
    WA = A * w[:, None]
    cov = np.linalg.inv(A.T @ WA)
    coef = cov @ (WA.T @ y)
    slope = float(coef[1])
    slope_se = float(np.sqrt(cov[1, 1]))
    return {
        "slope": slope,
        "intercept": float(coef[0]),
        "stderr": slope_se,
        "ci": [slope - 1.96 * slope_se, slope + 1.96 * slope_se],
        "points": int(keep.sum()),
    }


# ---------------------------------------------------------------------------
# study report


@dataclass
class StudyReport:
    kind: str
    tables: dict
    slopes: dict
    verdicts: list
    provenance: dict
    comparison: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "tables": self.tables,
            "slopes": self.slopes,
            "verdicts": self.verdicts,
            "comparison": self.comparison,
            "provenance": self.provenance,
        }


def _provenance(config: ExperimentConfig, extra: dict) -> dict:
    out = {
        "config": config.canonical(),
        "config_digest": config.digest(),
        "seed": int(config.study["seed"]),
        "versions": {
            "mfbsde": __version__,
            "numpy": np.__version__,
        },
    }
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# convergence study


def coupled_gaps(law, N, blocks, inner, w_key, env_key, degree=None):
    """Designated-path gaps, N-system minus limit, of ``blocks`` coupled blocks.

    Block b draws its N partners from ``law`` under ``env_key.child("env", b)``
    and its ``inner`` paths' increments under ``w_key.child("path", b)``; the
    limit paths and the limit backward solve take their means from the same
    law, so the time-discretization bias and the regression noise are common
    to both sides.  Model and grid are the law's.  Returns the x gaps
    (B, n+1, d) and, when ``degree`` is given, the y (B, n+1) and z
    (B, n+1, d) gaps of the backward solves at that regression degree (else
    None).  Blocks run as many at a time as `forward.BLOCK_PATHS` paths hold,
    no batch's block bundle outlives it, and the gaps do not depend on the
    batch.  The run's backward solves, two per batch, share one work set
    (see `backward._work_array`): one pair of y and z arrays, allocated by
    the first solve and freed when the run returns.
    """
    n1, d = law.grid.steps + 1, law.model.dim
    x = np.empty((blocks, n1, d))
    y = z = None
    if degree is not None:
        y = np.empty((blocks, n1))
        z = np.empty((blocks, n1, d))
    work = {}
    for lo, hi in block_batches(blocks, inner):
        sim = simulate_blocks(law, N, hi - lo, inner, w_key, env_key, block_offset=lo)
        x[lo:hi] = sim.xn[:, 0] - sim.xlim[:, 0]
        if degree is not None:
            # each solution is read before the next solve takes its y and z
            yn, zn = solve_bsde_n(law.model, N, sim, degree=degree, work=work).designated()
            yl, zl = solve_mfbsde(law, sim.xlim, sim.dw, degree=degree, work=work).designated()
            y[lo:hi] = yn - yl
            z[lo:hi] = zn - zl
        del sim  # the next batch's simulation must not run beside this batch's arrays
    return x, y, z


def _estimate(samples: np.ndarray) -> dict:
    n = len(samples)
    return {
        "value": float(samples.mean()),
        "stderr": float(samples.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0,
        "reps": n,
    }


def builds_value_law(model: ModelSpec, backward: bool) -> bool:
    """Whether `study_law` attaches a value law: the backward side runs and
    the driver reads partner y."""
    return backward and not model.env_free("driver")


def _measures_backward(metrics) -> bool:
    """Whether a study point solves backward: it measures y or z."""
    return "y" in metrics or "z" in metrics


def _point_gaps(law, N, study, w_key, env_key):
    """The one coupled run of a study point: `coupled_gaps` on ``reps``
    blocks of ``inner_paths`` paths solved backward when the study measures
    y or z, else of one path.  x reads each block's designated path, the
    same either way: its increments come first in the block's draw, and the
    partner draws do not depend on the block size."""
    backward = _measures_backward(study["metrics"])
    return coupled_gaps(
        law, N, int(study["reps"]), int(study["inner_paths"]) if backward else 1,
        w_key, env_key, degree=int(study["degree"]) if backward else None,
    )


def study_law(
    model: ModelSpec, grid: TimeGrid, env_cloud: int, degree: int, root: StreamKey, backward: bool
) -> LawFlow:
    """The one law a study reads: every environment and every limit-side mean.

    It is the limit law; the N-system's own law differs from it by O(1/N),
    below every reported statistic.  When the backward side runs
    (``backward``) and the driver reads partner y, it is the limit law with
    values attached (`value_law`), a cloud of ``env_cloud`` paths.
    """
    law = solve_limit_forward(model, grid, env_cloud, root.child("law", 0))
    if not builds_value_law(model, backward):
        return law
    return value_law(law, root.child("vlaw", 0), size=env_cloud, degree=degree)


def run_convergence_study(config: ExperimentConfig) -> StudyReport:
    """Error-versus-environment-size study with log-log slope fits."""
    model, grid, study = config.model, config.grid, config.study
    root = config.root_key()
    metrics = list(study["metrics"])
    backward = _measures_backward(metrics)
    law = study_law(model, grid, int(study["env_cloud"]), int(study["degree"]), root, backward)
    reference_note = "closed_form"
    if law.kind == "cloud":
        # self-reference mode: the limit reference is the cloud law itself,
        # biased at O(1/cloud); keep the cloud well above the largest N
        reference_note = f"self_reference(cloud={law.size})"
        if law.size < 8 * max(study["n_values"]):
            reference_note += ":cloud_smaller_than_8x_max_N"

    rows = []
    per_metric: dict[str, dict[int, dict]] = {m: {} for m in metrics}
    for N in study["n_values"]:
        fwd = root.child("n", int(N)).child("fwd", 0)
        x, y, z = _point_gaps(law, int(N), study, fwd.child("w", 0), fwd.child("e", 0))
        errors = {"x": np.max(np.sum(x**2, axis=-1), axis=-1)}
        if y is not None:
            errors["y"] = np.max(y**2, axis=-1)
            errors["z"] = grid.h * np.sum(np.sum(z[:, :-1] ** 2, axis=-1), axis=-1)
        for m, name in (("x", "x_sup2"), ("y", "y_sup2"), ("z", "z_quad")):
            if m in metrics:
                est = _estimate(errors[m])
                per_metric[m][N] = est
                rows.append({"N": int(N), "metric": name, **est})

    slopes = {}
    verdicts = []
    for m in metrics:
        table = per_metric[m]
        ns = sorted(table)
        values = [table[N]["value"] for N in ns]
        errs = [table[N]["stderr"] for N in ns]
        if all(v <= _EXACT_TOL for v in values):
            slopes[m] = {"slope": None, "verdict": "exact", "points": 0}
            verdicts.append(
                {
                    "criterion": f"{m}_slope",
                    "passed": True,
                    "details": "exact (error identically zero; bound holds trivially)",
                }
            )
            continue
        fit = fit_loglog_slope(ns, values, errs)
        slopes[m] = fit
        band = _SLOPE_BANDS[m]
        if fit.get("slope") is None:
            verdicts.append(
                {"criterion": f"{m}_slope", "passed": False, "details": "degraded: too few points"}
            )
        else:
            ok = band[0] <= fit["slope"] <= band[1]
            verdicts.append(
                {
                    "criterion": f"{m}_slope",
                    "passed": bool(ok),
                    "details": {"slope": fit["slope"], "band": band},
                }
            )
    return StudyReport(
        kind="convergence",
        tables={"errors": rows},
        slopes=slopes,
        verdicts=verdicts,
        provenance=_provenance(config, {"reference": reference_note}),
    )


# ---------------------------------------------------------------------------
# fluctuation study


def run_clt_study(config: ExperimentConfig) -> StudyReport:
    """Distributional comparison of scaled fluctuations against the limit system."""
    model, grid, study = config.model, config.grid, config.study
    root = config.root_key()
    N = int(study["n"])
    env_cloud = int(study["env_cloud"])
    # the limit system solves backward whatever the metrics
    law = study_law(model, grid, env_cloud, int(study["degree"]), root, backward=True)
    decoupled = model.env_free("drift") and model.env_free("diffusion")

    # scaled fluctuation samples of one coupled run, None for a metric not measured
    gaps = _point_gaps(law, N, study, root.child("fw", 0), root.child("fe", 0))
    x_fluct, y_fluct, z_fluct = (
        np.sqrt(N) * g if m in study["metrics"] else None for m, g in zip(_METRICS, gaps)
    )

    limit = solve_limit_system(
        law,
        members=int(study["reps"]),
        key=root.child("limit", 0),
        inner=max(64, int(study["inner_paths"]) // 2),
        degree=int(study["degree"]),
        cloud_size=env_cloud,
    )
    comparison = clt_compare(
        N, grid, (x_fluct, y_fluct, z_fluct), limit, study["probe_times"], study["y_probe_times"]
    )

    # field covariance on the configured lattice: the empirical fields against
    # the entries of the kernel the limit members were drawn from
    lattice = FieldLattice(grid, tuple(grid.node_at(t) for t in study["lattice_times"]))
    emp = empirical_fields(law, N, lattice, int(study["field_reps"]), root.child("field_env", 0))
    emp_cov = _sample_covariance(emp, _field_labels(model, lattice))
    cov = limit.kernel.at(emp_cov.labels)
    cov_rows = []
    for i in range(cov.size):
        for j in range(cov.size):
            combined = float(np.sqrt(emp_cov.stderr[i, j] ** 2 + cov.stderr[i, j] ** 2))
            gap = float(abs(emp_cov.matrix[i, j] - cov.matrix[i, j]))
            degenerate = cov.matrix[i, i] == 0.0 and cov.matrix[j, j] == 0.0
            ok = gap == 0.0 if degenerate else gap <= 4 * combined
            cov_rows.append({
                "i": i, "j": j, "block": cov.labels[i][0], "value": float(cov.matrix[i, j]),
                "stderr": combined, "empirical": float(emp_cov.matrix[i, j]), "ok": bool(ok),
            })
    cov_ok = all(row["ok"] for row in cov_rows)

    verdicts = []
    degenerate_all = decoupled and model.env_free("terminal") and model.env_free("driver")
    if degenerate_all:
        exact = x_fluct is None or not np.any(x_fluct)
        verdicts.append(
            {"criterion": "degenerate_exact", "passed": bool(exact), "details": "decoupled model"}
        )
    for probe, row in comparison["probes"].items():
        approx, lim_row = row["approx"], row["limit"]
        if lim_row["var"] > 0:
            rel = abs(approx["var"] - lim_row["var"]) / lim_row["var"]
            verdicts.append(
                {
                    "criterion": f"variance_match:{probe}",
                    "passed": bool(rel <= _VARIANCE_TOLERANCE + 3 * (approx["var_se"] + lim_row["var_se"]) / lim_row["var"]),
                    "details": {"approx_var": approx["var"], "limit_var": lim_row["var"]},
                }
            )
        verdicts.append(
            {
                "criterion": f"ks:{probe}",
                "passed": bool(row["ks"]["p_value"] > _KS_ALPHA),
                "details": row["ks"],
            }
        )
    verdicts.append(
        {"criterion": "field_covariance", "passed": bool(cov_ok), "details": {"entries": len(cov_rows)}}
    )

    fl_table = [] if x_fluct is None else _path_rows(grid, x_fluct[:64, :, :1])
    return StudyReport(
        kind="clt",
        tables={"covariance": cov_rows, "fluctuations": fl_table},
        slopes={},
        verdicts=verdicts,
        provenance=_provenance(config, {"limit_system": limit.provenance}),
        comparison=comparison,
    )


# ---------------------------------------------------------------------------
# report emission


_PATH_HEADER = ["rep", "t", "coord", "value"]


def _path_rows(grid: TimeGrid, values: np.ndarray) -> list[dict]:
    """`_PATH_HEADER` rows of (R, n+1, d) paths, replication- then node-major."""
    return [
        {"rep": r, "t": float(t), "coord": c, "value": float(values[r, i, c])}
        for r in range(values.shape[0])
        for i, t in enumerate(grid.nodes)
        for c in range(values.shape[2])
    ]


def _write_csv(path, header: list[str], rows: list[dict]) -> None:
    """Write ``rows`` under ``header``: floats as their repr, all else as str."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(
                repr(float(row[h])) if isinstance(row[h], float) else str(row[h])
                for h in header
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def emit_report(report: StudyReport, out_dir) -> list[str]:
    """Write report.json plus plot-ready CSV tables; returns written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    doc = report.to_dict()
    doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    path = out / "report.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    written.append(str(path))
    csvs = []
    if "errors" in report.tables:
        slope_rows = [
            {
                "metric": metric,
                "slope": fit.get("slope"),
                "stderr": fit.get("stderr"),
                "ci_low": fit.get("ci", [None, None])[0],
                "ci_high": fit.get("ci", [None, None])[1],
            }
            for metric, fit in report.slopes.items()
        ]
        csvs += [
            ("errors.csv", ["N", "metric", "value", "stderr"], report.tables["errors"]),
            ("slope.csv", ["metric", "slope", "stderr", "ci_low", "ci_high"], slope_rows),
        ]
    if "covariance" in report.tables:
        header = ["i", "j", "block", "value", "stderr", "empirical", "ok"]
        csvs.append(("covariance.csv", header, report.tables["covariance"]))
    if report.tables.get("fluctuations"):
        csvs.append(("fluctuations.csv", _PATH_HEADER, report.tables["fluctuations"]))
    for name, header, rows in csvs:
        _write_csv(out / name, header, rows)
        written.append(str(out / name))
    return written
