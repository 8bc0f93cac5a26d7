"""The benchmark's workloads: the study config each one runs, and the checks
that its outputs must pass.

Each workload is one ``mfbsde`` study command.  A check reads the files the
study wrote and compares them with :mod:`reference`, which does not import
``mfbsde``.  Every check is one operation of the run; a study that crashes
or writes no report fails its own operation and every check of its round.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference

# ou_mean_field parameters shared by the two OU workloads
BETA, S, X0 = 1.0, 0.5, 1.0
OU_MODEL = {"name": "ou_mean_field", "beta": BETA, "s": S, "x0": X0}

# the canonical clt seed; at it the Picard probe misses its first-sweep
# tolerance and the study runs on a 4096-path cloud law (see known_faults)
CLT_SEED = 20260808

# z-score within which a Monte Carlo estimate must match its reference
Z_TOL = 5.0
MEAN_Z_TOL = 4.0
KS_ALPHA = 0.01


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                      # the mfbsde subcommand
    config: Callable[[int], dict]     # benchmark seed -> config document
    checks: Callable[[Path, dict], list[Check]]
    check_names: tuple[str, ...]      # every check, in order, for crash rounds
    known_faults: frozenset = frozenset()


def study_seed(seed: int, salt: int) -> int:
    """Study seed derived from the benchmark seed (distinct per workload)."""
    return (int(seed) * 1_000_003 + salt) % (2**31 - 1)


# ---------------------------------------------------------------------------
# output readers


def read_errors(out: Path) -> dict[str, list[tuple[int, float, float]]]:
    """errors.csv as {metric: [(N, value, stderr), ...]} sorted by N."""
    table: dict[str, list[tuple[int, float, float]]] = {}
    with open(out / "errors.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            table.setdefault(row["metric"], []).append(
                (int(row["N"]), float(row["value"]), float(row["stderr"]))
            )
    return {m: sorted(rows) for m, rows in table.items()}


def _slope_check(name, rows, band) -> Check:
    ns, vals, ses = zip(*rows)
    slope = reference.loglog_slope(ns, vals, ses)
    ok = band[0] <= slope <= band[1]
    return Check(name, bool(ok), f"slope {slope:.4f} in {band}")


# ---------------------------------------------------------------------------
# conv_ou_x


OU_CONV_STEPS = 64
OU_CONV_N = [16, 32, 64, 128]


def conv_ou_x_config(seed: int) -> dict:
    return {
        "model": OU_MODEL,
        "grid": {"steps": OU_CONV_STEPS},
        "study": {
            "kind": "convergence",
            "n_values": OU_CONV_N,
            "reps": 2000,
            "metrics": ["x"],
            "seed": study_seed(seed, 1),
        },
    }


def conv_ou_x_checks(out: Path, ref: dict) -> list[Check]:
    """N * err matches c for every N; the refitted slope lies in [-1.25, -0.75]."""
    rows = read_errors(out)["x_sup2"]
    c, c_se = ref["sup_constant"]
    checks = []
    for n, value, se in rows:
        scaled, scaled_se = n * value, n * se
        z = (scaled - c) / math.hypot(scaled_se, c_se)
        checks.append(Check(f"n_err:N={n}", abs(z) <= Z_TOL, f"N*err {scaled:.5f} vs c {c:.5f} (z {z:+.2f})"))
    checks.append(_slope_check("slope:x", rows, (-1.25, -0.75)))
    return checks


# ---------------------------------------------------------------------------
# conv_tanh_xyz


TANH_N = [8, 16, 32, 64]


def conv_tanh_xyz_config(seed: int) -> dict:
    return {
        "model": {"name": "tanh_bounded"},
        "grid": {"steps": 16},
        "study": {
            "kind": "convergence",
            "n_values": TANH_N,
            "reps": 512,
            "inner_paths": 128,
            "metrics": ["x", "y", "z"],
            "seed": study_seed(seed, 2),
        },
    }


TANH_METRICS = {"x": "x_sup2", "y": "y_sup2", "z": "z_quad"}


def conv_tanh_xyz_checks(out: Path, ref: dict) -> list[Check]:
    """Slopes of x, y and z in [-1.3, -0.7]; every error decreases in N."""
    table = read_errors(out)
    checks = []
    for m, key in TANH_METRICS.items():
        checks.append(_slope_check(f"slope:{m}", table[key], (-1.3, -0.7)))
    for m, key in TANH_METRICS.items():
        vals = [v for _, v, _ in table[key]]
        ok = all(b < a for a, b in zip(vals, vals[1:]))
        checks.append(Check(f"decreasing:{m}", ok, f"errors {vals}"))
    return checks


# ---------------------------------------------------------------------------
# clt_ou


CLT_STEPS = 32
CLT_N = 256
CLT_REPS = 500
FIELD_REPS = 10_000
LATTICE_TIMES = [0.25, 0.5, 1.0]


def clt_ou_config(seed: int) -> dict:
    # the seed argument is deliberately unused: the study keeps the canonical
    # seed, at which the Picard-cloud fault shows on every run
    return {
        "model": OU_MODEL,
        "grid": {"steps": CLT_STEPS},
        "study": {
            "kind": "clt",
            "n": CLT_N,
            "reps": CLT_REPS,
            "field_reps": FIELD_REPS,
            "lattice_times": LATTICE_TIMES,
            "seed": CLT_SEED,
        },
    }


def clt_ou_checks(out: Path, ref: dict) -> list[Check]:
    """Variances, means and KS of the scaled fluctuations; field covariance."""
    report = json.loads((out / "report.json").read_text())
    probes = report["comparison"]["probes"]
    var = ref["clt_variance"]
    checks = []
    for probe in ("x@1.0", "y@0.5"):
        for side in ("approx", "limit"):
            row = probes[probe][side]
            se = var * math.sqrt(2.0 / (row["n"] - 1))
            z = (row["var"] - var) / se
            checks.append(Check(f"var:{probe}:{side}", abs(z) <= Z_TOL, f"var {row['var']:.5f} vs {var:.5f} (z {z:+.2f})"))
    for probe in ("x@1.0", "y@0.5"):
        row = probes[probe]["approx"]
        se = math.sqrt(row["var"] / row["n"])
        z = row["mean"] / se
        checks.append(Check(f"mean:{probe}", abs(z) <= MEAN_Z_TOL, f"mean {row['mean']:+.5f} (z {z:+.2f})"))
    x_at_1 = []
    with open(out / "fluctuations.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            if math.isclose(float(row["t"]), 1.0):
                x_at_1.append(float(row["value"]))
    p = reference.normal_ks_pvalue(x_at_1, var)
    checks.append(Check("ks:x@1.0", p > KS_ALPHA, f"p {p:.3g} over {len(x_at_1)} samples"))
    cov = ref["field_covariance"]
    emp = {}
    with open(out / "covariance.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            emp[int(row["i"]), int(row["j"])] = float(row["empirical"])
    for i in range(len(LATTICE_TIMES)):
        for j in range(len(LATTICE_TIMES)):
            # sampling error of an empirical covariance from FIELD_REPS draws
            se = math.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2) / FIELD_REPS)
            z = (emp[i, j] - cov[i, j]) / se
            checks.append(Check(f"field_cov:{i},{j}", abs(z) <= Z_TOL, f"{emp[i, j]:.5f} vs {cov[i, j]:.5f} (z {z:+.2f})"))
    return checks


# ---------------------------------------------------------------------------
# registry


WORKLOADS = {
    "conv_ou_x": Workload(
        "conv_ou_x", "convergence", conv_ou_x_config, conv_ou_x_checks,
        tuple(f"n_err:N={n}" for n in OU_CONV_N) + ("slope:x",),
    ),
    "conv_tanh_xyz": Workload(
        "conv_tanh_xyz", "convergence", conv_tanh_xyz_config, conv_tanh_xyz_checks,
        tuple(f"slope:{m}" for m in TANH_METRICS) + tuple(f"decreasing:{m}" for m in TANH_METRICS),
    ),
    "clt_ou": Workload(
        "clt_ou", "clt", clt_ou_config, clt_ou_checks,
        tuple(f"var:{p}:{s}" for p in ("x@1.0", "y@0.5") for s in ("approx", "limit"))
        + ("mean:x@1.0", "mean:y@0.5", "ks:x@1.0")
        + tuple(f"field_cov:{i},{j}" for i in range(3) for j in range(3)),
        # forward.solve_sde_n misses its first-sweep tolerance at CLT_SEED and
        # the study swaps the exact law for a 4096-path cloud, whose sampling
        # error, scaled by sqrt(N), biases the fluctuations by about one sd
        known_faults=frozenset({"mean:x@1.0", "mean:y@0.5", "ks:x@1.0"}),
    ),
}


def references(workload: str) -> dict:
    """Reference values a workload's checks need (computed once per run)."""
    if workload == "conv_ou_x":
        return {"sup_constant": reference.sup_constant(BETA, S, OU_CONV_STEPS)}
    if workload == "clt_ou":
        return {
            "clt_variance": reference.riemann_variance(BETA, S, CLT_STEPS),
            "field_covariance": reference.field_covariance(BETA, S, LATTICE_TIMES),
        }
    return {}


def run_checks(workload: Workload, out: Path, ref: dict) -> list[Check]:
    """The workload's checks on one study's outputs, in ``check_names`` order.

    A study that wrote unreadable or incomplete outputs fails every check.
    """
    try:
        checks = workload.checks(out, ref)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        return [Check(n, False, f"outputs unreadable: {exc!r}") for n in workload.check_names]
    if [c.name for c in checks] != list(workload.check_names):
        return [Check(n, False, "outputs incomplete") for n in workload.check_names]
    return checks
