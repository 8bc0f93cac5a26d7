"""Acceptance suite: every gate criterion at its stated size and tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The whole module is deterministic for a fixed seed.
"""

import json
import math

import numpy as np
import pytest
from scipy import stats as sp_stats

from mfbsde.backward import check_comparison, solve_bsde_n, solve_mfbsde
from mfbsde.fluctuation import (
    FieldLattice,
    empirical_fields,
    sample_field_on_lattice,
    solve_limit_system,
    theoretical_covariance,
    value_law,
)
from mfbsde.forward import simulate_blocks, solve_limit_forward
from mfbsde.harness import (
    coupled_gaps,
    emit_report,
    parse_config,
    run_clt_study,
    run_convergence_study,
)
from mfbsde.model import CATALOG_NAMES, catalog_model, check_gradients, random_probes
from mfbsde.noise import StreamKey, TimeGrid, derive_key

SEED = 20260808
ROOT = StreamKey(seed=SEED)
GRID = TimeGrid(1.0, 64)
N_GRID = [8, 16, 32, 64, 128, 256]


def _verdict(criterion: str, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


# -- criterion 1: forward rate ------------------------------------------------


def test_criterion_01_forward_rate():
    cfg = parse_config(
        json.dumps(
            {
                "model": {"name": "ou_mean_field", "beta": 1.0, "s": 0.5, "x0": [1.0], "T": 1.0},
                "grid": {"steps": 64},
                "study": {
                    "kind": "convergence",
                    "n_values": N_GRID,
                    "reps": 2000,
                    "metrics": ["x"],
                    "seed": SEED,
                },
            }
        )
    )
    report = run_convergence_study(cfg)
    slope = report.slopes["x"]["slope"]
    _verdict(
        "1 forward rate",
        -1.25 <= slope <= -0.75,
        f"slope {slope:.4f} in [-1.25, -0.75]",
    )


# -- criterion 2: backward rate ----------------------------------------------


def test_criterion_02_backward_rate():
    cfg = parse_config(
        json.dumps(
            {
                "model": {"name": "mf_bsde_linear", "beta": 1.0, "s": 0.5, "x0": [1.0], "T": 1.0},
                "grid": {"steps": 64},
                "study": {
                    "kind": "convergence",
                    "n_values": N_GRID,
                    "reps": 2000,
                    "inner_paths": 128,
                    "degree": 2,
                    "metrics": ["y", "z"],
                    "seed": SEED,
                },
            }
        )
    )
    report = run_convergence_study(cfg)
    y_slope = report.slopes["y"]["slope"]
    y_ok = -1.3 <= y_slope <= -0.7
    z_fit = report.slopes["z"]
    # the z integrand difference is identically zero for this model (both
    # systems have the same constant martingale integrand), so the error sits
    # at squared roundoff and the bound holds with slope verdict "exact"
    z_ok = z_fit.get("verdict") == "exact" or (
        z_fit.get("slope") is not None and -1.3 <= z_fit["slope"] <= -0.7
    )
    _verdict(
        "2 backward rate",
        y_ok and z_ok,
        f"y slope {y_slope:.4f}; z {'exact-zero' if z_fit.get('verdict') == 'exact' else z_fit.get('slope')}",
    )


# -- criterion 2b: backward rate of a driver that reads partner y ------------


def test_criterion_02b_value_law_backward_rate():
    # tanh_bounded's driver averages partner y, so both sides of every block
    # read the value law; N runs to 32 times the inner paths, where a limit
    # driver averaged over a block's own paths would leave an N-independent
    # floor and flatten N * err
    n_values = [64, 128, 256, 512, 1024]
    cfg = parse_config(
        json.dumps(
            {
                "model": {"name": "tanh_bounded"},
                "grid": {"steps": 16},
                "study": {
                    "kind": "convergence",
                    "n_values": n_values,
                    "reps": 512,
                    "inner_paths": 32,
                    "metrics": ["y"],
                    "seed": SEED,
                },
            }
        )
    )
    report = run_convergence_study(cfg)
    slope = report.slopes["y"]["slope"]
    err = {row["N"]: row["value"] for row in report.tables["errors"]}
    ratio = (n_values[-1] * err[n_values[-1]]) / (n_values[0] * err[n_values[0]])
    _verdict(
        "2b value-law backward rate",
        -1.3 <= slope <= -0.7 and ratio <= 1.35,
        f"y slope {slope:.4f} in [-1.3, -0.7]; N*err(1024) / N*err(64) = {ratio:.3f} <= 1.35",
    )


# -- criterion 3: exactness on decoupling ------------------------------------


def test_criterion_03_decoupled_exactness():
    model = catalog_model("constant", b0=0.4, s=1.1, phi0=2.0, f0=0.3)
    law = solve_limit_forward(model, GRID, 2, derive_key(ROOT, "c3law", 0))
    ok = True
    for N in (8, 64, 256):
        sim = simulate_blocks(
            law, N, n_blocks=1, inner=512,
            w_key=derive_key(ROOT, "c3w", N), env_key=derive_key(ROOT, "c3e", N),
        )
        ok = ok and np.array_equal(sim.xn, sim.xlim)
        sol_n = solve_bsde_n(model, N, sim)
        sol_l = solve_mfbsde(law, sim.xlim, sim.dw)
        ok = ok and np.array_equal(sol_n.y_values, sol_l.y_values)
        ok = ok and np.array_equal(sol_n.z_values, sol_l.z_values)
    _verdict("3 decoupling exactness", ok, "bit-exact for N in {8, 64, 256}")


# -- criteria 4 and 5: fluctuation variance and distribution ------------------


@pytest.fixture(scope="module")
def ou_clt_data():
    model = catalog_model("ou_mean_field", beta=1.0, s=0.5, x0=1.0, T=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "c4law", 0))
    x, _, _ = coupled_gaps(
        law, 256, 4000, 1, derive_key(ROOT, "c4w", 0), derive_key(ROOT, "c4e", 0)
    )
    samples = 16.0 * x[:, -1, 0]
    limit = solve_limit_system(
        law, members=4000, key=derive_key(ROOT, "c4ls", 0), inner=64
    )
    return samples, limit


def test_criterion_04_clt_variance(ou_clt_data):
    samples, limit = ou_clt_data
    target = 1.0 * 0.25 / 3.0  # beta^2 s^2 / 3
    v_approx = samples.var(ddof=1)
    v_limit = limit.xbar[:, -1, 0].var(ddof=1)
    ok_a = abs(v_approx - target) <= 0.15 * target
    ok_b = abs(v_limit - target) <= 0.15 * target
    _verdict(
        "4 fluctuation variance",
        ok_a and ok_b,
        f"approx {v_approx:.5f}, limit ensemble {v_limit:.5f}, target {target:.5f} (15%)",
    )


@pytest.fixture(scope="module")
def mf_y_fluct_data():
    model = catalog_model("mf_bsde_linear", beta=1.0, s=0.5, x0=1.0, T=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "c5law", 0))
    node = GRID.node_at(0.5)
    _, y, _ = coupled_gaps(
        law, 256, 4000, 128, derive_key(ROOT, "c5w", 0), derive_key(ROOT, "c5e", 0),
        degree=2,
    )
    samples = 16.0 * y[:, node]
    limit = solve_limit_system(
        law, members=4000, key=derive_key(ROOT, "c5ls", 0), inner=64
    )
    return samples, limit, node


def test_criterion_05_clt_distribution(ou_clt_data, mf_y_fluct_data):
    x_samples, x_limit = ou_clt_data
    ks_x = sp_stats.ks_2samp(x_samples, x_limit.xbar[:, -1, 0])
    y_samples, y_limit, node = mf_y_fluct_data
    ks_y = sp_stats.ks_2samp(y_samples, y_limit.ybar[:, node])
    ok = ks_x.pvalue > 0.01 and ks_y.pvalue > 0.01
    _verdict(
        "5 fluctuation distribution",
        ok,
        f"KS p-values: x {ks_x.pvalue:.3f}, y {ks_y.pvalue:.3f} (> 0.01)",
    )


# -- criterion 6: field covariance --------------------------------------------


def test_criterion_06_field_covariance():
    model = catalog_model("ou_mean_field", beta=1.0, s=1.0, x0=1.0, T=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "c6law", 0))
    times = (0.25, 0.5, 1.0)
    lattice = FieldLattice(GRID, tuple(GRID.node_at(t) for t in times))
    cov = theoretical_covariance(
        law, lattice, cloud_size=60000, key=derive_key(ROOT, "c6k", 0)
    )
    theo_ok = True
    for a, ta in enumerate(times):
        for b, tb in enumerate(times):
            theo_ok = theo_ok and abs(cov.matrix[a, b] - min(ta, tb)) <= 3 * cov.stderr[a, b]
    reps = 10_000
    sample = empirical_fields(law, 256, lattice, reps, derive_key(ROOT, "c6env", 0))
    emp = np.cov(sample.T)
    emp_ok = True
    for i in range(3):
        for j in range(3):
            se_emp = math.sqrt((emp[i, i] * emp[j, j] + emp[i, j] ** 2) / reps)
            combined = math.sqrt(se_emp**2 + cov.stderr[i, j] ** 2)
            emp_ok = emp_ok and abs(emp[i, j] - cov.matrix[i, j]) <= 4 * combined
    _verdict(
        "6 field covariance",
        theo_ok and emp_ok,
        f"kernel vs min(t,t') within 3 SE: {theo_ok}; empirical at N=256 within 4 SE: {emp_ok}",
    )


# -- criterion 7: z boundedness ------------------------------------------------


def test_criterion_07_z_boundedness():
    worst = 0.0
    # linear benchmark: closed form gives |z| = s
    model = catalog_model("mf_bsde_linear", beta=1.0, s=0.5, x0=1.0, T=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "c7law", 0))
    for N in N_GRID:
        sim = simulate_blocks(
            law, N, n_blocks=16, inner=256,
            w_key=derive_key(ROOT, "c7w", N), env_key=derive_key(ROOT, "c7e", N),
        )
        sol = solve_bsde_n(model, N, sim)
        worst = max(worst, sol.max_abs_z)
    # bounded benchmark with partner-dependent driver and diffusion
    model_t = catalog_model("tanh_bounded", s=1.0, rho=0.4, kappa=0.25, x0=0.0, T=1.0)
    law_t = solve_limit_forward(model_t, GRID, 4096, derive_key(ROOT, "c7tl", 0))
    vlaw_t = value_law(law_t, derive_key(ROOT, "c7tv", 0))
    for N in N_GRID:
        sim = simulate_blocks(
            vlaw_t, N, n_blocks=16, inner=256,
            w_key=derive_key(ROOT, "c7tbw", N), env_key=derive_key(ROOT, "c7tbe", N),
        )
        sol = solve_bsde_n(model_t, N, sim)
        worst = max(worst, sol.max_abs_z)
    _verdict("7 z boundedness", worst < 5.0, f"max |z| = {worst:.3f} < 5.0")


# -- criterion 8: comparison property ------------------------------------------


def test_criterion_08_comparison_property():
    model = catalog_model("constant", b0=0.0, s=1.0, x0=0.0)
    law = solve_limit_forward(model, GRID, 2, derive_key(ROOT, "c8law", 0))
    sim = simulate_blocks(
        law, 1, 1, 256, derive_key(ROOT, "c8w", 0), derive_key(ROOT, "c8e", 0),
    )
    x, dw = sim.xlim[0], sim.dw[0]
    from mfbsde.noise import generator

    rng = generator(derive_key(ROOT, "c8r", 0))
    all_pass = True
    min_margin = np.inf
    for trial in range(20):
        a, b, c = rng.uniform(-1, 1, 3)
        shift_t, shift_g = rng.uniform(0, 1, 2)

        def term_lo(xT, a=a):
            return np.sin(a * xT[:, 0])

        def term_hi(xT, a=a, s=shift_t):
            return np.sin(a * xT[:, 0]) + s

        def drv_lo(t, x_, y, z, b=b, c=c):
            return b * np.tanh(y) + c * np.tanh(z[:, 0])

        def drv_hi(t, x_, y, z, b=b, c=c, s=shift_g):
            return b * np.tanh(y) + c * np.tanh(z[:, 0]) + s

        res = check_comparison(GRID, x, dw, term_hi, drv_hi, term_lo, drv_lo)
        all_pass = all_pass and res.passed
        min_margin = min(min_margin, res.margin + res.eps)
    _verdict(
        "8 comparison property",
        all_pass and min_margin >= 0.0,
        f"20/20 ordered pairs pass; min margin + eps = {min_margin:.2e}",
    )


# -- criterion 9: time regularity ----------------------------------------------


def test_criterion_09_hoelder_in_time():
    model = catalog_model("mf_bsde_linear", beta=1.0, s=0.5, x0=1.0, T=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "c9law", 0))
    sim = simulate_blocks(
        law, 64, n_blocks=64, inner=128,
        w_key=derive_key(ROOT, "c9w", 0), env_key=derive_key(ROOT, "c9e", 0),
    )
    sol = solve_bsde_n(model, 64, sim)
    y = sol.y_values
    gaps = [1, 2, 4, 8, 16, 32]
    e2 = [float(np.mean((y[:, g:] - y[:, :-g]) ** 2)) for g in gaps]
    slope = float(np.polyfit(np.log([g * GRID.h for g in gaps]), np.log(e2), 1)[0])
    _verdict("9 time regularity", 0.7 <= slope <= 1.3, f"slope {slope:.3f} in [0.7, 1.3]")


# -- criterion 10: infrastructure ----------------------------------------------


def test_criterion_10a_gradient_checks():
    worst = 0.0
    for name in CATALOG_NAMES:
        model = catalog_model(name)
        report = check_gradients(model, random_probes(model, 100, derive_key(ROOT, "c10g", 1)))
        worst = max(worst, report.worst)
        assert report.passed, (name, report.max_rel_error)
    _verdict("10a gradient checks", worst <= 1e-5, f"max rel error {worst:.2e} <= 1e-5")


def test_criterion_10b_determinism(tmp_path):
    doc = {
        "model": {"name": "ou_mean_field", "beta": 1.0, "s": 0.5, "x0": [1.0], "T": 1.0},
        "grid": {"steps": 32},
        "study": {
            "kind": "convergence",
            "n_values": [8, 16, 32],
            "reps": 200,
            "metrics": ["x", "y", "z"],
            "inner_paths": 64,
            "seed": SEED,
        },
    }
    reports = []
    for run in ("a", "b"):
        cfg = parse_config(json.dumps(doc))
        emit_report(run_convergence_study(cfg), tmp_path / run)
        blob = json.loads((tmp_path / run / "report.json").read_text())
        blob.pop("timestamp")
        reports.append(json.dumps(blob, sort_keys=True))
    same_json = reports[0] == reports[1]
    same_csv = (tmp_path / "a" / "errors.csv").read_bytes() == (
        tmp_path / "b" / "errors.csv"
    ).read_bytes()
    _verdict(
        "10b determinism",
        same_json and same_csv,
        "repeat runs byte-identical modulo timestamp",
    )


def test_criterion_10c_field_sampler_covariance():
    model = catalog_model("ou_mean_field", beta=1.0, s=1.0, x0=1.0, T=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "c10law", 0))
    lattice = FieldLattice(GRID, (GRID.node_at(0.25), GRID.node_at(0.5), GRID.node_at(1.0)))
    cov = theoretical_covariance(
        law, lattice, cloud_size=8192, key=derive_key(ROOT, "c10k", 0)
    )
    n = 10_000
    sample = sample_field_on_lattice(cov, derive_key(ROOT, "c10s", 0), count=n)
    emp = np.cov(sample.T)
    ok = True
    for i in range(3):
        for j in range(3):
            se = math.sqrt((cov.matrix[i, i] * cov.matrix[j, j] + cov.matrix[i, j] ** 2) / n)
            ok = ok and abs(emp[i, j] - cov.matrix[i, j]) <= 3 * se
    _verdict("10c field sampler covariance", ok, "empirical matches input within 3 SE")
