import math

import numpy as np
import pytest

from mfbsde import backward
from mfbsde.backward import (
    _FIXPOINT_CAP,
    _FIXPOINT_TOL,
    _SPREAD_ROUNDOFF,
    _backward_induction,
    _batched_fit,
    _exponent_tuples,
    _features,
    _gram,
    check_comparison,
    min_block_paths,
    solve_bsde_n,
    solve_linear_limit_bsde,
    solve_mfbsde,
    solve_plain_bsde,
)
from mfbsde.fluctuation import solve_limit_system
from mfbsde.forward import simulate_blocks, solve_limit_forward
from mfbsde.harness import study_law
from mfbsde.model import CATALOG_NAMES, catalog_model
from mfbsde.noise import StreamKey, TimeGrid, brownian_increments, derive_key, generator

ROOT = StreamKey(seed=8101)
GRID = TimeGrid(1.0, 64)


def _paths_and_increments(model, grid, count, key, law=None):
    """(P, n+1, d) limit-dynamics paths with their (P, n, d) increments."""
    law = law or solve_limit_forward(model, grid, 1024, derive_key(key, "law", 0))
    w_key = derive_key(key, "w", 0).child("path", 0)
    dw = brownian_increments([w_key], (count, grid.steps, model.dim), grid.h)
    return law.euler(dw)[0], dw[0], law


def test_shared_gram_fit_matches_per_target_reference():
    # random blocks whose second state column has zero spread (a dropped
    # feature); every target must match its own einsum Gram + solve fit
    rng = generator(derive_key(ROOT, "gram", 0))
    B, P, ridge = 6, 200, 1e-10
    states = rng.standard_normal((B, P, 3))
    states[:, :, 1] = 0.5
    feats = _features(states, 2)
    assert np.sum(np.all(feats == 0.0, axis=(0, 1))) == 4  # x1, x0 x1, x1^2, x1 x2
    targets = rng.standard_normal((B, P, 4)) + feats[..., 1:5] ** 2
    fitted = _batched_fit(feats, _gram(feats, ridge), targets)
    K = feats.shape[-1]
    for j in range(targets.shape[-1]):
        gram = np.einsum("bpi,bpj->bij", feats, feats) + ridge * P * np.diag([0.0] + [1.0] * (K - 1))
        rhs = np.einsum("bpi,bp->bi", feats, targets[..., j])
        ref_coef = np.linalg.solve(gram, rhs[..., None])[..., 0]
        ref_fit = np.einsum("bpi,bi->bp", feats, ref_coef)
        assert np.max(np.abs(fitted[..., j] - ref_fit)) <= 1e-12 * np.max(np.abs(ref_fit))


def _strided_induction(grid, cond_states, dw, terminal, driver_fn, degree):
    """Per-node reference of the induction on (B, P, n+1, ...) arrays,
    indexed node by node through strided slices."""
    B, P, n1, _ = cond_states.shape
    n, h, d = grid.steps, grid.h, dw.shape[-1]
    y = np.empty((B, P, n1))
    z = np.empty((B, P, n1, d))
    y[:, :, n] = terminal
    resid_rms = np.empty((n, B))
    sweeps_run = 0
    for i in range(n - 1, -1, -1):
        feats = _features(cond_states[:, :, i, :], degree)
        gram = _gram(feats)
        cond = _batched_fit(feats, gram, y[:, :, i + 1, None])[..., 0]
        centered = y[:, :, i + 1] - cond
        resid_rms[i] = np.sqrt(np.mean(centered**2, axis=1))
        z[:, :, i] = _batched_fit(feats, gram, centered[..., None] * dw[:, :, i] / h)
        cur = cond
        tol = _FIXPOINT_TOL * (1.0 + np.max(np.abs(cond), axis=1))
        live = np.ones(B, dtype=bool)
        for sweep in range(1, _FIXPOINT_CAP + 1):
            nxt = cond + h * driver_fn(i, cur, z[:, :, i])
            delta = np.max(np.abs(nxt - cur), axis=1)
            cur = np.where(live[:, None], nxt, cur)
            live &= delta > tol
            if not live.any():
                break
        sweeps_run = max(sweeps_run, sweep)
        y[:, :, i] = cur
    z[:, :, n] = z[:, :, n - 1]
    return y, z, resid_rms, sweeps_run


@pytest.mark.parametrize("B, P, n, m", [(5, 60, 8, 1), (4, 100, 8, 2)])
def test_node_major_induction_matches_strided_reference(B, P, n, m):
    # the driver reads its own y and z (no catalog driver does), so the
    # implicit fixed point and the z feedback are both exercised; m = 2 is
    # the linear-limit shape, conditioning on (x, x-bar) with d = 1
    grid = TimeGrid(1.0, n)
    rng = generator(derive_key(ROOT, "node_major", m))
    dw = np.sqrt(grid.h) * rng.standard_normal((B, P, n, 1))
    w = np.concatenate([np.zeros((B, P, 1, 1)), np.cumsum(dw, axis=2)], axis=2)
    states = np.concatenate([w, 0.5 * w**2 + rng.standard_normal((B, P, 1, 1))], axis=-1)[..., :m]
    terminal = np.sin(states[:, :, -1, 0]) + np.sum(states[:, :, -1, :], axis=-1)

    def driver(i, y, z):
        return 0.5 * np.sin(y) + 0.3 * np.tanh(z[..., 0]) + 0.1 * states[:, :, i, 0]

    states_in, dw_in = states.copy(), dw.copy()
    sol = _backward_induction(grid, states, dw, terminal, driver, 2, "reference")
    assert np.array_equal(states, states_in) and np.array_equal(dw, dw_in)
    y_ref, z_ref, rms_ref, sweeps_ref = _strided_induction(grid, states, dw, terminal, driver, 2)
    assert sol.block_shape == (B, P)
    assert sol.y_values.shape == (B * P, n + 1)
    assert sol.z_values.shape == (B * P, n + 1, 1)
    y_got, z_got = sol.designated()
    assert y_got.shape == (B, n + 1) and z_got.shape == (B, n + 1, 1)
    # owned copies of each block's first inner path: they do not keep the
    # solution's node-major buffers alive
    for got, values in ((y_got, sol.y_values), (z_got, sol.z_values)):
        assert not np.shares_memory(got, values)
        assert np.array_equal(got, values.reshape(B, P, *values.shape[1:])[:, 0])
    assert sol.max_abs_z == np.max(np.abs(sol.z_values))
    for got, ref in (
        (sol.y_values, y_ref.reshape(B * P, n + 1)),
        (sol.z_values, z_ref.reshape(B * P, n + 1, 1)),
        (y_got, y_ref[:, 0]),
        (z_got, z_ref[:, 0]),
        (sol.artifacts["residual_rms"], rms_ref),
    ):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert sol.provenance["fixpoint_sweeps"] == sweeps_ref > 2
    assert not sol.provenance["fixpoint_not_contracted"]


def test_round_off_spread_gives_zero_feature_columns():
    # the mean of 128 copies of 0.7 is not 0.7 exactly, so their std is about
    # 1e-16; scaling by it would make a +-1 copy of the intercept
    states = np.full((1, 128, 1), 0.7)
    assert states.std() > 0.0
    feats = _features(states, 2)
    assert np.all(feats[..., 0] == 1.0)
    assert np.all(feats[..., 1:] == 0.0)


def _reference_features(states, degree):
    """The feature map written with `np.std`, `np.where` and `np.stack`."""
    mean = states.mean(axis=1, keepdims=True)
    std = states.std(axis=1, keepdims=True)
    live = std > _SPREAD_ROUNDOFF * np.abs(mean)
    scaled = np.where(live, (states - mean) / np.where(live, std, 1.0), 0.0)
    cols = []
    for e in _exponent_tuples(states.shape[-1], degree):
        col = np.ones(states.shape[:-1])
        for v, p in enumerate(e):
            if p:
                col = col * scaled[..., v] ** p
        cols.append(col)
    return np.stack(cols, axis=-1)


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_features_match_the_std_where_stack_form_bit_for_bit(m, degree):
    # every column live (the in-place scaling), then one block with an
    # exactly constant column and one with a constant 0.7 column, whose std
    # is round-off (the masked scaling)
    rng = generator(derive_key(ROOT, "features", 10 * m + degree))
    live = 1.5 + 3.0 * rng.standard_normal((5, 64, m))
    dead = live.copy()
    dead[1, :, 0] = 2.0
    dead[3, :, m - 1] = 0.7
    assert np.all(dead[1].std(axis=0)[0] == 0.0) and dead[3].std(axis=0)[m - 1] > 0.0
    for states in (live, dead):
        given = states.copy()
        got = _features(states, degree)
        assert np.array_equal(states, given)
        assert got.shape == (5, 64, len(_exponent_tuples(m, degree)))
        assert got.tobytes() == _reference_features(states, degree).tobytes()
    if degree:
        assert np.all(got[1, :, m] == 0.0) and np.all(got[3, :, 1] == 0.0)


def test_min_block_paths_counts_the_exponent_tuples():
    # the basis is counted, not listed: ten paths per monomial of total
    # degree at most `degree`
    for m in range(1, 5):
        for degree in range(7):
            assert min_block_paths(m, degree) == 10 * len(_exponent_tuples(m, degree)), (m, degree)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_explicit_driver_step_matches_the_fixed_point_bit_for_bit(monkeypatch, name, dim):
    # no catalog driver reads its own (y, z), so every solve of a coupled
    # pair and of the linear limit takes one driver step per node; forcing
    # the fixed point back must give the same bytes
    model = catalog_model(name, dim=dim, x0=0.5)
    assert not backward._driver_reads_own_yz(model)
    grid = TimeGrid(1.0, 8)
    key = derive_key(ROOT, f"explicit_{name}", dim)
    law = study_law(model, grid, 256, 2, key, backward=True)

    def run():
        sim = simulate_blocks(law, 8, 6, 64, key.child("w", 0), key.child("e", 0))
        sols = [solve_bsde_n(model, 8, sim), solve_mfbsde(law, sim.xlim, sim.dw)]
        limit = solve_limit_system(law, 4, key.child("ls", 0), inner=32, cloud_size=256)
        return sols, limit

    lean_sols, lean_limit = run()
    monkeypatch.setattr(backward, "_driver_reads_own_yz", lambda model: True)
    fixed_sols, fixed_limit = run()
    for lean, fixed in zip(lean_sols, fixed_sols):
        assert lean.provenance["fixpoint_sweeps"] == 1
        for part in ("y_values", "z_values"):
            assert getattr(lean, part).tobytes() == getattr(fixed, part).tobytes()
        assert lean.artifacts["residual_rms"].tobytes() == fixed.artifacts["residual_rms"].tobytes()
    assert np.any(lean_sols[0].y_values != 0.0)
    for part in ("x", "xbar", "ybar", "zbar"):
        assert getattr(lean_limit, part).tobytes() == getattr(fixed_limit, part).tobytes()


def test_value_law_fixed_point_reaches_its_tolerance():
    # the value law's own solve averages tanh_bounded's driver over the
    # cloud's y, so each driver step is implicit and must converge
    grid = TimeGrid(1.0, 16)
    model = catalog_model("tanh_bounded")
    law = solve_limit_forward(model, grid, 1024, derive_key(ROOT, "vlaw", 0))
    x, dw, _ = _paths_and_increments(model, grid, 1024, derive_key(ROOT, "vlp", 0), law)
    sol = solve_mfbsde(law, x[None], dw[None])
    assert not sol.provenance["fixpoint_not_contracted"]
    assert 2 < sol.provenance["fixpoint_sweeps"] < 50


def test_constant_terminal_no_driver_gives_flat_solution():
    model = catalog_model("constant", b0=0.0, s=1.0, phi0=1.0, f0=0.0)
    x, dw, law = _paths_and_increments(model, GRID, 256, derive_key(ROOT, "flat", 0))
    sol = solve_mfbsde(law, x[None], dw[None])
    assert np.allclose(sol.y_values, 1.0, atol=1e-12)
    assert np.allclose(sol.z_values, 0.0, atol=1e-12)


def test_constant_driver_integrates_linearly():
    c = 0.7
    model = catalog_model("constant", b0=0.0, s=1.0, phi0=0.0, f0=c)
    x, dw, law = _paths_and_increments(model, GRID, 256, derive_key(ROOT, "lin", 0))
    sol = solve_mfbsde(law, x[None], dw[None])
    expected = c * (GRID.horizon - GRID.nodes)
    assert np.allclose(sol.y_values, expected[None, :], atol=1e-9)


def test_mf_linear_limit_solution_matches_closed_form():
    # Y_0 = 2e within 2 percent, Z close to 1 in ensemble RMS
    model = catalog_model("mf_bsde_linear", beta=1.0, s=1.0, x0=1.0, T=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 1))
    sim = simulate_blocks(
        law, 1, n_blocks=1, inner=4096,
        w_key=derive_key(ROOT, "mfw", 0), env_key=derive_key(ROOT, "mfe", 0),
    )
    sol = solve_mfbsde(law, sim.xlim, sim.dw)
    y0 = sol.y_values[:, 0].mean()
    assert abs(y0 - 2 * math.e) / (2 * math.e) < 0.02
    z_rms_err = np.sqrt(np.mean((sol.z_values[:, :-1, 0] - 1.0) ** 2))
    assert z_rms_err < 0.05


def test_decoupled_bsde_n_equals_limit_solution_bit_exactly():
    model = catalog_model("constant", b0=0.4, s=1.1, phi0=2.0, f0=0.3)
    law = solve_limit_forward(model, GRID, 2, derive_key(ROOT, "law", 2))
    for N in (1, 16):
        sim = simulate_blocks(
            law, N, n_blocks=1, inner=128,
            w_key=derive_key(ROOT, "dw", N), env_key=derive_key(ROOT, "de", N),
        )
        assert np.array_equal(sim.xn, sim.xlim)
        sol_n = solve_bsde_n(model, N, sim)
        sol_lim = solve_mfbsde(law, sim.xlim, sim.dw)
        assert np.array_equal(sol_n.y_values, sol_lim.y_values)
        assert np.array_equal(sol_n.z_values, sol_lim.z_values)


def test_trivial_terminal_for_every_environment_size():
    model = catalog_model("constant", b0=0.0, s=1.0, phi0=1.0)
    law = solve_limit_forward(model, GRID, 2, derive_key(ROOT, "law", 3))
    for N in (1, 8):
        sim = simulate_blocks(
            law, N, 1, 64, derive_key(ROOT, "tw", N), derive_key(ROOT, "te", N),
        )
        sol = solve_bsde_n(model, N, sim)
        assert np.allclose(sol.y_values, 1.0, atol=1e-12)
        assert np.allclose(sol.z_values, 0.0, atol=1e-12)


def test_terminal_values_are_exact_per_replication():
    model = catalog_model("mf_bsde_linear", beta=1.0, s=0.5, x0=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 4))
    sim = simulate_blocks(
        law, 8, 4, 64, derive_key(ROOT, "term", 0), derive_key(ROOT, "terme", 0),
    )
    sol = solve_bsde_n(model, 8, sim)
    # terminal node reproduces the averaged terminal functional exactly
    # block b's partners are the draw addressed by env_key.child("env", b)
    env_key = derive_key(ROOT, "terme", 0)
    env_term = np.stack([law.draw(env_key.child("env", b), 8) for b in range(4)])[:, :, -1]
    expected = sim.xn[:, :, -1, 0] + env_term[:, :, 0].mean(axis=1)[:, None]
    got = sol.y_values.reshape(4, 64, -1)[:, :, -1]
    assert np.allclose(got, expected, atol=1e-12)


def test_martingale_property_without_driver():
    model = catalog_model("mf_bsde_linear", beta=1.0, s=0.5, x0=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 5))
    sim = simulate_blocks(
        law, 1, 1, 4096, derive_key(ROOT, "mart", 0), derive_key(ROOT, "marte", 0),
    )
    sol = solve_mfbsde(law, sim.xlim, sim.dw)
    means = sol.y_values.mean(axis=0)
    se = sol.y_values.std(axis=0, ddof=1) / math.sqrt(sol.y_values.shape[0])
    # ensemble mean constant across nodes within 3 standard errors
    assert np.all(np.abs(means - means[-1]) <= 3 * np.maximum(se, 1e-12) + 1e-9)


def test_mf_bsde_linear_error_ratio_between_environment_sizes():
    model = catalog_model("mf_bsde_linear", beta=1.0, s=0.5, x0=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 6))
    errors = {}
    for N in (16, 64):
        sim = simulate_blocks(
            law, N, n_blocks=600, inner=128,
            w_key=derive_key(ROOT, "rw", N), env_key=derive_key(ROOT, "re", N),
        )
        sol_n = solve_bsde_n(model, N, sim)
        sol_lim = solve_mfbsde(law, sim.xlim, sim.dw)
        y_n, _ = sol_n.designated()
        y_lim, _ = sol_lim.designated()
        errors[N] = float(np.mean(np.max((y_n - y_lim) ** 2, axis=1)))
    ratio = errors[64] / errors[16]
    assert 0.125 <= ratio <= 0.5


def test_z_values_stay_bounded_on_benchmarks():
    model = catalog_model("mf_bsde_linear", beta=1.0, s=0.5, x0=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 7))
    sim = simulate_blocks(
        law, 32, 16, 256, derive_key(ROOT, "zb", 0), derive_key(ROOT, "zbe", 0),
    )
    sol = solve_bsde_n(model, 32, sim)
    assert sol.max_abs_z < 5.0
    assert not sol.provenance["z_cap_exceeded"]


def test_comparison_identical_data_zero_margin():
    model = catalog_model("constant", b0=0.0, s=1.0)
    x, dw, _ = _paths_and_increments(model, GRID, 128, derive_key(ROOT, "cmp", 0))
    term = lambda xT: np.maximum(xT[:, 0], 0.0)
    drv = lambda t, x_, y, z: 0.1 * np.cos(y)
    res = check_comparison(GRID, x, dw, term, drv, term, drv)
    assert res.passed
    assert res.margin == 0.0


def test_comparison_terminal_shift_passes_through():
    model = catalog_model("constant", b0=0.0, s=1.0)
    x, dw, _ = _paths_and_increments(model, GRID, 128, derive_key(ROOT, "cmp", 1))
    term_lo = lambda xT: np.sin(xT[:, 0])
    term_hi = lambda xT: np.sin(xT[:, 0]) + 1.0
    drv = lambda t, x_, y, z: -0.5 * z[:, 0]
    res = check_comparison(GRID, x, dw, term_hi, drv, term_lo, drv)
    assert res.passed
    # additive shift of the terminal passes through a y-free driver
    assert res.margin == pytest.approx(1.0, abs=res.eps)


def test_comparison_constant_driver_shift_integrates():
    model = catalog_model("constant", b0=0.0, s=1.0)
    x, dw, _ = _paths_and_increments(model, GRID, 256, derive_key(ROOT, "cmp", 2))
    term = lambda xT: xT[:, 0] ** 2
    drv_lo = lambda t, x_, y, z: np.zeros(len(y))
    drv_hi = lambda t, x_, y, z: 0.5 * np.ones(len(y))
    lo = solve_plain_bsde(GRID, x, dw, term, drv_lo)
    hi = solve_plain_bsde(GRID, x, dw, term, drv_hi)
    gap = (hi.y_values[:, 0] - lo.y_values[:, 0]).mean()
    assert gap == pytest.approx(0.5 * GRID.horizon, abs=1e-6)
    res = check_comparison(GRID, x, dw, term, drv_hi, term, drv_lo)
    assert res. passed


def test_comparison_rejects_misordered_input():
    model = catalog_model("constant", b0=0.0, s=1.0)
    x, dw, _ = _paths_and_increments(model, GRID, 128, derive_key(ROOT, "cmp", 3))
    term = lambda xT: xT[:, 0]
    term_lower = lambda xT: xT[:, 0] - 1.0
    drv = lambda t, x_, y, z: np.zeros(len(y))
    with pytest.raises(ValueError, match="terminal ordering"):
        check_comparison(GRID, x, dw, term_lower, drv, term, drv)


def test_randomized_ordered_pairs_all_pass():
    model = catalog_model("constant", b0=0.0, s=1.0)
    x, dw, _ = _paths_and_increments(model, GRID, 128, derive_key(ROOT, "cmp", 4))
    rng = generator(derive_key(ROOT, "cmp", 5))
    for trial in range(20):
        a, b, c = rng.uniform(-1, 1, 3)
        shift_t, shift_g = rng.uniform(0, 1, 2)

        def term_lo(xT, a=a):
            return np.tanh(a * xT[:, 0])

        def term_hi(xT, a=a, s=shift_t):
            return np.tanh(a * xT[:, 0]) + s

        def drv_lo(t, x_, y, z, b=b, c=c):
            return b * np.tanh(y) + c * np.tanh(z[:, 0])

        def drv_hi(t, x_, y, z, b=b, c=c, s=shift_g):
            return b * np.tanh(y) + c * np.tanh(z[:, 0]) + s

        res = check_comparison(GRID, x, dw, term_hi, drv_hi, term_lo, drv_lo)
        assert res.passed, f"trial {trial}: margin {res.margin}, eps {res.eps}"


def test_hoelder_in_time_scaling_of_y():
    # log E|Y_t - Y_t'|^2 against log|t - t'| has slope near 1
    model = catalog_model("mf_bsde_linear", beta=1.0, s=0.5, x0=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 8))
    sim = simulate_blocks(
        law, 64, 64, 128, derive_key(ROOT, "hw", 0), derive_key(ROOT, "he", 0),
    )
    sol = solve_bsde_n(model, 64, sim)
    y = sol.y_values
    gaps = [1, 2, 4, 8, 16, 32]
    e2 = []
    for g in gaps:
        diffs = y[:, g:] - y[:, :-g]
        e2.append(np.mean(diffs**2))
    slope = np.polyfit(np.log([g * GRID.h for g in gaps]), np.log(e2), 1)[0]
    assert 0.7 <= slope <= 1.3


def test_linear_limit_bsde_zero_forcing_gives_zero():
    model = catalog_model("constant", b0=0.1, s=1.0, phi0=1.0)
    law = solve_limit_forward(model, GRID, 2, derive_key(ROOT, "law", 9))
    sim = simulate_blocks(
        law, 1, 8, 64, derive_key(ROOT, "llw", 0), derive_key(ROOT, "lle", 0),
    )
    xbar = np.zeros_like(sim.xlim)
    xi3 = np.zeros(8)
    sol = solve_linear_limit_bsde(model, GRID, sim.xlim, xbar, sim.dw, xi3)
    assert np.allclose(sol.y_values, 0.0, atol=1e-12)
    assert np.allclose(sol.z_values, 0.0, atol=1e-12)


def test_linear_limit_bsde_terminal_mean_near_zero():
    # terminal field with zero mean and zero first-order state: ensemble mean
    # of the terminal value within 3 standard errors of zero
    model = catalog_model("mf_bsde_linear", beta=1.0, s=0.5, x0=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 10))
    B = 64
    sim = simulate_blocks(
        law, 1, B, 64, derive_key(ROOT, "lmw", 0), derive_key(ROOT, "lme", 0),
    )
    rng = generator(derive_key(ROOT, "llf", 0))
    xi3 = 0.5 * rng.standard_normal(B)
    xbar = np.zeros_like(sim.xlim)
    sol = solve_linear_limit_bsde(model, GRID, sim.xlim, xbar, sim.dw, xi3)
    yT = sol.y_values.reshape(B, 64, -1)[:, 0, -1]
    se = yT.std(ddof=1) / math.sqrt(B)
    assert abs(yT.mean()) <= 3 * se + 1e-9
    # driverless: the value process is a martingale, mean constant in time
    y0 = sol.y_values.reshape(B, 64, -1)[:, 0, 0]
    assert abs(y0.mean() - yT.mean()) <= 4 * se + 1e-9
