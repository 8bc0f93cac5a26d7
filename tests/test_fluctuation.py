import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from mfbsde import forward
from mfbsde.fluctuation import (
    FieldLattice,
    LimitSystemResult,
    _BLOCK_ORDER,
    _field_labels,
    _field_values,
    _ks_row,
    _split_path_field,
    clt_compare,
    empirical_fields,
    sample_field_on_lattice,
    solve_limit_system,
    theoretical_covariance,
    value_law,
)
from mfbsde.forward import LawFlow, simulate_blocks, solve_limit_forward
from mfbsde.model import catalog_model
from mfbsde.noise import StreamKey, TimeGrid, brownian_increments, derive_key

ROOT = StreamKey(seed=9200)
GRID = TimeGrid(1.0, 64)


def _lattice(grid, times, blocks=("drift",)):
    return FieldLattice(grid, tuple(grid.node_at(t) for t in times), blocks=blocks)


def test_lattice_index_map_is_bijective():
    # columns run block by block, node-major, then over the coefficient's axes
    model = catalog_model("tanh_bounded", dim=2)
    lat = FieldLattice(GRID, (16, 32), blocks=("drift", "diffusion", "terminal", "driver"))
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, GRID.steps + 1, 2))
    y = rng.standard_normal((5, GRID.steps + 1))
    vals, labels = _field_values(model, lat, x, y)
    assert vals.shape == (5, 15) and vals.flags.c_contiguous
    assert labels == _field_labels(model, lat)
    assert labels == (
        tuple(("drift", t, (j,)) for t in (16, 32) for j in range(2))
        + tuple(("diffusion", t, (j, k)) for t in (16, 32) for j in range(2) for k in range(2))
        + (("terminal", 64, ()),)
        + tuple(("driver", t, ()) for t in (16, 32))
    )
    nodes = [16, 32]
    expected = np.concatenate(
        [
            model.drift_env(x[:, nodes]).reshape(5, 4),
            model.diffusion_env(x[:, nodes]).reshape(5, 8),
            model.terminal_env(x[:, 64])[:, None],
            model.driver_env(x[:, nodes], y[:, nodes]),
        ],
        axis=1,
    )
    assert np.array_equal(vals, expected)


def test_empty_lattice_rejected():
    # an empty lattice has no entry to evaluate: the laws' kernels and fields
    # would index its first node
    with pytest.raises(ValueError, match="at least one time node"):
        FieldLattice(GRID, ())
    with pytest.raises(ValueError, match="at least one time node"):
        FieldLattice(GRID, (), blocks=("drift", "terminal"))


@pytest.mark.parametrize(
    "nodes, match",
    [
        ((16.7,), "node 16.7 is not an integer grid index"),
        ((16, 16), "node 16 repeats"),
        ((True,), "node True is not an integer grid index"),
    ],
    ids=["fractional", "repeated", "bool"],
)
def test_lattice_rejects_a_node_that_is_not_one_distinct_integer(nodes, match):
    # each used to pass: a fractional node failed later with IndexError or
    # KeyError, a repeated one in a reshape, and True silently meant node 1
    with pytest.raises(ValueError, match=match):
        FieldLattice(GRID, nodes)


def test_lattice_accepts_numpy_integer_nodes():
    lat = FieldLattice(GRID, tuple(np.array([32, 16])))
    assert _field_labels(catalog_model("ou_mean_field"), lat) == (
        ("drift", 32, (0,)),
        ("drift", 16, (0,)),
    )


def test_theoretical_covariance_ou_is_min_kernel():
    # drift(x, e) = beta * e with unit diffusion: kernel = cov(X_t, X_t') = min(t, t')
    model = catalog_model("ou_mean_field", beta=1.0, s=1.0, x0=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 0))
    lat = _lattice(GRID, (0.25, 0.5, 1.0))
    cov = theoretical_covariance(law, lat, cloud_size=60000, key=derive_key(ROOT, "k", 0))
    times = (0.25, 0.5, 1.0)
    for a, ta in enumerate(times):
        for b, tb in enumerate(times):
            expected = min(ta, tb)
            got = cov.matrix[a, b]
            assert abs(got - expected) <= 3 * cov.stderr[a, b], (ta, tb, got)


def test_theoretical_covariance_constant_diffusion_block_zero():
    model = catalog_model("ou_mean_field", beta=1.0, s=1.0, x0=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 1))
    lat = _lattice(GRID, (0.5, 1.0), blocks=("drift", "diffusion"))
    cov = theoretical_covariance(law, lat, cloud_size=2000, key=derive_key(ROOT, "k", 1))
    idx = [i for i, label in enumerate(cov.labels) if label[0] == "diffusion"]
    assert len(idx) == 2
    assert np.all(cov.matrix[np.ix_(idx, idx)] == 0.0)


@pytest.mark.parametrize("x0", [0.3, 0.7])
def test_field_at_the_initial_node_has_exactly_zero_covariance(x0):
    # every path starts at x0, so the t = 0 entry is constant; its mean once
    # rounded away from x0 and left a variance of ~1e-32 that the empirical
    # side, exactly 0, could not match
    model = catalog_model("ou_mean_field", beta=1.0, s=0.5, x0=x0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 4))
    lat = _lattice(GRID, (0.0, 0.5))
    cov = theoretical_covariance(law, lat, cloud_size=512, key=derive_key(ROOT, "k", 4))
    assert np.all(cov.matrix[0] == 0.0) and np.all(cov.matrix[:, 0] == 0.0)
    assert cov.matrix[1, 1] > 0.0


def test_covariance_is_symmetric_psd():
    model = catalog_model("tanh_bounded")
    law = solve_limit_forward(model, GRID, 2048, derive_key(ROOT, "law", 2))
    lat = _lattice(GRID, (0.25, 0.75), blocks=("drift", "terminal"))
    cov = theoretical_covariance(law, lat)
    assert np.array_equal(cov.matrix, cov.matrix.T)
    assert np.linalg.eigvalsh(cov.matrix)[0] >= -1e-8 * np.max(np.diag(cov.matrix))


def test_covariance_rejects_small_cloud():
    model = catalog_model("ou_mean_field")
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 3))
    lat = _lattice(GRID, (0.5,))
    with pytest.raises(ValueError, match="too small"):
        theoretical_covariance(law, lat, cloud_size=50, key=derive_key(ROOT, "k", 2))


def test_driver_block_on_a_law_without_values_raises_in_partner_values():
    # the one missing-y check sits in the one partner evaluator: the kernel
    # and the empirical fields both reach it through `_field_values`
    model = catalog_model("tanh_bounded")
    law = solve_limit_forward(model, GRID, 256, derive_key(ROOT, "law", 21))
    assert law.kind == "cloud" and not law.has_y
    lat = _lattice(GRID, (0.5, 1.0), blocks=("drift", "driver"))
    match = "driver averages over partner y values, but the pool carries none"
    with pytest.raises(ValueError, match=match):
        theoretical_covariance(law, lat)
    with pytest.raises(ValueError, match=match):
        empirical_fields(law, 8, lat, 4, derive_key(ROOT, "emp", 21))


def test_field_sampler_reproduces_covariance():
    # empirical covariance of many draws matches the input entrywise within
    # 3 * sqrt((C_ii C_jj + C_ij^2)/n)
    model = catalog_model("ou_mean_field", beta=1.0, s=1.0, x0=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 4))
    lat = _lattice(GRID, (0.25, 0.5, 1.0))
    cov = theoretical_covariance(law, lat, cloud_size=8192, key=derive_key(ROOT, "k", 3))
    n = 10_000
    sample = sample_field_on_lattice(cov, derive_key(ROOT, "draw", 0), count=n)
    emp = np.cov(sample.T)
    c = cov.matrix
    for i in range(3):
        for j in range(3):
            se = math.sqrt((c[i, i] * c[j, j] + c[i, j] ** 2) / n)
            assert abs(emp[i, j] - c[i, j]) <= 3 * se


def test_field_samples_independent_across_keys():
    model = catalog_model("ou_mean_field", beta=1.0, s=1.0, x0=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 5))
    lat = _lattice(GRID, (1.0,))
    cov = theoretical_covariance(law, lat, cloud_size=4096, key=derive_key(ROOT, "k", 4))
    a = sample_field_on_lattice(cov, derive_key(ROOT, "ind", 0), count=10_000)[:, 0]
    b = sample_field_on_lattice(cov, derive_key(ROOT, "ind", 1), count=10_000)[:, 0]
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.03


def test_zero_covariance_samples_exact_zero():
    model = catalog_model("constant", b0=0.0, s=1.0)
    law = solve_limit_forward(model, GRID, 2, derive_key(ROOT, "law", 6))
    lat = _lattice(GRID, (0.5, 1.0))
    cov = theoretical_covariance(law, lat, cloud_size=512, key=derive_key(ROOT, "k", 5))
    sample = sample_field_on_lattice(cov, derive_key(ROOT, "draw", 1), count=100)
    assert np.all(sample == 0.0)


def test_empirical_fields_zero_for_decoupled_model():
    model = catalog_model("constant", b0=0.3, s=1.0)
    law = solve_limit_forward(model, GRID, 2, derive_key(ROOT, "law", 7))
    lat = _lattice(GRID, (0.5, 1.0), blocks=("drift", "terminal"))
    sample = empirical_fields(law, 32, lat, 200, derive_key(ROOT, "emp", 0))()
    assert np.all(sample == 0.0)


def test_empirical_fields_of_no_partners_raise_before_any_draw(monkeypatch):
    # N = 0 used to give NaN fields and a "Mean of empty slice" warning
    model = catalog_model("ou_mean_field", x0=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 23))

    def no_draw(*args):
        raise AssertionError("partners drawn")

    monkeypatch.setattr(LawFlow, "_pools", no_draw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="count >= 1"):
            empirical_fields(law, 0, _lattice(GRID, (0.5,)), 4, derive_key(ROOT, "emp", 23))


@pytest.mark.parametrize("name", ["tanh_bounded", "ou_mean_field"])
def test_empirical_fields_invariant_under_chunk_size(monkeypatch, name):
    # every replication draws its own partners under its own key, so the
    # pool sub-batch only bounds memory; tanh_bounded reads all four blocks
    # off a value law
    grid = TimeGrid(1.0, 16)
    model = catalog_model(name)
    law = solve_limit_forward(model, grid, 256, derive_key(ROOT, "law", 20))
    blocks = ("drift",)
    if name == "tanh_bounded":
        law = value_law(law, derive_key(ROOT, "vlaw", 20), size=256)
        blocks = ("drift", "diffusion", "terminal", "driver")
    lat = FieldLattice(grid, (4, 8, 16), blocks=blocks)
    samples = []
    for keys_per_batch in (1, 7, 30):
        # 16 partners at three nodes (the terminal's final node is one of them)
        monkeypatch.setattr(forward, "_SUB_BATCH", keys_per_batch * 16 * 3 * model.dim)
        samples.append(empirical_fields(law, 16, lat, 30, derive_key(ROOT, "emp", 20))())
    # tanh_bounded: three nodes each of drift, diffusion and driver, one terminal
    assert samples[0].shape == (30, {"tanh_bounded": 10, "ou_mean_field": 3}[name])
    assert np.any(samples[0] != 0.0)
    for other in samples[1:]:
        assert np.array_equal(other, samples[0])


def test_empirical_field_mean_and_variance():
    # mean within 3 SE of zero; variance equals the one-draw coefficient
    # variance: Var(beta * X_t) = beta^2 s^2 t for the linear-drift family
    model = catalog_model("ou_mean_field", beta=1.0, s=1.0, x0=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 8))
    lat = _lattice(GRID, (0.5,))
    reps = 10_000
    sample = empirical_fields(law, 64, lat, reps, derive_key(ROOT, "emp", 1))()
    vals = sample[:, 0]
    # centred at the law's exact mean, so no centre estimate offsets the draws
    assert abs(vals.mean()) <= 3 * vals.std(ddof=1) / math.sqrt(reps)
    target = 0.5  # beta^2 s^2 t at t = 0.5
    se = target * math.sqrt(2.0 / reps)
    assert abs(vals.var(ddof=1) - target) <= 3 * se + 0.02 * target


def test_empirical_fields_of_a_cloud_law_centre_at_its_cloud_mean():
    # partners are resampled from the cloud, so the cloud mean is their exact
    # mean: every live entry of all four blocks averages to 0 within 4 SE
    grid = TimeGrid(1.0, 16)
    model = catalog_model("tanh_bounded")
    law = solve_limit_forward(model, grid, 512, derive_key(ROOT, "law", 22))
    law = value_law(law, derive_key(ROOT, "vlaw", 22), size=512)
    lat = FieldLattice(grid, (16, 4, 8), blocks=_BLOCK_ORDER)
    reps = 4000
    sample = empirical_fields(law, 16, lat, reps, derive_key(ROOT, "emp", 22))()
    sd = sample.std(axis=0, ddof=1)
    live = sd > 0.0
    # three nodes each of drift, diffusion and driver, and the terminal: all live
    assert live.sum() == 3 + 3 + 1 + 3
    assert np.all(np.abs(sample.mean(axis=0)[live]) <= 4 * sd[live] / math.sqrt(reps))


def test_empirical_field_covariance_matches_theory():
    model = catalog_model("ou_mean_field", beta=1.0, s=1.0, x0=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 9))
    lat = _lattice(GRID, (0.25, 0.5, 1.0))
    cov = theoretical_covariance(law, lat, cloud_size=30000, key=derive_key(ROOT, "k", 6))
    reps = 4000
    sample = empirical_fields(law, 64, lat, reps, derive_key(ROOT, "emp", 2))()
    emp = np.cov(sample.T)
    for i in range(3):
        for j in range(3):
            se_emp = math.sqrt(
                (emp[i, i] * emp[j, j] + emp[i, j] ** 2) / reps
            )
            combined = math.sqrt(se_emp**2 + cov.stderr[i, j] ** 2)
            assert abs(emp[i, j] - cov.matrix[i, j]) <= 4 * combined


def test_field_scale_linearity():
    # scaling the drift coefficient by c scales its field block by c^2
    # exactly: two cloud laws, one per model, share one cloud of the base law
    base = catalog_model("ou_mean_field", beta=1.0, s=1.0, x0=1.0)
    scaled = catalog_model("ou_mean_field", beta=2.0, s=1.0, x0=1.0)
    law = solve_limit_forward(base, GRID, 0, derive_key(ROOT, "law", 10))
    cloud = law.draw(derive_key(ROOT, "k", 7), 2048)
    lat = _lattice(GRID, (0.5, 1.0))
    cov_base = theoretical_covariance(LawFlow(GRID, base, cloud=cloud), lat)
    cov_scaled = theoretical_covariance(LawFlow(GRID, scaled, cloud=cloud), lat)
    assert np.allclose(cov_scaled.matrix, 4.0 * cov_base.matrix, rtol=1e-12)


def _path_field(model, kernel, key):
    """One draw of the path kernel, split into its four field components."""
    raw = sample_field_on_lattice(kernel, key, count=1)
    drift, diffusion, terminal, driver = _split_path_field(model, kernel, raw)
    return drift[0], diffusion[0], terminal[0], driver[0]


def test_field_along_path_variance_matches_kernel():
    # for the linear-drift family the along-path field at time t has
    # variance beta^2 s^2 t regardless of the path
    model = catalog_model("ou_mean_field", beta=1.0, s=0.5, x0=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 11))
    reps = 10_000
    vals = np.empty(reps)
    # the limit system's kernel: every grid node, all four blocks
    lattice = _lattice(GRID, GRID.nodes, blocks=_BLOCK_ORDER)
    kernel = theoretical_covariance(law, lattice, 30000, derive_key(ROOT, "kern", 0))
    node = GRID.node_at(0.75)
    for r in range(reps):
        vals[r] = _path_field(model, kernel, derive_key(ROOT, "fs", r))[0][node, 0]
    target = 1.0 * 0.25 * 0.75  # beta^2 s^2 t
    se = target * math.sqrt(2.0 / reps)
    assert abs(vals.var(ddof=1) - target) <= 4 * se + 0.02 * target


def test_field_along_path_independent_draws():
    model = catalog_model("ou_mean_field", beta=1.0, s=0.5, x0=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 12))
    lattice = _lattice(GRID, GRID.nodes, blocks=_BLOCK_ORDER)
    kernel = theoretical_covariance(law, lattice, 8192, derive_key(ROOT, "kern", 1))
    n = 10_000
    a = np.empty(n)
    b = np.empty(n)
    for r in range(n):
        a[r] = _path_field(model, kernel, derive_key(ROOT, "ia", r))[0][-1, 0]
        b[r] = _path_field(model, kernel, derive_key(ROOT, "ib", r))[0][-1, 0]
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.03


def test_ou_kernel_needs_no_jitter_and_keeps_vanishing_fields_zero():
    # the ou diffusion and driver ignore the partner, so their kernel blocks
    # are exactly zero; the factorization must leave those fields exactly 0
    model = catalog_model("ou_mean_field", beta=1.0, s=0.5, x0=1.0)
    grid = TimeGrid(1.0, 32)
    law = solve_limit_forward(model, grid, 0, derive_key(ROOT, "law", 14))
    lattice = _lattice(grid, grid.nodes, blocks=_BLOCK_ORDER)
    kernel = theoretical_covariance(law, lattice, 4096, derive_key(ROOT, "kern", 2))
    for r in range(20):
        drift, diffusion, _, driver = _path_field(model, kernel, derive_key(ROOT, "zf", r))
        assert np.all(diffusion == 0.0)
        assert np.all(driver == 0.0)
        assert np.any(drift != 0.0)
    assert kernel.jitter == 0.0


def test_limit_system_variance_and_mean():
    # Var(Xbar_T) = beta^2 s^2 T^3 / 3; cross-check the discrete double-sum
    # oracle h^3 sum min(j, l) and the ensemble mean of zero
    model = catalog_model("ou_mean_field", beta=1.0, s=0.5, x0=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 13))
    res = solve_limit_system(law, members=4000, key=derive_key(ROOT, "ls", 0))
    var_T = res.xbar[:, -1, 0].var(ddof=1)
    target = 0.25 / 3.0
    assert abs(var_T - target) <= 0.15 * target
    # independent enumeration oracle for the discrete-time variance
    n = GRID.steps
    jl = np.minimum.outer(np.arange(n), np.arange(n))
    discrete = 0.25 * GRID.h**3 * jl.sum()
    assert abs(var_T - discrete) <= 4 * var_T * math.sqrt(2.0 / 4000)
    means = res.xbar[:, :, 0].mean(axis=0)
    ses = res.xbar[:, :, 0].std(axis=0, ddof=1) / math.sqrt(4000)
    assert np.all(np.abs(means) <= 4 * np.maximum(ses, 1e-12))


def test_limit_system_fits_the_ou_z_exactly():
    # on ou_mean_field the first-order value is linear in (x, xbar), so the
    # z regression fits its target exactly and zbar is zero up to round-off;
    # an explicit inverse of the Gram matrix leaks about 1e-7 into it
    model = catalog_model("ou_mean_field", beta=1.0, s=0.5, x0=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 17))
    res = solve_limit_system(law, members=100, key=derive_key(ROOT, "ls", 2))
    assert np.max(np.abs(res.zbar)) < 1e-10


@pytest.mark.parametrize("name", ["tanh_bounded", "mf_bsde_linear"])
def test_limit_system_invariant_under_chunk_size(monkeypatch, name):
    # members do not interact, so the batch only bounds memory
    model = catalog_model(name)
    grid = TimeGrid(1.0, 16)
    law = solve_limit_forward(model, grid, 1024, derive_key(ROOT, "law", 19))
    key = derive_key(ROOT, "chunk", 0)
    law = value_law(law, key.child("vlaw", 0), size=1024)
    runs = []
    for batch in (1, 7, 512):
        monkeypatch.setattr(forward, "BLOCK_PATHS", batch * 2 * 64)  # 64 inner paths on x and xbar
        runs.append(solve_limit_system(law, members=100, key=key, cloud_size=1024))
    for f in ("x", "xbar", "ybar", "zbar"):
        for res in runs[1:]:
            assert np.array_equal(getattr(res, f), getattr(runs[0], f)), f


def test_limit_system_means_vanish_on_a_nonlinear_model():
    # the limit system is linear in a centred field that is independent of
    # each member's own noise, so xbar and ybar have mean zero
    model = catalog_model("tanh_bounded")
    grid = TimeGrid(1.0, 16)
    law = solve_limit_forward(model, grid, 1024, derive_key(ROOT, "law", 20))
    key = derive_key(ROOT, "ls", 3)
    law = value_law(law, key.child("vlaw", 0), size=1024)
    res = solve_limit_system(law, members=2000, key=key, cloud_size=1024)
    for probe, v in (("xbar@1", res.xbar[:, -1, 0]), ("ybar@0.5", res.ybar[:, grid.node_at(0.5)])):
        se = v.std(ddof=1) / math.sqrt(len(v))
        assert abs(v.mean()) <= 4 * se, (probe, v.mean(), se)


def test_limit_system_decoupled_is_identically_zero():
    model = catalog_model("constant", b0=0.1, s=1.0, phi0=1.0)
    law = solve_limit_forward(model, GRID, 2, derive_key(ROOT, "law", 14))
    res = solve_limit_system(law, members=128, key=derive_key(ROOT, "ls", 1))
    assert np.all(res.xbar == 0.0)
    assert np.allclose(res.ybar, 0.0, atol=1e-12)
    assert np.allclose(res.zbar, 0.0, atol=1e-12)


def _own_gradient_model(dim):
    """A cloud-law model whose own drift and diffusion gradients are nonzero
    and couple the coordinates (every catalog model has zero ones):
    drift -0.7 tanh(A x) + tanh(x_env), diffusion 0.5 I + 0.2 sin(x_j) B_jk
    + 0.3 diag(tanh(x_env)), terminal sum(x) + sum(tanh(x_env))."""
    from mfbsde.model import ModelSpec

    A = np.array([[1.0, 0.3], [-0.4, 0.8]])[:dim, :dim]
    B = np.array([[1.0, 0.5], [-0.6, 1.0]])[:dim, :dim]
    eye = np.eye(dim)

    def grad_diffusion(x):
        # d sigma_jk / d x_l = 0.2 cos(x_j) B_jk [j == l]
        return 0.2 * np.cos(x)[..., :, None, None] * B[:, :, None] * eye[:, None, :]

    return ModelSpec(
        name="own_gradients",
        dim=dim,
        x0=np.full(dim, 0.5),
        horizon=1.0,
        drift=lambda x: -0.7 * np.tanh(x @ A.T),
        diffusion=lambda x: 0.5 * eye + 0.2 * np.sin(x)[..., :, None] * B,
        driver=lambda x, y, z: np.zeros(np.broadcast_shapes(np.shape(y), np.shape(x)[:-1])),
        terminal=lambda x: np.sum(x, axis=-1),
        grad_drift_x=lambda x: -0.7 * (1.0 - np.tanh(x @ A.T) ** 2)[..., :, None] * A,
        grad_diffusion_x=grad_diffusion,
        grad_terminal_x=lambda x: np.ones(np.shape(x)),
        grad_driver_own=lambda x, y, z: np.zeros(np.shape(y) + (2 * dim + 1,)),
        drift_env=np.tanh,
        diffusion_env=lambda e: 0.3 * np.tanh(e)[..., :, None] * eye,
        terminal_env=lambda e: np.sum(np.tanh(e), axis=-1),
    )


def _strided_xbar(model, x, dw, eta1, eta2, h):
    """The first-order forward component stepped in place, node by node, on
    strided slices of one (B, P, n+1, d) buffer: the reference for the Euler
    route of `solve_limit_system`."""
    xbar = np.zeros(x.shape)
    for i in range(x.shape[2] - 1):
        xb = xbar[:, :, i, :]
        gbx = model.grad_drift_x(x[:, :, i, :])
        gsx = model.grad_diffusion_x(x[:, :, i, :])
        drift_term = eta1[:, None, i, :] + np.einsum("...jk,...k->...j", gbx, xb)
        diff_term = eta2[:, None, i, :, :] + np.einsum("...jkl,...l->...jk", gsx, xb)
        xbar[:, :, i + 1, :] = (
            xb + drift_term * h + np.einsum("...jk,...k->...j", diff_term, dw[:, :, i, :])
        )
    return xbar


@pytest.mark.parametrize("dim", [1, 2])
def test_limit_system_xbar_matches_the_strided_reference(dim):
    # xbar steps through forward.euler_paths; on a model with nonzero own
    # gradients it must equal the in-place node loop bit for bit
    from mfbsde.backward import min_block_paths
    from mfbsde.model import check_gradients, random_probes

    model = _own_gradient_model(dim)
    assert check_gradients(model, random_probes(model, 20, derive_key(ROOT, "og", dim))).passed
    grid = TimeGrid(1.0, 8)
    law = solve_limit_forward(model, grid, 256, derive_key(ROOT, "law", 30 + dim))
    key = derive_key(ROOT, "og_ls", dim)
    members, degree = 6, 1
    inner = min_block_paths(2 * dim, degree)
    res = solve_limit_system(law, members, key, inner=inner, degree=degree, cloud_size=256)
    # the member draws, rebuilt from the returned kernel under the members' key
    raw = sample_field_on_lattice(res.kernel, key.child("field", 0), count=members)
    eta1, eta2, _, _ = _split_path_field(model, res.kernel, raw)
    assert np.any(eta1 != 0.0) and np.any(eta2 != 0.0)
    dw = brownian_increments(
        [key.child("path", m) for m in range(members)], (inner, grid.steps, dim), grid.h
    )
    x = law.euler(dw)
    assert np.any(model.grad_drift_x(x) != 0.0) and np.any(model.grad_diffusion_x(x) != 0.0)
    want = _strided_xbar(model, x, dw, eta1, eta2, grid.h)
    assert np.array_equal(res.x, x[:, 0])
    assert np.array_equal(res.xbar, want[:, 0])


def test_residual_field_variance_decays():
    # correction field built from coefficient differences along coupled pairs
    # (system vs limit on shared streams): variance decays like 1/N
    model = catalog_model("ou_mean_field", beta=1.0, s=0.5, x0=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 16))

    def coupled_diffs(n_pairs, N, key):
        """gamma(X^N_T) - gamma(X_T) for coupled pairs, gamma the drift's
        partner part."""
        sim = simulate_blocks(
            law, N, n_blocks=n_pairs, inner=1,
            w_key=key.child("w", 0), env_key=key.child("e", 0),
        )
        return (
            model.drift_env(sim.xn[:, 0, -1])[:, 0]
            - model.drift_env(sim.xlim[:, 0, -1])[:, 0]
        )

    reps = 120
    variances = {}
    for N in (16, 64, 256):
        key = derive_key(ROOT, "resid", N)
        diffs = coupled_diffs(reps * N, N, key).reshape(reps, N)
        center = coupled_diffs(2048, N, derive_key(key, "ctr", 0)).mean()
        field_vals = np.sqrt(N) * (diffs.mean(axis=1) - center)
        # the normalized i.i.d. sum has the one-summand variance; use the
        # tight per-pair estimate for the slope and check the assembled
        # field agrees within Monte Carlo error
        summand_var = float(np.var(diffs, ddof=1))
        field_var = float(field_vals.var(ddof=1))
        assert abs(field_var - summand_var) <= 4 * summand_var * math.sqrt(2.0 / reps)
        variances[N] = summand_var
    ns = np.array(sorted(variances))
    slope = np.polyfit(np.log(ns), np.log([variances[n] for n in ns]), 1)[0]
    assert -1.35 <= slope <= -0.65, variances


def test_empirical_field_normality_diagnostics():
    # skewness and excess kurtosis of the scaled field over many replications
    # within 4 standard errors of Gaussian values at N = 256
    model = catalog_model("ou_mean_field", beta=1.0, s=1.0, x0=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 17))
    lat = _lattice(GRID, (0.5,))
    reps = 10_000
    sample = empirical_fields(law, 256, lat, reps, derive_key(ROOT, "norm", 0))()
    v = sample[:, 0]
    v = (v - v.mean()) / v.std(ddof=1)
    skew = float(np.mean(v**3))
    kurt = float(np.mean(v**4) - 3.0)
    assert abs(skew) <= 4 * math.sqrt(6.0 / reps)
    assert abs(kurt) <= 4 * math.sqrt(24.0 / reps)


def test_value_law_cloud_is_the_block_route_limit_cloud():
    # the value law's cloud rides the stream of one block under key "vw":
    # it equals simulate_blocks' limit paths under the same keys, bit for bit
    grid = TimeGrid(1.0, 8)
    model = catalog_model("tanh_bounded")
    law = solve_limit_forward(model, grid, 256, derive_key(ROOT, "vlaw_law", 0))
    key = derive_key(ROOT, "vlaw_stream", 0)
    vlaw = value_law(law, key, size=256)
    sim = simulate_blocks(
        law, 1, n_blocks=1, inner=256, w_key=key.child("vw", 0), env_key=key.child("ve", 0),
    )
    assert np.array_equal(vlaw.cloud, sim.xlim[0])


def _block_major_paths(law, w_key, blocks, inner):
    """`LawFlow.paths` in block-major form: one (B, inner, n, d) draw, then
    `LawFlow.euler` into a new array."""
    grid, d = law.grid, law.model.dim
    dw = brownian_increments([w_key.child("path", b) for b in blocks], (inner, grid.steps, d), grid.h)
    return dw, law.euler(dw)


def _value_law_and_limit_system(dim):
    model = catalog_model("tanh_bounded", x0=[1.0, -0.5][:dim], dim=dim)
    grid = TimeGrid(1.0, 8)
    law = solve_limit_forward(model, grid, 128, derive_key(ROOT, "law", 40 + dim))
    key = derive_key(ROOT, "node_major", dim)
    vlaw = value_law(law, key.child("vlaw", 0), size=256)
    return vlaw, solve_limit_system(vlaw, members=6, key=key, cloud_size=256)


@pytest.mark.parametrize("dim", [1, 2])
def test_node_major_own_paths_give_the_block_major_bytes(monkeypatch, dim):
    # value_law and solve_limit_system read LawFlow.paths' node-major draw;
    # on the block-major draw they give the same bytes
    runs = [_value_law_and_limit_system(dim)]
    monkeypatch.setattr(LawFlow, "paths", _block_major_paths)
    runs.append(_value_law_and_limit_system(dim))
    (vlaw, res), (want_vlaw, want_res) = runs
    for attr in ("cloud", "cloud_y"):
        assert getattr(vlaw, attr).tobytes() == getattr(want_vlaw, attr).tobytes(), attr
    for attr in ("x", "xbar", "ybar", "zbar"):
        assert getattr(res, attr).tobytes() == getattr(want_res, attr).tobytes(), attr


def test_own_paths_reach_the_backward_induction_node_major(monkeypatch):
    # the value law's and every limit batch's states and increments move to
    # the induction's node-major order without a copy
    from mfbsde import backward

    induction = backward._backward_induction
    moves = []

    def spy(grid, cond_states, dw, terminal, driver_fn, degree, solver, *args, **kwargs):
        for a in (cond_states, dw):
            moves.append((solver, np.shares_memory(np.ascontiguousarray(np.moveaxis(a, 2, 0)), a)))
        return induction(grid, cond_states, dw, terminal, driver_fn, degree, solver, *args, **kwargs)

    monkeypatch.setattr(backward, "_backward_induction", spy)
    _value_law_and_limit_system(2)
    assert {solver for solver, _ in moves} == {"mf_limit", "linear_limit"}
    assert all(no_copy for _, no_copy in moves), moves


def test_clt_compare_report_structure():
    model = catalog_model("ou_mean_field", beta=1.0, s=0.5, x0=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 15))
    res = solve_limit_system(law, members=256, key=derive_key(ROOT, "ls", 2))
    fake = res.xbar  # same-law samples
    report = clt_compare(64, GRID, (fake, None, None), res, [1.0], [])
    row = report["probes"]["x@1.0"]
    assert row["ks"]["p_value"] > 0.01
    assert row["approx"]["n"] == 256
    with pytest.raises(ValueError, match="200"):
        clt_compare(64, GRID, (fake[:50], None, None), res, [1.0], [])


KS_SIZES = [(7, 7), (500, 500), (10000, 10000)]


@pytest.mark.parametrize("n, m", KS_SIZES)
def test_ks_two_sample_is_scipy_exact_bit_for_bit(n, m):
    # scipy's auto mode would switch to its asymptotic series above 10,000
    # samples per side; the exact p-value stays exact there
    from scipy import stats

    rng = np.random.default_rng(n * 100003 + m)
    for shift in (0.0, 0.2, 1.0):
        a = rng.standard_normal(n)
        b = rng.standard_normal(m) + shift
        with warnings.catch_warnings(record=True) as fell_back:
            warnings.simplefilter("always")
            ref = stats.ks_2samp(a, b, method="exact")
        p_value = ref.pvalue
        if fell_back:
            # the series rounded an ulp above 1 and scipy switched to its
            # asymptotic series; the exact p-value there rounds to 1 (h <= 2)
            assert round(ref.statistic * n) <= 2
            p_value = 1.0
        assert _ks_row(a, b) == {"statistic": ref.statistic, "p_value": p_value}


def test_ks_row_identical_constant_and_nan_samples():
    a = np.random.default_rng(3).standard_normal(300)
    # identical samples: every ECDF gap is 0, so h = 0 and p = 1
    assert _ks_row(a, a[::-1].copy()) == {"statistic": 0.0, "p_value": 1.0}
    assert _ks_row(np.full(300, 0.5), np.full(400, 0.5)) == {
        "statistic": 0.0, "p_value": 1.0, "degenerate": True,
    }
    # a NaN propagates, so its KS verdict fails
    row = _ks_row(np.where(np.arange(300) == 7, np.nan, a), a)
    assert math.isnan(row["statistic"]) and math.isnan(row["p_value"])


def test_clt_compare_imports_no_scipy():
    code = '''
import sys
import numpy as np
import mfbsde.cli
from mfbsde.fluctuation import LimitSystemResult, clt_compare
from mfbsde.noise import TimeGrid

grid = TimeGrid(1.0, 8)
rng = np.random.default_rng(1)
limit = LimitSystemResult(
    grid=grid,
    x=None,
    xbar=rng.standard_normal((300, 9, 1)),
    ybar=rng.standard_normal((300, 9)),
    zbar=rng.standard_normal((300, 9, 1)),
    kernel=None,
    provenance={},
)
gaps = (
    rng.standard_normal((300, 9, 1)),
    rng.standard_normal((300, 9)),
    rng.standard_normal((300, 9, 1)),
)
report = clt_compare(64, grid, gaps, limit, [0.5, 1.0], [0.5])
assert len(report["probes"]) == 3 and len(report["z"]) == 2
print(sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy.")))
'''
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == "[]"


def test_clt_compare_rejects_sides_of_different_sizes():
    # the exact KS p-value covers two samples of one size
    rng = np.random.default_rng(2)
    limit = LimitSystemResult(
        grid=GRID, x=None, xbar=rng.standard_normal((400, 65, 1)), ybar=None, zbar=None,
        kernel=None, provenance={},
    )
    gaps = (rng.standard_normal((300, 65, 1)), None, None)
    with pytest.raises(ValueError, match="differ in size: 300 and 400"):
        clt_compare(64, GRID, gaps, limit, [1.0], [])


@pytest.mark.parametrize("measured", ["x", "yz"])
def test_clt_compare_reads_no_probe_list_of_an_unmeasured_component(measured):
    # t = 0.3 is not a node of GRID; the probe list of a component without a
    # gap is never read, as the config checks do not check it
    model = catalog_model("ou_mean_field", beta=1.0, s=0.5, x0=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 15))
    res = solve_limit_system(law, members=256, key=derive_key(ROOT, "ls", 2))
    if measured == "x":
        report = clt_compare(64, GRID, (res.xbar, None, None), res, [1.0], [0.3])
        assert list(report["probes"]) == ["x@1.0"] and report["z"] == {}
    else:
        report = clt_compare(64, GRID, (None, res.ybar, res.zbar), res, [0.3], [0.5])
        assert list(report["probes"]) == ["y@0.5"] and set(report["z"]) == {"one", "t"}
