import inspect
import math

import numpy as np
import pytest

from mfbsde.model import (
    CATALOG_NAMES,
    catalog_model,
    check_gradients,
    env_average,
    env_shift,
    random_probes,
)
from mfbsde.noise import StreamKey, TimeGrid, brownian_increments, derive_key

KEY = StreamKey(seed=11)


def _brownian_path(key, grid, dim):
    """(steps + 1, dim) Brownian path at the grid nodes, starting at 0."""
    dw = brownian_increments([key], (grid.steps, dim), grid.h)[0]
    return np.concatenate([np.zeros((1, dim)), np.cumsum(dw, axis=0)])


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        catalog_model("geometric")
    with pytest.raises(ValueError):
        catalog_model("ou_mean_field", beta=float("nan"))


def test_constant_model_is_brownian_motion():
    model = catalog_model("constant", b0=0.0, s=1.0, x0=0.0)
    nodes = TimeGrid(1.0, 16).nodes
    w = _brownian_path(derive_key(KEY, "w", 0), TimeGrid(1.0, 16), 1)
    assert np.array_equal(model.closed_form.path_map(nodes, w), w)


def test_ou_mean_curve_hits_e_at_time_one():
    # mean solves m' = beta m, m(0) = x0, so m(1) = x0 * exp(beta)
    model = catalog_model("ou_mean_field", beta=1.0, s=1.0, x0=1.0, T=1.0)
    m1 = model.closed_form.mean(np.array([1.0]))[0, 0]
    assert m1 == pytest.approx(math.e, rel=1e-12)


def test_driver_signature_excludes_partner_z():
    # the own part reads (x, y, z); the partner part (x_env, y_env) only
    partner_parts = 0
    for name in CATALOG_NAMES:
        model = catalog_model(name)
        assert list(inspect.signature(model.driver).parameters) == ["x", "y", "z"]
        if model.driver_env is not None:
            partner_parts += 1
            assert list(inspect.signature(model.driver_env).parameters) == ["ex", "ey"]
    assert partner_parts >= 1


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_gradients_match_finite_differences(name):
    model = catalog_model(name)
    report = check_gradients(model, random_probes(model, 100, derive_key(KEY, "probe", 0)))
    assert report.passed, report.max_rel_error


def test_constant_gradients_exactly_zero():
    model = catalog_model("constant", b0=1.5, s=2.0)
    report = check_gradients(model, random_probes(model, 10, derive_key(KEY, "probe", 1)))
    assert report.worst == 0.0


def test_gradients_vectorize_over_batches():
    model = catalog_model("tanh_bounded", dim=2)
    x = np.linspace(-1, 1, 30).reshape(5, 3, 2)
    assert model.grad_drift_x(x).shape == (5, 3, 2, 2)
    assert model.grad_diffusion_x(x).shape == (5, 3, 2, 2, 2)
    assert model.grad_terminal_x(x).shape == (5, 3, 2)
    assert model.drift(x).shape == model.drift_env(x).shape == (5, 3, 2)
    assert model.diffusion(x).shape == model.diffusion_env(x).shape == (5, 3, 2, 2)


def _pool_average(model, which, x, env, env_y=None, y=None, z=None):
    """The mean over a partner pool: the pool reduced by env_shift, then
    added to the own part."""
    return env_average(model, which, x, env_shift(model, which, env, env_y), y, z)


def test_env_average_examples():
    const = catalog_model("constant", b0=0.0, s=1.0)
    env = np.array([[[0.7], [-1.2], [3.0]]])
    assert _pool_average(const, "diffusion", np.array([[[0.5]]]), env)[0, 0, 0, 0] == 1.0

    ou = catalog_model("ou_mean_field", beta=1.0, s=1.0)
    env = np.array([[[0.0], [2.0], [4.0]]])
    assert _pool_average(ou, "drift", np.array([[[9.0]]]), env)[0, 0, 0] == pytest.approx(2.0)

    lin = catalog_model("mf_bsde_linear")
    env = np.array([[[1.0], [3.0]]])
    assert _pool_average(lin, "terminal", np.array([[[1.0]]]), env)[0, 0] == pytest.approx(3.0)

    with pytest.raises(ValueError, match="partner pool is empty"):
        env_shift(ou, "drift", np.empty((1, 0, 1)))


def test_env_average_driver_uses_partner_y():
    model = catalog_model("tanh_bounded", kappa=0.5)
    env = np.array([[[0.0], [0.0]]])
    env_y = np.array([[0.4, -0.4]])
    x = np.array([[[0.0]]])
    val = _pool_average(model, "driver", x, env, env_y, np.zeros((1, 1)), np.zeros((1, 1, 1)))
    assert val[0, 0] == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError, match="partner y values, but the pool carries none"):
        env_shift(model, "driver", env)


def test_env_average_without_pool_or_shift_names_what_is_missing():
    ou = catalog_model("ou_mean_field")
    x = np.zeros((1, 1, 1))
    with pytest.raises(ValueError, match="drift averages over partners, but the call passes no shift"):
        env_average(ou, "drift", x, None)
    tanh = catalog_model("tanh_bounded")
    with pytest.raises(ValueError, match="terminal averages over partners"):
        env_average(tanh, "terminal", x, None)
    with pytest.raises(ValueError, match="driver averages over partners"):
        env_average(tanh, "driver", x, None, np.zeros((1, 1)), x)
    # a coefficient that ignores its partner needs no shift
    assert env_average(ou, "diffusion", x, None)[0, 0, 0, 0] == 1.0


def _brute_force_mean(model, which, x, env, y, z, env_y):
    """Mean over the pool of the own part plus the partner's part, one
    evaluation per (own, partner) pair."""
    B, P, _ = x.shape
    partner = getattr(model, f"{which}_env")
    out = []
    for b in range(B):
        for p in range(P):
            if which == "driver":
                own = model.driver(x[b, p], y[b, p], z[b, p])
            else:
                own = getattr(model, which)(x[b, p])
            vals = []
            for k in range(env.shape[1]):
                if partner is None:
                    vals.append(own)
                elif which == "driver":
                    vals.append(own + partner(env[b, k], env_y[b, k]))
                else:
                    vals.append(own + partner(env[b, k]))
            out.append(np.mean(vals, axis=0))
    return np.reshape(out, (B, P) + np.shape(out[0]))


@pytest.mark.parametrize("name", CATALOG_NAMES)
@pytest.mark.parametrize("which", ["drift", "diffusion", "terminal", "driver"])
@pytest.mark.parametrize("blocks", [1, 3])
@pytest.mark.parametrize("on_curve", [True, False])
def test_env_average_matches_brute_force_mean(name, which, blocks, on_curve):
    # The guard of the additive coupling contract.  blocks == 1 is one pool
    # shared by every own state; blocks == 3 gives each block its own pool.
    # on_curve=True reads the shift at one node of a shift curve, the way
    # the Euler steps and the backward driver do: env_shift of a pool held
    # at several nodes keeps the node axis.
    model = catalog_model(name, dim=2)
    rng = np.random.default_rng(5)
    P, K, d = 4, 6, model.dim
    x = rng.standard_normal((blocks, P, d))
    y = rng.standard_normal((blocks, P))
    z = rng.standard_normal((blocks, P, d))
    env = rng.standard_normal((blocks, K, d))
    env_y = rng.standard_normal((blocks, K))
    expected = _brute_force_mean(model, which, x, env, y, z, env_y)
    if on_curve:
        # the pool at three nodes; the middle node holds env
        nodes_x = np.stack([env + 1.0, env, env - 2.0], axis=2)
        curve = env_shift(model, which, nodes_x, np.stack([env_y, env_y, -env_y], axis=2))
        shift = None if curve is None else curve[:, 1]
    else:
        shift = env_shift(model, which, env, env_y)
    got = env_average(model, which, x, shift, y, z)
    assert got.shape == expected.shape
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", ["constant", "ou_mean_field", "mf_bsde_linear"])
def test_closed_form_satisfies_discretized_dynamics(name):
    # Residual of the exact path against one Euler step with coefficients
    # a(x) + E b(X_t) shrinks linearly in h.
    model = catalog_model(name, x0=1.0, T=1.0)
    cf = model.closed_form

    def mean(which, x, t):
        b = cf.env_means.get(which)
        return getattr(model, which)(x) + (0.0 if b is None else b(np.array([t]))[0])
    residuals = {}
    for steps in (16, 32, 64, 128):
        grid = TimeGrid(model.horizon, steps)
        w = _brownian_path(derive_key(KEY, "resid", steps), grid, model.dim)
        x = cf.path_map(grid.nodes, w)
        worst = 0.0
        for i in range(steps):
            t = grid.nodes[i]
            step = (
                x[i]
                + mean("drift", x[i], t) * grid.h
                + mean("diffusion", x[i], t) @ (w[i + 1] - w[i])
            )
            worst = max(worst, float(np.max(np.abs(x[i + 1] - step))))
        residuals[steps] = worst
    assert residuals[128] <= max(residuals[16] / 4, 1e-12)  # roughly O(h) decay
    assert residuals[128] <= 10.0 * (1.0 / 128)
