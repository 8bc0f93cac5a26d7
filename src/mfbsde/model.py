"""Coefficient models for mean-field forward-backward systems.

A model is a quadruple of coefficients, each an own part plus an optional
partner part:

    drift(x) + drift_env(x_env) -> d-vector
    diffusion(x) + diffusion_env(x_env) -> d x d matrix
    driver(x, y, z) + driver_env(x_env, y_env) -> r
    terminal(x) + terminal_env(x_env) -> r

together with the own parts' gradients.  The partner ("environment")
variable is what mean-field expectations average over, so a mean over a
pool of partners is the own part plus the pool's mean of the partner part.
The driver's partner part deliberately has no z_env parameter: partner z
values never enter the driver.

All callables are numpy-vectorized over leading axes; coordinates live on the
trailing axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .noise import StreamKey, generator

__all__ = [
    "ModelSpec",
    "ClosedForm",
    "GradientReport",
    "catalog_model",
    "check_gradients",
    "env_average",
    "env_shift",
    "partner_values",
    "random_probes",
    "CATALOG_NAMES",
    "COEFFICIENTS",
]

Array = np.ndarray

CATALOG_NAMES = ("constant", "ou_mean_field", "tanh_bounded", "mf_bsde_linear")
COEFFICIENTS = ("drift", "diffusion", "terminal", "driver")


@dataclass(frozen=True)
class ClosedForm:
    """Exact reference curves for a model with a known solution.

    ``path_map`` turns a Brownian path sampled on grid nodes into the exact
    state path, so fresh exact draws from the state law cost one Brownian
    path each.
    ``env_means`` maps each coefficient with a partner part to its exact mean
    E b(X_t) along the law, t (k,) -> (k,) plus the coefficient's own axes
    (no closed-form model has a driver that reads its partners).
    """

    mean: Callable[[Array], Array]                 # t (k,) -> (k, d)
    path_map: Callable[[Array, Array], Array]      # nodes, w (..., k, d) -> (..., k, d)
    env_means: dict[str, Callable[[Array], Array]]


@dataclass(frozen=True)
class ModelSpec:
    """Immutable coefficient bundle; all evaluations are pure functions.

    The coupling contract: each coefficient is an own part a(x) plus a
    partner part b(x_env), and the driver is a(x, y, z) + b(x_env, y_env).
    A partner part of None means the coefficient ignores its partners.  A
    mean over a partner pool is a(x) plus the pool's mean of b (see
    `env_average`), and every fluctuation field is b(X) - E b(X).
    """

    name: str
    dim: int
    x0: Array
    horizon: float
    drift: Callable[[Array], Array]                        # (..., d)
    diffusion: Callable[[Array], Array]                    # (..., d, d)
    driver: Callable[[Array, Array, Array], Array]         # (...)
    terminal: Callable[[Array], Array]                     # (...)
    grad_drift_x: Callable[[Array], Array]                 # (..., d, d)
    grad_diffusion_x: Callable[[Array], Array]             # (..., d, d, d)
    grad_terminal_x: Callable[[Array], Array]              # (..., d)
    grad_driver_own: Callable[[Array, Array, Array], Array]  # (..., 2d+1)
    drift_env: Optional[Callable[[Array], Array]] = None
    diffusion_env: Optional[Callable[[Array], Array]] = None
    terminal_env: Optional[Callable[[Array], Array]] = None
    driver_env: Optional[Callable[[Array, Array], Array]] = None
    closed_form: Optional[ClosedForm] = None

    def env_free(self, which: str) -> bool:
        """True when the named coefficient has no partner part."""
        if which not in COEFFICIENTS:
            raise ValueError(f"unknown coefficient selector {which!r}")
        return getattr(self, f"{which}_env") is None


# ---------------------------------------------------------------------------
# small shape helpers


def _batch(*arrays: Array) -> tuple[int, ...]:
    """Broadcast batch shape of arrays whose trailing axis is coordinates."""
    return np.broadcast_shapes(*(np.shape(a)[:-1] for a in arrays))


def _driver_batch(x: Array, y: Array, z: Array) -> tuple[int, ...]:
    return np.broadcast_shapes(np.shape(y), _batch(x, z))


def _diag(values: Array) -> Array:
    """Embed (..., d) values as (..., d, d) diagonal matrices."""
    values = np.asarray(values, dtype=float)
    d = values.shape[-1]
    out = np.zeros(values.shape + (d,))
    idx = np.arange(d)
    out[..., idx, idx] = values
    return out


def _zeros(x: Array, tail: tuple[int, ...]) -> Array:
    return np.zeros(_batch(x) + tail)


# ---------------------------------------------------------------------------
# catalog


def catalog_model(name: str, **params) -> ModelSpec:
    """Build a benchmark model by name.

    Families: ``constant(b0, s, phi0, f0)``, ``ou_mean_field(beta, s)``,
    ``tanh_bounded(s, rho, kappa)``, ``mf_bsde_linear(beta, s)``.  Common
    keyword arguments: ``x0`` (d-vector or scalar), ``T`` (horizon), ``dim``.
    """
    if name not in CATALOG_NAMES:
        raise ValueError(f"unknown model {name!r}; choose from {CATALOG_NAMES}")
    dim = params.pop("dim", 1)
    if not (isinstance(dim, (int, np.integer)) and not isinstance(dim, bool) and dim >= 1):
        raise ValueError(f"dim must be an integer >= 1, got {dim!r}")
    dim = int(dim)
    x0 = params.pop("x0", 0.0)
    if not all(map(_is_number, np.ravel(x0).tolist())):
        raise ValueError(f"x0 must be a finite number or a list of them, got {x0!r}")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.size == 1 and dim > 1:
        x0 = np.full(dim, float(x0[0]))
    if x0.shape != (dim,):
        raise ValueError(f"x0 must have shape ({dim},)")
    for key, value in params.items():
        if not _is_number(value):
            raise ValueError(f"parameter {key}={value!r} is not a finite number")
    horizon = float(params.pop("T", 1.0))
    if horizon <= 0:
        raise ValueError("T must be positive and finite")
    if name in ("ou_mean_field", "mf_bsde_linear"):
        return _build_ou(dim, x0, horizon, params, name=name)
    builder = {"constant": _build_constant, "tanh_bounded": _build_tanh}[name]
    return builder(dim, x0, horizon, params)


def _zero_grads(dim) -> dict:
    """Every own-state gradient identically zero."""
    return dict(
        grad_drift_x=lambda x: _zeros(x, (dim, dim)),
        grad_diffusion_x=lambda x: _zeros(x, (dim, dim, dim)),
        grad_terminal_x=lambda x: _zeros(x, (dim,)),
        grad_driver_own=lambda x, y, z: np.zeros(_driver_batch(x, y, z) + (2 * dim + 1,)),
    )


def _zero_driver(x, y, z):
    return np.zeros(_driver_batch(x, y, z))


def _build_constant(dim, x0, horizon, params):
    b0 = float(params.pop("b0", 0.0))
    s = float(params.pop("s", 1.0))
    phi0 = float(params.pop("phi0", 1.0))
    f0 = float(params.pop("f0", 0.0))
    _reject_extra("constant", params)

    def mean(t):
        t = np.asarray(t, dtype=float)
        return x0 + b0 * t[..., None]

    def path_map(nodes, w):
        return x0 + b0 * np.asarray(nodes)[..., None] + s * w

    return ModelSpec(
        name="constant",
        dim=dim,
        x0=x0,
        horizon=horizon,
        drift=lambda x: np.broadcast_to(b0, np.shape(x)).copy(),
        diffusion=lambda x: _diag(np.broadcast_to(s, np.shape(x))),
        driver=lambda x, y, z: np.broadcast_to(f0, _driver_batch(x, y, z)).copy(),
        terminal=lambda x: np.broadcast_to(phi0, _batch(x)).copy(),
        **_zero_grads(dim),
        closed_form=ClosedForm(mean=mean, path_map=path_map, env_means={}),
    )


def _ou_like_closed_form(x0, beta, s, *, linear_terminal):
    """Closed form shared by the OU family.

    State: X_t = x0 e^{beta t} + s W_t, the only path it maps.  The values
    are left to the backward solvers; for reference, terminal sum(x) gives
    Y_t = M(T) + s sum(W_t); terminal sum(x) + sum(x_env) gives
    Y_t = 2 M(T) + s sum(W_t), with M(t) = sum_i x0_i e^{beta t}.
    """

    def mean(t):
        t = np.asarray(t, dtype=float)
        return x0 * np.exp(beta * t)[..., None]

    def path_map(nodes, w):
        return x0 * np.exp(beta * np.asarray(nodes))[..., None] + s * w

    # E[beta X_t] and E[sum X_t]: the partner parts are linear
    env_means = {"drift": lambda t: beta * mean(t)}
    if linear_terminal:
        env_means["terminal"] = lambda t: np.sum(mean(t), axis=-1)
    return ClosedForm(mean=mean, path_map=path_map, env_means=env_means)


def _build_ou(dim, x0, horizon, params, *, name):
    """The OU family: ``ou_mean_field``, and ``mf_bsde_linear``, whose
    terminal also reads its partners linearly."""
    beta = float(params.pop("beta", 1.0))
    s = float(params.pop("s", 1.0))
    _reject_extra(name, params)
    linear_terminal = name == "mf_bsde_linear"

    def terminal(x):
        return np.sum(np.asarray(x, float), axis=-1)

    return ModelSpec(
        name=name,
        dim=dim,
        x0=x0,
        horizon=horizon,
        drift=lambda x: np.zeros(np.shape(x)),
        diffusion=lambda x: _diag(np.broadcast_to(s, np.shape(x))),
        driver=_zero_driver,
        terminal=terminal,
        **_zero_grads(dim) | {"grad_terminal_x": lambda x: np.ones(np.shape(x))},
        drift_env=lambda e: beta * np.asarray(e, float),
        terminal_env=terminal if linear_terminal else None,
        closed_form=_ou_like_closed_form(x0, beta, s, linear_terminal=linear_terminal),
    )


def _build_tanh(dim, x0, horizon, params):
    """Bounded coefficients with bounded derivatives; no closed form."""
    s = float(params.pop("s", 1.0))
    rho = float(params.pop("rho", 0.4))
    kappa = float(params.pop("kappa", 0.25))
    _reject_extra("tanh_bounded", params)
    if abs(rho) >= 1.0:
        raise ValueError("need |rho| < 1 to keep the diffusion positive")

    def terminal(x):
        return np.sum(np.tanh(x), axis=-1)

    return ModelSpec(
        name="tanh_bounded",
        dim=dim,
        x0=x0,
        horizon=horizon,
        drift=lambda x: np.zeros(np.shape(x)),
        diffusion=lambda x: _diag(np.broadcast_to(s, np.shape(x))),
        driver=_zero_driver,
        terminal=terminal,
        **_zero_grads(dim) | {"grad_terminal_x": lambda x: 1.0 - np.tanh(x) ** 2},
        drift_env=np.tanh,
        diffusion_env=lambda e: _diag(s * rho * np.tanh(e)),
        terminal_env=terminal,
        driver_env=lambda ex, ey: kappa * np.tanh(ey),
        closed_form=None,
    )


def _is_number(value) -> bool:
    """A finite real number; a bool is not one, nor an integer beyond the
    range of a float."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _reject_extra(name, params):
    if params:
        raise ValueError(f"unknown parameters for {name}: {sorted(params)}")


# ---------------------------------------------------------------------------
# the environment-average operator
#
# Every mean-field expectation E[g(x, X_t)] is replaced by the mean of g over a
# pool of partner states.  `partner_values` is the only code that evaluates a
# partner part, `env_shift` is the only reduction of a pool, and
# `env_average` is the only place that adds the reduced pool to the own part.


def partner_values(model: ModelSpec, which: str, env_x, env_y=None):
    """Partner part b of coefficient ``which`` at partner states.

    ``env_x`` is (..., d), and ``env_y`` (...) for the driver.  Returns (...)
    plus the coefficient's own axes.  Under the additive contract this is
    every partner-dependent term there is: the summand of a pool mean and of
    each fluctuation field.  A driver part without ``env_y`` raises: the
    partners' law carries no values (see `LawFlow.has_y`).
    """
    if which != "driver":
        return getattr(model, f"{which}_env")(env_x)
    if env_y is None:
        raise ValueError(
            "driver averages over partner y values, but the pool carries none; "
            "attach y values to the environment law first (see value_law)"
        )
    return model.driver_env(env_x, env_y)


def env_shift(model: ModelSpec, which: str, env_x, env_y=None):
    """What the average keeps of a partner pool: the pool's mean of the
    partner part.

    ``env_x`` holds partner states on axis 1, (B, K, ..., d), and ``env_y``
    their values (B, K, ...) for the driver; axes between the pool axis and
    the coordinates (grid nodes, say) are kept.  Returns mean_k b(e_k),
    shaped (B, ...) plus the coefficient's own axes, or None for a
    coefficient without a partner part.
    """
    if model.env_free(which):
        return None
    if np.shape(env_x)[1] == 0:
        raise ValueError("partner pool is empty")
    return partner_values(model, which, env_x, env_y).mean(axis=1)


def env_average(model: ModelSpec, which: str, x, shift, y=None, z=None):
    """Mean of coefficient ``which`` at own states over partner pools.

    Own states ``x`` are (B, P, d), and the driver also takes own ``y``
    (B, P) and ``z`` (B, P, d).  ``shift`` (B, ...) is each pool's
    `env_shift`, with B = 1 for one pool shared by every own state.  Returns
    (B, P) plus the coefficient's own axes: the own part at ``x`` plus the
    shift, or the own part alone for a coefficient without a partner part
    (whose shift is None).
    """
    partner_free = model.env_free(which)
    own = model.driver(x, y, z) if which == "driver" else getattr(model, which)(x)
    if partner_free:
        return own
    if shift is None:
        raise ValueError(f"{which} averages over partners, but the call passes no shift")
    return own + shift[:, None]


# ---------------------------------------------------------------------------
# gradient validation


def random_probes(model: ModelSpec, count: int, key: StreamKey) -> tuple[Array, Array, Array]:
    """Unit-scale probe points for validation checks: x (count, d), y (count,)
    and z (count, d), from one standard normal draw."""
    d = model.dim
    vals = generator(key).standard_normal((count, 2 * d + 1))
    return vals[:, :d], vals[:, d], vals[:, d + 1 :]


@dataclass
class GradientReport:
    max_rel_error: dict[str, float]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(err <= self.tolerance for err in self.max_rel_error.values())

    @property
    def worst(self) -> float:
        return max(self.max_rel_error.values())


_FD_STEP = 1e-5
_FD_TOL = 1e-5


def _central_diff(fn, x, j, step=_FD_STEP):
    """Central difference of ``fn`` along coordinate ``j`` of ``x`` at every probe."""
    plus, minus = np.array(x, dtype=float), np.array(x, dtype=float)
    plus[..., j] += step
    minus[..., j] -= step
    return (np.asarray(fn(plus), float) - np.asarray(fn(minus), float)) / (2 * step)


def _rel_err(fd, an):
    return float(np.max(np.abs(fd - an) / np.maximum(1.0, np.abs(an))))


def check_gradients(model: ModelSpec, probes, tolerance: float = _FD_TOL) -> GradientReport:
    """Max relative error of each own-state gradient vs central differences
    at `random_probes`' points, all probes at once."""
    x, y, z = probes
    d = model.dim
    for v in (model.drift(x), model.diffusion(x), model.terminal(x)):
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite coefficient value at a probe")

    def triple(fn):
        # the driver's own (x, y, z) as one (..., 2d+1) argument
        return lambda v: fn(v[..., :d], v[..., d], v[..., d + 1 :])

    errs = {}
    # the gradient's trailing axis is the coordinate j of its argument
    for which, fn, grad_fn, at in (
        ("drift_x", model.drift, model.grad_drift_x, x),
        ("diffusion_x", model.diffusion, model.grad_diffusion_x, x),
        ("terminal_x", model.terminal, model.grad_terminal_x, x),
        ("driver_own", triple(model.driver), triple(model.grad_driver_own),
         np.concatenate([x, y[:, None], z], axis=-1)),
    ):
        an = np.asarray(grad_fn(at), float)
        errs[which] = max(_rel_err(_central_diff(fn, at, j), an[..., j]) for j in range(at.shape[-1]))
    return GradientReport(max_rel_error=errs, tolerance=tolerance)
