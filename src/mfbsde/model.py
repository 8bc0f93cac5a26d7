"""Coefficient models for mean-field forward-backward systems.

A model is a quadruple of coefficient functions

    drift(x, x_env) -> d-vector          diffusion(x, x_env) -> d x d matrix
    driver(x, y, z, x_env, y_env) -> r   terminal(x, x_env) -> r

together with their first-order gradients.  The second ("environment")
argument is the partner variable that mean-field expectations average over.
Every coefficient couples to its partner additively (see `ModelSpec`), so a
mean over partners is the coefficient at the reference partner plus one
shift per pool.  The driver signature deliberately has no z_env parameter:
partner z values never enter the driver.

All callables are numpy-vectorized over leading axes; coordinates live on the
trailing axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .noise import StreamKey, generator

__all__ = [
    "ModelSpec",
    "ClosedForm",
    "GradientReport",
    "Probe",
    "catalog_model",
    "check_gradients",
    "env_average",
    "env_shift",
    "partner_values",
    "random_probes",
    "CATALOG_NAMES",
]

Array = np.ndarray

CATALOG_NAMES = ("constant", "ou_mean_field", "tanh_bounded", "mf_bsde_linear")


@dataclass(frozen=True)
class ClosedForm:
    """Exact reference curves for a model with a known solution.

    ``path_map`` (and ``y_path``/``z_path``) turn a Brownian path sampled on
    grid nodes into the exact state (and value/martingale-integrand) path, so
    fresh exact draws from the state law cost one Brownian path each.
    ``drift_mean``/``diffusion_mean``/``terminal_mean`` are the exact
    environment-averaged coefficients (no closed-form model has a driver that
    reads its partners).
    """

    mean: Callable[[Array], Array]                 # t (k,) -> (k, d)
    path_map: Callable[[Array, Array], Array]      # nodes, w (..., k, d) -> (..., k, d)
    drift_mean: Callable[[Array, float], Array]    # x (..., d), t -> (..., d)
    diffusion_mean: Callable[[Array, float], Array]  # -> (..., d, d)
    terminal_mean: Callable[[Array], Array]        # x (..., d) -> (...)
    y_path: Optional[Callable[[Array, Array], Array]] = None   # nodes, w -> (..., k)
    z_path: Optional[Callable[[Array, Array], Array]] = None   # nodes, w -> (..., k, d)


@dataclass(frozen=True)
class ModelSpec:
    """Immutable coefficient bundle; all evaluations are pure functions.

    The coupling contract: each coefficient is a(x) + b(x_env), and the
    driver is a(x, y, z) + b(x_env, y_env).  A mean over partner pools is then
    g(x, x0) plus the pool's shift (see `env_average`), and every fluctuation
    field is b(X) - E b(X), the same at every own state.
    """

    name: str
    dim: int
    x0: Array
    horizon: float
    drift: Callable[[Array, Array], Array]
    diffusion: Callable[[Array, Array], Array]
    driver: Callable[[Array, Array, Array, Array, Array], Array]
    terminal: Callable[[Array, Array], Array]
    grad_drift_x: Callable[[Array, Array], Array]        # (..., d, d)
    grad_drift_env: Callable[[Array, Array], Array]      # (..., d, d)
    grad_diffusion_x: Callable[[Array, Array], Array]    # (..., d, d, d)
    grad_diffusion_env: Callable[[Array, Array], Array]  # (..., d, d, d)
    grad_terminal_x: Callable[[Array, Array], Array]     # (..., d)
    grad_terminal_env: Callable[[Array, Array], Array]   # (..., d)
    grad_driver_own: Callable[..., Array]                # (..., 2d+1)
    grad_driver_env: Callable[..., Array]                # (..., d+1)
    env_dependence: frozenset[str] = frozenset()
    closed_form: Optional[ClosedForm] = None

    def env_free(self, which: str) -> bool:
        """True when the named coefficient ignores its environment argument."""
        return which not in self.env_dependence


# ---------------------------------------------------------------------------
# small shape helpers


def _shape_of(*arrays: Array) -> tuple[int, ...]:
    return np.broadcast_shapes(*(np.shape(a)[:-1] for a in arrays))


def _diag(values: Array) -> Array:
    """Embed (..., d) values as (..., d, d) diagonal matrices."""
    values = np.asarray(values, dtype=float)
    d = values.shape[-1]
    out = np.zeros(values.shape + (d,))
    idx = np.arange(d)
    out[..., idx, idx] = values
    return out


def _zeros_like_batch(x: Array, e: Array, tail: tuple[int, ...]) -> Array:
    return np.zeros(_shape_of(np.atleast_1d(x), np.atleast_1d(e)) + tail)


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
    builder = {
        "constant": _build_constant,
        "ou_mean_field": _build_ou,
        "tanh_bounded": _build_tanh,
        "mf_bsde_linear": _build_mf_linear,
    }[name]
    return builder(dim, x0, horizon, params)


def _zero_driver_grads(dim):
    def own(x, y, z, ex, ey):
        return _zeros_like_batch(x, ex, (2 * dim + 1,))

    def env(x, y, z, ex, ey):
        return _zeros_like_batch(x, ex, (dim + 1,))

    return own, env


def _build_constant(dim, x0, horizon, params):
    b0 = float(params.pop("b0", 0.0))
    s = float(params.pop("s", 1.0))
    phi0 = float(params.pop("phi0", 1.0))
    f0 = float(params.pop("f0", 0.0))
    _reject_extra("constant", params)

    def drift(x, e):
        return np.broadcast_to(b0, _shape_of(x, e) + (dim,)).copy()

    def diffusion(x, e):
        return _diag(np.broadcast_to(s, _shape_of(x, e) + (dim,)))

    def driver(x, y, z, ex, ey):
        return np.broadcast_to(f0, _shape_of(x, ex)).copy()

    def terminal(x, e):
        return np.broadcast_to(phi0, _shape_of(x, e)).copy()

    g_own, g_env = _zero_driver_grads(dim)

    def mean(t):
        t = np.asarray(t, dtype=float)
        return x0 + b0 * t[..., None]

    def path_map(nodes, w):
        return x0 + b0 * np.asarray(nodes)[..., None] + s * w

    closed = ClosedForm(
        mean=mean,
        path_map=path_map,
        drift_mean=lambda x, t: np.broadcast_to(b0, np.shape(x)).copy(),
        diffusion_mean=lambda x, t: _diag(np.broadcast_to(s, np.shape(x))),
        terminal_mean=lambda x: np.broadcast_to(phi0, np.shape(x)[:-1]).copy(),
        y_path=lambda nodes, w: np.broadcast_to(
            phi0 + f0 * (horizon - np.asarray(nodes)), w.shape[:-1]
        ).copy(),
        z_path=lambda nodes, w: np.zeros(w.shape),
    )
    return ModelSpec(
        name="constant",
        dim=dim,
        x0=x0,
        horizon=horizon,
        drift=drift,
        diffusion=diffusion,
        driver=driver,
        terminal=terminal,
        grad_drift_x=lambda x, e: _zeros_like_batch(x, e, (dim, dim)),
        grad_drift_env=lambda x, e: _zeros_like_batch(x, e, (dim, dim)),
        grad_diffusion_x=lambda x, e: _zeros_like_batch(x, e, (dim, dim, dim)),
        grad_diffusion_env=lambda x, e: _zeros_like_batch(x, e, (dim, dim, dim)),
        grad_terminal_x=lambda x, e: _zeros_like_batch(x, e, (dim,)),
        grad_terminal_env=lambda x, e: _zeros_like_batch(x, e, (dim,)),
        grad_driver_own=g_own,
        grad_driver_env=g_env,
        env_dependence=frozenset(),
        closed_form=closed,
    )


def _ou_like_closed_form(dim, x0, horizon, beta, s, *, linear_terminal):
    """Closed form shared by the OU family.

    State: X_t = x0 e^{beta t} + s W_t.  Terminal sum(x) gives
    Y_t = M(T) + s sum(W_t); terminal sum(x + x_env) gives
    Y_t = 2 M(T) + s sum(W_t), with M(t) = sum_i x0_i e^{beta t}.
    """

    def mean(t):
        t = np.asarray(t, dtype=float)
        return x0 * np.exp(beta * t)[..., None]

    def path_map(nodes, w):
        return x0 * np.exp(beta * np.asarray(nodes))[..., None] + s * w

    m_T = float(np.sum(x0) * np.exp(beta * horizon))
    y_const = (2.0 * m_T) if linear_terminal else m_T

    def terminal_mean(x):
        x = np.asarray(x, dtype=float)
        total = np.sum(x, axis=-1)
        return (total + m_T) if linear_terminal else total

    def y_path(nodes, w):
        return y_const + s * np.sum(w, axis=-1)

    def z_path(nodes, w):
        return np.broadcast_to(s, w.shape).copy()

    def drift_mean(x, t):
        m_t = x0 * np.exp(beta * t)
        return np.broadcast_to(beta * m_t, np.shape(x)).copy()

    def diffusion_mean(x, t):
        return _diag(np.broadcast_to(s, np.shape(x)))

    return ClosedForm(
        mean=mean,
        path_map=path_map,
        drift_mean=drift_mean,
        diffusion_mean=diffusion_mean,
        terminal_mean=terminal_mean,
        y_path=y_path,
        z_path=z_path,
    )


def _build_ou_family(dim, x0, horizon, beta, s, *, linear_terminal, name):
    def drift(x, e):
        x, e = np.broadcast_arrays(np.asarray(x, float), np.asarray(e, float))
        return beta * e

    def diffusion(x, e):
        return _diag(np.broadcast_to(s, _shape_of(x, e) + (dim,)))

    def driver(x, y, z, ex, ey):
        return np.zeros(_shape_of(x, ex))

    if linear_terminal:

        def terminal(x, e):
            x, e = np.broadcast_arrays(np.asarray(x, float), np.asarray(e, float))
            return np.sum(x + e, axis=-1)

        def grad_terminal_env(x, e):
            return np.ones(_shape_of(x, e) + (dim,))

        env_dep = frozenset({"drift", "terminal"})
    else:

        def terminal(x, e):
            return np.sum(np.broadcast_to(np.asarray(x, float), _shape_of(x, e) + (dim,)), axis=-1)

        def grad_terminal_env(x, e):
            return _zeros_like_batch(x, e, (dim,))

        env_dep = frozenset({"drift"})

    eye = np.eye(dim)
    g_own, g_env = _zero_driver_grads(dim)
    return ModelSpec(
        name=name,
        dim=dim,
        x0=x0,
        horizon=horizon,
        drift=drift,
        diffusion=diffusion,
        driver=driver,
        terminal=terminal,
        grad_drift_x=lambda x, e: _zeros_like_batch(x, e, (dim, dim)),
        grad_drift_env=lambda x, e: np.broadcast_to(
            beta * eye, _shape_of(x, e) + (dim, dim)
        ).copy(),
        grad_diffusion_x=lambda x, e: _zeros_like_batch(x, e, (dim, dim, dim)),
        grad_diffusion_env=lambda x, e: _zeros_like_batch(x, e, (dim, dim, dim)),
        grad_terminal_x=lambda x, e: np.ones(_shape_of(x, e) + (dim,)),
        grad_terminal_env=grad_terminal_env,
        grad_driver_own=g_own,
        grad_driver_env=g_env,
        env_dependence=env_dep,
        closed_form=_ou_like_closed_form(
            dim, x0, horizon, beta, s, linear_terminal=linear_terminal
        ),
    )


def _build_ou(dim, x0, horizon, params):
    beta = float(params.pop("beta", 1.0))
    s = float(params.pop("s", 1.0))
    _reject_extra("ou_mean_field", params)
    return _build_ou_family(
        dim, x0, horizon, beta, s, linear_terminal=False, name="ou_mean_field"
    )


def _build_mf_linear(dim, x0, horizon, params):
    beta = float(params.pop("beta", 1.0))
    s = float(params.pop("s", 1.0))
    _reject_extra("mf_bsde_linear", params)
    return _build_ou_family(
        dim, x0, horizon, beta, s, linear_terminal=True, name="mf_bsde_linear"
    )


def _build_tanh(dim, x0, horizon, params):
    """Bounded coefficients with bounded derivatives; no closed form."""
    s = float(params.pop("s", 1.0))
    rho = float(params.pop("rho", 0.4))
    kappa = float(params.pop("kappa", 0.25))
    _reject_extra("tanh_bounded", params)
    if abs(rho) >= 1.0:
        raise ValueError("need |rho| < 1 to keep the diffusion positive")

    def drift(x, e):
        x, e = np.broadcast_arrays(np.asarray(x, float), np.asarray(e, float))
        return np.tanh(e)

    def diffusion(x, e):
        x, e = np.broadcast_arrays(np.asarray(x, float), np.asarray(e, float))
        return _diag(s * (1.0 + rho * np.tanh(e)))

    def driver(x, y, z, ex, ey):
        shape = _shape_of(x, ex)
        return np.broadcast_to(kappa * np.tanh(ey), shape).copy()

    def terminal(x, e):
        x, e = np.broadcast_arrays(np.asarray(x, float), np.asarray(e, float))
        return np.sum(np.tanh(x) + np.tanh(e), axis=-1)

    def sech2(u):
        return 1.0 - np.tanh(u) ** 2

    def grad_drift_env(x, e):
        x, e = np.broadcast_arrays(np.asarray(x, float), np.asarray(e, float))
        return _diag(sech2(e))

    def grad_diffusion_env(x, e):
        # axes: (..., row i, col j, env coordinate k); only i == j == k nonzero
        x, e = np.broadcast_arrays(np.asarray(x, float), np.asarray(e, float))
        out = np.zeros(e.shape + (dim, dim))
        idx = np.arange(dim)
        out[..., idx, idx, idx] = s * rho * sech2(e)
        return out

    def grad_terminal_x(x, e):
        x, e = np.broadcast_arrays(np.asarray(x, float), np.asarray(e, float))
        return sech2(x)

    def grad_terminal_env(x, e):
        x, e = np.broadcast_arrays(np.asarray(x, float), np.asarray(e, float))
        return sech2(e)

    def grad_driver_own(x, y, z, ex, ey):
        return _zeros_like_batch(x, ex, (2 * dim + 1,))

    def grad_driver_env(x, y, z, ex, ey):
        shape = _shape_of(x, ex)
        out = np.zeros(shape + (dim + 1,))
        out[..., dim] = kappa * sech2(np.broadcast_to(ey, shape))
        return out

    return ModelSpec(
        name="tanh_bounded",
        dim=dim,
        x0=x0,
        horizon=horizon,
        drift=drift,
        diffusion=diffusion,
        driver=driver,
        terminal=terminal,
        grad_drift_x=lambda x, e: _zeros_like_batch(x, e, (dim, dim)),
        grad_drift_env=grad_drift_env,
        grad_diffusion_x=lambda x, e: _zeros_like_batch(x, e, (dim, dim, dim)),
        grad_diffusion_env=grad_diffusion_env,
        grad_terminal_x=grad_terminal_x,
        grad_terminal_env=grad_terminal_env,
        grad_driver_own=grad_driver_own,
        grad_driver_env=grad_driver_env,
        env_dependence=frozenset({"drift", "diffusion", "driver", "terminal"}),
        closed_form=None,
    )


def _is_number(value) -> bool:
    """A finite real number; a bool is not one."""
    return (
        isinstance(value, (int, float, np.integer, np.floating))
        and not isinstance(value, bool)
        and bool(np.isfinite(value))
    )


def _reject_extra(name, params):
    if params:
        raise ValueError(f"unknown parameters for {name}: {sorted(params)}")


# ---------------------------------------------------------------------------
# the environment-average operator
#
# Every mean-field expectation E[g(x, X_t)] is replaced by the mean of g over a
# pool of partner states.  `partner_values` is the only code that evaluates a
# coefficient against partner states, and `env_average` and `env_shift` are
# the only place that decides how a mean over them is computed.


def _coefficient(model: ModelSpec, which: str):
    """Coefficient ``which`` with the driver's signature g(x, y, z, x_env, y_env)."""
    if which == "driver":
        return model.driver
    if which not in ("drift", "diffusion", "terminal"):
        raise ValueError(f"unknown coefficient selector {which!r}")
    g = getattr(model, which)
    return lambda x, y, z, ex, ey: g(x, ex)


def _check_pool(which: str, env_x, env_y) -> None:
    if which == "driver" and env_y is None:
        raise ValueError(
            "driver averages over partner y values, but neither a pool nor a shift "
            "carries them; attach y values to the environment law first (see value_law)"
        )
    if env_x is None:
        raise ValueError(
            f"{which} averages over partners, but the call passes neither a pool nor a shift"
        )
    if np.shape(env_x)[1] == 0:
        raise ValueError("partner pool is empty")


def partner_values(model: ModelSpec, which: str, env_x, env_y=None):
    """Coefficient ``which`` at the reference state x0 against partner states.

    ``env_x`` is (..., d) and ``env_y`` (...) for the driver, which is taken
    at own (x0, 0, 0).  Returns (...) plus the coefficient's own axes.  Under
    the additive contract this is every partner-dependent term there is: the
    shift of a pool mean and each fluctuation field's summand.
    """
    g = _coefficient(model, which)
    return g(model.x0, 0.0, np.zeros(model.dim), env_x, env_y)


def env_shift(model: ModelSpec, which: str, env_x, env_y=None):
    """What the average keeps of a partner pool.

    ``env_x`` holds partner states on axis 1, (B, K, ..., d), and ``env_y``
    their values (B, K, ...) for the driver; axes between the pool axis and
    the coordinates (grid nodes, say) are kept.  Returns the shift
    mean_k g(ref, e_k) - g(ref, ref), shaped (B, ...) plus the coefficient's
    own axes, or None for a coefficient that ignores its partner.
    """
    if model.env_free(which):
        return None
    _check_pool(which, env_x, env_y)
    pool = partner_values(model, which, env_x, env_y).mean(axis=1)
    return pool - partner_values(model, which, model.x0, 0.0)


def env_average(
    model: ModelSpec, which: str, x, env_x=None, env_y=None, y=None, z=None, shift=None
):
    """Mean of coefficient ``which`` at own states over partner pools.

    Own states ``x`` are (B, P, d) and the partner pool ``env_x`` is
    (B, K, d), with B = 1 for one pool shared by every own state; the driver
    also takes own ``y`` (B, P) and ``z`` (B, P, d) and partner values
    ``env_y`` (B, K).  Returns (B, P) plus the coefficient's own axes.

    A coefficient that ignores its partner is g(x, x), which keeps decoupled
    models bit-exact; any other costs O(B*P + B*K) as g(x, ref) plus the
    pool's `env_shift`, which a caller that reuses or drops a pool passes as
    ``shift`` (B, ...) in place of the pool.
    """
    g = _coefficient(model, which)
    if model.env_free(which):
        return g(x, y, z, x, y)
    if shift is None:
        shift = env_shift(model, which, env_x, env_y)
    return g(x, y, z, model.x0, 0.0) + shift[:, None]


# ---------------------------------------------------------------------------
# gradient validation


@dataclass(frozen=True)
class Probe:
    x: Array
    env: Array
    y: float
    z: Array
    env_y: float


def random_probes(model: ModelSpec, count: int, key: StreamKey) -> list[Probe]:
    """Unit-scale probe points for validation checks."""
    rng = generator(key)
    probes = []
    for _ in range(count):
        vals = rng.standard_normal(3 * model.dim + 2)
        probes.append(
            Probe(
                x=vals[: model.dim],
                env=vals[model.dim : 2 * model.dim],
                y=float(vals[2 * model.dim]),
                z=vals[2 * model.dim + 1 : 3 * model.dim + 1],
                env_y=float(vals[3 * model.dim + 1]),
            )
        )
    return probes


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


def _central_diff(fn, args, arg_index, coord, step=_FD_STEP):
    plus = [np.array(a, dtype=float, copy=True) for a in args]
    minus = [np.array(a, dtype=float, copy=True) for a in args]
    plus[arg_index].flat[coord] += step
    minus[arg_index].flat[coord] -= step
    return (np.asarray(fn(*plus), float) - np.asarray(fn(*minus), float)) / (2 * step)


def _rel_err(fd, an):
    return float(np.max(np.abs(fd - an) / np.maximum(1.0, np.abs(an))))


def check_gradients(
    model: ModelSpec, probes: list[Probe], tolerance: float = _FD_TOL
) -> GradientReport:
    """Max relative error of each declared gradient vs central differences."""
    d = model.dim
    errs = {
        name: 0.0
        for name in (
            "drift_x",
            "drift_env",
            "diffusion_x",
            "diffusion_env",
            "terminal_x",
            "terminal_env",
            "driver_own",
            "driver_env",
        )
    }
    for p in probes:
        args2 = (p.x, p.env)
        for v in (model.drift(*args2), model.diffusion(*args2), model.terminal(*args2)):
            if not np.all(np.isfinite(v)):
                raise ValueError(f"non-finite coefficient value at probe {p}")
        # drift: gradient[i, j] = d drift_i / d arg_j
        for which, grad_fn, argi in (
            ("drift_x", model.grad_drift_x, 0),
            ("drift_env", model.grad_drift_env, 1),
        ):
            an = np.asarray(grad_fn(*args2), float)
            for j in range(d):
                fd = _central_diff(model.drift, args2, argi, j)
                errs[which] = max(errs[which], _rel_err(fd, an[..., :, j]))
        for which, grad_fn, argi in (
            ("diffusion_x", model.grad_diffusion_x, 0),
            ("diffusion_env", model.grad_diffusion_env, 1),
        ):
            an = np.asarray(grad_fn(*args2), float)
            for k in range(d):
                fd = _central_diff(model.diffusion, args2, argi, k)
                errs[which] = max(errs[which], _rel_err(fd, an[..., :, :, k]))
        for which, grad_fn, argi in (
            ("terminal_x", model.grad_terminal_x, 0),
            ("terminal_env", model.grad_terminal_env, 1),
        ):
            an = np.asarray(grad_fn(*args2), float)
            for j in range(d):
                fd = _central_diff(model.terminal, args2, argi, j)
                errs[which] = max(errs[which], _rel_err(fd, an[..., j]))
        args5 = (p.x, p.y, p.z, p.env, p.env_y)

        def driver5(x, y, z, ex, ey):
            return model.driver(x, float(y), z, ex, float(ey))

        own = np.asarray(model.grad_driver_own(*args5), float).reshape(2 * d + 1)
        env = np.asarray(model.grad_driver_env(*args5), float).reshape(d + 1)
        fd_own = np.array(
            [float(_central_diff(driver5, args5, 0, j)) for j in range(d)]
            + [float(_central_diff(driver5, args5, 1, 0))]
            + [float(_central_diff(driver5, args5, 2, j)) for j in range(d)]
        )
        fd_env = np.array(
            [float(_central_diff(driver5, args5, 3, j)) for j in range(d)]
            + [float(_central_diff(driver5, args5, 4, 0))]
        )
        errs["driver_own"] = max(errs["driver_own"], _rel_err(fd_own, own))
        errs["driver_env"] = max(errs["driver_env"], _rel_err(fd_env, env))
    return GradientReport(max_rel_error=errs, tolerance=tolerance)

