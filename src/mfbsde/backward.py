"""Regression Monte Carlo solvers for the backward equations.

All solvers share one backward-induction core: least-squares projection of
the next-node value on polynomials of the conditioning state, a
martingale-increment regression for the z component (centered by the fitted
conditional mean, which leaves the conditional expectation unchanged but
removes the dominant variance term), and a fixed-point loop for the implicit
driver step, iterated to tolerance.  A driver that, as the solve evaluates
it, reads neither its own y nor its own z (see `_driver_reads_own_yz`) takes
one explicit step instead: the fixed point's second sweep would repeat its
first bit for bit.

Conditioning on the state alone is only valid once the mean-field inputs are
frozen.  The N-environment solver therefore works on blocks: every block
shares one frozen environment draw, regressions run within blocks, and the
first inner path of each block is the designated output replication.

The core is node-major: it moves the node axis of the conditioning states and
increments to the front once, keeps y and z as (n+1, B, P, ...) work arrays,
so each node's features, fits and driver steps read and write contiguous
(B, P, ...) slices, and returns the public (B * P, n+1, ...) arrays as views
of those work arrays (merging B and P needs no copy).  A block bundle from
`simulate_blocks` and the linear limit's states already lie node-major, so
the move copies nothing there; the value law's cloud paths and a plain
BSDE's paths are block-major and are copied once.  A solve given a coupled
run's work set (see `_work_array`) takes its y and z from the set, so the
run's batches and both of their solves reuse one pair of arrays, and a
solution's values live only until the run's next solve; a solve without one
owns its arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _iter_product
from typing import Callable, Optional

import numpy as np

from .forward import BlockSim, LawFlow
from .model import ModelSpec, env_average, env_shift, random_probes
from .noise import StreamKey, TimeGrid

__all__ = [
    "BsdeSolution",
    "ComparisonResult",
    "solve_mfbsde",
    "solve_bsde_n",
    "solve_linear_limit_bsde",
    "solve_plain_bsde",
    "check_comparison",
]

# |z| above which a solve reports `z_cap_exceeded`
_Z_CAP = 5.0
_FIXPOINT_TOL = 1e-10
# sweeps after which an unconverged driver step reports `fixpoint_not_contracted`
_FIXPOINT_CAP = 50
# relative spread below which a regression variable counts as constant
_SPREAD_ROUNDOFF = 16 * np.finfo(float).eps
# stream of the probe points of `_driver_reads_own_yz`
_PROBE_KEY = StreamKey(seed=0).child("driver_probe", 0)


# ---------------------------------------------------------------------------
# polynomial regression


def _exponent_tuples(n_vars: int, degree: int) -> list[tuple[int, ...]]:
    exps = [
        e
        for e in _iter_product(range(degree + 1), repeat=n_vars)
        if sum(e) <= degree
    ]
    exps.sort(key=lambda e: (sum(e), e))
    return exps


def _max_abs(a: np.ndarray) -> float:
    """max |a| without a full-size ``np.abs`` temporary."""
    return float(max(a.max(), -a.min())) if a.size else 0.0


def min_block_paths(n_vars: int, degree: int) -> int:
    """Fewest paths per regression block: ten times the basis size."""
    return 10 * len(_exponent_tuples(n_vars, degree))


def _features(states: np.ndarray, degree: int) -> np.ndarray:
    """Standardized monomial features, (B, P, K).

    Each variable is centered and scaled per block; zero-spread variables
    collapse to zero columns, which the ridge term silently drops (this is
    the degree-0 fallback when every state column is constant).  A spread
    within round-off of the mean counts as zero: a constant the mean does not
    reproduce exactly (0.7, say) has a std of about 1e-16, and scaling by it
    would turn the column into a copy of the intercept.

    The states are centered once, and the std reduces them as `np.std` does,
    so it is ``states.std(axis=1)`` bit for bit; each monomial is written
    straight into its column of the result.
    """
    B, P, m = states.shape
    mean = states.mean(axis=1, keepdims=True)
    centered = states - mean
    std = np.sqrt(np.add.reduce(np.square(centered), axis=1, keepdims=True) / P)
    live = std > _SPREAD_ROUNDOFF * np.abs(mean)
    if live.all():
        scaled = np.divide(centered, std, out=centered)
    else:
        scaled = np.where(live, centered / np.where(live, std, 1.0), 0.0)
    exps = _exponent_tuples(m, degree)
    feats = np.empty((B, P, len(exps)))
    for k, e in enumerate(exps):
        col = feats[..., k]
        powers = [scaled[..., v] if p == 1 else scaled[..., v] ** p for v, p in enumerate(e) if p]
        col[...] = powers[0] if powers else 1.0
        for power in powers[1:]:
            np.multiply(col, power, out=col)
    return feats


def _ridge_penalty(P: int, K: int, ridge: float = 1e-10) -> np.ndarray:
    """`_gram`'s ridge term for blocks of P paths and K features, (K, K)."""
    penalty = ridge * P * np.eye(K)
    penalty[0, 0] = 0.0  # first feature is the intercept by construction
    return penalty


def _gram(feats: np.ndarray, ridge: float = 1e-10, penalty: Optional[np.ndarray] = None) -> np.ndarray:
    """Ridged Gram matrix per block, (B, K, K), shared by every target.

    The tiny ridge keeps dropped (zero) columns harmless; the intercept is
    never penalized, so constant targets are reproduced exactly.  A solve
    builds its `_ridge_penalty` once and passes it as ``penalty``.
    """
    gram = np.matmul(feats.transpose(0, 2, 1), feats)
    gram += _ridge_penalty(*feats.shape[1:], ridge) if penalty is None else penalty
    return gram


def _batched_fit(feats: np.ndarray, gram: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Fitted values of the least squares per block of each target column.

    ``targets`` is (B, P, m); the m fits share the block's Gram matrix.
    """
    rhs = np.matmul(feats.transpose(0, 2, 1), targets)
    return np.matmul(feats, np.linalg.solve(gram, rhs))


# ---------------------------------------------------------------------------
# solution container


@dataclass
class BsdeSolution:
    """Pathwise backward solution on the grid, solved in blocks.

    ``y_values`` is (R, n+1); ``z_values`` is (R, n+1, d) with the terminal
    row copied from the last interior node (no increment spans the terminal
    node).  R = blocks * inner, and ``block_shape`` records that layout; the
    first inner path of each block is its designated replication.  A plain
    BSDE solve is one block.  Both arrays are views of node-major buffers,
    not C-contiguous.
    """

    grid: TimeGrid
    y_values: np.ndarray
    z_values: np.ndarray
    artifacts: dict
    provenance: dict
    block_shape: tuple[int, int]

    def __post_init__(self) -> None:
        if not (np.all(np.isfinite(self.y_values)) and np.all(np.isfinite(self.z_values))):
            raise ValueError("backward solution contains non-finite values")

    def designated(self) -> tuple[np.ndarray, np.ndarray]:
        """(y, z) of the designated replication of each block, (B, n+1) and
        (B, n+1, d), as owned copies that do not keep the solution alive."""
        B, P = self.block_shape
        y = self.y_values.reshape(B, P, -1)[:, 0].copy()
        z = self.z_values.reshape(B, P, self.grid.steps + 1, -1)[:, 0].copy()
        return y, z

    @property
    def max_abs_z(self) -> float:
        return _max_abs(self.z_values)


# ---------------------------------------------------------------------------
# induction core


def _work_array(work: Optional[dict], name: str, shape: tuple) -> np.ndarray:
    """A C-contiguous float array of ``shape``: a new one without ``work``,
    else a view of the front of the buffer ``work[name]``, allocated on first
    use and replaced when a larger shape asks for more.

    A work set is a plain dict that one run owns (see `harness.coupled_gaps`):
    its solves take their y and z from it, so they reuse pages already
    faulted in, and each solve overwrites what the one before it took.
    """
    if work is None:
        return np.empty(shape)
    size = math.prod(shape)
    buf = work.get(name)
    if buf is None or buf.size < size:
        buf = work[name] = np.empty(size)
    return buf[:size].reshape(shape)


def _backward_induction(
    grid: TimeGrid,
    cond_states: np.ndarray,   # (B, P, n+1, m) regression conditioning states
    dw: np.ndarray,            # (B, P, n, d)
    terminal: np.ndarray,      # (B, P)
    driver_fn: Callable,       # driver_fn(i, y, z) -> (B, P)
    degree: int,
    solver: str,               # the result's provenance["solver"] label
    explicit: bool = False,    # one driver step per node (see `_driver_reads_own_yz`)
    work: Optional[dict] = None,  # a coupled run's work set (see `_work_array`)
) -> BsdeSolution:
    B, P, n1, m = cond_states.shape
    n = grid.steps
    h = grid.h
    d = dw.shape[-1]
    need = min_block_paths(m, degree)
    if P < need:
        raise ValueError(f"need at least 10 * basis size = {need} paths per block, got {P}")
    # node-major work arrays (see the module docstring): a no-op on a block
    # bundle, one copy otherwise; the outputs stay views, since copying them
    # back costs peak memory
    states = np.ascontiguousarray(np.moveaxis(cond_states, 2, 0))   # (n+1, B, P, m)
    dw = np.ascontiguousarray(np.moveaxis(dw, 2, 0))                # (n, B, P, d)
    y = _work_array(work, "y", (n1, B, P))
    z = _work_array(work, "z", (n1, B, P, d))
    y[n] = terminal
    resid_rms = np.empty((n, B))
    penalty = _ridge_penalty(P, len(_exponent_tuples(m, degree)))
    contraction_flag = False
    sweeps_run = 1
    for i in range(n - 1, -1, -1):
        feats = _features(states[i], degree)
        gram = _gram(feats, penalty=penalty)
        cond = _batched_fit(feats, gram, y[i + 1, :, :, None])[..., 0]
        centered = y[i + 1] - cond
        resid_rms[i] = np.sqrt(np.mean(centered**2, axis=1))
        z[i] = _batched_fit(feats, gram, centered[..., None] * dw[i] / h)
        if explicit:
            # the fixed point's first sweep, which its second would repeat
            np.add(cond, h * driver_fn(i, cond, z[i]), out=y[i])
            continue
        # each block stops at its own tolerance, so a block's values do not
        # depend on which blocks share its batch
        cur = cond
        tol = _FIXPOINT_TOL * (1.0 + np.max(np.abs(cond), axis=1))
        live = np.ones(B, dtype=bool)
        for sweep in range(1, _FIXPOINT_CAP + 1):
            nxt = cond + h * driver_fn(i, cur, z[i])
            delta = np.max(np.abs(nxt - cur), axis=1)
            cur = nxt if live.all() else np.where(live[:, None], nxt, cur)
            live &= delta > tol
            if not live.any():
                break
        else:
            contraction_flag = True
        sweeps_run = max(sweeps_run, sweep)
        y[i] = cur
    z[n] = z[n - 1]
    provenance = {
        "fixpoint_sweeps": sweeps_run,
        "fixpoint_not_contracted": contraction_flag,
        "z_cap_exceeded": _max_abs(z) > _Z_CAP,
        "solver": solver,
    }
    return BsdeSolution(
        grid,
        np.moveaxis(y, 0, 2).reshape(B * P, n1),
        np.moveaxis(z, 0, 2).reshape(B * P, n1, d),
        {"residual_rms": resid_rms},
        provenance,
        block_shape=(B, P),
    )


# ---------------------------------------------------------------------------
# mean-field limit and N-environment solvers


def _driver_reads_own_yz(model: ModelSpec) -> bool:
    """Whether the driver's own part reads its y or z: a nonzero y or z
    component of its own-part gradient at `random_probes`' points.

    A solve whose driver reads neither takes one explicit step per node (see
    `_backward_induction`).  So does the linear limit's driver, whose y and z
    coefficients are these components.
    """
    probes = random_probes(model, 32, _PROBE_KEY)
    return bool(np.any(model.grad_driver_own(*probes)[..., model.dim :] != 0.0))


def _block_solve(
    model: ModelSpec,
    grid: TimeGrid,
    x: np.ndarray,             # (B, P, n+1, d)
    dw: np.ndarray,            # (B, P, n, d)
    terminal_shift,            # (B,) or (1,); None for a partner-free terminal
    driver_shift,              # (B, n+1) or (1, n+1); None for a partner-free driver
    degree: int,
    solver: str,
    self_average: bool = False,
    work: Optional[dict] = None,
) -> BsdeSolution:
    """Backward solve on blocks whose partner means are the own part plus a
    shift (see `env_average`).

    With ``self_average`` the driver instead averages over the block's own
    (state, y) columns, refreshed on every fixed-point sweep: this defines
    the value law's fixed point (see `fluctuation.value_law`).  A driver
    without a partner part averages nothing, so it reads its y and z only
    through its own part, with or without ``self_average``.
    """
    terminal = env_average(model, "terminal", x[:, :, -1, :], terminal_shift)

    def driver(i, y, z):
        xi = x[:, :, i, :]
        if self_average:
            shift = env_shift(model, "driver", xi, y)
        else:
            shift = None if driver_shift is None else driver_shift[:, i]
        return env_average(model, "driver", xi, shift, y, z)

    explicit = (model.env_free("driver") or not self_average) and not _driver_reads_own_yz(model)
    return _backward_induction(grid, x, dw, terminal, driver, degree, solver, explicit, work)


def solve_mfbsde(
    law: LawFlow, x_paths: np.ndarray, dw: np.ndarray, degree: int = 2, work: Optional[dict] = None
) -> BsdeSolution:
    """Backward solution of the mean-field limit equation on given paths.

    ``x_paths`` is (B, P, n+1, d) blocks and ``dw`` (B, P, n, d) their
    increments; a lone ensemble of P paths is one block, (1, P, ...).
    Terminal and driver means come from the law's shift curves
    (`LawFlow.shift`).  A law without y values has no driver curve: the
    driver then averages over each block's own (state, y) values, which is
    how `value_law` finds the law's values in the first place.  Model and
    grid are the law's.  Regression conditions on the state at each node.
    With a ``work`` set (see `_work_array`) y and z are the set's.
    """
    self_average = not law.has_y
    return _block_solve(
        law.model, law.grid, x_paths, dw,
        law.shift("terminal"),
        None if self_average else law.shift("driver"),
        degree,
        "mf_limit",
        self_average=self_average,
        work=work,
    )


def solve_bsde_n(
    model: ModelSpec, N: int, sim: BlockSim, degree: int = 2, work: Optional[dict] = None
) -> BsdeSolution:
    """Backward solution of the N-environment system on simulated blocks.

    Terminal and driver replace mean-field expectations by averages over the
    block's frozen N partner paths, which ``sim`` carries as shift curves
    on its grid; regressions stay within blocks, where the value is a
    function of the state conditionally on the environment.  With a
    ``work`` set (see `_work_array`) y and z are the set's.
    """
    sol = _block_solve(
        model, sim.grid, sim.xn, sim.dw, sim.terminal_curve, sim.driver_curve, degree, "bsde_n",
        work=work,
    )
    sol.provenance["environment_size"] = N
    return sol


# ---------------------------------------------------------------------------
# linearized limit system backward solver


def solve_linear_limit_bsde(
    model: ModelSpec,
    grid: TimeGrid,
    x: np.ndarray,          # (B, P, n+1, d) base states, inner paths per member
    xbar: np.ndarray,       # (B, P, n+1, d) first-order states on the same streams
    dw: np.ndarray,         # (B, P, n, d)
    xi3: np.ndarray,        # (B,) terminal field values along member paths
    eta4: Optional[np.ndarray] = None,   # (B, n+1) driver field curve per member
    base_y: Optional[np.ndarray] = None,  # (B, P, n+1) base solution, for driver grads
    base_z: Optional[np.ndarray] = None,  # (B, P, n+1, d)
    degree: int = 2,
) -> BsdeSolution:
    """Backward solve of the linear fluctuation equation on member blocks.

    Each block freezes one realization of the driving Gaussian field; inner
    paths share it, so within a block the value is a function of the pair
    (state, first-order state) and the regression conditions on both.  The
    terminal is the field value plus the own-state gradient of the terminal
    coefficient against the first-order state; the driver adds the field
    curve to the own-triple gradient terms against the fluctuation triple.
    Partner-gradient terms are absent: their averages vanish in the limit
    (see `solve_limit_system`).  Under the additive coupling (see
    `ModelSpec`) the own-state gradients are those of the own parts.
    """
    B, P, n1, d = x.shape
    a_phi = model.grad_terminal_x(x[:, :, -1, :])  # (B, P, d)
    terminal = xi3[:, None] + np.sum(a_phi * xbar[:, :, -1, :], axis=-1)
    y0 = base_y if base_y is not None else np.zeros((B, P, n1))
    z0 = base_z if base_z is not None else np.zeros((B, P, n1, d))

    def driver(i, ybar, zbar):
        own = model.grad_driver_own(x[:, :, i, :], y0[:, :, i], z0[:, :, i, :])
        out = (
            np.sum(own[..., :d] * xbar[:, :, i, :], axis=-1)
            + own[..., d] * ybar
            + np.sum(own[..., d + 1 :] * zbar, axis=-1)
        )
        return out if eta4 is None else eta4[:, i][:, None] + out

    # (state, first-order state) node-major, as the induction reads them, so
    # they are held once
    states = np.empty((n1, B, P, 2 * d))
    states[..., :d] = np.moveaxis(x, 2, 0)
    states[..., d:] = np.moveaxis(xbar, 2, 0)
    return _backward_induction(
        grid, np.moveaxis(states, 0, 2), dw, terminal, driver, degree, "linear_limit",
        explicit=not _driver_reads_own_yz(model),
    )


# ---------------------------------------------------------------------------
# plain BSDE mode and the comparison check


def solve_plain_bsde(
    grid: TimeGrid,
    x_paths: np.ndarray,   # (P, n+1, d)
    dw: np.ndarray,        # (P, n, d)
    terminal_fn: Callable[[np.ndarray], np.ndarray],
    driver_fn: Callable[[float, np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    degree: int = 2,
) -> BsdeSolution:
    """Standard BSDE without mean-field terms: driver g(t, x, y, z), solved
    as one block of the P paths."""
    terminal = terminal_fn(x_paths[:, -1, :])[None]

    def driver(i, y, z):
        t = float(grid.nodes[i])
        return driver_fn(t, x_paths[:, i, :], y[0], z[0])[None]

    return _backward_induction(grid, x_paths[None], dw[None], terminal, driver, degree, "plain")


@dataclass
class ComparisonResult:
    passed: bool
    margin: float
    eps: float


def check_comparison(
    grid: TimeGrid,
    x_paths: np.ndarray,
    dw: np.ndarray,
    terminal_hi,
    driver_hi,
    terminal_lo,
    driver_lo,
    degree: int = 2,
) -> ComparisonResult:
    """Monotonicity of plain BSDE solutions in (terminal, driver).

    Verifies the ordering of the inputs on the sampled support, solves both
    equations on shared paths, and checks y_hi >= y_lo - eps at every node
    and path, with eps = 1e-6 + 2 * regression residual RMS.
    """
    t_hi = terminal_hi(x_paths[:, -1, :])
    t_lo = terminal_lo(x_paths[:, -1, :])
    if np.any(t_hi < t_lo):
        raise ValueError("terminal ordering violated on sampled support")
    lo = solve_plain_bsde(grid, x_paths, dw, terminal_lo, driver_lo, degree)
    hi = solve_plain_bsde(grid, x_paths, dw, terminal_hi, driver_hi, degree)
    for i in range(grid.steps):
        t = float(grid.nodes[i])
        g_hi = driver_hi(t, x_paths[:, i, :], lo.y_values[:, i], lo.z_values[:, i])
        g_lo = driver_lo(t, x_paths[:, i, :], lo.y_values[:, i], lo.z_values[:, i])
        if np.any(g_hi < g_lo - 1e-12):
            raise ValueError("driver ordering violated on sampled support")
    rms = max(
        float(np.max(hi.artifacts["residual_rms"])),
        float(np.max(lo.artifacts["residual_rms"])),
    )
    eps = 1e-6 + 2.0 * rms
    margin = float(np.min(hi.y_values - lo.y_values))
    return ComparisonResult(passed=margin >= -eps, margin=margin, eps=eps)
