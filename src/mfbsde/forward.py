"""Forward solvers: mean-field limit dynamics, the N-environment system and
the classical interacting particle system.

The N-environment system replaces each mean-field expectation by the average
over N frozen partner paths drawn from the limit law.  (The paper draws them
from the N-system's own law, which differs from the limit law by O(1/N); that
moves squared errors by O(1/N^2) and sqrt(N)-scaled fluctuations by
O(1/sqrt(N)), below every reported statistic.)  Every output path is coupled
to a limit path driven by the same Brownian stream, so differences isolate
the environment-size effect.  Closed-form pools are drawn on every core.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .model import COEFFICIENTS, ModelSpec, env_average, env_shift
from .noise import StreamKey, TimeGrid, brownian_increments, key_streams

__all__ = [
    "LawFlow",
    "BlockSim",
    "solve_limit_forward",
    "solve_sde_n",
    "solve_classical_system",
    "simulate_blocks",
    "block_batches",
    "euler_paths",
]

DIVERGENCE_CAP = 1e8
# paths that `coupled_gaps` and `solve_limit_system` hold at once (through
# `block_batches`, at call time), 256 blocks of 128; no output depends on it
BLOCK_PATHS = 256 * 128
# elements of partner draws (keys x partners x drawn nodes x d) that
# `LawFlow._pools` holds at a time: a 256 kB sub-batch stays in cache and its
# reused heap pages are not faulted in again
_SUB_BATCH = 1 << 15
# threads that draw closed-form partner pools (`LawFlow.pool_shifts`; read at call time)
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@functools.cache
def _executor():
    """The pool threads, built on first use: importing the package starts none."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(WORKERS)


# ---------------------------------------------------------------------------
# state laws


@dataclass
class LawFlow:
    """Path law of the state process: a sample cloud or exact closed form.

    Cloud mode stores M independent paths, and their y values once a
    backward solve has been attached (a value law, see `value_law`).
    Closed-form mode synthesizes exact state draws on demand from the model's
    path map, so environment sampling never pays a cloud-size bias.  Either
    way a limit-side mean of a coefficient is its own part plus the law's
    `shift` curve E b(X_t), the same form as a block's mean over its N
    partners, and `euler` steps the limit dynamics with those means.  The law
    is a study's one source of its model, grid and partner values: every
    route that takes a law reads them here.
    """

    grid: TimeGrid
    model: ModelSpec
    cloud: Optional[np.ndarray] = None      # (M, n+1, d); None for the closed form
    cloud_y: Optional[np.ndarray] = None    # (M, n+1)
    _curves: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.cloud is None:
            if self.model.closed_form is None:
                raise ValueError("model has no closed form")
            if self.cloud_y is not None:
                raise ValueError("cloud_y needs a cloud: a closed-form law carries no values")
        elif self.cloud.shape[0] < 2:
            raise ValueError("cloud law needs at least 2 sample paths")
        else:
            # C order: the law's reductions over its cloud round by memory layout
            self.cloud = np.ascontiguousarray(self.cloud)

    @property
    def kind(self) -> str:
        return "closed_form" if self.cloud is None else "cloud"

    @property
    def size(self) -> int:
        return 0 if self.cloud is None else self.cloud.shape[0]

    @property
    def has_y(self) -> bool:
        return self.cloud_y is not None

    # -- samples ------------------------------------------------------------

    def paths(self, w_key: StreamKey, blocks, inner: int) -> tuple[np.ndarray, np.ndarray]:
        """Own blocks of `inner` limit paths: ``(dw, x)``, (B, inner, n, d)
        increments, block b's under ``w_key.child("path", b)``, and (B, inner,
        n+1, d) paths stepped by `euler`.  Both are views of node-major
        buffers, so the backward solves' node-major moves copy nothing."""
        blocks = list(blocks)
        n, d = self.grid.steps, self.model.dim
        dw = np.moveaxis(np.empty((n, len(blocks), inner, d)), 0, 2)
        brownian_increments([w_key.child("path", b) for b in blocks], (inner, n, d), self.grid.h, out=dw)
        return dw, self.euler(dw, out=np.moveaxis(np.empty((n + 1, len(blocks), inner, d)), 0, 2))

    def draw(self, key: StreamKey, count: int) -> np.ndarray:
        """One key's `count` whole partner paths, (count, n+1, d): the pool
        that `pool_shifts` reduces for that key."""
        ((_, _, x, _),) = self._pools([key], count)
        return x[0]

    def pool_shifts(self, keys, count: int, nodes=None):
        """Each key's pool of `count` partners reduced to its shifts:
        ``(drift, diffusion, terminal, driver)``, `env_shift` of each pool
        that `_pools` draws.  Without ``nodes`` each is
        (len(keys),) plus the layout of `shift`; with ``nodes`` every shift,
        the terminal included, is a curve over those nodes, (len(keys),
        len(nodes)) plus the coefficient's own axes.  A coefficient without a
        partner part, and the driver of a law without values, gives None; a
        law with no partner part draws nothing.  No keys give (0, ...) shifts.

        The pools are drawn and reduced a sub-batch of keys at a time (see
        `_SUB_BATCH`), so no key batch's whole pool is ever held.  A closed-form
        law's full-path pools run on `WORKERS` threads, in runs of whole sub-batches.
        """
        if count < 1:
            raise ValueError("a partner pool needs count >= 1")
        model = self.model
        live = [w for w in COEFFICIENTS if not model.env_free(w) and (w != "driver" or self.has_y)]
        keys = list(keys) if live else []  # a law with no partner part draws nothing

        def reduce(x, y):
            ends = {"terminal": x[:, :, -1]} if nodes is None else {}
            return {w: env_shift(model, w, ends.get(w, x), y) for w in live}

        # the shapes, from a pool of no keys
        none = np.empty((0, count, self.grid.steps + 1 if nodes is None else len(nodes), model.dim))
        empty = reduce(none, none[..., 0] if self.has_y else None)
        shifts = {w: np.empty((len(keys),) + part.shape[1:]) for w, part in empty.items()}

        def fill(lo, hi):
            for a, b, x, y in self._pools(keys[lo:hi], count, nodes):
                for w, part in reduce(x, y).items():
                    shifts[w][lo + a : lo + b] = part

        per = self._keys_per_sub_batch(count, self.grid.steps)
        batches = -(-len(keys) // per)
        runs = max(1, min(WORKERS, batches)) if self.cloud is None and nodes is None else 1
        cuts = [min(len(keys), per * (batches * r // runs)) for r in range(runs + 1)]
        if runs == 1:  # starts no thread
            fill(*cuts)
        else:
            futures = [_executor().submit(fill, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
            for error in filter(None, [future.exception() for future in futures]):  # all end first
                raise error
        return tuple(shifts.get(w) for w in COEFFICIENTS)

    def _keys_per_sub_batch(self, count: int, draws: int) -> int:
        """Keys whose pools of `count` partners at `draws` nodes fill a sub-batch."""
        return max(1, _SUB_BATCH // max(1, count * draws * self.model.dim))

    def _pools(self, keys: list, count: int, nodes=None):
        """`count` i.i.d. partner paths per key, a sub-batch of keys at a time:
        yields ``(lo, hi, x, y)`` for ``keys[lo:hi]``, x (keys, count, nodes,
        d) and y (keys, count, nodes), None for a law without values.  Each
        key's draws are what that key alone would give.  A closed-form law
        draws into buffers allocated once per call (so concurrent calls share
        none): read each sub-batch before taking the next.  With ``nodes``
        only those grid nodes are drawn, in their order, from the Brownian
        path at those nodes alone (exact: path maps are pointwise in time) or
        the cloud's entries.  They lie node-major, since `env_shift`'s mean
        rounds by memory layout: the empirical fields' bits rest on it."""
        grid, d = self.grid, self.model.dim
        if nodes is None:
            t, step, draws = grid.nodes, grid.h, grid.steps
        else:
            nodes = np.asarray(nodes, dtype=np.intp)
            t = grid.nodes[nodes]
            at, back = np.unique(t, return_inverse=True)
            step, draws = np.diff(at, prepend=0.0)[:, None], at.size
        # ``first`` on a's node axis, moved to the front: a (nodes, keys, partners, ...) copy
        node_major = lambda a, axis, first: np.moveaxis(np.moveaxis(a, axis, 0)[first], 0, 2)
        per = self._keys_per_sub_batch(count, draws)
        rows = min(per, len(keys))
        if self.cloud is None:
            dw = np.empty((rows, count, draws, d))
            w = np.zeros((rows, count, draws + 1, d))  # node 0 of every path stays 0
        else:
            idx = np.empty((rows, count), dtype=np.int64)
        for lo in range(0, len(keys), per):
            sub = keys[lo : lo + per]
            m = len(sub)
            if self.cloud is None:
                brownian_increments(sub, (count, draws, d), step, out=dw[:m])
                np.cumsum(dw[:m], axis=2, out=w[:m, :, 1:])
                path = w[:m] if nodes is None else node_major(w[:m], 2, back + 1)
                yield lo, lo + m, self.model.closed_form.path_map(t, path), None
            else:
                for row, rng in zip(idx, key_streams(sub)):
                    row[:] = rng.integers(0, self.cloud.shape[0], size=count)
                if nodes is None:
                    pick = lambda a: a[idx[:m]]
                else:
                    pick = lambda a: node_major(a, 1, (nodes[:, None, None], idx[None, :m]))
                yield lo, lo + m, pick(self.cloud), pick(self.cloud_y) if self.has_y else None

    # -- mean-field coefficient shifts ----------------------------------------

    def shift(self, which: str) -> Optional[np.ndarray]:
        """The law's mean E b(X_t) of the partner part of coefficient
        ``which``, in `BlockSim`'s layout: (1,) for the terminal, else (1, n+1)
        plus the coefficient's own axes; None for a coefficient without a
        partner part.

        With it, `env_average` gives the law's mean of the coefficient at any
        own state.  A closed-form law reads its exact mean off the closed
        form's ``env_means``; a cloud law is one pool holding the whole cloud
        (see `env_shift`).  The terminal shift is the last node of the curve.
        """
        model = self.model
        if model.env_free(which):
            return None
        if which not in self._curves:
            if self.cloud is not None:
                cloud_y = None if self.cloud_y is None else self.cloud_y[None]
                curve = env_shift(model, which, self.cloud[None], cloud_y)
            elif which in model.closed_form.env_means:
                curve = model.closed_form.env_means[which](self.grid.nodes)[None]
            else:
                raise ValueError(f"the closed form carries no mean of the partner part of {which}")
            self._curves[which] = curve[:, -1] if which == "terminal" else curve
        return self._curves[which]

    def euler_coefficients(self):
        """The limit dynamics' Euler drift and diffusion, ``fn(x, i)``: this
        law's means of the two coefficients at own state x and node i."""
        return _euler_coefficients(self.model, self.shift("drift"), self.shift("diffusion"))

    def euler(self, dw: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Limit-dynamics paths (..., n+1, d) on increments ``dw`` (..., n, d),
        stepped with `euler_coefficients`, written into ``out`` if given."""
        return euler_paths(self.model.x0, self.grid, dw, *self.euler_coefficients(), out=out)


# ---------------------------------------------------------------------------
# Euler stepping


def euler_paths(x0, grid: TimeGrid, dw: np.ndarray, drift_fn, diffusion_fn, out=None):
    """Generic Euler scheme from ``x0`` (d,); dw has shape (..., steps, d).

    drift_fn(x, i) -> (..., d) and diffusion_fn(x, i) -> (..., d, d) receive
    the current states and the node index.  The paths (..., steps+1, d) go
    into ``out`` if given (any strides), else into a new array.  Aborts on a
    NaN, infinite or divergent state (see `DIVERGENCE_CAP`).
    """
    n = grid.steps
    h = grid.h
    lead = dw.shape[:-2]
    d = dw.shape[-1]
    if out is None:
        out = np.empty(lead + (n + 1, d))
    x = np.broadcast_to(x0, lead + (d,)).copy()
    out[..., 0, :] = x
    for i in range(n):
        b = drift_fn(x, i)
        sig = diffusion_fn(x, i)
        x = x + b * h + np.einsum("...jk,...k->...j", sig, dw[..., i, :])
        if not np.all(np.abs(x) < DIVERGENCE_CAP):
            raise RuntimeError(
                f"state diverged at step {i + 1} (t={grid.nodes[i + 1]:.6g}); "
                f"max |x| = {np.max(np.abs(x)):.3g}"
            )
        out[..., i + 1, :] = x
    return out


def _euler_coefficients(model: ModelSpec, drift_curve, diffusion_curve):
    """Euler drift and diffusion: the own part plus a shift curve
    (B, n+1, ...) at the step's node (see `env_average`); a None curve is a
    coefficient without a partner part."""

    def coefficient(which, curve):
        return lambda x, i: env_average(model, which, x, None if curve is None else curve[:, i])

    return coefficient("drift", drift_curve), coefficient("diffusion", diffusion_curve)


# ---------------------------------------------------------------------------
# limit forward solver


def solve_limit_forward(
    model: ModelSpec, grid: TimeGrid, cloud_size: int, root_key: StreamKey
) -> LawFlow:
    """State law of the mean-field limit dynamics.

    Returns the closed-form law when the model has one; otherwise an
    interacting cloud of `cloud_size` particles whose coefficient averages run
    over the whole cloud at every step.
    """
    if model.closed_form is not None:
        return LawFlow(grid, model)
    if cloud_size < 2:
        raise ValueError("cloud_size must be >= 2")
    return LawFlow(grid, model, cloud=solve_classical_system(model, cloud_size, grid, root_key))


def solve_classical_system(
    model: ModelSpec, N: int, grid: TimeGrid, key: StreamKey
) -> np.ndarray:
    """Fully coupled particle system, (N, n+1, d) paths: particle i's
    coefficients average the current states of all N particles; each particle
    has its own Brownian stream ``key.child("path", i)``."""
    if N < 1:
        raise ValueError("N must be >= 1")
    keys = [key.child("path", i) for i in range(N)]
    dw = brownian_increments(keys, (grid.steps, model.dim), grid.h)

    def coefficient(which):
        # the partner pool is the current state of all N particles
        return lambda x, i: env_average(model, which, x[None], env_shift(model, which, x[None]))[0]

    return euler_paths(model.x0, grid, dw, coefficient("drift"), coefficient("diffusion"))


# ---------------------------------------------------------------------------
# the N-environment system


def solve_sde_n(
    law: LawFlow, N: int, w_key: StreamKey, env_key: StreamKey, out_reps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Coupled one-path simulation of the N-environment forward system:
    ``(paths, coupled_limit)``, each (out_reps, n+1, d).

    Replication r is driven by the Brownian stream ``w_key.child("path", r)``
    and draws its own N partner paths from the limit law ``law`` under
    ``env_key.child("draws", 0).child("env", r)``; its coupled limit path
    takes the coefficient means of ``law`` on the same increments.  Model
    and grid are the law's.  Streams hash their full key path, so even
    ``w_key == env_key`` shares no draw.
    """
    if N < 1 or out_reps < 0:
        raise ValueError("need N >= 1, out_reps >= 0")
    sim = simulate_blocks(
        law, N, n_blocks=out_reps, inner=1, w_key=w_key, env_key=env_key.child("draws", 0)
    )
    return sim.xn[:, 0], sim.xlim[:, 0]


# ---------------------------------------------------------------------------
# block simulation (shared with the backward solvers)


@dataclass
class BlockSim:
    """Coupled block bundle: per block one frozen environment draw, `inner`
    paths of the N-system and of the limit dynamics on shared increments
    (``dw`` and ``xlim`` are `LawFlow.paths`' draw).

    Each block's partner pool is reduced to its shift curves (see
    `LawFlow.pool_shifts`) a sub-batch of blocks at a time and never held
    whole.  ``env_x`` and ``env_y`` are always None; they stay for readers
    that total the bundle's arrays.
    """

    grid: TimeGrid
    # views of node-major (n, B, P, d) and (n+1, B, P, d) buffers (see `LawFlow.paths`)
    dw: np.ndarray                 # (B, P, n, d)
    xn: np.ndarray                 # (B, P, n+1, d)
    xlim: np.ndarray               # (B, P, n+1, d) limit dynamics, same dw
    terminal_curve: Optional[np.ndarray] = None   # (B,) terminal shift
    driver_curve: Optional[np.ndarray] = None     # (B, n+1) driver shift
    env_x: Optional[np.ndarray] = None            # always None: pools are never held
    env_y: Optional[np.ndarray] = None            # always None


def block_batches(count: int, paths: int) -> list[tuple[int, int]]:
    """(lo, hi) bounds of ``count`` items of ``paths`` paths each, taken as
    many at a time as `BLOCK_PATHS` paths hold (at least one)."""
    batch = max(1, BLOCK_PATHS // paths)
    return [(lo, min(lo + batch, count)) for lo in range(0, count, batch)]


def simulate_blocks(
    law: LawFlow,
    N: int,
    n_blocks: int,
    inner: int,
    w_key: StreamKey,
    env_key: StreamKey,
    block_offset: int = 0,
) -> BlockSim:
    """Simulate `n_blocks` blocks of `inner` coupled paths each.

    Block b draws one environment of N partner paths from ``law`` under
    ``env_key.child("env", block_offset + b)`` and one (inner, steps, d)
    increment array under ``w_key.child("path", block_offset + b)``.  All
    inner paths of a block share the frozen environment, which enters only
    through its shift curves (`LawFlow.pool_shifts`); the limit paths use
    the coefficient means of the same ``law`` on the same increments, so no
    second law's sampling error enters the gap between the two.  Model and
    grid are the law's.  Every block runs in one Euler sweep: a caller that
    bounds memory passes one block batch (see `block_batches`).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    model, grid = law.model, law.grid
    blocks = range(block_offset, block_offset + n_blocks)
    # forward-only use of a y-free law leaves the driver shift unset; the
    # backward solver raises if it actually needs it
    drift, diffusion, terminal, driver = law.pool_shifts([env_key.child("env", b) for b in blocks], N)
    dw, xlim = law.paths(w_key, blocks, inner)
    # the N-system on the same increments, into a node-major buffer too (see `BlockSim`)
    xn = np.moveaxis(np.empty((grid.steps + 1, n_blocks, inner, model.dim)), 0, 2)
    euler_paths(model.x0, grid, dw, *_euler_coefficients(model, drift, diffusion), out=xn)
    return BlockSim(grid=grid, dw=dw, xn=xn, xlim=xlim, terminal_curve=terminal, driver_curve=driver)
