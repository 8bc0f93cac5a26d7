"""Fluctuation fields of the N-environment approximation and their Gaussian limit.

The normalized environment averages of each coefficient, centered at their
expectations, form random fields indexed by time.  This module estimates
those fields empirically, builds the limit covariance kernel from a cloud
of base-system paths, samples the limit Gaussian field, integrates the
linearized first-order system driven by that field, and runs the
statistical comparisons between the two.

Every coefficient couples to its partner additively (see `ModelSpec`), so a
field entry is b(X) - E b(X) for the coefficient's partner part b, whatever
the own state, and one kernel factorization serves every member path.
`_field_values` lays out every entry's summand along the kernel cloud's
paths from one `model.partner_values` call per block.  An empirical field
is a pool mean of the same summand, read off `LawFlow.pool_shifts` at the
lattice nodes and centred at the law's own mean (`LawFlow.shift`).  Every
reader of a column selects it by its `_field_labels` label.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .backward import min_block_paths, solve_linear_limit_bsde, solve_mfbsde
from .forward import LawFlow, block_batches, euler_paths
from .model import ModelSpec, partner_values, random_probes
from .noise import StreamKey, TimeGrid, generator

__all__ = [
    "FieldLattice",
    "CovarianceMatrix",
    "LimitSystemResult",
    "empirical_fields",
    "theoretical_covariance",
    "sample_field_on_lattice",
    "solve_limit_system",
    "clt_compare",
    "value_law",
]

_BLOCK_ORDER = ("drift", "diffusion", "terminal", "driver")
# fewest samples per side that `clt_compare` accepts
CLT_MIN_SAMPLES = 200
# fewest cloud paths that `theoretical_covariance` accepts
KERNEL_MIN_CLOUD = 100
_JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8, 1e-6)


# ---------------------------------------------------------------------------
# lattice


@dataclass(frozen=True)
class FieldLattice:
    """Evaluation points (time nodes) for the fluctuation fields.

    Each entry evaluates its coefficient's partner part.  The terminal block
    is always evaluated at the final node.  `_field_labels` fixes the order
    of the entries.
    """

    grid: TimeGrid
    time_nodes: tuple[int, ...]
    blocks: tuple[str, ...] = ("drift",)

    def __post_init__(self) -> None:
        for b in self.blocks:
            if b not in _BLOCK_ORDER:
                raise ValueError(f"unknown block {b!r}")
        if not self.time_nodes:
            raise ValueError("a lattice needs at least one time node")
        for k, t in enumerate(self.time_nodes):
            if not isinstance(t, (int, np.integer)) or isinstance(t, bool):
                raise ValueError(f"node {t!r} is not an integer grid index")
            if not 0 <= t <= self.grid.steps:
                raise ValueError(f"node {t} outside the grid")
            if t in self.time_nodes[:k]:
                raise ValueError(f"node {t} repeats")


def _field_labels(model: ModelSpec, lattice: FieldLattice) -> tuple:
    """The label (block, node, own-axis index) of every lattice entry, in
    column order: block by block, node-major within a block, then over the
    coefficient's own axes.  The terminal block sits at the final node."""
    own = {"drift": (model.dim,), "diffusion": (model.dim, model.dim)}
    return tuple(
        (block, t, axis)
        for block in _BLOCK_ORDER if block in lattice.blocks
        for t in ((lattice.grid.steps,) if block == "terminal" else lattice.time_nodes)
        for axis in np.ndindex(own.get(block, ()))
    )


def _field_values(model: ModelSpec, lattice: FieldLattice, x, y):
    """Summands of every lattice entry's field: the partner part at partner
    states (see `partner_values`), and the entries' labels.

    ``x`` is (..., n+1, d) partner paths and ``y`` (..., n+1) their values,
    or None for a law without them (read by the driver block only).  Returns
    (..., L) values whose columns follow `_field_labels`.  A block without a
    partner part gives exact zeros: its field vanishes identically.
    """
    labels = _field_labels(model, lattice)
    lead = np.shape(x)[:-2]
    parts = []
    for block, group in itertools.groupby(labels, key=lambda label: label[0]):
        group = list(group)
        width = len(group)
        if model.env_free(block):
            parts.append(np.zeros(lead + (width,)))
            continue
        idx = list(dict.fromkeys(t for _, t, _ in group))
        if idx == list(range(idx[0], idx[0] + len(idx))):
            idx = slice(idx[0], idx[0] + len(idx))  # a view of x, not a copy
        # without values the driver's partner part raises
        ys = y[..., idx] if block == "driver" and y is not None else None
        parts.append(partner_values(model, block, x[..., idx, :], ys).reshape(lead + (width,)))
    values = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
    # C order: the covariance's BLAS products round by memory layout
    return np.ascontiguousarray(values), labels


# ---------------------------------------------------------------------------
# covariance


@dataclass
class CovarianceMatrix:
    matrix: np.ndarray
    stderr: np.ndarray
    labels: tuple                  # label of each entry (see `_field_labels`)
    jitter: float = 0.0
    _chol: Optional[np.ndarray] = dc_field(default=None, repr=False)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def cholesky(self) -> np.ndarray:
        """Lower factor of the entries with nonzero variance.

        Zero-variance entries (fields that vanish identically, such as those
        of partner-free coefficients) keep exactly zero rows, so no jitter
        leaks noise into them.
        """
        if self._chol is not None:
            return self._chol
        live = np.flatnonzero(np.diag(self.matrix) > 0.0)
        chol = np.zeros_like(self.matrix)
        if live.size:
            sub = self.matrix[np.ix_(live, live)]
            top = float(np.max(np.diag(sub)))
            for lam in _JITTER_LADDER:
                try:
                    part = np.linalg.cholesky(sub + lam * top * np.eye(live.size))
                except np.linalg.LinAlgError:
                    continue
                self.jitter = lam * top
                break
            else:
                raise ValueError("covariance not factorizable within the jitter ladder")
            chol[np.ix_(live, live)] = part
        self._chol = chol
        return chol

    def at(self, labels) -> "CovarianceMatrix":
        """The entries labelled ``labels``, in their order."""
        col = {label: c for c, label in enumerate(self.labels)}
        sub = np.ix_([col[label] for label in labels], [col[label] for label in labels])
        return CovarianceMatrix(self.matrix[sub], self.stderr[sub], tuple(labels))


def _sample_covariance(feats: np.ndarray, labels: tuple) -> CovarianceMatrix:
    """Covariance of (M, L) samples: the mean-centred Gram matrix, symmetrised,
    with the stderr of each entry."""
    m = feats.shape[0]
    centered = feats - feats.mean(axis=0)
    # a constant column has no spread, whatever its rounded mean reads
    centered[:, np.all(feats == feats[0], axis=0)] = 0.0
    cov = centered.T @ centered / (m - 1)
    cov = 0.5 * (cov + cov.T)
    diag = np.diag(cov)
    stderr = np.sqrt((np.outer(diag, diag) + cov**2) / m)
    return CovarianceMatrix(cov, stderr, labels)


def value_law(law: LawFlow, key: StreamKey, size: int = 4096, degree: int = 2) -> LawFlow:
    """Law carrying backward values, built on ``law``, which carries none: a
    fresh cloud of ``size`` limit paths of ``law``, one block driven by the
    stream ``key.child("vw", 0).child("path", 0)``, gets a backward solve
    attached, its driver averaged over the cloud's own values."""
    dw, x = law.paths(key.child("vw", 0), range(1), size)
    sol = solve_mfbsde(law, x, dw, degree=degree)
    return LawFlow(law.grid, law.model, cloud=x[0], cloud_y=sol.y_values)


def theoretical_covariance(
    law: LawFlow,
    lattice: FieldLattice,
    cloud_size: int = 4096,
    key: Optional[StreamKey] = None,
) -> CovarianceMatrix:
    """Limit covariance kernel of the fluctuation fields on the lattice.

    Every entry is the Monte Carlo covariance, over a cloud of joint base
    paths, of the corresponding coefficient evaluations; blocks share the
    cloud, so cross-block covariances come out consistently.  A closed-form
    law draws ``cloud_size`` paths under ``key``; a cloud law gives its own
    whole cloud, whatever ``cloud_size`` says.  Only a driver that reads
    partner y needs a law carrying y values (see `partner_values`).
    """
    if law.cloud is not None:
        x_cloud = law.cloud
    elif key is None:
        raise ValueError("closed-form laws need a key to draw the kernel cloud")
    else:
        x_cloud = law.draw(key, cloud_size)
    m = x_cloud.shape[0]
    if m < KERNEL_MIN_CLOUD:
        raise ValueError(f"kernel cloud too small ({m} < {KERNEL_MIN_CLOUD})")
    return _sample_covariance(*_field_values(law.model, lattice, x_cloud, law.cloud_y))


# ---------------------------------------------------------------------------
# field samples


def sample_field_on_lattice(cov: CovarianceMatrix, key: StreamKey, count: int = 1) -> np.ndarray:
    """(count, L) zero-mean Gaussian draws with the given covariance."""
    chol = cov.cholesky()
    z = generator(key).standard_normal((count, cov.size))
    return z @ chol.T


# ---------------------------------------------------------------------------
# fields along paths


def _split_path_field(model: ModelSpec, kernel: CovarianceMatrix, raw: np.ndarray):
    """Split (R, L) draws of the path kernel into drift (R, n+1, d), diffusion
    (R, n+1, d, d), terminal (R,) and driver (R, n+1) arrays, each block's
    columns selected by their labels (node-major, then over the own axes).
    """
    d = model.dim
    shapes = {"drift": (-1, d), "diffusion": (-1, d, d), "terminal": (), "driver": (-1,)}
    blocks = np.array([label[0] for label in kernel.labels])
    return tuple(raw[:, blocks == b].reshape((len(raw),) + shapes[b]) for b in _BLOCK_ORDER)


# ---------------------------------------------------------------------------
# empirical fields


def empirical_fields(
    law: LawFlow, N: int, lattice: FieldLattice, reps: int, env_key: StreamKey
) -> np.ndarray:
    """Replicated empirical fluctuation fields on the lattice, (reps, L).

    Replication r's entry is sqrt(N) times its pool shift (`LawFlow.pool_shifts`
    at the lattice nodes) over N partners drawn from ``law`` under
    ``env_key.child("env", r)``, minus the law's own shift (`LawFlow.shift`):
    a closed form's exact mean, or a cloud law's cloud mean, which is the
    exact mean of the law its partners are resampled from.  Columns follow
    `_field_labels`; a block without a partner part gives exact zeros.  An
    N below 1 raises before any draw.
    """
    labels = _field_labels(law.model, lattice)
    # the centre first: a driver entry of a law without values raises here
    center = {b: law.shift(b) for b in lattice.blocks}
    # draw partners only at the live nodes: every summand is pointwise in t
    nodes = sorted({t for b, t, _ in labels if center[b] is not None})
    keys = [env_key.child("env", r) for r in range(reps)]
    pools = dict(zip(_BLOCK_ORDER, law.pool_shifts(keys, N, nodes)))
    values = np.zeros((reps, len(labels)))
    for j, (b, t, axis) in enumerate(labels):
        if pools[b] is not None:
            mean = center[b][(0,) if b == "terminal" else (0, t) + axis]
            values[:, j] = np.sqrt(N) * (pools[b][(slice(None), nodes.index(t)) + axis] - mean)
    return values


# ---------------------------------------------------------------------------
# the linearized limit system


@dataclass
class LimitSystemResult:
    grid: TimeGrid
    x: np.ndarray        # (R, n+1, d) designated base paths
    xbar: np.ndarray     # (R, n+1, d) first-order forward component
    ybar: np.ndarray     # (R, n+1)
    zbar: np.ndarray     # (R, n+1, d)
    kernel: CovarianceMatrix   # the path kernel every member's field is drawn from
    provenance: dict


def _xbar_coefficients(model: ModelSpec, x, eta1, eta2):
    """Euler drift eta1 + grad b(x) xbar and diffusion eta2 + grad sigma(x) xbar
    of the first-order component along base paths ``x`` (..., n+1, d)."""
    return (
        lambda xbar, i: eta1[..., i, :]
        + np.einsum("...jk,...k->...j", model.grad_drift_x(x[..., i, :]), xbar),
        lambda xbar, i: eta2[..., i, :, :]
        + np.einsum("...jkl,...l->...jk", model.grad_diffusion_x(x[..., i, :]), xbar),
    )


def solve_limit_system(
    law: LawFlow,
    members: int,
    key: StreamKey,
    inner: int = 64,
    degree: int = 2,
    cloud_size: int = 4096,
) -> LimitSystemResult:
    """Ensemble of the linearized limit system.

    Each member couples one Brownian stream with one draw of the Gaussian
    field along its base path.  The first-order forward component integrates
    the field plus the member's own-state gradient terms; the backward
    component is solved on an inner block that shares the member's frozen
    field, and the block's first inner path is the designated member path.

    Partner-gradient terms are absent: in the limit every partner average
    E'[g(X') xbar'] and E'[g(X') ybar'] is zero, since the field is centred
    and independent of the partner's own noise, and the first-order
    components are linear in it.  Members therefore do not interact, and
    they run as many at a time as `forward.BLOCK_PATHS` paths hold, each
    counting 2 * inner: it carries x and xbar.  Member paths, base solve and
    the field kernel (`theoretical_covariance` along the whole grid, all four
    blocks, returned as ``kernel``) all read ``law``, which carries y values
    when the driver reads partner y, and take their model and grid from it.
    """
    model, grid = law.model, law.grid
    d = model.dim
    n1 = grid.steps + 1
    # the backward solve conditions on (state, first-order state)
    inner = max(inner, min_block_paths(2 * d, degree))
    lattice = FieldLattice(grid, tuple(range(n1)), blocks=_BLOCK_ORDER)
    kernel = theoretical_covariance(law, lattice, cloud_size, key.child("kern", 0))
    raw = sample_field_on_lattice(kernel, key.child("field", 0), count=members)
    eta1, eta2, xi3, eta4 = _split_path_field(model, kernel, raw)

    # the linear driver needs the base (y, z) along inner paths only when the
    # driver's own-triple gradient is nonvanishing; probe it structurally
    probes = random_probes(model, 32, key.child("grad_probe", 0))
    need_base = bool(np.any(model.grad_driver_own(*probes) != 0.0))

    x = np.empty((members, n1, d))
    xbar = np.empty((members, n1, d))
    ybar = np.empty((members, n1))
    zbar = np.empty((members, n1, d))

    def run_batch(lo, hi):
        # a function, so no array of this batch outlives it into the next
        dw, x_in = law.paths(key, range(lo, hi), inner)
        # the first-order component starts at 0 and steps through the field
        coefficients = _xbar_coefficients(model, x_in, eta1[lo:hi, None], eta2[lo:hi, None])
        xbar_in = euler_paths(np.zeros(d), grid, dw, *coefficients)
        base_y = base_z = None
        if need_base:
            base = solve_mfbsde(law, x_in, dw, degree=degree)
            base_y = base.y_values.reshape(x_in.shape[:3])
            base_z = base.z_values.reshape(x_in.shape)
        sol = solve_linear_limit_bsde(
            model,
            grid,
            x_in,
            xbar_in,
            dw,
            xi3[lo:hi],
            eta4=eta4[lo:hi],
            base_y=base_y,
            base_z=base_z,
            degree=degree,
        )
        x[lo:hi] = x_in[:, 0]
        xbar[lo:hi] = xbar_in[:, 0]
        ybar[lo:hi], zbar[lo:hi] = sol.designated()
        return sol.provenance["fixpoint_not_contracted"]

    fix_flag = False
    for lo, hi in block_batches(members, 2 * inner):
        fix_flag = run_batch(lo, hi) or fix_flag
    return LimitSystemResult(
        grid, x, xbar, ybar, zbar, kernel,
        provenance={
            "members": members, "inner": inner,
            "kernel_jitter": kernel.jitter, "fixpoint_not_contracted": fix_flag,
        },
    )


# ---------------------------------------------------------------------------
# distribution comparison


def _moment_row(samples: np.ndarray) -> dict:
    n = len(samples)
    var = float(samples.var(ddof=1))
    return {
        "n": n,
        "mean": float(samples.mean()),
        "mean_se": float(samples.std(ddof=1) / np.sqrt(n)),
        "var": var,
        "var_se": float(var * np.sqrt(2.0 / (n - 1))),
    }


def _ks_prob_outside_square(n: int, h: int) -> float:
    """P(D_{n,n} >= h/n): the share of lattice paths from (0, 0) to (n, n)
    that touch |i - j| = h, as the Horner series
    2 A0 (1 - A1 (1 - A2 (1 - ...))) with each A_k a product of h ratios."""
    P = 0.0
    k = n // h
    while k >= 0:
        p1 = 1.0
        for j in range(h):
            p1 = (n - k * h - j) * p1 / (n + k * h + j + 1)
        P = p1 * (1.0 - P)
        k -= 1
    return 2 * P


def _ks_two_sample(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """The two-sided two-sample Kolmogorov-Smirnov statistic D of two samples
    of one size n and its exact p-value P(D' >= D) under the null of one
    continuous law, by the same rule at every n (no switch to an asymptotic
    series)."""
    a, b = np.sort(a), np.sort(b)
    n = len(a)
    pooled = np.concatenate([a, b])
    # n D: the largest gap between the two samples' counts at or below a point
    gap = np.searchsorted(a, pooled, side="right") - np.searchsorted(b, pooled, side="right")
    h = int(np.abs(gap).max())
    if h == 0:
        return 0.0, 1.0
    # at h <= 2 the series' roundoff can land an ulp or two above 1
    return h / n, min(_ks_prob_outside_square(n, h), 1.0)


def _ks_row(a: np.ndarray, b: np.ndarray) -> dict:
    if np.allclose(a, a[0]) and np.allclose(b, b[0]) and np.isclose(a[0], b[0]):
        return {"statistic": 0.0, "p_value": 1.0, "degenerate": True}
    if np.isnan(a).any() or np.isnan(b).any():
        return {"statistic": math.nan, "p_value": math.nan}
    statistic, p_value = _ks_two_sample(a, b)
    return {"statistic": statistic, "p_value": p_value}


def _clt_statistics(grid: TimeGrid, x, y, z, probe_times, y_probe_times) -> dict:
    """The compared statistics of an (x, y, z) ensemble, keyed by report
    section and row: x at each probe time, y at each y probe time, and the z
    functionals h * sum_i phi(t_i) z_i for phi = 1 and phi = t.  A None
    component gives no rows."""
    out = {}
    if x is not None:
        for t in probe_times:
            out["probes", f"x@{float(t)}"] = x[:, grid.node_at(t), 0]
    if y is not None:
        for t in y_probe_times:
            out["probes", f"y@{float(t)}"] = y[:, grid.node_at(t)]
    if z is not None:
        nodes = grid.nodes[:-1]
        for name, phi in (("one", np.ones_like(nodes)), ("t", nodes)):
            out["z", name] = grid.h * np.einsum("i,ri->r", phi, z[:, :-1, 0])
    return out


def clt_compare(
    N: int,
    grid: TimeGrid,
    gaps: tuple,
    limit: LimitSystemResult,
    probe_times,
    y_probe_times,
) -> dict:
    """Compare scaled approximation fluctuations against the limit ensemble.

    ``gaps`` is the (x, y, z) ensemble of sqrt(N)-scaled coupled differences,
    (R, n+1, d), (R, n+1) and (R, n+1, d), with None for a component not
    measured.  Each of its statistics (see `_clt_statistics`) is compared with
    the same statistic of the limit's (xbar, ybar, zbar): a moment table and
    a two-sample KS test per row, the two sides of one size of at least
    ``CLT_MIN_SAMPLES`` samples.
    """
    # the limit side only for the measured components: a probe list the
    # study does not read need not sit on the grid
    limits = (limit.xbar, limit.ybar, limit.zbar)
    measured = (ens if gap is not None else None for gap, ens in zip(gaps, limits))
    lim = _clt_statistics(grid, *measured, probe_times, y_probe_times)
    report: dict = {"N": N, "probes": {}, "z": {}}
    for (section, name), samples in _clt_statistics(grid, *gaps, probe_times, y_probe_times).items():
        other = lim[section, name]
        if min(len(samples), len(other)) < CLT_MIN_SAMPLES:
            raise ValueError(f"need at least {CLT_MIN_SAMPLES} samples per side")
        if len(samples) != len(other):
            raise ValueError(f"the two sides differ in size: {len(samples)} and {len(other)}")
        report[section][name] = {
            "approx": _moment_row(samples),
            "limit": _moment_row(other),
            "ks": _ks_row(samples, other),
        }
    return report
