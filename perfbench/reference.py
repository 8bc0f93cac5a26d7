"""Independent reference values for the benchmark's correctness checks.

Uses numpy and scipy only and never imports ``mfbsde``, so a fault in the
package cannot hide in its own yardstick.

Both OU workloads use ``ou_mean_field``: dX = beta E[X_t] dt + s dW.  The
environment partners of the N-environment system are exact copies of the
limit law, so on an Euler grid with step h the coupled gap is

    X^N_{t_n} - X_{t_n} = beta s h sum_{i<n} Wbar_{t_i},

where Wbar is the mean of N independent Brownian motions.  Scaled by
sqrt(N) this is beta s h sum_{i<n} W_{t_i} for one Brownian motion W, which
gives the closed forms below.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

# the reference simulation has its own fixed stream, disjoint from any study
REFERENCE_SEED = 7_340_033


def riemann_variance(beta: float, s: float, steps: int, horizon: float = 1.0) -> float:
    """Var of beta s h sum_{i<steps} W_{t_i}: beta^2 s^2 h^3 sum_{i,j<n} min(i, j).

    This is the grid form of beta^2 s^2 T^3 / 3, to which it tends as the
    step shrinks.
    """
    h = horizon / steps
    i = np.arange(steps)
    return float(beta**2 * s**2 * h**3 * np.minimum.outer(i, i).sum())


def continuum_variance(beta: float, s: float, horizon: float = 1.0) -> float:
    """beta^2 s^2 T^3 / 3, the variance of beta s int_0^T W_t dt."""
    return beta**2 * s**2 * horizon**3 / 3.0


def sup_constant(
    beta: float,
    s: float,
    steps: int,
    samples: int = 200_000,
    horizon: float = 1.0,
    seed: int = REFERENCE_SEED,
    chunk: int = 25_000,
) -> tuple[float, float]:
    """c = (beta s)^2 E sup_n (h sum_{i<n} W_{t_i})^2 by direct simulation.

    N times the forward sup-squared error of the N-environment scheme on
    ``ou_mean_field`` has mean c for every N.  Returns (c, standard error).
    """
    h = horizon / steps
    rng = np.random.default_rng(seed)
    values = np.empty(samples)
    for lo in range(0, samples, chunk):
        hi = min(lo + chunk, samples)
        w = np.cumsum(np.sqrt(h) * rng.standard_normal((hi - lo, steps)), axis=1)
        # W at t_0 .. t_{n-1}; the running Riemann sum at n = 1 .. steps
        w_left = np.concatenate([np.zeros((hi - lo, 1)), w[:, :-1]], axis=1)
        integral = h * np.cumsum(w_left, axis=1)
        values[lo:hi] = np.max(integral**2, axis=1)
    scale = (beta * s) ** 2
    return float(scale * values.mean()), float(scale * values.std(ddof=1) / np.sqrt(samples))


def field_covariance(beta: float, s: float, times) -> np.ndarray:
    """Drift-field covariance beta^2 s^2 min(t, t') on the given times."""
    t = np.asarray(times, dtype=float)
    return beta**2 * s**2 * np.minimum.outer(t, t)


def loglog_slope(n_values, errors, stderrs) -> float:
    """Slope of log(error) on log(N), weighted by 1 / se(log error)^2."""
    n = np.asarray(n_values, dtype=float)
    e = np.asarray(errors, dtype=float)
    se = np.asarray(stderrs, dtype=float)
    if np.any(e <= 0) or len(e) < 3:
        return float("nan")
    weights = e / np.maximum(se, 1e-300)
    slope, _ = np.polyfit(np.log(n), np.log(e), 1, w=weights)
    return float(slope)


def normal_ks_pvalue(samples, variance: float) -> float:
    """One-sample KS p-value of the samples against N(0, variance)."""
    return float(stats.kstest(np.asarray(samples, dtype=float), "norm", args=(0.0, np.sqrt(variance))).pvalue)
