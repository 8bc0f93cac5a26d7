"""Reproducible random streams and time grids.

Every random draw in the package is addressed by a :class:`StreamKey`: a root
seed plus a path of (role, index) pairs.  Distinct key paths map to distinct
Philox counter keys, so streams are independent, order-free and drawn
concurrently where that pays (`forward.LawFlow.pool_shifts`); a key always
gives the same draws.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional

import numpy as np

__all__ = [
    "StreamKey",
    "TimeGrid",
    "derive_key",
    "generator",
    "key_streams",
    "brownian_increments",
]


@dataclass(frozen=True)
class StreamKey:
    """Address of one random stream: a seed plus a derivation path."""

    seed: int
    path: tuple[tuple[str, int], ...] = ()

    def child(self, role: str, index: int) -> "StreamKey":
        return StreamKey(self.seed, self.path + ((str(role), int(index)),))

    def __str__(self) -> str:
        tail = "/".join(f"{role}:{idx}" for role, idx in self.path)
        return f"{self.seed}" + (f"/{tail}" if tail else "")


def derive_key(parent: StreamKey, role: str, index: int) -> StreamKey:
    """Child stream key; same (parent, role, index) always gives the same key."""
    return parent.child(role, index)


def _philox_words(key: StreamKey) -> np.ndarray:
    h = hashlib.sha256()
    h.update(str(key.seed).encode())
    for role, idx in key.path:
        h.update(b"/")
        h.update(role.encode())
        h.update(b":")
        h.update(str(idx).encode())
    # Philox keys are 128-bit; take the first 16 digest bytes.
    return np.frombuffer(h.digest()[:16], dtype=np.uint64).copy()


def generator(key: StreamKey) -> np.random.Generator:
    """Fresh counter-based generator for this key."""
    return np.random.Generator(np.random.Philox(key=_philox_words(key)))


def key_streams(keys: Iterable[StreamKey]) -> Iterator[np.random.Generator]:
    """For each key in turn, a generator whose draws equal ``generator(key)``'s.

    One Philox is re-keyed in place through its public state setter, which
    also resets the counter and the 64- and 32-bit output buffers; this costs
    a fraction of constructing a generator per key.  The same Generator object
    is yielded for every key: draw from it before advancing the iteration, as
    a reference kept past that point reads the next key's stream.
    """
    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    fresh = bitgen.state  # zero counter, empty buffers
    rng = np.random.Generator(bitgen)
    for key in keys:
        fresh["state"]["key"] = _philox_words(key)
        bitgen.state = fresh
        yield rng


def brownian_increments(
    keys: Iterable[StreamKey], shape: tuple, step, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Brownian increments of variance ``step``, (len(keys),) + shape, written
    into ``out`` (any strides) if given.

    Key k's slice is ``sqrt(step) * generator(k).standard_normal(shape)`` bit
    for bit, so each key's draws are what that key alone would give.
    ``step`` broadcasts against ``shape``: it may be one step per node.
    """
    keys = list(keys)
    dw = np.empty((len(keys),) + tuple(shape)) if out is None else out
    for row, rng in zip(dw, key_streams(keys)):
        if row.flags.c_contiguous:
            rng.standard_normal(out=row)
        else:
            row[...] = rng.standard_normal(shape)
    dw *= np.sqrt(step)
    return dw


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i * h on [0, T] with h = T / steps."""

    horizon: float
    steps: int

    def __post_init__(self) -> None:
        if not (self.horizon > 0 and np.isfinite(self.horizon)):
            raise ValueError("horizon must be positive and finite")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    @property
    def h(self) -> float:
        return self.horizon / self.steps

    @cached_property
    def nodes(self) -> np.ndarray:
        """The grid nodes, built once per grid and read-only."""
        nodes = np.linspace(0.0, self.horizon, self.steps + 1)
        nodes.flags.writeable = False
        return nodes

    def node_at(self, t: float, tol: float = 1e-9) -> int:
        """Index of the grid node equal to t (raises if t is off-grid)."""
        i = int(round(t / self.h))
        if i < 0 or i > self.steps or abs(i * self.h - t) > tol:
            raise ValueError(f"t={t} is not a node of {self}")
        return i

    def __str__(self) -> str:
        return f"TimeGrid(T={self.horizon}, n={self.steps})"
