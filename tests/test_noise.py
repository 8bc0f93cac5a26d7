import hashlib

import numpy as np
import pytest

from mfbsde.noise import (
    StreamKey,
    TimeGrid,
    brownian_increments,
    derive_key,
    generator,
    key_streams,
)
from mfbsde.noise import _philox_words

ROOT = StreamKey(seed=20260808)


def _unit_draws(key, count):
    """`count` N(0, 1) draws of one key: Brownian increments of unit step."""
    return brownian_increments([key], (count,), 1.0)[0]


def test_same_key_reproduces_bit_identical_draws():
    a = _unit_draws(ROOT, 1000)
    b = _unit_draws(ROOT, 1000)
    assert np.array_equal(a, b)


def test_derived_keys_differ_from_parent_and_siblings():
    k3 = derive_key(ROOT, "particle", 3)
    k4 = derive_key(ROOT, "particle", 4)
    assert k3 != k4 != ROOT
    assert not np.array_equal(_unit_draws(k3, 64), _unit_draws(k4, 64))
    assert not np.array_equal(_unit_draws(k3, 64), _unit_draws(ROOT, 64))


def test_derivation_is_path_composition():
    via_two_steps = derive_key(derive_key(ROOT, "replication", 1), "particle", 2)
    direct = StreamKey(ROOT.seed, (("replication", 1), ("particle", 2)))
    assert via_two_steps == direct
    assert np.array_equal(_unit_draws(via_two_steps, 16), _unit_draws(direct, 16))


def test_prefix_audit():
    # a stream hashes its full key path, so a key shares no draw with its
    # descendants or with a sibling subtree
    child = derive_key(ROOT, "env", 0)
    grandchild = derive_key(child, "particle", 1)
    draws = [_unit_draws(k, 256) for k in (ROOT, child, grandchild, derive_key(ROOT, "path", 0))]
    for i, a in enumerate(draws):
        for b in draws[i + 1 :]:
            assert not np.any(a == b)


def test_sibling_streams_uncorrelated():
    n = 100_000
    a = _unit_draws(derive_key(ROOT, "field", 0), n)
    b = _unit_draws(derive_key(ROOT, "field", 1), n)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.02


def test_brownian_increments_empty_and_moments():
    assert _unit_draws(ROOT, 0).shape == (0,)
    assert brownian_increments([], (4, 1), 0.5).shape == (0, 4, 1)
    draws = _unit_draws(derive_key(ROOT, "moments", 0), 1_000_000)
    assert abs(draws.mean()) < 0.004  # 4 sigma/sqrt(n) with sigma = 1
    kurt = np.mean(draws**4) / np.mean(draws**2) ** 2 - 3.0
    assert abs(kurt) < 0.03


def test_grid_nodes_and_node_lookup():
    grid = TimeGrid(horizon=1.0, steps=64)
    nodes = grid.nodes
    assert nodes[0] == 0.0 and nodes[-1] == 1.0
    assert np.all(np.diff(nodes) > 0)
    assert grid.node_at(0.5) == 32
    with pytest.raises(ValueError):
        grid.node_at(0.5001)


def test_increment_variance_matches_grid_step():
    # Var of each increment is h = T / n; check the first increment over many keys.
    grid = TimeGrid(horizon=1.0, steps=4)
    reps = 100_000
    keys = [derive_key(ROOT, "var", r) for r in range(reps)]
    firsts = brownian_increments(keys, (grid.steps, 1), grid.h)[:, 0, 0]
    h = grid.h
    se = h * np.sqrt(2.0 / reps)  # stderr of a variance estimate
    assert abs(firsts.var() - h) < 3 * se


def test_total_increment_variance_is_horizon():
    grid = TimeGrid(horizon=1.0, steps=4)
    reps = 100_000
    keys = [derive_key(ROOT, "sum", r) for r in range(reps)]
    totals = brownian_increments(keys, (grid.steps, 1), grid.h).sum(axis=(1, 2))
    se = grid.horizon * np.sqrt(2.0 / reps)
    assert abs(totals.var() - grid.horizon) < 3 * se


def test_brownian_increments_scale_each_keys_own_draws():
    # key k's slice is sqrt(step) * generator(k)'s draw, bit for bit, for one
    # step and for one step per node
    grid = TimeGrid(horizon=2.0, steps=8)
    keys = [derive_key(ROOT, "path", k) for k in range(5)]
    dw = brownian_increments(keys, (3, grid.steps, 2), grid.h)
    assert dw.shape == (5, 3, grid.steps, 2)
    for key, row in zip(keys, dw):
        assert np.array_equal(row, np.sqrt(grid.h) * generator(key).standard_normal((3, grid.steps, 2)))
    step = np.diff(grid.nodes[[1, 4, 8]], prepend=0.0)[:, None]
    dw = brownian_increments(keys, (3, 3, 2), step)
    for key, row in zip(keys, dw):
        assert np.array_equal(row, np.sqrt(step) * generator(key).standard_normal((3, 3, 2)))


def test_generator_independent_of_call_order():
    k = derive_key(ROOT, "order", 7)
    first = generator(k).standard_normal(10)
    _ = generator(derive_key(ROOT, "order", 8)).standard_normal(1000)
    second = generator(k).standard_normal(10)
    assert np.array_equal(first, second)


def test_key_streams_reproduce_fresh_generators_bit_for_bit():
    keys = [derive_key(ROOT, "ks", i) for i in range(6)]
    for key, rng in zip(keys, key_streams(keys)):
        assert np.array_equal(rng.standard_normal((3, 5)), generator(key).standard_normal((3, 5)))


def test_key_streams_reset_a_half_used_32_bit_buffer():
    # an odd count of small-range integers leaves half of a 64-bit output in
    # the bit generator's 32-bit buffer; the next key must not start from it
    keys = [derive_key(ROOT, "half", i) for i in range(4)]
    streams = key_streams(keys)
    first = next(streams)
    first.integers(0, 1000, size=3)
    assert first.bit_generator.state["has_uint32"] == 1
    for key, rng in zip(keys[1:], streams):
        fresh = generator(key)
        assert np.array_equal(rng.integers(0, 1000, size=5), fresh.integers(0, 1000, size=5))
        assert np.array_equal(rng.integers(0, 1000, size=2), fresh.integers(0, 1000, size=2))


def _per_part_words(key):
    """Philox key words hashed one path part at a time, as the streams were
    first keyed: the words every stream of the package rests on."""
    h = hashlib.sha256()
    h.update(str(key.seed).encode())
    for role, idx in key.path:
        h.update(b"/")
        h.update(role.encode())
        h.update(b":")
        h.update(str(idx).encode())
    return np.frombuffer(h.digest()[:16], dtype=np.uint64).copy()


@pytest.mark.parametrize("seed", [0, 7, -3, 2**31, -(2**63), 10**30])
def test_philox_words_are_the_per_part_hash(seed):
    # one hash of the key's text reads the bytes of the per-part updates,
    # for negative and large seeds and for deep paths
    key = StreamKey(seed)
    for depth, (role, idx) in enumerate([("n", 256), ("fwd", 0), ("path", -1), ("env", 10**12), ("x", 3)]):
        got = np.array(_philox_words(key), dtype=np.uint64)
        assert got.tobytes() == _per_part_words(key).tobytes(), (seed, depth)
        key = key.child(role, idx)


def test_key_streams_after_an_odd_uint32_count_match_fresh_generators():
    # every key leaves a 32-bit half-word buffered; the next key's draws are
    # still its own fresh generator's
    keys = [derive_key(ROOT, "u32", i) for i in range(5)]
    for i, (key, rng) in enumerate(zip(keys, key_streams(keys))):
        fresh = generator(key)
        assert rng.bit_generator.state["has_uint32"] == 0, i
        assert np.array_equal(rng.standard_normal(3), fresh.standard_normal(3))
        got = rng.integers(0, 2**32, size=2 * i + 1, dtype=np.uint32)
        assert np.array_equal(got, fresh.integers(0, 2**32, size=2 * i + 1, dtype=np.uint32))
        assert rng.bit_generator.state["has_uint32"] == 1, i


def test_key_streams_yield_one_generator_rekeyed_per_key():
    # the documented contract: one Generator object serves every key, so a
    # reference kept past the next key reads that key's stream
    keys = [derive_key(ROOT, "alias", i) for i in range(3)]
    streams = key_streams(keys)
    kept = next(streams)
    assert next(streams) is kept
    assert np.array_equal(kept.standard_normal(4), generator(keys[1]).standard_normal(4))


def test_grid_nodes_are_cached_and_read_only():
    grid = TimeGrid(horizon=2.5, steps=10)
    nodes = grid.nodes
    assert grid.nodes is nodes
    assert np.array_equal(nodes, np.linspace(0.0, 2.5, 11))
    with pytest.raises(ValueError):
        nodes[3] = 0.0
    assert grid == TimeGrid(horizon=2.5, steps=10)
