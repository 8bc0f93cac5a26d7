import math
import os
import subprocess
import sys

import numpy as np
import pytest

from mfbsde import forward
from mfbsde.forward import (
    LawFlow,
    euler_paths,
    simulate_blocks,
    solve_classical_system,
    solve_limit_forward,
    solve_sde_n,
)
from mfbsde.harness import coupled_gaps
from mfbsde.model import COEFFICIENTS, catalog_model, env_shift, partner_values
from mfbsde.noise import StreamKey, TimeGrid, brownian_increments, derive_key, generator

ROOT = StreamKey(seed=7001)
W_KEY = derive_key(ROOT, "w", 0)
ENV_KEY = derive_key(ROOT, "envs", 0)
GRID = TimeGrid(1.0, 64)


def _plain_euler(model, grid, key):
    dw = brownian_increments([key], (grid.steps, model.dim), grid.h)
    return euler_paths(
        model.x0, grid, dw, lambda x, i: model.drift(x), lambda x, i: model.diffusion(x)
    )[0]


def test_limit_forward_brownian_variance():
    model = catalog_model("constant", b0=0.0, s=1.0, x0=0.0)
    law = solve_limit_forward(model, GRID, 4096, derive_key(ROOT, "law", 0))
    assert law.kind == "closed_form"
    x = law.draw(derive_key(ROOT, "sample", 0), 4096)
    v = x[:, -1, 0].var()
    assert abs(v - 1.0) <= 3 * math.sqrt(2.0 / 4096)


def test_a_law_is_closed_form_exactly_when_it_has_no_cloud():
    model = catalog_model("ou_mean_field")
    law = LawFlow(GRID, model)
    assert (law.kind, law.size, law.has_y) == ("closed_form", 0, False)
    # values without a cloud used to give has_y on a law with no cloud
    with pytest.raises(ValueError, match="cloud_y needs a cloud"):
        LawFlow(GRID, model, cloud_y=np.zeros((4, GRID.steps + 1)))
    with pytest.raises(ValueError, match="model has no closed form"):
        LawFlow(GRID, catalog_model("tanh_bounded"))


def test_sample_env_at_nodes_slices_a_cloud_law_bit_for_bit():
    # a cloud law's pool at nodes is its full draw's entries at those nodes:
    # its shifts are env_shift of the whole-path gather's slice, bit for bit
    model = catalog_model("tanh_bounded")
    cloud = solve_classical_system(model, 64, GRID, derive_key(ROOT, "cl", 0))
    law = LawFlow(GRID, model, cloud=cloud, cloud_y=cloud[..., 0] ** 2)
    nodes = [0, 16, 40, 64]
    key = derive_key(ROOT, "sub", 0)
    x_full, y_full = _gather(law, [key], 500)
    assert np.array_equal(x_full[0], law.draw(key, 500))
    want = _shifts_of(model, _node_major(x_full[:, :, nodes]), _node_major(y_full[:, :, nodes]), nodes)
    got = law.pool_shifts([key], 500, nodes)
    _assert_same_shifts(got, want)
    assert [s.shape[:2] for s in got] == [(1, 4)] * 4


@pytest.mark.parametrize("x0", [[1.0], [1.0, -0.5]], ids=["ou_mean_field", "ou_mean_field_dim2"])
def test_sample_env_at_nodes_matches_the_closed_form_law(x0):
    # W is drawn at the requested nodes only; per node and coordinate, x must
    # keep the exact mean and variance (x0 e^{beta t}, s^2 t) of the
    # full-path law, and a closed-form law carries no y values
    beta, s, count, d = 0.8, 0.6, 20_000, len(x0)
    model = catalog_model("ou_mean_field", beta=beta, s=s, x0=x0, dim=d)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 14))
    nodes = [48, 0, 16, 64]  # unsorted on purpose
    # one partner per key: its drift shift is beta times the partner's state
    keys = [derive_key(ROOT, "sub", k) for k in range(count)]
    drift, _, _, driver = law.pool_shifts(keys, 1, nodes)
    assert drift.shape == (count, 4, d) and driver is None
    x = drift / beta
    t = GRID.nodes[nodes]
    mean = model.closed_form.mean(t)
    var = s**2 * t
    assert np.all(drift[:, 1] == beta * np.asarray(x0))
    for k in (0, 2, 3):
        se_mean = math.sqrt(var[k] / count)
        se_var = var[k] * math.sqrt(2.0 / (count - 1))
        for j in range(d):
            assert abs(x[:, k, j].mean() - mean[k, j]) <= 4 * se_mean, (k, j)
            assert abs(x[:, k, j].var(ddof=1) - var[k]) <= 4 * se_var, (k, j)
    # increments over disjoint intervals stay independent
    inc_a = x[:, 2, 0] - x[:, 1, 0]
    inc_b = x[:, 0, 0] - x[:, 2, 0]
    assert abs(np.corrcoef(inc_a, inc_b)[0, 1]) <= 4 / math.sqrt(count)


def _one_key_env(law, key, count, nodes=None):
    """One key's partner draw, written out from ``generator(key)``."""
    rng = generator(key)
    cols = slice(None) if nodes is None else np.asarray(nodes)
    if law.kind == "cloud":
        idx = rng.integers(0, law.cloud.shape[0], size=count)
        y = None if law.cloud_y is None else law.cloud_y[idx][:, cols]
        return law.cloud[idx][:, cols], y
    grid, cf, d = law.grid, law.model.closed_form, law.model.dim
    if nodes is None:
        t = grid.nodes
        dw = np.sqrt(grid.h) * rng.standard_normal((count, grid.steps, d))
        w = np.concatenate([np.zeros((count, 1, d)), np.cumsum(dw, axis=1)], axis=1)
    else:
        t = grid.nodes[nodes]
        at, back = np.unique(t, return_inverse=True)
        gaps = np.sqrt(np.diff(at, prepend=0.0))[:, None]
        w = np.cumsum(gaps * rng.standard_normal((count, at.size, d)), axis=1)[:, back]
    return cf.path_map(t, w), None


def _node_major(a):
    """(keys, partners, nodes, ...) draws laid out node-major, as
    `LawFlow._pools` lays a draw at nodes: `env_shift` rounds by layout."""
    return None if a is None else np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 2, 0)), 0, 2)


def _gather(law, keys, count, nodes=None):
    """The keys' `_one_key_env` draws, stacked; node-major at ``nodes``."""
    singles = [_one_key_env(law, k, count, nodes) for k in keys]
    x = np.stack([sx for sx, _ in singles])
    y = None if singles[0][1] is None else np.stack([sy for _, sy in singles])
    return (x, y) if nodes is None else (_node_major(x), _node_major(y))


def _shifts_of(model, x, y, nodes=None):
    """`env_shift` of every coefficient over pools (x, y), as `pool_shifts`
    reduces them: along whole paths the terminal reads the final node, and
    pools without values give no driver shift."""
    ends = {"terminal": x[:, :, -1]} if nodes is None else {}
    return [
        None if w == "driver" and y is None else env_shift(model, w, ends.get(w, x), y)
        for w in COEFFICIENTS
    ]


def _assert_same_shifts(got, want):
    for which, g, w in zip(COEFFICIENTS, got, want):
        if w is None:
            assert g is None, which
        else:
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), which


def _assert_stacked_single_key_draws(law, keys, count, nodes=None):
    # the pools `pool_shifts` reduces are the keys' single-key draws
    want = _shifts_of(law.model, *_gather(law, keys, count, nodes), nodes)
    _assert_same_shifts(law.pool_shifts(keys, count, nodes), want)


@pytest.mark.parametrize("keys_per_batch", [1, 3, 5])
@pytest.mark.parametrize("nodes", [None, [48, 0, 16, 48, 64, 0]])
def test_batched_sample_env_equals_single_key_draws_closed_form(monkeypatch, keys_per_batch, nodes):
    # unsorted, repeated nodes; the five keys go in sub-batches of 1, 3 or 5
    count = 40
    draws = GRID.steps if nodes is None else len(set(nodes))
    monkeypatch.setattr(forward, "_SUB_BATCH", keys_per_batch * count * draws)
    model = catalog_model("mf_bsde_linear", beta=0.8, s=0.6, x0=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 15))
    keys = [derive_key(ROOT, "batch", i) for i in range(5)]
    _assert_stacked_single_key_draws(law, keys, count, nodes)


@pytest.mark.parametrize("with_values", [True, False])
@pytest.mark.parametrize("nodes", [None, [40, 0, 16, 40]])
def test_batched_sample_env_equals_single_key_draws_cloud(with_values, nodes):
    # an odd count leaves a half-used 32-bit buffer after every key's draw
    model = catalog_model("tanh_bounded")
    cloud = solve_classical_system(model, 64, GRID, derive_key(ROOT, "cl", 1))
    law = LawFlow(GRID, model, cloud=cloud, cloud_y=cloud[..., 0] ** 2 if with_values else None)
    keys = [derive_key(ROOT, "cbatch", i) for i in range(5)]
    _assert_stacked_single_key_draws(law, keys, 33, nodes)


def _tanh_value_law_dim2():
    from mfbsde.fluctuation import value_law

    model = catalog_model("tanh_bounded", x0=[1.0, -0.5], dim=2)
    law = solve_limit_forward(model, GRID, 128, derive_key(ROOT, "law", 17))
    return value_law(law, derive_key(ROOT, "vlaw", 1), size=96)


@pytest.mark.parametrize("keys_per_batch", [1, 2, 5], ids=["one_key", "uneven", "all_keys"])
@pytest.mark.parametrize("name", ["ou_mean_field", "tanh_bounded_value_law_dim2"])
def test_pool_shifts_equal_env_shift_over_sample_env(monkeypatch, keys_per_batch, name):
    # five keys in sub-batches of 1, 2 (2 + 2 + 1) or 5 keys, bit for bit,
    # along whole paths and at unsorted, repeated nodes that include the
    # final one, where every shift, the terminal's too, is a curve
    count = 24
    if name == "ou_mean_field":
        law = solve_limit_forward(catalog_model(name, x0=1.0), GRID, 0, derive_key(ROOT, "law", 18))
    else:
        law = _tanh_value_law_dim2()
    model = law.model
    keys = [derive_key(ROOT, "pool", i) for i in range(5)]
    for nodes in (None, [48, 0, 64, 16, 48]):
        draws = GRID.steps if nodes is None else len(set(nodes))
        monkeypatch.setattr(forward, "_SUB_BATCH", keys_per_batch * count * draws * model.dim)
        env_x, env_y = _gather(law, keys, count, nodes)
        shifts = law.pool_shifts(keys, count, nodes)
        for which, got in zip(COEFFICIENTS, shifts):
            pool = env_x[:, :, -1] if which == "terminal" and nodes is None else env_x
            want = env_shift(model, which, pool, env_y)
            if want is None:
                assert got is None, which
            else:
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (which, nodes)
                if nodes is not None:
                    assert got.shape[:2] == (5, len(nodes)), which
        live = [w for w, s in zip(COEFFICIENTS, shifts) if s is not None]
        expect = ["drift"] if name == "ou_mean_field" else list(COEFFICIENTS)
        assert live == expect


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("name", ["ou_mean_field", "mf_bsde_linear"])
def test_pool_shifts_split_across_workers_match_one_pool(monkeypatch, name, dim):
    # seven keys in sub-batches of 1, 2 or 3 keys, split into runs of whole
    # sub-batches (2 + 2 + 3 keys, say) on 1, 2 or 3 threads: every shift,
    # both live ones on mf_bsde_linear, is env_shift of the stacked pool,
    # also when a short switch interval interleaves the threads' writes
    import threading

    count = 6
    model = catalog_model(name, x0=[1.0, -0.5][:dim], dim=dim)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 22))
    keys = [derive_key(ROOT, "wpool", i) for i in range(7)]
    env_x, _ = _gather(law, keys, count)
    want = {w: env_shift(model, w, env_x[:, :, -1] if w == "terminal" else env_x) for w in COEFFICIENTS}
    assert [w for w in COEFFICIENTS if want[w] is not None] == (
        ["drift", "terminal"] if name == "mf_bsde_linear" else ["drift"]
    )
    pools = LawFlow._pools
    for per in (1, 2, 3):
        monkeypatch.setattr(forward, "_SUB_BATCH", per * count * GRID.steps * dim)
        for workers in (1, 2, 3):
            monkeypatch.setattr(forward, "WORKERS", workers)
            runs = []

            def counted(self, keys, *args):
                runs.append((len(keys), threading.get_ident()))
                return pools(self, keys, *args)

            monkeypatch.setattr(LawFlow, "_pools", counted)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                shifts = dict(zip(COEFFICIENTS, law.pool_shifts(keys, count)))
            finally:
                sys.setswitchinterval(interval)
            monkeypatch.setattr(LawFlow, "_pools", pools)
            for w in COEFFICIENTS:
                if want[w] is None:
                    assert shifts[w] is None, w
                else:
                    assert shifts[w].shape == want[w].shape, w
                    assert shifts[w].tobytes() == want[w].tobytes(), (w, per, workers)
            # a pool of no keys sizes the shifts: every call draws keys
            sizes = [k for k, _ in runs]
            assert 0 not in sizes
            assert sum(sizes) == len(keys) and len(sizes) == min(workers, -(-len(keys) // per))
            assert all(k % per == 0 for k in sizes[:-1]), sizes
            on_main = [t == threading.main_thread().ident for _, t in runs]
            assert all(on_main) == (len(sizes) == 1), (per, workers)


def test_one_pool_run_starts_no_thread(monkeypatch):
    # one worker, or a single sub-batch of keys, draws on the calling thread
    import threading

    law = solve_limit_forward(catalog_model("ou_mean_field"), GRID, 0, derive_key(ROOT, "law", 23))
    keys = [derive_key(ROOT, "inline", i) for i in range(40)]
    monkeypatch.setattr(forward, "_executor", lambda: pytest.fail("a single run reached the thread pool"))
    threads = threading.active_count()
    for workers, sub_batch in ((1, 8 * 64), (4, forward._SUB_BATCH)):
        monkeypatch.setattr(forward, "WORKERS", workers)
        monkeypatch.setattr(forward, "_SUB_BATCH", sub_batch)
        assert law.pool_shifts(keys, 8)[0].shape == (40, 65, 1)
    assert threading.active_count() == threads


@pytest.mark.parametrize("kind", ["closed_form", "cloud"])
@pytest.mark.parametrize("nodes", [None, [48, 0, 16, 48]])
def test_pool_shifts_issued_without_waiting_are_the_waited_ones(monkeypatch, kind, nodes):
    # issued pools give the waited call's bytes at any thread count; every
    # run goes to the pool threads, one at one WORKERS draws inline
    import threading

    if kind == "closed_form":
        law = solve_limit_forward(catalog_model("mf_bsde_linear", x0=1.0), GRID, 0, derive_key(ROOT, "law", 26))
    else:
        law = _tanh_value_law_dim2()
    keys = [derive_key(ROOT, "issued", i) for i in range(9)]
    draws = GRID.steps if nodes is None else len(set(nodes))
    monkeypatch.setattr(forward, "_SUB_BATCH", 2 * 6 * draws * law.model.dim)
    want = law.pool_shifts(keys, 6, nodes)
    pools = LawFlow._pools
    for workers in (1, 2, 3):
        monkeypatch.setattr(forward, "WORKERS", workers)
        threads = []

        def counted(self, keys, *args):
            threads.append(threading.get_ident())
            return pools(self, keys, *args)

        monkeypatch.setattr(LawFlow, "_pools", counted)
        collect = law.pool_shifts(keys, 6, nodes, wait=False)
        assert callable(collect)
        _assert_same_shifts(collect(), want)
        monkeypatch.setattr(LawFlow, "_pools", pools)
        split = kind == "closed_form" and nodes is None
        assert len(threads) == (min(workers, 5) if split else 1), (workers, threads)
        on_main = {t == threading.main_thread().ident for t in threads}
        assert on_main == {workers == 1}, workers


def test_issued_pools_at_one_worker_start_no_thread(monkeypatch):
    import threading

    law = solve_limit_forward(catalog_model("ou_mean_field"), GRID, 0, derive_key(ROOT, "law", 27))
    keys = [derive_key(ROOT, "inline1", i) for i in range(40)]
    monkeypatch.setattr(forward, "WORKERS", 1)
    monkeypatch.setattr(forward, "_executor", lambda: pytest.fail("one worker reached the thread pool"))
    threads = threading.active_count()
    for nodes in (None, [8, 16]):
        assert law.pool_shifts(keys, 8, nodes, wait=False)()[0].shape[:2] == (40, 65 if nodes is None else 2)
    assert threading.active_count() == threads


def test_an_error_in_an_issued_pool_reaches_the_collector(monkeypatch):
    # issuing returns at once; collecting waits for the run and raises its
    # error, and the pool threads serve the next call
    import dataclasses
    import threading

    monkeypatch.setattr(forward, "WORKERS", 2)
    model = catalog_model("ou_mean_field", x0=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 28))
    release = threading.Event()

    def diverging(t, w):
        release.wait(timeout=60)
        raise RuntimeError("path map diverged")

    closed_form = dataclasses.replace(model.closed_form, path_map=diverging)
    bad = LawFlow(GRID, dataclasses.replace(model, closed_form=closed_form))
    keys = [derive_key(ROOT, "ifail", i) for i in range(4)]
    collect = bad.pool_shifts(keys, 16, [8, 16], wait=False)
    release.set()
    with pytest.raises(RuntimeError, match="path map diverged"):
        collect()
    want = law.pool_shifts(keys, 16, [8, 16])
    _assert_same_shifts(law.pool_shifts(keys, 16, [8, 16], wait=False)(), want)


def test_importing_the_cli_starts_no_thread():
    # the thread pool is built on the first split pool draw, never at import
    code = (
        "import sys, threading\n"
        "import mfbsde.cli\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "assert threading.active_count() == 1, threading.enumerate()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr


def test_an_error_in_a_pool_worker_reaches_the_caller(monkeypatch):
    # the first run's path map diverges: the call raises it once every run
    # has ended, and the next call on the same threads gives the right shifts
    import dataclasses
    import itertools

    monkeypatch.setattr(forward, "WORKERS", 2)
    model = catalog_model("ou_mean_field", x0=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 24))
    calls = itertools.count()

    def diverging(t, w):
        if next(calls) == 0:
            raise RuntimeError("path map diverged")
        return model.closed_form.path_map(t, w)

    closed_form = dataclasses.replace(model.closed_form, path_map=diverging)
    bad = LawFlow(GRID, dataclasses.replace(model, closed_form=closed_form))
    keys = [derive_key(ROOT, "fail", i) for i in range(64)]
    with pytest.raises(RuntimeError, match="path map diverged"):
        bad.pool_shifts(keys, 16)
    assert next(calls) == 2  # the other run drew its one sub-batch
    want = env_shift(model, "drift", _gather(law, keys, 16)[0])
    assert law.pool_shifts(keys, 16)[0].tobytes() == want.tobytes()


def test_partner_pools_of_no_partners_are_rejected_before_any_draw():
    law = solve_limit_forward(catalog_model("ou_mean_field"), GRID, 0, derive_key(ROOT, "law", 19))
    with pytest.raises(ValueError, match="N must be >= 1"):
        simulate_blocks(law, 0, 2, 1, W_KEY, ENV_KEY)
    with pytest.raises(ValueError, match="count >= 1"):
        law.pool_shifts([ENV_KEY], 0)


@pytest.mark.parametrize("kind", ["closed_form", "cloud"])
def test_empty_partner_draws_are_empty_arrays(kind):
    if kind == "closed_form":
        law = solve_limit_forward(catalog_model("ou_mean_field"), GRID, 0, derive_key(ROOT, "law", 20))
    else:
        law = _tanh_value_law_dim2()
    d = law.model.dim
    keys = [derive_key(ROOT, "empty", i) for i in range(2)]
    assert law.draw(keys[0], 0).shape == (0, 65, d)
    for count, nodes, shape in ((0, None, (2, 0, 65)), (4, [], (2, 4, 0)), (0, [3, 5], (2, 0, 2))):
        ((lo, hi, x, y),) = law._pools(keys, count, nodes)
        assert (lo, hi) == (0, 2) and x.shape == shape + (d,)
        assert (y is None) if kind == "closed_form" else (y.shape == shape)
    # no keys give empty shifts, never the None of a partner-free coefficient
    for nodes, steps in ((None, 65), ([3, 5], 2)):
        drift, _, _, driver = law.pool_shifts([], 4, nodes)
        assert drift.shape == (0, steps, d)
        assert (driver is None) if kind == "closed_form" else (driver.shape == (0, steps))


def test_block_peak_memory_does_not_grow_with_the_partner_count():
    # pools are reduced a sub-batch at a time, so an eightfold N leaves the
    # peak at the outputs: the bundle and shift curves of 256 blocks (whose
    # N = 512 pool alone is 68 MB), or the fields of 512 replications
    import tracemalloc

    from mfbsde.fluctuation import FieldLattice, empirical_fields

    grid = TimeGrid(1.0, 64)
    law = solve_limit_forward(catalog_model("ou_mean_field"), grid, 0, derive_key(ROOT, "law", 21))
    lattice = FieldLattice(grid, (16, 32, 64))
    routes = {
        "blocks": (lambda N: simulate_blocks(law, N, 256, 1, W_KEY, ENV_KEY), (64, 512)),
        "empirical_fields": (lambda N: empirical_fields(law, N, lattice, 512, ENV_KEY)(), (128, 1024)),
    }
    for route, (run, sizes) in routes.items():
        run(sizes[0])  # warm-up: first-call allocations are not the pool's
        peaks = []
        for N in sizes:
            tracemalloc.start()
            try:
                run(N)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], (route, peaks)


@pytest.mark.parametrize(
    "name, params, dependent",
    [
        ("constant", {"b0": 0.3}, []),
        ("ou_mean_field", {"beta": 0.8}, ["drift"]),
        ("mf_bsde_linear", {"beta": 0.8}, ["drift", "terminal"]),
    ],
)
def test_closed_form_shift_reproduces_the_oracle_means(name, params, dependent):
    # the shift is E b(X_t); every closed-form partner part is linear, so the
    # oracle must equal b at the law's mean curve
    model = catalog_model(name, dim=2, x0=[1.0, -0.5], **params)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 16))
    cf = model.closed_form
    assert [w for w in COEFFICIENTS if not model.env_free(w)] == dependent
    assert sorted(cf.env_means) == sorted(dependent)
    mean = cf.mean(GRID.nodes)
    for which in dependent:
        shift = law.shift(which)
        want = partner_values(model, which, mean)[None]
        if which == "terminal":
            assert shift.shape == (1,)
            want = want[:, -1]
        else:
            assert shift.shape[:2] == (1, GRID.steps + 1)
        assert np.allclose(shift, want, rtol=1e-13, atol=1e-13)
    for which in COEFFICIENTS:
        if model.env_free(which):
            assert law.shift(which) is None


def test_a_cloud_law_holds_its_cloud_in_c_order():
    # a cloud law's reductions round by memory layout: a cloud given as a
    # node-major view is held as a C-ordered copy, a C-ordered one as is
    model = catalog_model("tanh_bounded", x0=[1.0, -0.5], dim=2)
    cloud = solve_classical_system(model, 16, GRID, derive_key(ROOT, "cl", 3))
    assert LawFlow(GRID, model, cloud=cloud).cloud is cloud
    view = np.moveaxis(np.ascontiguousarray(np.moveaxis(cloud, 1, 0)), 0, 1)
    assert not view.flags.c_contiguous
    law = LawFlow(GRID, model, cloud=view)
    assert law.cloud.flags.c_contiguous and np.array_equal(law.cloud, cloud)
    assert law.shift("drift").tobytes() == LawFlow(GRID, model, cloud=cloud).shift("drift").tobytes()


def test_cloud_law_shift_is_env_shift_over_the_cloud():
    model = catalog_model("tanh_bounded")
    cloud = solve_classical_system(model, 64, GRID, derive_key(ROOT, "cl", 2))
    cloud_y = np.tanh(cloud[..., 0])
    law = LawFlow(GRID, model, cloud=cloud, cloud_y=cloud_y)
    for which in ("drift", "diffusion", "driver"):
        want = env_shift(model, which, cloud[None], cloud_y[None])
        assert np.array_equal(law.shift(which), want)
    want = env_shift(model, "terminal", cloud[None])[:, -1]
    assert law.shift("terminal").shape == (1,)
    assert np.array_equal(law.shift("terminal"), want)


def test_limit_forward_cloud_mode_ou_mean():
    # force cloud mode by using the bounded model, then check against a
    # moderate-horizon linear model via the classical system directly
    model = catalog_model("ou_mean_field", beta=1.0, s=1.0, x0=1.0)
    paths = solve_classical_system(model, 2048, GRID, derive_key(ROOT, "cls", 0))
    mean_T = paths[:, -1, 0].mean()
    sd = paths[:, -1, 0].std(ddof=1)
    assert abs(mean_T - math.e) <= 4 * sd / math.sqrt(2048)


def test_limit_forward_cloud_for_model_without_closed_form():
    model = catalog_model("tanh_bounded")
    law = solve_limit_forward(model, GRID, 256, derive_key(ROOT, "law", 1))
    assert law.kind == "cloud"
    assert law.cloud.shape == (256, 65, 1)
    assert np.all(law.cloud[:, 0] == model.x0)


def test_constant_model_paths_are_exact():
    model = catalog_model("constant", b0=0.5, s=2.0, x0=1.0)
    law = solve_limit_forward(model, GRID, 2, derive_key(ROOT, "law", 2))
    paths, _ = solve_sde_n(law, 1, W_KEY, ENV_KEY, out_reps=2)
    for r in range(2):
        key = W_KEY.child("path", r)
        dw = np.sqrt(GRID.h) * generator(key).standard_normal((GRID.steps, 1))
        w = np.concatenate([np.zeros((1, 1)), np.cumsum(dw, axis=0)])
        expected = 1.0 + 0.5 * GRID.nodes[:, None] + 2.0 * w
        assert np.allclose(paths[r], expected, atol=1e-12)


def test_decoupled_model_collapses_bit_exactly():
    # coefficients ignore the partner: the N-system, the classical system and
    # plain Euler agree bit for bit on matched streams, for any N
    model = catalog_model("constant", b0=0.3, s=1.2, x0=0.5)
    base = derive_key(ROOT, "collapse", 0)
    law = solve_limit_forward(model, GRID, 2, derive_key(ROOT, "law", 3))
    paths8, limit8 = solve_sde_n(law, 8, base, ENV_KEY, out_reps=3)
    paths64, _ = solve_sde_n(law, 64, base, ENV_KEY, out_reps=3)
    classical = solve_classical_system(model, 3, GRID, base)
    assert np.array_equal(paths8, paths64)
    assert np.array_equal(paths8, classical)
    assert np.array_equal(paths8, limit8)
    for r in range(3):
        plain = _plain_euler(model, GRID, derive_key(base, "path", r))
        assert np.array_equal(paths8[r], plain)


def test_sde_n_consistency_with_closed_form_mean():
    model = catalog_model("ou_mean_field", beta=1.0, s=0.5, x0=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 4))
    paths, _ = solve_sde_n(law, 32, W_KEY, ENV_KEY, out_reps=2000)
    xT = paths[:, -1, 0]
    se = xT.std(ddof=1) / math.sqrt(len(xT))
    # Euler mean at T carries an O(h) offset; compare against the Euler mean
    nodes = GRID.nodes[:-1]
    euler_mean = 1.0 + np.sum(np.exp(nodes)) * GRID.h * 1.0  # left Riemann of beta*m
    assert abs(xT.mean() - euler_mean) <= 4 * se
    assert abs(xT.mean() - math.e) <= 4 * se + 0.03  # and close to the exact mean


def test_classical_system_single_particle_matches_sde_n():
    model = catalog_model("constant", b0=1.0, s=0.7)
    base = derive_key(ROOT, "single", 0)
    law = solve_limit_forward(model, GRID, 2, derive_key(ROOT, "law", 6))
    paths, _ = solve_sde_n(law, 1, base, ENV_KEY, out_reps=1)
    classical = solve_classical_system(model, 1, GRID, base)
    assert np.array_equal(paths[0], classical[0])


def _x_sup2(law, N, reps, key):
    """Per-replication sup_t |X^N_t - X_t|^2 of the coupled route's one-path blocks."""
    x, _, _ = coupled_gaps(law, N, reps, 1, key.child("w", 0), key.child("e", 0))
    return np.max(np.sum(x**2, axis=-1), axis=-1)


def test_forward_error_zero_for_decoupled_model():
    model = catalog_model("constant", b0=0.2, s=1.0)
    law = solve_limit_forward(model, GRID, 2, derive_key(ROOT, "law", 12))
    per_rep = _x_sup2(law, 16, 50, derive_key(ROOT, "fz", 0))
    assert np.all(per_rep == 0.0)


def test_forward_error_decays_with_environment_size():
    model = catalog_model("ou_mean_field", beta=1.0, s=0.5, x0=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 7))
    errs = {}
    for N in (16, 64):
        errs[N] = _x_sup2(law, N, 2000, derive_key(ROOT, "fe", N)).mean()
    ratio = errs[64] / errs[16]
    assert 0.125 <= ratio <= 0.5


def test_forward_error_monotone_in_n_spot_check():
    model = catalog_model("ou_mean_field", beta=1.0, s=0.5, x0=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 8))
    err1 = _x_sup2(law, 1, 2000, derive_key(ROOT, "m1", 0)).mean()
    err4 = _x_sup2(law, 4, 2000, derive_key(ROOT, "m4", 0)).mean()
    assert np.isfinite(err1) and np.isfinite(err4)
    assert err4 < err1


def test_env_keys_disjoint_from_w_keys():
    # replication r steps on w_key/path:r and draws its partners under
    # env_key/draws:0/env:r; streams hash the full key path, so the two share
    # no draw even when w_key == env_key, and that call is accepted
    model = catalog_model("ou_mean_field", beta=1.0, s=0.5, x0=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 9))
    paths, limit = solve_sde_n(law, 4, W_KEY, W_KEY, out_reps=3)
    assert paths.shape == limit.shape == (3, GRID.steps + 1, 1)
    count = 4096
    for r in range(3):
        w = brownian_increments([W_KEY.child("path", r)], (count,), 1.0)[0]
        env = brownian_increments([W_KEY.child("draws", 0).child("env", r)], (count,), 1.0)[0]
        assert not np.any(w == env)
        assert abs(np.corrcoef(w, env)[0, 1]) <= 4 / math.sqrt(count)
    # the limit paths read the W streams alone; the partners move the N-paths
    other_paths, other_limit = solve_sde_n(law, 4, W_KEY, ENV_KEY, out_reps=3)
    assert np.array_equal(limit, other_limit)
    assert not np.array_equal(paths, other_paths)


def test_blocks_share_environment_and_increments():
    model = catalog_model("mf_bsde_linear", beta=1.0, s=0.5, x0=1.0)
    law = solve_limit_forward(model, GRID, 0, derive_key(ROOT, "law", 10))
    sim = simulate_blocks(law, 8, n_blocks=4, inner=16, w_key=W_KEY, env_key=ENV_KEY)
    assert sim.xn.shape == (4, 16, 65, 1)
    assert sim.xlim.shape == (4, 16, 65, 1)
    # limit and N-system paths share increments: both start at x0 and their
    # first-step difference is drift-only
    gap0 = sim.xn[..., 1, 0] - sim.xlim[..., 1, 0]
    assert np.allclose(gap0, gap0[:, :1], atol=1e-12)  # same shift across inner paths
    assert sim.terminal_curve.shape == (4,)


def test_divergence_guard_reports_step():
    model = catalog_model("constant", b0=1e12, s=0.0)
    with pytest.raises(RuntimeError, match="diverged"):
        solve_classical_system(model, 2, GRID, derive_key(ROOT, "div", 0))


@pytest.mark.parametrize("name", ["ou_mean_field", "tanh_bounded", "mf_bsde_linear"])
def test_blocks_invariant_under_chunk_size(monkeypatch, name):
    # each block's environment, increments and partner shifts depend on its
    # keys alone, so the pool sub-batch cannot change a single bit
    from mfbsde.fluctuation import value_law

    grid = TimeGrid(1.0, 16)
    model = catalog_model(name, x0=1.0)
    law = solve_limit_forward(model, grid, 512, derive_key(ROOT, "law", 13))
    if not model.env_free("driver"):
        law = value_law(law, derive_key(ROOT, "vlaw", 0), size=256)
    sims = []
    for keys_per_batch in (1, 7, 20):
        # 8 partners of 16 increments per block
        monkeypatch.setattr(forward, "_SUB_BATCH", keys_per_batch * 8 * 16 * model.dim)
        sims.append(simulate_blocks(law, 8, 20, 4, W_KEY, ENV_KEY))
    assert (sims[0].driver_curve is not None) == (name == "tanh_bounded")
    for sim in sims[1:]:
        for attr in ("xn", "xlim", "terminal_curve", "driver_curve"):
            a, b = getattr(sims[0], attr), getattr(sim, attr)
            assert (a is None and b is None) or np.array_equal(a, b), attr


def test_block_bundle_is_node_major_so_backward_moves_copy_nothing(monkeypatch):
    # the backward solves move the node axis to the front with
    # ascontiguousarray; on a block bundle that must return the same memory
    grid = TimeGrid(1.0, 8)
    model = catalog_model("tanh_bounded", x0=[1.0, -0.5], dim=2)
    law = solve_limit_forward(model, grid, 64, derive_key(ROOT, "law", 15))
    sim = simulate_blocks(law, 4, 7, 5, W_KEY, ENV_KEY)
    assert sim.xn.shape == sim.xlim.shape == (7, 5, 9, 2)
    # drawn straight into the node-major buffer, bit for bit the block draws
    keys = [W_KEY.child("path", b) for b in range(7)]
    assert sim.dw.tobytes() == brownian_increments(keys, (5, 8, 2), grid.h).tobytes()
    for attr in ("xn", "xlim", "dw"):
        a = getattr(sim, attr)
        assert np.shares_memory(np.ascontiguousarray(np.moveaxis(a, 2, 0)), a), attr


def test_euler_paths_into_a_node_major_view_is_bit_identical():
    model = catalog_model("tanh_bounded", x0=[1.0, -0.5], dim=2)
    law = solve_limit_forward(model, GRID, 64, derive_key(ROOT, "law", 16))
    keys = [derive_key(ROOT, "path", b) for b in range(3)]
    dw = brownian_increments(keys, (5, GRID.steps, 2), GRID.h)
    coefficients = law.euler_coefficients()
    fresh = euler_paths(model.x0, GRID, dw, *coefficients)
    view = np.moveaxis(np.empty((GRID.steps + 1, 3, 5, 2)), 0, 2)
    assert not view.flags.c_contiguous
    assert euler_paths(model.x0, GRID, dw, *coefficients, out=view) is view
    assert fresh.tobytes() == view.tobytes()
