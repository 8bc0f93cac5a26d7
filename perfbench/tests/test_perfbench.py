"""Tests of the benchmark's own parts; they need no study to run.

    python3 -m pytest perfbench/tests
"""

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# reference closed forms


def test_riemann_variance_matches_brute_force_sum():
    beta, s, steps = 1.3, 0.7, 12
    h = 1.0 / steps
    brute = sum(min(i, j) * h for i in range(steps) for j in range(steps)) * h * h
    assert reference.riemann_variance(beta, s, steps) == pytest.approx(beta**2 * s**2 * brute, rel=1e-12)


def test_riemann_variance_tends_to_the_continuum_form():
    gaps = [abs(reference.riemann_variance(1.0, 0.5, n) / reference.continuum_variance(1.0, 0.5) - 1) for n in (32, 256, 2048)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3
    # first-order Riemann bias: 1 - 3h/2 + h^2/2
    assert reference.riemann_variance(1.0, 1.0, 32) * 3 == pytest.approx(1 - 1.5 / 32 + 0.5 / 32**2, rel=1e-12)


def test_sup_constant_is_bracketed_by_the_terminal_second_moment():
    beta, s, steps = 1.0, 0.5, 64
    c, se = reference.sup_constant(beta, s, steps, samples=100_000)
    terminal = reference.riemann_variance(beta, s, steps)  # E[(gap at T)^2] <= E sup
    assert terminal < c < 3 * terminal
    assert se < 0.01 * c
    # the value the convergence checks are calibrated on
    assert c == pytest.approx(0.0821, abs=5 * se + 2e-4)


def test_sup_constant_terminal_moment_matches_the_closed_form():
    # the simulated Riemann sums at T carry the closed-form variance
    steps = 16
    h = 1.0 / steps
    rng = np.random.default_rng(3)
    w = np.cumsum(np.sqrt(h) * rng.standard_normal((200_000, steps)), axis=1)
    integral = h * (w[:, :-1].sum(axis=1))
    var = reference.riemann_variance(1.0, 1.0, steps)
    assert integral.var() == pytest.approx(var, rel=0.02)


def test_field_covariance_is_the_min_kernel():
    cov = reference.field_covariance(2.0, 0.5, [0.25, 0.5, 1.0])
    assert cov.tolist() == [[0.25, 0.25, 0.25], [0.25, 0.5, 0.5], [0.25, 0.5, 1.0]]


def test_loglog_slope_recovers_an_exact_power_law():
    ns = [8, 16, 32, 64]
    errs = [3.0 / n for n in ns]
    assert reference.loglog_slope(ns, errs, [0.05 * e for e in errs]) == pytest.approx(-1.0, abs=1e-12)


def test_normal_ks_pvalue_separates_a_shifted_sample():
    rng = np.random.default_rng(5)
    x = rng.normal(0.0, 0.3, 64)
    assert reference.normal_ks_pvalue(x, 0.09) > 0.01
    assert reference.normal_ks_pvalue(x - 0.27, 0.09) < 0.01


# ---------------------------------------------------------------------------
# self-time arithmetic


def _tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9] > b1 [6, 7], b2 [7, 8.5]
    S = tracing.Span
    return [
        S("root", 0.0, 10.0, -1),
        S("a", 1.0, 4.0, 0),
        S("a1", 2.0, 3.0, 1),
        S("b", 5.0, 9.0, 0),
        S("b1", 6.0, 7.0, 3),
        S("b2", 7.0, 8.5, 3),
    ]


def test_self_times_subtract_direct_children_only():
    assert tracing.self_times(_tree()) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])


def test_self_times_add_up_to_the_root():
    spans = _tree()
    assert sum(tracing.self_times(spans)) == pytest.approx(spans[0].end - spans[0].start)


def test_layer_totals_group_by_name():
    spans = _tree()
    spans[4].name = spans[5].name = "leaf"
    totals = tracing.layer_totals(spans)
    assert totals["leaf"] == pytest.approx(2.5)
    assert totals["root"] == pytest.approx(3.0)


def test_recorder_nests_spans():
    rec = tracing.Recorder()
    inner = rec.wrap("inner", lambda: 1)
    outer = rec.wrap("outer", lambda: inner() + inner())
    assert outer() == 2
    assert [s.name for s in rec.spans] == ["outer", "inner", "inner"]
    assert [s.parent for s in rec.spans] == [-1, 0, 0]
    assert sum(tracing.self_times(rec.spans)) == pytest.approx(rec.spans[0].end - rec.spans[0].start)


def _traced_study(extra=None):
    rec = tracing.Recorder()
    gen = rec.wrap("noise.generator", lambda: None)
    blocks = rec.wrap("forward.blocks", lambda: [gen() for _ in range(3)])
    study = rec.wrap("harness.study", lambda: (blocks(), extra and extra(rec)))
    rec.wrap(tracing.ROOT, study)()
    return rec


def test_reported_total_matches_the_root_duration():
    rec = _traced_study()
    root = rec.spans[0]
    assert tracing.reported_total_s(rec) == pytest.approx(root.end - root.start, abs=1e-9)


def test_reported_total_misses_a_span_no_metric_reports():
    rec = _traced_study(lambda r: r.wrap("forward.unlisted", lambda: sum(range(200000)))())
    root = rec.spans[0]
    lost = next(s for s in rec.spans if s.name == "forward.unlisted")
    assert tracing.reported_total_s(rec) == pytest.approx(root.end - root.start - (lost.end - lost.start), abs=1e-9)


def test_reported_total_counts_a_span_outside_the_root():
    rec = _traced_study()
    root = rec.spans[0]
    rec.wrap("forward.blocks", lambda: sum(range(200000)))()
    stray = rec.spans[-1]
    assert stray.parent == -1
    assert tracing.reported_total_s(rec) == pytest.approx(
        root.end - root.start + stray.end - stray.start, abs=1e-9)


def test_importtime_share_counts_outermost_package_entries():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy.special",
        "import time:       100 |        110 |     scipy.stats._a",
        "import time:        50 |         50 |     scipy.stats.b",
        "import time:         5 |          5 |     numpy.x",
        "import time:        20 |        185 |   mfbsde.fluctuation",
        "import time:         1 |        186 | mfbsde",
    ])
    assert run.importtime_share(log, "scipy.stats") == pytest.approx(160e-6)
    assert run.importtime_share(log, "mfbsde") == pytest.approx(186e-6)
    # scipy.special is nested under scipy.stats._a, so it is not counted twice
    assert run.importtime_share(log, "scipy") == pytest.approx(160e-6)


# ---------------------------------------------------------------------------
# checks on study outputs


def _write_errors(out: Path, rows):
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "errors.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["N", "metric", "value", "stderr"])
        w.writerows(rows)


def test_conv_ou_x_checks_pass_on_exact_errors_and_fail_when_perturbed(tmp_path):
    c = 0.0821
    ref = {"sup_constant": (c, 2e-4)}
    rows = [(n, "x_sup2", c / n, 0.03 * c / n) for n in workloads.OU_CONV_N]
    _write_errors(tmp_path / "good", rows)
    wl = workloads.WORKLOADS["conv_ou_x"]
    assert all(ch.passed for ch in workloads.run_checks(wl, tmp_path / "good", ref))
    rows[-1] = (rows[-1][0], "x_sup2", 3 * rows[-1][2], rows[-1][3])
    _write_errors(tmp_path / "bad", rows)
    failed = [ch.name for ch in workloads.run_checks(wl, tmp_path / "bad", ref) if not ch.passed]
    assert failed == [f"n_err:N={workloads.OU_CONV_N[-1]}", "slope:x"]


def test_conv_tanh_checks_fail_on_a_flat_error(tmp_path):
    rows = []
    for m, base in (("x_sup2", 0.1), ("y_sup2", 0.5), ("z_quad", 0.2)):
        rows += [(n, m, base / n, 0.05 * base / n) for n in workloads.TANH_N]
    _write_errors(tmp_path / "good", rows)
    wl = workloads.WORKLOADS["conv_tanh_xyz"]
    assert all(ch.passed for ch in workloads.run_checks(wl, tmp_path / "good", {}))
    rows = [(n, m, v * n / 8 if m == "y_sup2" else v, se) for n, m, v, se in rows]
    _write_errors(tmp_path / "bad", rows)
    failed = [ch.name for ch in workloads.run_checks(wl, tmp_path / "bad", {}) if not ch.passed]
    assert failed == ["slope:y", "decreasing:y"]


def _clt_outputs(out: Path, shift: float, cov_scale: float):
    out.mkdir(parents=True, exist_ok=True)
    var = reference.riemann_variance(workloads.BETA, workloads.S, workloads.CLT_STEPS)
    moments = {"n": 1000, "mean": shift, "var": var}
    probes = {p: {"approx": dict(moments), "limit": dict(moments, mean=0.0)} for p in ("x@1.0", "y@0.5")}
    (out / "report.json").write_text(json.dumps({"comparison": {"probes": probes}}))
    rng = np.random.default_rng(11)
    with open(out / "fluctuations.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["rep", "t", "coord", "value"])
        for r, v in enumerate(rng.normal(shift, math.sqrt(var), 64)):
            w.writerow([r, 0.0, 0, 0.0])
            w.writerow([r, 1.0, 0, v])
    cov = reference.field_covariance(workloads.BETA, workloads.S, workloads.LATTICE_TIMES) * cov_scale
    with open(out / "covariance.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "j", "block", "value", "stderr", "empirical", "ok"])
        for i in range(3):
            for j in range(3):
                w.writerow([i, j, "drift", cov[i, j], 0.0, cov[i, j], True])


def test_clt_checks_pass_on_the_limit_law_and_flag_a_biased_report(tmp_path):
    wl = workloads.WORKLOADS["clt_ou"]
    ref = workloads.references("clt_ou")
    _clt_outputs(tmp_path / "good", shift=0.0, cov_scale=1.0)
    assert all(ch.passed for ch in workloads.run_checks(wl, tmp_path / "good", ref))
    # the Picard-cloud fault: a bias of about one standard deviation
    _clt_outputs(tmp_path / "bias", shift=-0.26, cov_scale=1.0)
    failed = {ch.name for ch in workloads.run_checks(wl, tmp_path / "bias", ref) if not ch.passed}
    assert failed == set(wl.known_faults)
    _clt_outputs(tmp_path / "cov", shift=0.0, cov_scale=1.2)
    failed = {ch.name for ch in workloads.run_checks(wl, tmp_path / "cov", ref) if not ch.passed}
    assert failed and all(n.startswith("field_cov") for n in failed)


def test_missing_outputs_fail_every_check(tmp_path):
    wl = workloads.WORKLOADS["clt_ou"]
    checks = workloads.run_checks(wl, tmp_path, workloads.references("clt_ou"))
    assert [c.name for c in checks] == list(wl.check_names)
    assert not any(c.passed for c in checks)


def test_configs_follow_the_seed_except_the_canonical_clt_study():
    for name, wl in workloads.WORKLOADS.items():
        a, b = wl.config(1), wl.config(2)
        assert a == wl.config(1)
        if name == "clt_ou":
            assert a == b and a["study"]["seed"] == workloads.CLT_SEED
        else:
            assert a["study"]["seed"] != b["study"]["seed"]
