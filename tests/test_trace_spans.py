"""The benchmark's tracer wraps mfbsde functions by (module, name) and reads
attributes of their results; a rename that drops one would only surface when
a traced benchmark run installs it."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_every_traced_function_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while the class is built
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.SPANS
    missing = [
        f"mfbsde.{mod}.{fn}"
        for mod, fn in tracing.SPANS
        if not callable(getattr(importlib.import_module(f"mfbsde.{mod}"), fn, None))
    ]
    assert missing == []


# runs each study through the traced CLI, as the benchmark's trace mode does,
# and prints {study: layer metrics} as its last line, with the gap between
# the reported total and the root span's duration and the threads that
# recorded a span
_TRACED_STUDIES = """
import json, sys, threading
from pathlib import Path
import mfbsde.cli
import tracing

class Spans(list):
    def append(self, span):
        threads.add(threading.get_ident())
        super().append(span)

threads = set()
rec = tracing.Recorder(spans=Spans())
tracing.install(rec)
main = rec.wrap(tracing.ROOT, mfbsde.cli.main)
out = {}
for name, (command, doc) in json.loads(sys.argv[2]).items():
    path = Path(sys.argv[1]) / f"{name}.json"
    path.write_text(json.dumps(doc))
    rc = main([command, "--config", str(path), "--out", str(Path(sys.argv[1]) / name)])
    root_s = sum(s.end - s.start for s in rec.spans if s.name == tracing.ROOT)
    gap_s = tracing.reported_total_s(rec) - root_s
    off_main = len(threads - {threading.main_thread().ident})
    out[name] = {"rc": rc, "gap_s": gap_s, "off_main": off_main, **tracing.layer_metrics(rec)}
    rec.spans.clear()
    rec.counters.clear()
print(json.dumps(out))
"""


def test_traced_studies_run(tmp_path):
    studies = {
        "convergence": ("convergence", {
            "model": {"name": "tanh_bounded"},
            "grid": {"steps": 4},
            "study": {
                "kind": "convergence", "n_values": [2, 4, 8], "reps": 8, "inner_paths": 30,
                "env_cloud": 64, "metrics": ["x", "y", "z"], "seed": 1,
            },
        }),
        "clt": ("clt", {
            "model": {"name": "ou_mean_field"},
            "grid": {"steps": 4},
            "study": {
                "kind": "clt", "n": 8, "reps": 200, "inner_paths": 30, "env_cloud": 128,
                "field_reps": 100, "seed": 1,
            },
        }),
        # one-path blocks whose closed-form partner pools split across threads
        "one_path": ("convergence", {
            "model": {"name": "ou_mean_field"},
            "grid": {"steps": 16},
            "study": {
                "kind": "convergence", "n_values": [8, 16, 32], "reps": 400, "metrics": ["x"],
                "seed": 1,
            },
        }),
    }
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_STUDIES, str(tmp_path), json.dumps(studies)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    for name, (command, _) in studies.items():
        # 0 when every verdict passes, 2 when one fails; 1 is a bad config
        assert metrics[name]["rc"] in (0, 2), proc.stdout
        assert metrics[name]["forward.block_path_steps"] > 0
        assert (metrics[name]["backward.regressions"] > 0) == (name != "one_path")
        # the layers add up to the study within the benchmark's tolerance
        # (`SELF_SUM_TOLERANCE_S`, 1e-3 s); self times telescope to the
        # root's duration whatever thread records a span, so the threads
        # are checked too: the recorder's stack is the study thread's
        assert abs(metrics[name]["gap_s"]) <= 1e-3, (name, metrics[name]["gap_s"])
        assert metrics[name]["off_main"] == 0, name
