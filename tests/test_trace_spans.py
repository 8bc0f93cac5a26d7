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
# and prints {command: layer metrics} as its last line
_TRACED_STUDIES = """
import json, sys
from pathlib import Path
import mfbsde.cli
import tracing

rec = tracing.Recorder()
tracing.install(rec)
main = rec.wrap(tracing.ROOT, mfbsde.cli.main)
out = {}
for command, doc in json.loads(sys.argv[2]).items():
    path = Path(sys.argv[1]) / f"{command}.json"
    path.write_text(json.dumps(doc))
    rc = main([command, "--config", str(path), "--out", str(Path(sys.argv[1]) / command)])
    out[command] = {"rc": rc, **tracing.layer_metrics(rec)}
    rec.spans.clear()
    rec.counters.clear()
print(json.dumps(out))
"""


def test_traced_studies_run(tmp_path):
    studies = {
        "convergence": {
            "model": {"name": "tanh_bounded"},
            "grid": {"steps": 4},
            "study": {
                "kind": "convergence", "n_values": [2, 4, 8], "reps": 8, "inner_paths": 30,
                "env_cloud": 64, "metrics": ["x", "y", "z"], "seed": 1,
            },
        },
        "clt": {
            "model": {"name": "ou_mean_field"},
            "grid": {"steps": 4},
            "study": {
                "kind": "clt", "n": 8, "reps": 200, "inner_paths": 30, "env_cloud": 128,
                "field_reps": 100, "seed": 1,
            },
        },
    }
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_STUDIES, str(tmp_path), json.dumps(studies)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    for command in studies:
        # 0 when every verdict passes, 2 when one fails; 1 is a bad config
        assert metrics[command]["rc"] in (0, 2), proc.stdout
        assert metrics[command]["forward.block_path_steps"] > 0
        assert metrics[command]["backward.regressions"] > 0
