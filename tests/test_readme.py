import json
import os
import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    # the example is the documented entry to the library API; run it as a
    # user would, in a fresh interpreter
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.returncode == 0, out.stderr
    label, value = out.stdout.strip().split("≈")
    assert label.startswith("E[sup_t |X^N - X|^2]")
    assert 0.0 < float(value) < 1.0


def test_readme_study_key_table_matches_the_defaults():
    # the table lists every study key in the code's order, and each default
    # the code sets, as JSON
    from mfbsde.harness import _STUDY_DEFAULTS

    table = README.read_text().split("These are the study keys", 1)[1].split("\n\n")[1]
    rows = [
        [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        for line in table.splitlines()
        if line.startswith("| `")
    ]
    assert [key for key, _, _ in rows] == list(_STUDY_DEFAULTS)
    for key, default, _ in rows:
        if _STUDY_DEFAULTS[key] is not None:
            assert json.loads(default) == _STUDY_DEFAULTS[key], key
