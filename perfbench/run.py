"""Benchmark of the ``mfbsde`` study commands.

    python3 perfbench/run.py --workload conv_ou_x --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each study runs through
``mfbsde.cli.main`` in a fresh interpreter, with a config generated from the
seed.  The run repeats whole rounds until the next round would end past
``--seconds`` (at least one round), then prints one JSON line last:
``correct``, ``attempted`` and ``failed`` operations, and the metrics --
end-to-end with ``--trace 0``, per-layer with ``--trace 1``.

Every study and every check on its outputs is one operation.  A failed
operation that ``workloads.py`` lists as a known fault leaves ``correct``
true; any other failure makes it false.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Check, references, run_checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 150
IMPORT_PROBES_PER_ROUND = 2
# the root wrapper's own cost lies between the two clocks; it is microseconds
SELF_SUM_TOLERANCE_S = 1e-3

# one thread per process, whatever the caller's environment says
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(args: list[str], env: dict, interpreter_flags=()) -> tuple[float, dict, str]:
    """Start a fresh interpreter on child.py; returns (start clock, last-line JSON, stderr)."""
    cmd = [sys.executable, *interpreter_flags, str(BENCH / "child.py"), *args]
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{args[0]} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return start, json.loads(lines[-1]), proc.stderr


def importtime_share(log: str, package: str) -> float:
    """Seconds that ``package`` and its submodules take in a ``-X importtime`` log.

    Sums the cumulative time of each entry of the package whose importer is
    outside it.  scipy loads ``scipy.stats`` lazily, so the log has entries
    for its submodules but none for the package itself.
    """
    entries = []
    for line in log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|")
        if not cum.strip().isdigit():
            continue  # the header line
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(cum)))
    total = 0
    ancestors: list[tuple[int, bool]] = []   # (depth, inside package), outermost first
    # an importer is logged after everything it imports, so walk the log backwards
    for depth, name, cum in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        inside = name == package or name.startswith(package + ".")
        if inside and not any(a[1] for a in ancestors):
            total += cum
        ancestors.append((depth, inside))
    return total / 1e6


def scipy_stats_import_s(env: dict) -> float:
    """scipy.stats's share of a fresh ``import mfbsde`` under ``-X importtime``."""
    _, _, err = run_child(["import"], env, ("-X", "importtime"))
    return importtime_share(err, "scipy.stats")


class Run:
    """Operation tally and samples of one benchmark run."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.config = WORK / f"{workload.name}.config.json"
        self.config.write_text(json.dumps(workload.config(seed), indent=2))
        self.ref = references(workload.name)
        self.env = child_env()

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def tally(self, checks: list[Check]) -> None:
        for c in checks:
            self.attempted += 1
            if not c.passed:
                self.failed += 1
                if c.name not in self.workload.known_faults:
                    self.unexpected.append(f"{c.name}: {c.detail}")

    def warm_up(self) -> None:
        """Byte-compile the package and prove it imports from this checkout."""
        _, res, _ = run_child(["setup", str(self.config)], self.env)
        package = Path(res["package"]).resolve()
        if ROOT / "src" not in package.parents:
            raise ChildFailed(f"mfbsde imported from {package}, not from this checkout")

    def study(self, traced: bool) -> dict | None:
        """One study and the checks on its outputs; None if it crashed."""
        out = WORK / f"{self.workload.name}.out"
        shutil.rmtree(out, ignore_errors=True)
        args = [str(self.config), str(out), self.workload.command]
        mode = "trace" if traced else "study"
        if traced:
            args.append(str(WORK / f"{self.workload.name}.spans.json"))
        try:
            start, res, _ = run_child([mode, *args], self.env)
            ok = (out / "report.json").is_file()
            detail = f"exit {res['rc']}"
            if traced and abs(res["reported_s"] - res["study_s"]) > SELF_SUM_TOLERANCE_S:
                ok, detail = False, f"layer self times sum to {res['reported_s']} s, study took {res['study_s']} s"
        except (ChildFailed, subprocess.TimeoutExpired) as exc:
            ok, detail = False, str(exc)
        self.tally([Check(f"{mode}_ran", ok, detail)])
        if not ok:
            self.tally([Check(n, False, "no study output") for n in self.workload.check_names])
            return None
        self.tally(run_checks(self.workload, out, self.ref))
        res["setup_s"] = res["ready"] - start
        return res

    def round(self, trace: bool) -> None:
        if not trace:
            res = self.study(traced=False)
            if res is not None:
                self.add("setup_s", res["setup_s"])
                self.add("study_s", res["study_s"])
                self.add("peak_rss_mb", res["rss_mb"])
            return
        plain = self.study(traced=False)
        traced = self.study(traced=True)
        for _ in range(IMPORT_PROBES_PER_ROUND):
            _, res, _ = run_child(["import"], self.env)
            self.add("cli.import_s", res["import_s"])
        self.add("cli.import_scipy_stats_s", scipy_stats_import_s(self.env))
        if traced is not None:
            for name, value in traced["layers"].items():
                self.add(name, value)
            self.add("trace.study_s", traced["study_s"])
            if plain is not None:
                self.add("trace.overhead_s", traced["study_s"] - plain["study_s"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mfbsde" / "__init__.py").is_file():
        print(f"no mfbsde sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    run = Run(WORKLOADS[args.workload], args.seed)
    try:
        run.warm_up()
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"mfbsde does not start: {exc}", file=sys.stderr)
        return 2

    began = time.perf_counter()
    rounds = 0
    while True:
        run.round(bool(args.trace))
        rounds += 1
        elapsed = time.perf_counter() - began
        if elapsed + elapsed / rounds > args.seconds:
            break

    (WORK / f"{args.workload}.samples.json").write_text(json.dumps(run.samples, indent=1))
    for line in run.unexpected:
        print(f"FAIL {line}")
    print(f"{args.workload}: {rounds} rounds in {time.perf_counter() - began:.1f} s")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in run.samples]
    if missing:
        print(f"no finished study measured {missing}; nothing to report", file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": statistics.median(run.samples[m["name"]]), "unit": m["unit"]}
        for m in wanted
    }
    print(json.dumps({
        "correct": not run.unexpected,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
