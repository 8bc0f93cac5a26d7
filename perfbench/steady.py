"""Steadiness check: two separate sets of benchmark runs, compared.

    python3 perfbench/steady.py

Runs ``run.py`` ten times on every workload of BENCHMARK.json with seeds
1-10 (set A), waits two minutes, then does it again with seeds 1001-1010
(set B).  For every end-to-end metric it prints each
set's median and quartiles, the spread (interquartile distance over the
median) and the gap between the two medians, against the metric's bound in
BENCHMARK.json.  It is steady when every spread and the size of every gap,
in either direction, are within the bound, and the share of failed
operations is the same in every run of a workload.  ``WIDE`` marks a spread
above a third of its bound, ``GAP`` a gap past it.  The full record
goes to ``.perfbench_out/steady.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SET_SEEDS = (1, 1001)   # first seed of set A and of set B
RUNS = 10
PAUSE_S = 120   # lets a passing load on the host change between the sets


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    record = {"started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "sets": []}
    shares = set()
    for s, first_seed in enumerate(SET_SEEDS):
        if s:
            time.sleep(PAUSE_S)
        runs = {}
        for w in workloads:
            runs[w] = []
            for seed in range(first_seed, first_seed + RUNS):
                res = one_run(w, seed, spec["run_seconds"])
                res["seed"] = seed
                runs[w].append(res)
                shares.add((w, Fraction(res["failed"], res["attempted"])))
                if not res["correct"]:
                    print(f"set {'AB'[s]} {w} seed {seed}: correct is false", file=sys.stderr)
        record["sets"].append({"finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "runs": runs})

    ok = len(shares) == len(workloads)
    record["failed_share"] = {w: str(f) for w, f in sorted(shares)}
    record["table"] = []
    print(f"{'workload':15} {'metric':12} {'set':3} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}  gap")
    for w in workloads:
        for name, m in metrics.items():
            sets = [summary([r["metrics"][name]["value"] for r in st["runs"][w]]) for st in record["sets"]]
            a, b = sets[0]["median"], sets[1]["median"]
            gap = (b - a) / a if m["better"] == "lower" else (a - b) / a
            for label, st in zip("AB", sets):
                line = (f"{w:15} {name:12} {label:3} {st['median']:10.4f} {st['q1']:10.4f} {st['q3']:10.4f} "
                        f"{st['spread']:7.2%} {m['bound']:6.2f}")
                if st["spread"] > m["bound"] / 3:
                    line += "  WIDE"
                if label == "B":
                    line += f"  {gap:+.2%}" + ("  GAP" if abs(gap) > m["bound"] else "")
                print(line)
                ok = ok and st["spread"] <= m["bound"]
            ok = ok and abs(gap) <= m["bound"]
            record["table"].append({"workload": w, "metric": name, "sets": sets, "gap": gap, "bound": m["bound"]})
    print("failed share per workload:", record["failed_share"])
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(record, indent=1))
    print("steady" if ok else "NOT steady: a spread or gap exceeds its bound, or failed shares differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
