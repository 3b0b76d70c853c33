"""Write bench/PROVENANCE.json: the machine, versions, source size, the
per-layer share table of traced runs and, optionally, a seed sweep.

    python3 bench/provenance.py                 # traced runs, seeds 1 and 2
    python3 bench/provenance.py --sweep 10      # plus 10 seeds per workload

The sweep runs ``BENCHMARK.json``'s command once per seed and workload and
records each end-to-end metric's median and quartile spread (the distance
between the first and third quartile over the median).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    cmd = [sys.executable if c == "python3" else c for c in cmd]
    proc = subprocess.run(
        cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    p.add_argument("--sweep", type=int, default=0, metavar="N")
    args = p.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(BENCH))
    import networkx
    import scipy

    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    doc = {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "scipy": scipy.__version__,
        "src_lines": src_lines(),
        "run_seconds": seconds,
        "trace_seeds": args.seeds,
        "workloads": {},
    }
    for name, wl in workloads.WORKLOADS.items():
        entry = {"why": wl.why, "traced": {}}
        for seed in args.seeds:
            res = run(name, seed, seconds, 1)
            detail = json.loads((BENCH / "out" / f"{name}-seed{seed}-trace1.json").read_text())
            m = res["metrics"]
            entry["traced"][str(seed)] = {
                "correct": res["correct"],
                "traced_wall_s": round(detail["traced_wall_s"], 4),
                "overhead_frac": round(m["trace.overhead_frac"]["value"], 4),
                "covered_frac": round(m["trace.covered_frac"]["value"], 4),
                "shares": detail["shares"],
            }
            print(f"traced {name} seed {seed}: correct={res['correct']}", flush=True)
        if args.sweep:
            runs = [run(name, 100 + k, seconds, 0) for k in range(args.sweep)]
            sweep = {"seeds": [100 + k for k in range(args.sweep)],
                     "all_correct": all(r["correct"] for r in runs)}
            for metric in runs[0]["metrics"]:
                vals = [r["metrics"][metric]["value"] for r in runs]
                q1, _, q3 = statistics.quantiles(vals, n=4)
                med = statistics.median(vals)
                sweep[metric] = {"median": round(med, 6), "spread": round((q3 - q1) / med, 4)}
            entry["sweep"] = sweep
            print(f"sweep {name}: {json.dumps(sweep)}", flush=True)
        doc["workloads"][name] = entry
    (BENCH / "PROVENANCE.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
