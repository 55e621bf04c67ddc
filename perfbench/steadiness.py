"""Run the benchmark on several seeds and report the spread of each metric.

    python3 perfbench/steadiness.py --workload regress-coherent --seeds 1 2 3 4 5
    python3 perfbench/steadiness.py --seeds 1 2 3 4 5 6 7 8 9 10 --out set1.json
    python3 perfbench/steadiness.py --seeds 20 19 18 17 16 15 14 13 12 11 \
        --against set1.json --out set2.json

For every end-to-end metric of ``BENCHMARK.json`` it prints the median of the
runs and the distance between their first and third quartiles as a share of
the median (``statistics.quantiles(values, n=4)``), next to the metric's bound,
and flags a spread above a third of the bound.  With ``--against`` it also
gives each median's shift from the same metric's median in an earlier
``--out`` file and flags a shift beyond the bound.  Runs go one after another,
each in its own process and for ``run_seconds``; workloads go in the order
given.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--out", help="write the values and spreads to this JSON file")
    p.add_argument("--against", help="an earlier --out file to compare medians with")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    result, ok = {}, True
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        walls = []
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            tic = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            walls.append(time.perf_counter() - tic)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not last["correct"]:
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})", flush=True)
                ok = False
            for name in bounds:
                values[name].append(last["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        result[workload] = {"run_wall_s": walls}
        print(f"  {workload:20s} one run takes {min(walls):.1f}-{max(walls):.1f} s")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            entry = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vs}
            flag = "" if spread <= bounds[name] / 3 else "  <-- spread above bound/3"
            if workload in earlier:
                entry["shift"] = med / earlier[workload][name]["median"] - 1
                if abs(entry["shift"]) > bounds[name]:
                    flag += "  <-- shift beyond bound"
                flag = f"  shift {entry['shift']:+.4f}" + flag
            result[workload][name] = entry
            print(f"  {workload:20s} {name:20s} median {med:.6g}  spread {spread:.4f}"
                  f"  bound {bounds[name]}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
