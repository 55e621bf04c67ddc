"""Benchmark of the segreopt solvers (RGN, RGD, CP-ALS) on three preset workloads.

    python3 perfbench/run.py --workload regress-base --seed 1 --seconds 30 --trace 0

Runs in one process with BLAS pinned to one thread, from the library under
``src/`` of the checkout this file sits in.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs every replicate a second time with
spans around the library's public functions and reports the per-layer
metrics and the tracing overhead.  Outputs are checked against the seed
commit's results in ``reference.json``; the command exits non-zero when a
check fails.  The last line of standard output is the result as JSON; the
full report goes to ``perfbench/out/``.
"""

import os

# before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 20260809  # the presets' own seed


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="workload seed, passed as ExperimentConfig.seed")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Import segreopt from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "segreopt" / "__init__.py").is_file():
        sys.exit(f"error: no library at {src / 'segreopt'}")
    sys.path.insert(0, str(src))
    import segreopt
    if Path(segreopt.__file__).resolve().parent != (src / "segreopt").resolve():
        sys.exit(f"error: imported segreopt from {segreopt.__file__}, not {src}")
    return segreopt


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_record(seed: int) -> dict:
    import numpy as np

    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    try:
        blas = {k: v for k, v in np.show_config(mode="dicts")["Build Dependencies"]["blas"].items()
                if k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "llc_size": _read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def _fmt(x) -> str:
    return "-" if x is None else f"{x:.6g}"


def main(argv=None) -> int:
    segreopt = import_library()
    import bench

    args = parse_args(argv, list(bench.CALIBRATION))
    refs = json.loads((HERE / "reference.json").read_text())["workloads"]
    m = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace), refs)
    e2e = bench.end_to_end(m)
    layers = bench.per_layer(m) if args.trace else {}
    design_bytes = max((i.design_bytes for i in m.instances), default=0)

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "segreopt": segreopt.__version__,
        "machine": machine_record(args.seed),
        "design_stack_bytes": design_bytes,
        # the stack is below four times the LLC, so bandwidth figures are
        # computed bytes over busy time, with no roofline ratio
        "design_gbps_basis": "computed bytes / self time of design passes",
        "end_to_end": e2e, "per_layer": layers,
        "correct": m.correct, "attempted": m.attempted, "failed": m.failed,
        "failures": [
            {"seed": i.seed, "replicate": i.replicate, "method": k, "reason": r.failure}
            for i in m.instances + m.traced_instances
            for k, r in i.runs.items() if r.failure is not None
        ] + [{"reason": f"no seed-commit record for seed {s} replicate {r}"}
             for s, r in m.refs_missing],
        "parity": None if not m.parity_checked else (m.parity or "equal"),
        "absent_targets": m.absent,
        "instances": [
            {"seed": i.seed, "replicate": i.replicate, "calibration": i.calibration,
             "setup_s": i.setup_s,
             "runs": {k: {"wall_s": r.wall_s, "iters": r.iters, "iters_to_tol": r.iters_to_tol,
                          "final": r.rows[-1] if r.rows else None, "failure": r.failure}
                      for k, r in i.runs.items()}}
            for i in m.instances
        ],
        "extra_setups_s": m.extra_setups,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if m.tracer is not None:
        m.tracer.write(out_dir / f"{stem}-spans.csv.gz")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"replicates={len(m.instances)} machine: {report['machine']['nproc']} cpus, "
          f"{report['machine']['cpu_model']}, LLC {report['machine']['llc_size']}, "
          f"numpy {report['machine']['numpy']}")
    for name, metric in e2e.items():
        s = metric.get("summary", {})
        tail = ""
        if s:
            pct = (f", p{s['percentile']:g} {_fmt(s['percentile_value'])}"
                   if "percentile" in s else "")
            tail = f"  (median of {s['n']}{pct})"
        print(f"{name:24s} {_fmt(metric['value']):>12s} {metric['unit']}{tail}")
    for name, metric in layers.items():
        print(f"{name:52s} {_fmt(metric['value']):>12s} {metric['unit']}")
    if m.absent:
        print("absent targets: " + ", ".join(m.absent))
    for f in report["failures"]:
        print(f"FAILED: {f}")
    if m.parity_checked:
        print(f"parity with run_experiment: {report['parity']}")
    print(f"report: {out_dir.relative_to(ROOT) / (stem + '.json')}")

    # failed_runs is zero when all is well; "failed" and "attempted" carry it
    shown = layers if args.trace else {k: v for k, v in e2e.items() if k != "failed_runs"}
    print(json.dumps({
        "correct": m.correct, "attempted": m.attempted, "failed": m.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in shown.items()},
    }))
    return 0 if m.correct else 1


if __name__ == "__main__":
    sys.exit(main())
