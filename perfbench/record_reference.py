"""Record the final errors of every replicate of every workload's preset seed.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``, against which ``run.py`` checks its
outputs.  It holds the seed commit's results: run it only on the commit that
defines the baseline, never to make a later change pass.
"""

import json
import sys

import run  # pins BLAS threads before numpy loads

run.import_library()
import bench  # noqa: E402


def main() -> int:
    out = {}
    for name in bench.CALIBRATION:
        cfg = bench.workload_config(name)
        block = out.setdefault(name, {}).setdefault(str(cfg.seed), {})
        for rep in range(cfg.replicates):
            inst = bench.run_instance(cfg, rep)
            block[str(rep)] = {
                method: {"rel_fro_err": r.rows[-1][1], "max_comp_err": r.rows[-1][2],
                         "iters": r.iters}
                for method, r in inst.runs.items()
            }
            print(name, rep, {m: v["rel_fro_err"] for m, v in block[str(rep)].items()},
                  flush=True)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps({"workloads": out}, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
