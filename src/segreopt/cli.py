"""Command-line entry point.

Subcommands:

* ``decompose`` / ``regress`` -- run one experiment from a preset or config
  file and write trace CSVs, the RMS aggregate, and a manifest.
* ``bench`` -- expand a preset's parameter grid and run every cell into its
  own subdirectory, named ``noise<noise_sd>_rho<rho>`` followed by
  ``_<key><value>`` for every other grid key in sorted order.

Every config field, and ``bench``'s ``grid``, can be overridden by the
variable ``SEGREOPT_<FIELD>``, read as JSON or else as bare text
(``SEGREOPT_METHODS='["rgn"]'``, ``SEGREOPT_WEIGHT_LAW=geometric-kappa``) and
checked and stored as the field's type like a file value; a variable that
names no field is an error.  Flags and the subcommand's task take precedence
over the environment, which takes precedence over the file.  A configuration
that cannot be read or is invalid ends with ``error: ...`` on stderr and
exit status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .harness import (
    ExperimentConfig,
    expand_grid,
    load_preset,
    preset_names,
    run_experiment,
)
from .solvers import METHODS, SolverError

ENV_PREFIX = "SEGREOPT_"


def _env_overrides() -> dict:
    """Every ``SEGREOPT_<KEY>`` variable as ``{key: JSON value, or else text}``."""
    out = {}
    for var, raw in os.environ.items():
        if var.startswith(ENV_PREFIX):
            try:
                value = json.loads(raw)
            except json.JSONDecodeError:
                value = raw
            out[var[len(ENV_PREFIX):].lower()] = value
    return out


def _load_base(args) -> dict:
    if args.config:
        with open(args.config) as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise ValueError(f"{args.config}: the top level must be a JSON object, "
                             f"got {type(base).__name__}")
        return base
    if args.preset:
        return load_preset(args.preset)
    raise SystemExit("one of --preset or --config is required "
                     f"(presets: {', '.join(preset_names())})")


def _apply_flags(base: dict, args, task: str | None) -> dict:
    base = {**base, **_env_overrides()}
    if task is not None:
        base["task"] = task
    for name in ("seed", "replicates", "max_iters"):
        val = getattr(args, name, None)
        if val is not None:
            base[name] = val
    if args.method:
        base["methods"] = args.method
    return base


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", help="named built-in configuration")
    p.add_argument("--config", help="path to a JSON configuration file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--replicates", type=int)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--method", action="append", choices=METHODS,
                   help="repeatable; overrides the configured method list")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="segreopt")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, task in (("decompose", "decompose"), ("regress", "regress"), ("bench", None)):
        p = sub.add_parser(name)
        _add_common(p)
    args = parser.parse_args(argv)

    task = args.command if args.command in ("decompose", "regress") else None
    try:
        base = _apply_flags(_load_base(args), args, task)
        if args.command == "bench":
            configs = expand_grid(base)
        else:
            if base.pop("grid", None):
                print("note: ignoring grid field outside `bench`", file=sys.stderr)
            cfg = ExperimentConfig.from_dict(base)
    except (OSError, ValueError) as exc:
        # a bad configuration, not a failed run
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "bench":
        # every grid field names the cell, so no two cells share a directory
        extra = sorted(set(base.get("grid") or ()) - {"noise_sd", "rho"})
        failed = 0
        for cfg in configs:
            cell = f"noise{cfg.noise_sd}_rho{cfg.rho}" + "".join(
                f"_{key}{getattr(cfg, key)}" for key in extra)
            cell_dir = os.path.join(args.out, cell)
            print(f"[bench] {cfg.task} {cell} -> {cell_dir}")
            try:
                summary = run_experiment(cfg, cell_dir)
            except SolverError as exc:
                print(f"[bench] {cell} failed: {exc}", file=sys.stderr)
                failed += 1
                continue
            for method in cfg.methods:
                print(f"[bench]   {method}: final rms rel err {summary.final_error(method):.3e}")
        return 1 if failed == len(configs) else 0

    try:
        summary = run_experiment(cfg, args.out)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for method in cfg.methods:
        print(f"{method}: final rms rel err {summary.final_error(method):.3e}")
    if summary.failures:
        print(f"{len(summary.failures)} replicate failure(s); see manifest.json", file=sys.stderr)
    print(f"outputs written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
