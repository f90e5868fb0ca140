"""Command-line interface: run / sweep / ablate / verify.

Settings resolve in three layers: built-in defaults, then a JSON config
file (keys mirror the flag names), then explicit flags.  A command knows
only the settings it has flags for (sweep sets the embedding size and
ablate the variant, so neither has that flag).  Run settings (flags
named for a ``run_on_dataset`` keyword) default in that function, and
reach it only when set.  The data directory falls back to the
RANDUMB_DATA_DIR environment variable.

Exit codes: 0 success, 2 configuration error, 3 data or file-format
error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys

from .classifier import VARIANTS
from .data_io import DESCRIPTORS, load_dataset
from .errors import ConfigurationError, RanDumbError
from .harness import (
    ABLATION_ORDER,
    append_jsonl,
    run_ablation,
    run_on_dataset,
    sweep_embedding,
    sweep_table,
)
from .reference import run_verify
from .streaming import MODES

ENV_DATA_DIR = "RANDUMB_DATA_DIR"

_RUN_PARAMS = inspect.signature(run_on_dataset).parameters

_KEY_ALIASES = {"lambda": "ridge", "eval_every_k": "eval_every"}


def _add_common_flags(p: argparse.ArgumentParser, owned: str | None = None) -> None:
    """The flags every command shares, less the one for the run setting
    ``owned`` that the command sets itself."""

    def add(flag: str, **kwargs) -> None:
        if kwargs.get("dest", flag[2:].replace("-", "_")) != owned:
            p.add_argument(flag, **kwargs)

    add("--config", help="JSON file of settings; explicit flags override")
    add("--dataset", choices=sorted(DESCRIPTORS) + ["features"])
    add("--data-dir", dest="data_dir")
    add("--variant", choices=VARIANTS)
    add("--embed-dim", dest="embed_dim", type=int)
    add("--gamma", type=float)
    add("--lambda", dest="ridge", type=float)
    add("--seed", type=int)
    add("--augment", action=argparse.BooleanOptionalAction, default=None)
    add("--classes-per-task", dest="classes_per_task", type=int)
    add("--estimator-mode", dest="estimator_mode", choices=MODES)
    add(
        "--pooled-unbiased",
        dest="pooled_unbiased",
        action="store_true",
        default=None,
        help="divide the pooled scatter by (n - C) instead of (n - 1)",
    )
    add("--eval-every-k", dest="eval_every", type=int)
    add("--memory-cap-bytes", dest="memory_cap_bytes", type=int)
    add("--out", help="append one JSON line per run to this file")


def _load_config_file(path: str, known: list[str]) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigurationError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    out = {}
    for key, value in raw.items():
        key = key.replace("-", "_")
        key = _KEY_ALIASES.get(key, key)
        if key not in known:
            raise ConfigurationError(f"config file {path}: unknown setting {key!r}")
        out[key] = value
    return out


def _resolve(args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicit flags, then env fallbacks.  The
    settings are the command's flags; run settings default in run_on_dataset."""
    known = [key for key in vars(args) if key not in ("config", "command", "func")]
    settings = {key: None for key in known if key not in _RUN_PARAMS}
    if getattr(args, "config", None):
        settings.update(_load_config_file(args.config, known))
    for key in known:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    if settings["data_dir"] is None:
        settings["data_dir"] = os.environ.get(ENV_DATA_DIR, "data")
    return settings


def _parse_int_list(text) -> list[int]:
    if isinstance(text, list):
        return [int(v) for v in text]
    try:
        return [int(part) for part in str(text).split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"expected comma-separated integers, got {text!r}") from exc


def _load_data(settings: dict):
    if not settings["dataset"]:
        raise ConfigurationError("--dataset is required (flag or config file)")
    return load_dataset(settings["dataset"], settings["data_dir"])


def _run_settings(settings: dict) -> dict:
    """The run settings that were set."""
    return {key: value for key, value in settings.items() if key in _RUN_PARAMS}


def _emit(results, settings: dict) -> None:
    for result in results:
        if settings["out"]:
            append_jsonl(result, settings["out"])
        else:
            print(json.dumps(result.to_json()))
    if settings["out"]:
        for result in results:
            print(
                f"{result.config['variant']} E={result.config['state_dim']} "
                f"average_accuracy={result.average_accuracy:.4f} "
                f"-> {settings['out']}"
            )


def _cmd_run(args) -> int:
    settings = _resolve(args)
    data = _load_data(settings)
    result = run_on_dataset(data, **_run_settings(settings))
    _emit([result], settings)
    return 0


def _cmd_sweep(args) -> int:
    settings = _resolve(args)
    if not settings["dims"]:
        raise ConfigurationError("--dims is required for sweep")
    dims = _parse_int_list(settings["dims"])
    data = _load_data(settings)
    results = sweep_embedding(dims, data, **_run_settings(settings))
    _emit(results, settings)
    _write_csv(results, settings)
    return 0


def _cmd_ablate(args) -> int:
    settings = _resolve(args)
    variants = (
        tuple(str(settings["variants"]).split(","))
        if settings["variants"]
        else ABLATION_ORDER
    )
    for v in variants:
        if v not in VARIANTS:
            raise ConfigurationError(f"unknown variant {v!r} in --variants")
    data = _load_data(settings)
    results = run_ablation(data, variants=variants, **_run_settings(settings))
    _emit(results, settings)
    _write_csv(results, settings)
    return 0


def _write_csv(results, settings: dict) -> None:
    if settings["csv"]:
        with open(settings["csv"], "w", encoding="utf-8") as fh:
            fh.write(sweep_table(results))


def _cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else 0
    reports = run_verify(seed=seed)
    lines = [json.dumps(r.to_json()) for r in reports]
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randumb",
        description=(
            "Single-pass streaming classifier benchmark: random feature "
            "embedding, online class statistics, shrunk-covariance "
            "Mahalanobis scoring."
        ),
    )
    # No abbreviated flags: ablate's --variants would take --variant, a
    # flag ablate does not have.
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False),
    )

    p_run = sub.add_parser("run", help="one benchmark run")
    _add_common_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="one run per embedding size")
    _add_common_flags(p_sweep, owned="embed_dim")
    p_sweep.add_argument("--dims", help="comma-separated embedding sizes, ascending")
    p_sweep.add_argument("--csv", help="also write a CSV table here")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_ablate = sub.add_parser("ablate", help="run several variants on one stream")
    _add_common_flags(p_ablate, owned="variant")
    p_ablate.add_argument(
        "--variants", help=f"comma-separated subset of {','.join(VARIANTS)}"
    )
    p_ablate.add_argument("--csv", help="also write a CSV table here")
    p_ablate.set_defaults(func=_cmd_ablate)

    p_verify = sub.add_parser("verify", help="run the oracle self-checks")
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--out", help="append one JSON line per check to this file")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RanDumbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
