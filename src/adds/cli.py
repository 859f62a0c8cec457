"""Command-line entry point: plan inspection, training, evaluation, gradient checks.

Every run writes a manifest (resolved settings, seeds, artifact paths) next to
its outputs; rerunning with ``--manifest`` reproduces the outputs bit-exactly.
Each artifact is replaced whole (``atomic_open``), never left half written.
Exit codes: 0 success, 1 validation/check failure, 2 usage error. Every exit 1
prints one ``error: …`` line; ``main`` alone turns a ValueError, NumericError or
OSError, a failed write included, into one. A TypeError is a bug: it is not caught.
"""

import argparse
import dataclasses
import datetime
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .atomic import atomic_open
from .errors import ConfigurationError, FormatError, NumericError, require_keys
from .checkpoint import load_checkpoint, save_checkpoint
from .metrics import F1_CUTOFFS, metrics_report
from .optim import decoder_gradcheck_loss, grad_check
from .pyramid import build_plan, cost_report
from .rng import SeedStreams
from .tensor import Tensor, mean_all, mul, scale
from .training import EVAL_SEED, N_EVAL, TrainConfig, evaluation_scores, field_rule, train

OUT_DIR_ENV = "ADDS_OUT_DIR"


def _out_dir(flag_value) -> Path:
    """The output directory, made if missing. A run asks for it only once it
    has something to write, so a failed run leaves no empty directory."""
    path = Path(flag_value or os.environ.get(OUT_DIR_ENV, "."))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )


def _run_id(settings: dict) -> str:
    """16 hex digits of the sha-256 of a run's settings as sorted JSON."""
    return hashlib.sha256(json.dumps(settings, sort_keys=True).encode()).hexdigest()[:16]


def _write_manifest(out_dir: Path, subcommand: str, config: dict, timestamp: str,
                    run_id: str, seeds: dict, artifacts: dict) -> None:
    manifest = {"tool_version": __version__, "subcommand": subcommand, "config": config,
                "seeds": seeds, "timestamp": timestamp, "run_id": run_id,
                "artifacts": artifacts}
    with atomic_open(out_dir / "run_manifest.json") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}


def _parse(kind, text: str):
    """A config-file value as the declared type ``kind``; ValueError or
    KeyError if the text is not one."""
    if kind is bool:
        return {"true": True, "false": False}[text.lower()]
    if kind == list[int]:
        return [int(x) for x in text.split(",") if x.strip()]
    return kind(text)


def _read_text(path, error=ConfigurationError) -> str:
    """A UTF-8 text file; ``error`` names the file if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from None


def read_config_file(path) -> dict:
    """Flat key = value config; keys mirror TrainConfig fields, each set once."""
    out, set_on = {}, {}
    for lineno, line in enumerate(_read_text(path).split("\n"), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELDS:
            raise ConfigurationError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in set_on:
            raise ConfigurationError(f"{path}:{lineno}: {key} is already set on line "
                                     f"{set_on[key]}")
        set_on[key] = lineno
        try:
            out[key] = _parse(_FIELDS[key].type, value)
        except (ValueError, KeyError):
            raise ConfigurationError(
                f"{path}:{lineno}: {key} must be {field_rule(_FIELDS[key])}, "
                f"got {value!r}") from None
    return out


def _read_manifest(path, keys) -> tuple[dict, str]:
    """(config, timestamp) of a run manifest whose config holds exactly ``keys``,
    the settings its subcommand writes."""
    try:
        manifest = json.loads(_read_text(path, FormatError))
    except json.JSONDecodeError as exc:
        raise FormatError(f"manifest {path} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        manifest = {}
    config, timestamp = manifest.get("config"), manifest.get("timestamp")
    if not isinstance(config, dict) or not isinstance(timestamp, str):
        raise FormatError(f"manifest {path} needs a config object and a timestamp")
    require_keys(config, keys, f"manifest {path}:")
    return config, timestamp


def _read_vocab(value: str) -> list[str]:
    """Labels from a file with one per line, or from a comma-separated list.
    Class names are letters only, so a value holding a path separator or a
    dot that is not a file is a missing file, not a label."""
    path = Path(value)
    if path.is_file():
        return [line.strip() for line in _read_text(path).splitlines() if line.strip()]
    if any(c in value for c in (os.sep, "/", ".")):
        raise ConfigurationError(f"no such vocabulary file: {value}")
    return [x.strip() for x in value.split(",") if x.strip()]


# ---------------------------------------------------------------------------
# plan


def cmd_plan(args) -> int:
    try:
        levels = _parse(list[int], args.levels or "")
    except ValueError:
        raise ConfigurationError("--levels must be comma-separated level indices, "
                                 f"got {args.levels!r}") from None
    plan = build_plan(
        args.base_size,
        args.target_size,
        selected_levels=levels,
        cls_only_non_bottom=args.cls_only,
    )
    report = cost_report(plan)
    if args.format == "record":
        record = {
            "base_size": plan.base_size,
            "target_side": plan.target_side,
            "scale": plan.scale,
            "levels": [
                {
                    "index": lv.index,
                    "resized_side": lv.resized_side,
                    "grid": lv.grid,
                    "tiles": lv.grid**2,
                    "overlap_px": lv.overlap_px,
                    "cls_only": lv.cls_only,
                }
                for lv in plan.levels
            ],
            "pyramid_units": report.pyramid_units,
            "naive_units": report.naive_units,
            "ratio": report.ratio,
        }
        print(json.dumps(record, sort_keys=True))
        return 0
    print(f"pyramid plan: base {plan.base_size}, target {plan.target_side}, "
          f"scale d = {plan.scale:g}")
    print(f"{'level':>5} {'resized':>8} {'grid':>5} {'tiles':>6} "
          f"{'overlap':>8} {'cls_only':>9}")
    for lv in plan.levels:
        print(f"{lv.index:>5} {lv.resized_side:>8} {lv.grid:>5} "
              f"{lv.grid**2:>6} {lv.overlap_px:>8} {str(lv.cls_only):>9}")
    print(f"total tiles: {plan.tile_count()}")
    print(f"pyramid units: {report.pyramid_units}  naive units: {report.naive_units}  "
          f"ratio: {report.ratio:.2f}")
    return 0


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    if args.manifest:
        cfg_dict, timestamp = _read_manifest(args.manifest, _FIELDS)
    else:
        cfg_dict = read_config_file(args.config) if args.config else {}
        cfg_dict.update((k, v) for k, v in vars(args).items()
                        if k in _FIELDS and v is not None)
        timestamp = _now()
    config = TrainConfig.from_dict(cfg_dict)
    ckpt = train(config)
    out_dir = _out_dir(args.out)
    ckpt_path = out_dir / "checkpoint.adds"
    loss_path = out_dir / "loss_log.txt"
    save_checkpoint(ckpt, ckpt_path)
    with atomic_open(loss_path) as fh:
        for epoch, loss in enumerate(ckpt.loss_history):
            fh.write(f"epoch {epoch} loss {loss:.10f}\n")
    _write_manifest(out_dir, "train", config.to_dict(), timestamp, _run_id(config.to_dict()),
                    {"seed": config.seed, "world_seed": config.world_seed},
                    {"checkpoint": str(ckpt_path), "loss_log": str(loss_path)})
    print(f"trained {config.epochs} epochs; final loss "
          f"{ckpt.loss_history[-1]:.6f}; wrote {ckpt_path}")
    return 0


# ---------------------------------------------------------------------------
# eval


# what each eval setting, from argv or a manifest, takes, and a test of a value
# (a JSON true is a bool, not an int)
_EVAL_SETTINGS = {
    "checkpoint": ("a string", lambda v: type(v) is str),
    "ks": ("a non-empty list of distinct ints >= 1",
           lambda v: type(v) is list and v and all(type(k) is int and k >= 1 for k in v)
           and len(set(v)) == len(v)),
    "vocab": ("null or a non-empty list of distinct strings",
              lambda v: v is None or type(v) is list and v and all(type(n) is str for n in v)
              and len(set(v)) == len(v)),
    "n_eval": ("an int >= 1", lambda v: type(v) is int and v >= 1),
    "eval_seed": ("an int", lambda v: type(v) is int),
}


def cmd_eval(args) -> int:
    if args.manifest:
        settings, timestamp = _read_manifest(args.manifest, _EVAL_SETTINGS)
        where = f"manifest {args.manifest}: "
    else:
        settings = {
            "checkpoint": args.checkpoint,
            "ks": sorted(set(args.k)) if args.k else list(F1_CUTOFFS),
            "vocab": None if args.vocab is None else _read_vocab(args.vocab),
            "n_eval": N_EVAL if args.n_eval is None else args.n_eval,
            "eval_seed": EVAL_SEED if args.eval_seed is None else args.eval_seed,
        }
        timestamp, where = _now(), ""
    for key, (takes, ok) in _EVAL_SETTINGS.items():
        if not ok(settings[key]):
            raise ConfigurationError(f"{where}{key} must be {takes}, got {settings[key]!r}")
    scores, labels, vocab = evaluation_scores(
        load_checkpoint(settings["checkpoint"]),
        vocab=settings["vocab"],
        n_eval=settings["n_eval"],
        eval_seed=settings["eval_seed"],
    )
    report = metrics_report(scores, labels, settings["ks"])
    out_dir = _out_dir(args.out)
    record = {"run_id": _run_id(settings), "mAP": round(report.map, 6)}
    for k in settings["ks"]:
        record[f"f1@{k}"] = round(report.f1_at[k], 6)
    record["timestamp"] = timestamp
    metrics_path = out_dir / "metrics.jsonl"
    with atomic_open(metrics_path) as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    _write_manifest(out_dir, "eval", settings, timestamp, record["run_id"],
                    {"eval_seed": settings["eval_seed"]}, {"metrics": str(metrics_path)})
    if args.format == "record":
        print(json.dumps(record, sort_keys=True))
    else:
        print(f"vocabulary: {len(vocab)} labels, {report.n_samples} images")
        print(f"mAP: {report.map:.4f}")
        for k in settings["ks"]:
            print(f"F1@{k}: {report.f1_at[k]:.4f}")
    return 0


# ---------------------------------------------------------------------------
# gradcheck


def cmd_gradcheck(args) -> int:
    if args.self_test:
        if args.dims is not None or args.depth is not None:
            raise ConfigurationError("--dims and --depth do not apply to --self-test")
        theta = Tensor(SeedStreams(3).stream("theta").standard_normal((4, 4)),
                       trainable=True)
        params, threshold = [theta], 1e-9

        def loss_fn():  # 0.5 * sum(theta ** 2), whose gradient is theta
            return scale(mean_all(mul(theta, theta)), 0.5 * theta.value.size)
    else:
        loss_fn, params = decoder_gradcheck_loss(8 if args.dims is None else args.dims,
                                                 1 if args.depth is None else args.depth,
                                                 args.corrupt_gradient)
        threshold = 1e-4
    err = grad_check(loss_fn, params, eps=args.eps)
    print(f"max relative gradient error: {err:.3e} (threshold {threshold:g})")
    if err >= threshold:
        print("error: analytic and numeric gradients differ", file=sys.stderr)
    return int(err >= threshold)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adds",
        description="Dual-modal decoder pipeline over a synthetic aligned world",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="print a pyramid tiling plan and its cost")
    p.add_argument("--base-size", type=int, required=True)
    p.add_argument("--target-size", type=int, required=True)
    p.add_argument("--levels", help="comma-separated level indices (default all)")
    p.add_argument("--cls-only", action="store_true",
                   help="keep only CLS tokens on non-bottom levels")
    p.add_argument("--format", choices=("text", "record"), default="text")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("train", help="train on the synthetic world")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--manifest", help="rerun from a previous run manifest")
    p.add_argument("--out", help=f"output dir (default ${OUT_DIR_ENV} or cwd)")
    for f in _FIELDS.values():
        if f.metadata.get("flag"):
            p.add_argument("--" + f.name.replace("_", "-"), type=f.type,
                           choices=f.metadata["choices"])
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=False)
    p.add_argument("--manifest", help="rerun from a previous run manifest")
    p.add_argument("--k", action="append", type=int, help="F1@k cutoff; repeatable "
                   f"(default {' and '.join(map(str, F1_CUTOFFS))})")
    p.add_argument("--vocab",
                   help="comma-separated label names, or a file with one per line")
    p.add_argument("--n-eval", dest="n_eval", type=int, help=f"default {N_EVAL}")
    p.add_argument("--eval-seed", dest="eval_seed", type=int, help=f"default {EVAL_SEED}")
    p.add_argument("--out", help=f"output dir (default ${OUT_DIR_ENV} or cwd)")
    p.add_argument("--format", choices=("text", "record"), default="text")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--dims", type=int, help="default 8; not with --self-test")
    p.add_argument("--depth", type=int, help="default 1; not with --self-test")
    p.add_argument("--eps", type=float, default=1e-5)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--self-test", action="store_true",
                       help="check a quadratic with a known gradient")
    which.add_argument("--corrupt-gradient", action="store_true",
                       help="debug: deliberately break the analytic gradient")
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "eval" and not args.manifest and not args.checkpoint:
        print("error: eval needs --checkpoint or --manifest", file=sys.stderr)
        return 2
    # a rerun replays its manifest's settings, so it takes no option that sets one
    allowed = {"command", "func", "manifest", "out", "format"}
    ignored = [k for k, v in vars(args).items() if v is not None and k not in allowed]
    if getattr(args, "manifest", None) and ignored:
        name = ignored[0].replace("_", "-")
        print(f"error: --{name} cannot be combined with --manifest", file=sys.stderr)
        return 2
    # an overflow or NaN is reported by the explicit check that meets it, as
    # one error line; numpy's warnings would print ahead of it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            return args.func(args)
        # FormatError, ConfigurationError and ShapeError are ValueErrors
        except (ValueError, NumericError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
