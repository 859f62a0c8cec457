"""Command-line entry point: plan inspection, training, evaluation, gradient checks.

Every run writes a manifest (resolved settings, seeds, artifact paths) next to
its outputs; rerunning with ``--manifest`` reproduces the outputs bit-exactly.
Each artifact is replaced whole (``atomic_open``), never left half written.
Exit codes: 0 success, 1 validation/check failure, 2 usage error.
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
from .decoder import classify, init_head, init_stack, stack_forward
from .errors import ConfigurationError, FormatError, NumericError
from .checkpoint import load_checkpoint, save_checkpoint
from .metrics import metrics_report
from .optim import grad_check
from .pyramid import build_plan, cost_report
from .rng import SeedStreams
from .supervision import AslConfig, asl_loss_node
from .tensor import Tensor
from .training import (
    TrainConfig,
    evaluation_scores,
    field_rule,
    train,
)

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


def _write_manifest(out_dir: Path, manifest: dict) -> Path:
    path = out_dir / "run_manifest.json"
    with atomic_open(path) as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}


def _parse(kind, text: str):
    """A config-file value as the declared type ``kind``; ValueError or
    KeyError if the text is not one."""
    if kind is bool:
        return {"true": True, "false": False}[text.lower()]
    if kind == list[int]:
        return [int(x) for x in text.split(",") if x.strip()]
    return kind(text)


def read_config_file(path) -> dict:
    """Flat key = value config; keys mirror TrainConfig fields."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _FIELDS:
                raise ConfigurationError(f"unknown config key {key!r}")
            try:
                out[key] = _parse(_FIELDS[key].type, value)
            except (ValueError, KeyError):
                raise ConfigurationError(
                    f"{path}:{lineno}: {key} must be {field_rule(_FIELDS[key])}, "
                    f"got {value!r}") from None
    return out


def _read_manifest(path, keys=()) -> tuple[dict, str]:
    """(config, timestamp) of a run manifest; ``keys`` must be in its config."""
    try:
        manifest = json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"manifest {path} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        manifest = {}
    config, timestamp = manifest.get("config"), manifest.get("timestamp")
    if not isinstance(config, dict) or not isinstance(timestamp, str):
        raise FormatError(f"manifest {path} needs a config object and a timestamp")
    missing = [k for k in keys if k not in config]
    if missing:
        raise FormatError(f"manifest {path} config lacks {', '.join(missing)}")
    return config, timestamp


def _read_vocab(value: str) -> list[str]:
    path = Path(value)
    if path.is_file():
        return [line.strip() for line in path.read_text().splitlines() if line.strip()]
    return [x.strip() for x in value.split(",") if x.strip()]


# ---------------------------------------------------------------------------
# plan


def cmd_plan(args) -> int:
    try:
        levels = [int(x) for x in args.levels.split(",")] if args.levels else None
        plan = build_plan(
            args.base_size,
            args.target_size,
            selected_levels=levels,
            cls_only_non_bottom=args.cls_only,
        )
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
                    "tiles": len(lv.tiles),
                    "overlap_px": lv.overlap_px,
                    "cls_only": lv.cls_only,
                }
                for lv in plan.selected_levels()
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
    for lv in plan.selected_levels():
        print(f"{lv.index:>5} {lv.resized_side:>8} {lv.grid:>5} "
              f"{len(lv.tiles):>6} {lv.overlap_px:>8} {str(lv.cls_only):>9}")
    print(f"total tiles: {plan.tile_count()}")
    print(f"pyramid units: {report.pyramid_units}  naive units: {report.naive_units}  "
          f"ratio: {report.ratio:.2f}")
    return 0


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    try:
        if args.manifest:
            cfg_dict, timestamp = _read_manifest(args.manifest)
        else:
            cfg_dict = read_config_file(args.config) if args.config else {}
            cfg_dict.update((k, v) for k, v in vars(args).items()
                            if k in _FIELDS and v is not None)
            timestamp = _now()
        config = TrainConfig.from_dict(cfg_dict)
        ckpt = train(config)  # ConfigurationError: a world that cannot be built
        out_dir = _out_dir(args.out)
    except (ConfigurationError, FormatError, NumericError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ckpt_path = out_dir / "checkpoint.adds"
    loss_path = out_dir / "loss_log.txt"
    save_checkpoint(ckpt, ckpt_path)
    with atomic_open(loss_path) as fh:
        for epoch, loss in enumerate(ckpt.loss_history):
            fh.write(f"epoch {epoch} loss {loss:.10f}\n")
    _write_manifest(out_dir, {
        "tool_version": __version__,
        "subcommand": "train",
        "config": config.to_dict(),
        "seeds": {"seed": config.seed, "world_seed": config.world_seed},
        "timestamp": timestamp,
        "run_id": config.hash()[:16],
        "artifacts": {
            "checkpoint": str(ckpt_path),
            "loss_log": str(loss_path),
        },
    })
    print(f"trained {config.epochs} epochs; final loss "
          f"{ckpt.loss_history[-1]:.6f}; wrote {ckpt_path}")
    return 0


# ---------------------------------------------------------------------------
# eval


_EVAL_SETTINGS = ("checkpoint", "ks", "vocab", "n_eval", "eval_seed")


def cmd_eval(args) -> int:
    try:
        if args.manifest:
            settings, timestamp = _read_manifest(args.manifest, _EVAL_SETTINGS)
        else:
            settings = {
                "checkpoint": args.checkpoint,
                "ks": sorted(args.k) if args.k else [3, 5],
                "vocab": _read_vocab(args.vocab) if args.vocab else None,
                "n_eval": args.n_eval,
                "eval_seed": args.eval_seed,
            }
            timestamp = _now()
        scores, labels, vocab = evaluation_scores(
            load_checkpoint(settings["checkpoint"]),
            vocab=settings["vocab"],
            n_eval=settings["n_eval"],
            eval_seed=settings["eval_seed"],
        )
        bad = np.argwhere(~np.isfinite(scores))
        if len(bad):
            image, label = bad[0]
            raise NumericError(f"score of eval image {image} for label {vocab[label]!r} "
                               f"is {scores[image, label]}")
        report = metrics_report(scores, labels, settings["ks"])
        out_dir = _out_dir(args.out)
    except (ValueError, NumericError, OSError) as exc:  # FormatError etc. are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1

    run_id = hashlib.sha256(
        json.dumps(settings, sort_keys=True).encode()
    ).hexdigest()[:16]
    record = {"run_id": run_id, "mAP": round(report.map, 6)}
    for k in settings["ks"]:
        record[f"f1@{k}"] = round(report.f1_at[k], 6)
    record["timestamp"] = timestamp
    metrics_path = out_dir / "metrics.jsonl"
    with atomic_open(metrics_path) as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    _write_manifest(out_dir, {
        "tool_version": __version__,
        "subcommand": "eval",
        "config": settings,
        "seeds": {"eval_seed": settings["eval_seed"]},
        "timestamp": timestamp,
        "run_id": run_id,
        "artifacts": {"metrics": str(metrics_path)},
    })
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


def _decoder_gradcheck_loss(dims, depth, corrupt):
    streams = SeedStreams(7)
    stack = init_stack(streams.stream("init"), depth=depth, embed_dim=dims,
                       heads=1, kind="dual_modal", dropout_rate=0.0,
                       dtype=np.float64)
    head = init_head(streams.stream("head"), dims, dtype=np.float64)
    data = streams.stream("data")
    q0 = data.standard_normal((3, dims))
    kv = data.standard_normal((5, dims))
    y = np.array([1, 0, 1])
    cfg = AslConfig(gamma_pos=0.0, gamma_neg=4.0, margin=0.05)
    params = [t for _, t in stack.tensors()] + [t for _, t in head.tensors()]

    def loss_fn():
        q = stack_forward(Tensor(q0), Tensor(kv), stack, training=False)
        loss = asl_loss_node(classify(q, head), y, cfg)
        if corrupt:
            # value depends on a weight but the gradient path is dropped
            extra = 1e-2 * float(np.sum(params[0].value))
            inner = loss

            def backward(g):
                inner.grad += g

            loss = Tensor(loss.value + extra, _parents=(inner,), _backward=backward)
        return loss

    return loss_fn, params


def cmd_gradcheck(args) -> int:
    try:
        if args.self_test:
            streams = SeedStreams(3)
            theta = Tensor(streams.stream("theta").standard_normal((4, 4)),
                           trainable=True)

            def loss_fn():
                from .tensor import mean_all, mul, scale

                n = theta.value.size
                return scale(mean_all(mul(theta, theta)), 0.5 * n)

            err = grad_check(loss_fn, [theta], eps=args.eps)
            threshold = 1e-9
        else:
            loss_fn, params = _decoder_gradcheck_loss(args.dims, args.depth,
                                                      args.corrupt_gradient)
            err = grad_check(loss_fn, params, eps=args.eps)
            threshold = 1e-4
    except (ConfigurationError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
    p.add_argument("--k", action="append", type=int,
                   help="F1@k cutoff; repeatable (default 3 and 5)")
    p.add_argument("--vocab",
                   help="comma-separated label names, or a file with one per line")
    p.add_argument("--n-eval", dest="n_eval", type=int, default=200)
    p.add_argument("--eval-seed", dest="eval_seed", type=int, default=1234)
    p.add_argument("--out", help=f"output dir (default ${OUT_DIR_ENV} or cwd)")
    p.add_argument("--format", choices=("text", "record"), default="text")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--dims", type=int, default=8)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--self-test", action="store_true",
                   help="check a quadratic with a known gradient")
    p.add_argument("--corrupt-gradient", action="store_true",
                   help="debug: deliberately break the analytic gradient")
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "eval" and not args.manifest and not args.checkpoint:
        print("error: eval needs --checkpoint or --manifest", file=sys.stderr)
        return 2
    # an overflow or NaN is reported by the explicit check that meets it, as
    # one error line; numpy's warnings would print ahead of it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
