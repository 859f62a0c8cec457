"""Digests of what the program computes, for a bit-identity check of a change.

Prints one JSON object, keys sorted, with no wall-clock field: so two trees
that compute the same bits print the same bytes. Every value is a sha-256
hex digest of:

    runs   per bench workload (its config read from bench/run.py), at seeds 1
           and 7 in float32 and seed 1 in float64: the checkpoint bytes, the
           loss history, the scores and labels of evaluation_scores over every
           class and over the seen classes, and the open_vocab_report dict
    draws  40 eval_samples draws, images and labels, of worlds at 64, 112,
           240, 16 and 8 px (the last has one planting cell)
    plan   adds plan output, text and record form, for the pinned argument
           sets of tests/test_cli.py plus base 1, target 1024

Run from the repository root of each tree and compare:

    python experiments/identity.py > after.json
    diff before.json after.json

``--config JSON`` digests one TrainConfig (its fields on top of the bench's
a7 base) in place of the bench workloads, with ``--n-eval`` images per
evaluation; a small one runs in about a second.
"""

import os

# one BLAS thread, as the bench runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from adds import cli  # noqa: E402
from adds.checkpoint import save_checkpoint  # noqa: E402
from adds.encoders import make_synthetic_world  # noqa: E402
from adds.training import (  # noqa: E402
    TrainConfig,
    build_world,
    eval_samples,
    evaluation_scores,
    open_vocab_report,
    train,
)

RUNS = ((1, "float32"), (7, "float32"), (1, "float64"))  # (seed, dtype)
N_DRAWS = 40
DRAW_WORLDS = ((64, 32), (112, 32), (240, 32), (16, 16), (8, 8))  # (side, base)
PLAN_ARGS = ("336 1344", "32 240", "32 240 --levels 0,2 --cls-only", "100 346 --cls-only",
             "1 1024")


def sha(*parts) -> str:
    """Digest of bytes, strings and arrays (with their dtype and shape), in order."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, str):
            p = p.encode()
        if not isinstance(p, bytes):
            a = np.ascontiguousarray(p)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            p = a.tobytes()
        h.update(p)
    return h.hexdigest()


def bench_module():
    """bench/run.py, loaded by path: its workloads, a7 base and eval seed."""
    sys.path.insert(0, str(ROOT / "bench"))  # its sibling modules
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_digests(cfg: TrainConfig, n_eval: int, eval_seed: int) -> dict:
    world = build_world(cfg)
    ckpt = train(cfg, world=world)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.adds"
        save_checkpoint(ckpt, path)
        out = {"checkpoint": sha(path.read_bytes())}
    out["loss_history"] = sha(np.asarray(ckpt.loss_history, dtype=np.float64))
    for key, vocab in (("eval_all", world.class_names), ("eval_seen", None)):
        scores, labels, _ = evaluation_scores(ckpt, vocab=vocab, n_eval=n_eval,
                                              eval_seed=eval_seed)
        out[key] = {"labels": sha(labels), "scores": sha(scores)}
    report = open_vocab_report(ckpt, n_eval=n_eval, eval_seed=eval_seed)
    out["open_vocab_report"] = sha(json.dumps(report, sort_keys=True))
    return out


def draw_digests() -> dict:
    out = {}
    for side, base in DRAW_WORLDS:
        world = make_synthetic_world(6, side, base, 8, seed=0, patch_size=8)
        images, labels = zip(*eval_samples(world, N_DRAWS, eval_seed=3))
        out[f"{side} px"] = {"images": sha(*images), "labels": sha(*labels)}
    return out


def plan_digests() -> dict:
    out = {}
    for args in PLAN_ARGS:
        base, target, *rest = args.split()
        for form in ("text", "record"):
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                code = cli.main(["plan", "--base-size", base, "--target-size", target,
                                 *rest, "--format", form])
            out[f"{args} {form}"] = sha(f"exit {code}\n", text.getvalue())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", type=json.loads, default=None,
                        help="TrainConfig fields as a JSON object, on top of the a7 base, "
                             "in place of the bench workloads")
    parser.add_argument("--n-eval", type=int, default=8,
                        help="images per evaluation of --config (default 8)")
    args = parser.parse_args(argv)
    bench = bench_module()
    if args.config is None:
        workloads = {name: (w.config, w.n_eval) for name, w in bench.WORKLOADS.items()}
    else:
        workloads = {"config": (args.config, args.n_eval)}
    runs = {}
    for name, (fields, n_eval) in workloads.items():
        for seed, dtype in RUNS:
            cfg = TrainConfig(**{**bench.A7_BASE, **fields, "seed": seed, "dtype": dtype})
            runs[f"{name} seed {seed} {dtype}"] = run_digests(cfg, n_eval, bench.EVAL_SEED)
    result = {"draws": draw_digests(), "plan": plan_digests(), "runs": runs}
    print(json.dumps(result, sort_keys=True, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
