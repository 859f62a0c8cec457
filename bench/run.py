"""Benchmark of the adds training and evaluation paths.

Run from the repository root:

    python3 bench/run.py --workload train-a7 --seed 1 --seconds 30 --trace 0

One workload runs per process, as a single closed-loop caller. The run sets
up, makes one untimed reference pass at fixed seeds, then for ``--seconds``
seconds repeats set-up followed by the workload's timed iteration with
seed-derived inputs. Each timing is scaled to a reference host speed by the
calibration slices around it (see calibrate.py) and reported as the median
over the run. Every output is checked; a failed check makes the run exit 1.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``. bench/README.md
describes the workloads and what each metric should move.
"""

import os

# Pin BLAS to one thread before numpy loads. The workloads are one caller
# doing small-matrix work, which extra BLAS threads do not speed up; on a
# 2-core host they would only contend with the caller and add noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402

sys.dont_write_bytecode = True  # leave no caches behind in the checkout

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import oracle  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("adds", "adds.training", "adds.decoder", "adds.tensor", "adds.encoders",
           "adds.checkpoint", "adds.metrics", "adds.rng")

# RUN_BASE of the a7 acceptance test, at its dual-modal depth-6 setting
A7_BASE = dict(classes=16, n_seen=12, image_side=64, base_size=32, embed_dim=16,
               heads=2, ffn_hidden=16, noise_std=0.3, lr=5e-3, batch_size=8,
               dtype="float32", depth=6, kind="dual_modal")
# The quality metrics come from one reference model per run, trained at a
# fixed seed and scored on a fixed eval set. At these short training lengths
# mAP varies by 20-40% (IQR / median) between training seeds, far above any
# usable bound, so a seed-dependent mAP could not flag a regression.
REF_SEED = 1
EVAL_SEED = 1234
N_REF_EVAL = 64
N_ORACLE = 3  # eval images per run whose scores are recomputed by oracle.py
ORACLE_ATOL = 1e-4  # float32 round-off over six blocks stays below 1e-5
MIN_ITERS = 3


@dataclass(frozen=True)
class Workload:
    config: dict  # TrainConfig fields on top of A7_BASE
    n_eval: int  # images per timed evaluation_scores call
    train_in_setup: bool = False  # the model is a set-up fixture; only eval is timed


WORKLOADS = {
    "train-a7": Workload(dict(n_train=64, epochs=2), n_eval=128),
    "eval-hires": Workload(dict(image_side=240, n_train=8, epochs=2), n_eval=32,
                           train_in_setup=True),
    "vocab-600": Workload(dict(classes=600, n_seen=560, n_train=32, epochs=2), n_eval=16),
}


def load_program():
    """Import adds from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "adds" / "__init__.py").is_file():
        raise SystemExit(f"error: no program at {src / 'adds'}; run from a checkout")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(name) for name in MODULES}
    if Path(mods["adds"].__file__).resolve().parent != src / "adds":
        raise SystemExit(f"error: imported adds from {mods['adds'].__file__}, not {src}")
    return mods


def machine() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    threads = None
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*blas*")):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": threads if threads is not None else os.environ["OPENBLAS_NUM_THREADS"],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Bench:
    """One workload's calls into the program, each followed by its checks."""

    def __init__(self, mods, workload: Workload, out_dir: Path):
        self.m = mods
        self.w = workload
        self.out = out_dir
        self.attempted = 0
        self.failures = []
        self.tracer = None  # set while traced work runs

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def config(self, seed):
        return self.m["adds.training"].TrainConfig(seed=seed, **{**A7_BASE, **self.w.config})

    def phase(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()

    @contextmanager
    def tracing(self, tracer):
        with tracer.installed():
            self.tracer = tracer
            try:
                yield
            finally:
                self.tracer = None

    def timed(self, fn, *args):
        """Call fn between two calibration readings. Returns (result, seconds,
        slowdown of the host relative to the reference speed)."""
        before = calibrate.slowdown()
        t0 = perf_counter()
        out = fn(*args)
        dt = perf_counter() - t0
        return out, dt, (before + calibrate.slowdown()) / 2

    def _train(self, cfg, world):
        if self.tracer:
            self.tracer.train_call_started()
            nodes = self.tracer.nodes_created
        with self.phase("phase.train"):
            ckpt = self.m["adds.training"].train(cfg, world=world)
        if self.tracer:
            self.tracer.counts["nodes_per_image"].append(
                (self.tracer.nodes_created - nodes) / (cfg.n_train * cfg.epochs))
        losses = ckpt.loss_history
        self.check(len(losses) == cfg.epochs and np.isfinite(losses).all()
                   and losses[-1] < losses[0],
                   f"train seed {cfg.seed}: epoch losses {losses} not finite and falling")
        return ckpt

    def _evaluate(self, ckpt, vocab, n_eval, eval_seed):
        """evaluation_scores plus its metrics report; returns (scores, labels)."""
        with self.phase("phase.eval"):
            scores, labels, _ = self.m["adds.training"].evaluation_scores(
                ckpt, vocab=vocab, n_eval=n_eval, eval_seed=eval_seed)
            self.m["adds.metrics"].metrics_report(scores, labels)
        self.check(scores.shape == (n_eval, len(vocab)) and np.isfinite(scores).all()
                   and scores.min() >= 0.0 and scores.max() <= 1.0,
                   f"eval seed {eval_seed}: scores {scores.shape} not finite in [0, 1]")
        return scores, labels

    def roundtrip(self, ckpt):
        """save -> load -> save must give identical bytes; returns the loaded one."""
        cp = self.m["adds.checkpoint"]
        first, second = self.out / "first.adds", self.out / "second.adds"
        cp.save_checkpoint(ckpt, first)
        loaded = cp.load_checkpoint(first)
        cp.save_checkpoint(loaded, second)
        data = first.read_bytes()
        self.check(data == second.read_bytes(), "checkpoint save -> load -> save differs")
        if self.tracer:
            self.tracer.counts["checkpoint_bytes"].append(len(data))
        return loaded

    def set_up(self):
        """Build the world, and for an eval workload the model fixture.
        Returns (world, fixture, {metric: (value, slowdown)})."""
        cfg = self.config(REF_SEED)

        def work():
            with self.phase("phase.setup"):
                world = self.m["adds.training"].build_world(cfg)
                if not self.w.train_in_setup:
                    return world, None, None
                t0 = perf_counter()
                ckpt = self._train(cfg, world)
                train_s = perf_counter() - t0
                return world, self.roundtrip(ckpt), train_s

        (world, ckpt, train_s), dt, slowdown = self.timed(work)
        stats = {"setup_s": (dt, slowdown)}
        if train_s is not None:
            stats["train_img_s"] = (cfg.n_train * cfg.epochs / train_s, slowdown)
        return world, ckpt, stats

    def reference(self, world, ckpt):
        """Untimed pass at fixed seeds: quality metrics and the oracle check."""
        training = self.m["adds.training"]
        cfg = self.config(REF_SEED)
        if ckpt is None:
            ckpt = self.roundtrip(self._train(cfg, world))
        names = world.class_names
        scores, labels = self._evaluate(ckpt, names, N_REF_EVAL, EVAL_SEED)
        seen, unseen = training.open_vocab_split(names, cfg.n_seen)
        mean_ap = self.m["adds.metrics"].mean_average_precision

        def group_map(group):
            cols = [names.index(n) for n in group]
            return mean_ap(scores[:, cols], labels[:, cols])[0]

        self.check_oracle(ckpt, world, names, scores[:N_ORACLE])
        quality = {"final_loss": ckpt.loss_history[-1],
                   "map_seen": group_map(seen), "map_unseen": group_map(unseen)}
        return ckpt, quality

    def check_oracle(self, ckpt, world, vocab, scores):
        training = self.m["adds.training"]
        cfg = training.TrainConfig.from_dict(ckpt.config)
        plan = training.build_pyramid_plan(cfg)
        q0 = training.label_queries(world, vocab, cfg.np_dtype)
        stream = self.m["adds.rng"].SeedStreams(EVAL_SEED).stream("eval_data")
        for i, (image, _) in enumerate(world.sample_many(stream, len(scores))):
            kv = training.encode_image(world, plan, image, cfg.np_dtype)
            err = np.max(np.abs(oracle.scores(ckpt.weights, ckpt.config, q0, kv) - scores[i]))
            self.check(err <= ORACLE_ATOL,
                       f"eval image {i}: scores differ from the numpy oracle by {err:.2e}")

    def iteration(self, world, fixture, seed):
        """One timed unit of work. Returns {metric: (rate, slowdown)}."""
        names = world.class_names
        stats = {}
        ckpt = fixture
        if not self.w.train_in_setup:
            cfg = self.config(seed)
            ckpt, dt, slowdown = self.timed(self._train, cfg, world)
            stats["train_img_s"] = (cfg.n_train * cfg.epochs / dt, slowdown)
            ckpt = self.roundtrip(ckpt)
        _, dt, slowdown = self.timed(self._evaluate, ckpt, names, self.w.n_eval, seed)
        stats["eval_img_s"] = (self.w.n_eval / dt, slowdown)
        return stats


def measure(bench, seed, seconds, iterations=None):
    """Set up, make the reference pass, then run timed iterations for
    ``seconds`` (or exactly ``iterations``), each after a fresh set-up.

    Set-up is repeated inside the loop, not before it, so that its median
    sees the same host speed as the iterations. Every timed call is scaled
    to the reference host speed by the calibration slices around it.
    Returns (end-to-end metrics, unscaled timing medians, seeds used, world,
    model fixture).
    """
    raw, scaled = defaultdict(list), defaultdict(list)
    world, fixture, _ = bench.set_up()
    fixture, values = bench.reference(world, fixture)
    rng = np.random.default_rng(seed)
    seeds = []
    t_end = perf_counter() + seconds
    while (len(seeds) < iterations if iterations is not None
           else len(seeds) < MIN_ITERS or perf_counter() < t_end):
        seeds.append(int(rng.integers(1, 2**31 - 1)))
        stats = bench.set_up()[2]
        stats.update(bench.iteration(world, fixture, seeds[-1]))
        for k, (v, slowdown) in stats.items():
            raw[k].append(v)
            # setup_s is a time, the others are rates
            scaled[k].append(v / slowdown if k == "setup_s" else v * slowdown)
    values.update({k: statistics.median(v) for k, v in scaled.items()})
    values["peak_rss_mb"] = peak_rss_mb()
    return values, {k: statistics.median(v) for k, v in raw.items()}, seeds, world, fixture


def traced_counts(bench, tracer, world, fixture, seed):
    """Counts of one traced iteration: the determinism self-check compares two."""
    marks = {k: len(v) for k, v in tracer.counts.items()}
    nodes = tracer.nodes_created
    with bench.tracing(tracer):
        bench.iteration(world, fixture, seed)
    out = {k: v[marks.get(k, 0):] for k, v in tracer.counts.items()}
    out["nodes"] = tracer.nodes_created - nodes
    return out


def _median(xs, scale=1.0):
    return statistics.median(xs) * scale if xs else 0.0


def _mean(xs):
    return statistics.fmean(xs) if xs else 0.0


def layer_metrics(tracer) -> dict:
    d, s, c = tracer.durations, tracer.self_times, tracer.counts
    out = {
        "tensor.backward_us": _median(d["tensor.backward"], 1e6),
        "tensor.nodes_per_image": _mean(c["nodes_per_image"]),
        "tensor.reachable_frac": _mean(c["reachable_frac"]),
        "decoder.forward_train_us": _median(d["decoder.forward_train"], 1e6),
        "decoder.forward_eval_us": _median(d["decoder.forward_eval"], 1e6),
        "decoder.attn_t2v_us": _median(d["decoder.attn_t2v"], 1e6),
        "decoder.attn_v2t_us": _median(d["decoder.attn_v2t"], 1e6),
        "decoder.layer_norm_us": _median(d["decoder.layer_norm"], 1e6),
        "decoder.ffn_us": _median(d["decoder.ffn"], 1e6),
        "decoder.classify_us": _median(d["decoder.classify"], 1e6),
        "decoder.query_rows": _mean(c["query_rows"]),
        "decoder.kv_rows": _mean(c["kv_rows"]),
        "pyramid.extract_tiles_us": _median(d["pyramid.extract_tiles"], 1e6),
        "pyramid.encode_and_stack_us": _median(d["pyramid.encode_and_stack"], 1e6),
        "pyramid.tiles": _mean(c["tiles"]),
        "encoders.encode_tile_us": _median(d["encoders.encode_tile"], 1e6),
        "encoders.sample_us": _median(d["encoders.sample"], 1e6),
        "encoders.world_build_ms": _median(d["encoders.world_build"], 1e3),
        "supervision.select_labels_us": _median(d["supervision.select_labels"], 1e6),
        "supervision.selected_labels": _mean(c["selected_labels"]),
        "supervision.asl_us": _median(d["supervision.asl"], 1e6),
        "optim.adam_step_us": _median(d["optim.adam_step"], 1e6),
        "optim.params": _mean(c["params"]),
        "metrics.report_ms": _median(d["metrics.report"], 1e3),
        "checkpoint.save_ms": _median(d["checkpoint.save"], 1e3),
        "checkpoint.load_ms": _median(d["checkpoint.load"], 1e3),
        "checkpoint.bytes": _mean(c["checkpoint_bytes"]),
        "training.train_self_ms": _median(s["phase.train"], 1e3),
        "training.label_queries_ms": _median(d["training.label_queries"], 1e3),
        "training.restore_model_ms": _median(d["training.restore_model"], 1e3),
    }
    # share of train()/evaluation_scores time inside some wrapped layer; the
    # graph walks behind reachable_frac are the tracer's own work
    phases = ("phase.train", "phase.eval")
    total = sum(sum(d[p]) for p in phases) - sum(d["trace.walk"])
    uncovered = sum(sum(s[p]) for p in phases)
    out["trace.coverage"] = (total - uncovered) / total if total > 0 else 0.0
    return out


def run(mods, name, seed, seconds, trace, out_dir):
    bench = Bench(mods, WORKLOADS[name], out_dir)
    if not trace:
        values, raw, seeds, _, _ = measure(bench, seed, seconds)
        return bench, values, raw, len(seeds), set()

    # Untraced half, then a traced half over the same inputs: the difference
    # of the two is the tracing overhead of each end-to-end metric.
    plain, raw, seeds, world, fixture = measure(bench, seed, seconds / 2)
    tracer = Tracer(mods)
    with bench.tracing(tracer):
        traced = measure(bench, seed, 0, iterations=len(seeds))[0]
    first = traced_counts(bench, tracer, world, fixture, seeds[0])
    again = traced_counts(bench, tracer, world, fixture, seeds[0])
    bench.check(first == again, "layer counts differ between two runs of one seed")
    values = layer_metrics(tracer)
    for k in plain:
        values[f"overhead.{k}"] = traced[k] - plain[k]
    return bench, values, raw, 2 * len(seeds) + 2, tracer.absent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    mods = load_program()
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]

    out_dir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        bench, values, raw, iters, absent = run(
            mods, args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()  # unless another run still uses it
        except OSError:
            pass

    print(json.dumps({"machine": machine()}))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{iters} timed iterations")
    for n in wanted:
        print(f"  {n:32s} {values[n]:14.6g} {units[n]}")
    for n, v in raw.items():
        print(f"  unscaled {n:23s} {v:14.6g} {units[n]} (host speed as measured)")
    for n in sorted(absent):
        print(f"  absent layer: {n} is not in the program; its metrics read 0")
    failed = len(bench.failures)
    for what in bench.failures:
        print(f"  FAILED: {what}")
    print(f"checks: {bench.attempted} attempted, {failed} failed, "
          f"failed_frac {failed / bench.attempted:.3g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in wanted},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
