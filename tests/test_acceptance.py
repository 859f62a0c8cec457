"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line for its criterion. Seeds, the
small-world training configuration, and the thresholds below were frozen
after a single reference run and must not be tuned per invocation.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from reference import ref_bce, ref_dm_block, ref_f1_at_k, ref_map

from adds.cli import main
from adds.decoder import classify, init_head, init_stack, stack_forward
from adds.metrics import f1_at_k, mean_average_precision
from adds.optim import grad_check
from adds.pyramid import build_plan, cost_report
from adds.rng import SeedStreams
from adds.supervision import AslConfig, asl_loss, asl_loss_node, select_labels
from adds.tensor import Tensor
from adds.training import TrainConfig, open_vocab_report, train

# frozen small-world configuration for the open-vocabulary run
RUN_BASE = dict(classes=16, n_seen=12, image_side=64, base_size=32,
                embed_dim=16, epochs=5, n_train=1000, lr=5e-3,
                noise_std=0.3, ffn_hidden=16)
RUN_SEEDS = (1, 2, 5)
EVAL_SEED = 1234
N_EVAL = 200


def report(name, passed, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: {'PASS' if passed else 'FAIL'}{suffix}")
    assert passed, f"{name} failed{suffix}"


def test_a1_block_fidelity():
    t0 = time.time()
    streams = SeedStreams(101)
    stack = init_stack(streams.stream("init"), depth=1, embed_dim=4, heads=1,
                       dropout_rate=0.0, dtype=np.float64)
    g = streams.stream("data")
    q = g.standard_normal((1, 4))
    kv = g.standard_normal((2, 4))
    from adds.decoder import dm_block_forward

    q_out, k_out, v_out = dm_block_forward(
        Tensor(q), Tensor(kv), Tensor(kv), stack.blocks[0], heads=1
    )
    rq, _, rv = ref_dm_block(q, kv, kv, stack.blocks[0], heads=1)
    fidelity = (np.max(np.abs(q_out.value - rq)) < 1e-10
                and np.max(np.abs(v_out.value - rv)) < 1e-10)

    kv_identity = True
    for i in range(100):
        inst = SeedStreams(1000 + i)
        st = init_stack(inst.stream("init"), depth=1, embed_dim=4, heads=1,
                        dropout_rate=0.0, dtype=np.float64)
        d = inst.stream("data")
        qq = d.standard_normal((2, 4))
        vv = d.standard_normal((3, 4))
        _, k2, v2 = dm_block_forward(Tensor(qq), Tensor(vv), Tensor(vv),
                                     st.blocks[0], heads=1)
        if k2 is not v2 or not np.array_equal(k2.value, v2.value):
            kv_identity = False
            break
    elapsed = time.time() - t0
    report("block-fidelity", fidelity and kv_identity and elapsed < 1.0,
           f"{elapsed:.2f}s")


def test_a2_gradient_suite():
    t0 = time.time()
    streams = SeedStreams(202)
    stack = init_stack(streams.stream("init"), depth=2, embed_dim=6, heads=2,
                       dropout_rate=0.0, dtype=np.float64)
    head = init_head(streams.stream("head"), 6, dtype=np.float64)
    g = streams.stream("data")
    q0 = g.standard_normal((2, 6))
    kv = g.standard_normal((4, 6))
    y = np.array([1, 0])
    cfg = AslConfig()
    params = [t for _, t in stack.tensors()] + [t for _, t in head.tensors()]

    def loss_fn():
        q = stack_forward(Tensor(q0), Tensor(kv), stack, training=False)
        return asl_loss_node(classify(q, head), y, cfg)

    err = grad_check(loss_fn, params)
    elapsed = time.time() - t0
    report("gradient-suite", err < 1e-4 and elapsed < 30.0,
           f"max rel err {err:.2e}, {elapsed:.1f}s")


def test_a3_pyramid_cost():
    t0 = time.time()
    rep = cost_report(build_plan(336, 1344))
    ok = (rep.per_level_tiles == {0: 1, 1: 4, 2: 16}
          and rep.pyramid_units == 21 and rep.naive_units == 256)
    for d in (1, 2, 4, 8, 16):
        plan = build_plan(32, 32 * d)
        units = cost_report(plan).pyramid_units
        ok = ok and units == sum(lv.grid**2 for lv in plan.levels)
    elapsed = time.time() - t0
    report("pyramid-cost", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_a4_tile_geometry():
    t0 = time.time()
    g = SeedStreams(404).stream("geometry")
    ok = True
    for _ in range(200):
        base = int(g.integers(8, 512))
        target = int(g.integers(base, 8 * base + 1))
        plan = build_plan(base, target)
        d = target / base
        for lv in plan.levels:
            n = lv.grid
            if n != math.ceil(min(2.0**lv.index, d)):
                ok = False
            if len(lv.offsets) != n:
                ok = False
            xs = sorted(set(lv.offsets))
            if xs[0] != 0 or xs[-1] != lv.resized_side - base:
                ok = False
            if n > 2 and len(set(np.diff(xs)[:-1])) != 1:
                ok = False
            covered = np.zeros(lv.resized_side, dtype=bool)
            for x in xs:
                covered[x:x + base] = True
            if not covered.all():
                ok = False
        if not ok:
            break
    elapsed = time.time() - t0
    report("tile-geometry", ok and elapsed < 10.0, f"{elapsed:.1f}s")


def test_a5_selection_law():
    t0 = time.time()
    stream = SeedStreams(505).stream("law")
    ok = True
    for k in range(1, 13):
        for bits in range(2**k):
            labels = np.array([[(bits >> j) & 1 for j in range(k)]])
            n_pos = int(labels.sum())
            for alpha in (0, 1, 3):
                sel = select_labels(labels, alpha, stream)
                expected = n_pos + min(alpha * n_pos, k - n_pos)
                if len(sel.selected) != expected:
                    ok = False

    # uniformity of negative sampling under a frozen stream
    labels = np.zeros((1, 20), dtype=int)
    labels[0, :4] = 1
    uni_stream = SeedStreams(0).stream("uniformity")
    draws = 10_000
    counts = np.zeros(20)
    for _ in range(draws):
        counts[select_labels(labels, 1, uni_stream).sampled_negatives] += 1
    p = 4 / 16
    bound = 3 * np.sqrt(draws * p * (1 - p))
    max_dev = np.abs(counts[4:] - draws * p).max()
    uniform = max_dev <= bound
    elapsed = time.time() - t0
    report("selection-law", ok and uniform and elapsed < 30.0,
           f"max dev {max_dev:.0f} vs bound {bound:.0f}, {elapsed:.1f}s")


def test_a6_metric_oracles():
    t0 = time.time()
    ok = True
    # exhaustive label patterns wherever enumeration is tractable
    for n, c in itertools.product(range(1, 7), range(1, 7)):
        g = SeedStreams(6000 + 10 * n + c).stream("scores")
        if n * c <= 12:
            patterns = (np.array(bits).reshape(n, c)
                        for bits in itertools.product([0, 1], repeat=n * c))
        else:
            patterns = (g.integers(0, 2, size=(n, c)) for _ in range(200))
        scores = np.round(g.uniform(0, 1, size=(n, c)) * 8) / 8
        for labels in patterns:
            if abs(mean_average_precision(scores, labels)[0]
                   - ref_map(scores, labels)) > 1e-12:
                ok = False
            for k in range(1, c + 1):
                if abs(f1_at_k(scores, labels, k)
                       - ref_f1_at_k(scores, labels, k)) > 1e-12:
                    ok = False
    elapsed = time.time() - t0
    report("metric-oracles", ok and elapsed < 60.0, f"{elapsed:.1f}s")


@pytest.mark.slow
def test_a7_open_vocabulary_run():
    t0 = time.time()
    ok_seen = ok_unseen = ok_trend = True
    details = []
    for seed in RUN_SEEDS:
        reports = {}
        for name, kind, depth in (("dm6", "dual_modal", 6), ("dm1", "dual_modal", 1),
                                  ("bl6", "baseline", 6)):
            ck = train(TrainConfig(seed=seed, depth=depth, kind=kind, **RUN_BASE))
            reports[name] = open_vocab_report(ck, n_eval=N_EVAL, eval_seed=EVAL_SEED)
        maps = {name: r["decoder"] for name, r in reports.items()}
        cos_unseen = reports["dm6"]["cosine"]["unseen"]
        ok_seen &= maps["dm6"]["seen"] >= 0.90
        ok_unseen &= maps["dm6"]["unseen"] > cos_unseen
        ok_trend &= (maps["dm6"]["all"] >= maps["dm1"]["all"]
                     and maps["dm6"]["all"] >= maps["bl6"]["all"])
        details.append(f"seed {seed}: seen {maps['dm6']['seen']:.3f}, "
                       f"unseen {maps['dm6']['unseen']:.3f} vs cos {cos_unseen:.3f}")
    elapsed = time.time() - t0
    report("open-vocabulary-run",
           ok_seen and ok_unseen and ok_trend and elapsed < 600.0,
           "; ".join(details) + f"; {elapsed:.0f}s")


@pytest.mark.slow
def test_a8_determinism(tmp_path, capsys):
    cfg_text = "\n".join(
        f"{k} = {v}" for k, v in dict(
            classes=8, n_seen=6, image_side=32, base_size=32, embed_dim=8,
            depth=1, ffn_hidden=16, epochs=3, n_train=16, lr=0.005, seed=3,
        ).items()
    )
    cfg_path = tmp_path / "d.cfg"
    cfg_path.write_text(cfg_text + "\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(cfg_path), "--out", str(a)]) == 0
    assert main(["train", "--manifest", str(a / "run_manifest.json"),
                 "--out", str(b)]) == 0
    same_ckpt = ((a / "checkpoint.adds").read_bytes()
                 == (b / "checkpoint.adds").read_bytes())
    same_loss = ((a / "loss_log.txt").read_bytes()
                 == (b / "loss_log.txt").read_bytes())

    ea, eb = tmp_path / "ea", tmp_path / "eb"
    assert main(["eval", "--checkpoint", str(a / "checkpoint.adds"),
                 "--out", str(ea), "--n-eval", "8"]) == 0
    assert main(["eval", "--manifest", str(ea / "run_manifest.json"),
                 "--out", str(eb)]) == 0
    same_metrics = ((ea / "metrics.jsonl").read_bytes()
                    == (eb / "metrics.jsonl").read_bytes())
    capsys.readouterr()

    import dataclasses

    cfg = TrainConfig(classes=8, n_seen=6, image_side=32, base_size=32,
                      embed_dim=8, depth=1, ffn_hidden=16, epochs=3,
                      n_train=16, lr=0.005, seed=3)
    full = train(cfg)
    half = train(dataclasses.replace(cfg, epochs=1))
    resumed = train(cfg, resume=half)
    same_resume = (full.loss_history == resumed.loss_history and all(
        np.array_equal(full.weights[k], resumed.weights[k])
        for k in full.weights
    ))
    report("determinism",
           same_ckpt and same_loss and same_metrics and same_resume)


def test_a9_loss_reduction():
    g = SeedStreams(909).stream("pairs")
    p = g.uniform(0.0, 1.0, size=10_000)
    y = g.integers(0, 2, size=10_000)
    cfg = AslConfig(gamma_pos=0.0, gamma_neg=0.0, margin=0.0)
    value, _ = asl_loss(p, y, cfg)
    diff = abs(value - ref_bce(p, y))
    report("loss-reduction", diff < 1e-12, f"|ASL - BCE| = {diff:.1e}")
