import dataclasses
import hashlib
import importlib.util
import re
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from adds import cli, tensor, training
from adds.checkpoint import load_checkpoint, save_checkpoint
from adds.decoder import classify, stack_forward
from adds.encoders import SyntheticWorld
from adds.errors import ConfigurationError, NumericError
from adds.metrics import MetricsReport, mean_average_precision, metrics_report
from adds.pyramid import encode_and_stack, extract_tiles, resize_bilinear
from adds.rng import SeedStreams
from adds.tensor import Tensor
from adds.training import (
    TrainConfig,
    build_model,
    build_pyramid_plan,
    build_world,
    class_indices,
    cosine_baseline_scores,
    default_lr,
    eval_samples,
    evaluation_scores,
    label_queries,
    open_vocab_report,
    open_vocab_split,
    train,
)

TINY = dict(classes=8, n_seen=6, image_side=32, base_size=32, embed_dim=8,
            depth=2, ffn_hidden=16, epochs=2, n_train=24, lr=5e-3, seed=0)


def tiny_config(**overrides):
    kw = dict(TINY)
    kw.update(overrides)
    return TrainConfig(**kw)


class TestTrainConfig:
    def test_lr_resolves_from_resolution(self):
        assert default_lr(336) == 3e-4
        assert default_lr(337) == 1e-4
        assert TrainConfig(image_side=64, base_size=32).lr == 3e-4
        assert TrainConfig(image_side=448, base_size=224, patch_size=28,
                           n_seen=12).lr == 1e-4

    def test_explicit_lr_wins(self):
        assert TrainConfig(lr=0.5).lr == 0.5

    def test_hash_stable_and_sensitive(self):
        def run_id(config):
            return cli._run_id(config.to_dict())

        assert run_id(tiny_config()) == run_id(tiny_config())
        assert run_id(tiny_config()) != run_id(tiny_config(seed=1))

    def test_roundtrip_through_dict(self):
        cfg = tiny_config()
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            tiny_config(epochs=0)
        with pytest.raises(ConfigurationError):
            TrainConfig(classes=4, n_seen=5)
        # the world names its classes with two of 70 syllables
        TrainConfig(classes=4900, n_seen=12)
        with pytest.raises(ConfigurationError, match="4900"):
            TrainConfig(classes=4901, n_seen=12)
        # a numpy integer would not survive the JSON of run ids and checkpoints
        with pytest.raises(ConfigurationError, match="integer"):
            tiny_config(epochs=np.int64(2))
        for noise in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ConfigurationError, match="noise_std"):
                tiny_config(noise_std=noise)

    def test_float_fields_hold_python_floats(self):
        # lr = 1 and lr = 1.0 are one config, in memory and in the run id
        a, b = tiny_config(lr=1), tiny_config(lr=1.0)
        assert type(a.lr) is float and cli._run_id(a.to_dict()) == cli._run_id(b.to_dict())
        assert type(tiny_config(alpha=np.float32(0.5)).alpha) is float

    @pytest.mark.parametrize("name, value", [
        ("cls_only_non_bottom", "no"), ("cls_only_non_bottom", 1), ("alpha", True),
        ("alpha", float("nan")), ("gamma_pos", float("inf")), ("lr", "0.1"),
        ("lr", 10**400), ("pyramid_levels", [True]), ("pyramid_levels", (0,)),
        ("kind", ["baseline"]), ("dtype", "float16")])
    def test_declared_type_refused(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            tiny_config(**{name: value})

    def test_unknown_key_refused(self):
        with pytest.raises(ConfigurationError, match="not_a_field"):
            TrainConfig.from_dict({**TINY, "not_a_field": 1})


class TestOpenVocabSplit:
    def test_alphabetical_case_insensitive(self):
        seen, unseen = open_vocab_split(["Dog", "ant", "cat", "bee"], 2)
        assert seen == ["ant", "bee"]
        assert unseen == ["cat", "Dog"]

    def test_sizes(self):
        names = [f"c{i}" for i in range(10)]
        seen, unseen = open_vocab_split(names, 7)
        assert len(seen) == 7 and len(unseen) == 3
        assert sorted(seen + unseen, key=str.casefold) == sorted(
            names, key=str.casefold
        )

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            open_vocab_split(["a", "b", "a"], 1)

    def test_must_leave_unseen_classes(self):
        with pytest.raises(ValueError):
            open_vocab_split(["a", "b"], 2)


class TestTrain:
    def test_checkpoint_contents(self):
        cfg = tiny_config()
        ck = train(cfg)
        assert ck.epoch == cfg.epochs
        assert len(ck.loss_history) == cfg.epochs
        assert set(ck.weights) == set(ck.opt_m) == set(ck.opt_v)
        assert any(n.startswith("decoder.block0.") for n in ck.weights)
        assert "head.w" in ck.weights
        assert all(np.isfinite(v).all() for v in ck.weights.values())
        assert ck.opt_step > 0

    def test_deterministic(self):
        a = train(tiny_config())
        b = train(tiny_config())
        assert a.loss_history == b.loss_history
        for name in a.weights:
            np.testing.assert_array_equal(a.weights[name], b.weights[name])

    def test_loss_decreases_substantially(self):
        cfg = tiny_config(ffn_hidden=32, epochs=8, n_train=128, lr=1e-2)
        ck = train(cfg)
        assert ck.loss_history[-1] < 0.15 * ck.loss_history[0]

    def test_lr_zero_freezes_weights(self):
        from adds.training import build_model, named_parameters

        cfg = tiny_config(lr=0.0, epochs=1)
        ck = train(cfg)
        stack, head = build_model(cfg, SeedStreams(cfg.seed))
        for name, t in named_parameters(stack, head):
            np.testing.assert_array_equal(ck.weights[name], t.value)

    def test_resume_is_bit_exact(self):
        cfg = tiny_config(epochs=4)
        full = train(cfg)
        half = train(dataclasses.replace(cfg, epochs=2))
        assert_same_run(train(cfg, resume=half), full)

    def test_resumed_run_trains_through_the_flat_buffer(self, monkeypatch):
        # resume copies into the parameters in place, so every Adam step
        # still finds each value a view of the buffer and moves it
        cfg = tiny_config(epochs=4)
        half = train(dataclasses.replace(cfg, epochs=2))
        adam_step = training.adam_step
        moved = []

        def checked_step(params, state, *args):
            assert all(np.shares_memory(p.value, state.values) for p in params)
            before = state.values.copy()
            adam_step(params, state, *args)
            moved.append(not np.array_equal(before, state.values))

        monkeypatch.setattr(training, "adam_step", checked_step)
        resumed = train(cfg, resume=half)
        assert len(moved) == 2 * 3 and all(moved)
        assert resumed.loss_history[:2] == half.loss_history
        assert any(not np.array_equal(resumed.weights[n], half.weights[n])
                   for n in half.weights)

    def test_checkpoint_with_dead_blobs_loads_scores_and_resumes(self, tmp_path):
        # older checkpoint files also hold tensors that stack_forward never
        # reads (the last block's visual branch); they must stay loadable
        cfg = tiny_config(epochs=4)
        half_cfg = dataclasses.replace(cfg, epochs=2)
        half = train(half_cfg)
        stack, _ = build_model(half_cfg, SeedStreams(half_cfg.seed))
        dead = {f"decoder.block{i}.{n}": t.value
                for i, blk in enumerate(stack.blocks) for n, t in blk.tensors()
                if f"decoder.block{i}.{n}" not in half.weights}
        assert dead
        legacy = dataclasses.replace(
            half,
            weights={**half.weights, **dead},
            opt_m={**half.opt_m, **{n: np.zeros_like(a) for n, a in dead.items()}},
            opt_v={**half.opt_v, **{n: np.zeros_like(a) for n, a in dead.items()}},
        )
        save_checkpoint(half, tmp_path / "trimmed.adds")
        save_checkpoint(legacy, tmp_path / "legacy.adds")
        trimmed = load_checkpoint(tmp_path / "trimmed.adds")
        legacy = load_checkpoint(tmp_path / "legacy.adds")
        assert set(dead) <= set(legacy.weights)
        np.testing.assert_array_equal(evaluation_scores(legacy, n_eval=4)[0],
                                      evaluation_scores(trimmed, n_eval=4)[0])
        resumed = train(cfg, resume=legacy)
        assert_same_run(resumed, train(cfg))

    def test_float64_resume_through_file_is_bit_exact(self, tmp_path):
        cfg = tiny_config(depth=1, dtype="float64")
        full = train(cfg)
        save_checkpoint(train(dataclasses.replace(cfg, epochs=1)), tmp_path / "half.adds")
        resumed = train(cfg, resume=load_checkpoint(tmp_path / "half.adds"))
        assert resumed.weights["head.w"].dtype == np.float64
        assert_same_run(resumed, full)

    def test_selective_supervision_trains_and_resumes(self):
        # 6 seen labels above a threshold of 4: every batch scores only its
        # positives plus sampled negatives (batches of 8 hold every label)
        cfg = tiny_config(selection_threshold=4, alpha=0.5, batch_size=2)
        fresh = SeedStreams(cfg.seed)
        fresh.stream("selection")
        full = train(cfg)
        assert all(np.isfinite(full.loss_history))
        assert (full.rng["streams"]["selection"]
                != fresh.capture()["streams"]["selection"])
        resumed = train(cfg, resume=train(dataclasses.replace(cfg, epochs=1)))
        assert resumed.rng == full.rng
        assert_same_run(resumed, full)

    @pytest.mark.parametrize("overrides, history", [
        ({}, [0.5170710881551107, 0.35675496856371564]),
        ({"kind": "baseline", "dtype": "float64", "batch_size": 5},
         [0.4143598254226576, 0.27136226830610183]),
        ({"selection_threshold": 4, "alpha": 0.5, "batch_size": 3, "heads": 4},
         [0.42107078805565834, 0.2913912422955036]),
    ])
    def test_loss_history_is_pinned(self, overrides, history):
        # exact floats of the engine that built one graph per image
        assert train(tiny_config(**overrides)).loss_history == history

    def test_non_finite_loss_names_epoch_and_step(self, monkeypatch):
        # 24 images in batches of 8: the fourth minibatch is epoch 1, step 0
        calls = []

        def nan_on_fourth(*args):
            node = asl_loss_node(*args)
            calls.append(node)
            if len(calls) == 4:
                node.value = np.full_like(node.value, np.nan)
            return node

        asl_loss_node = training.asl_loss_node
        monkeypatch.setattr(training, "asl_loss_node", nan_on_fourth)
        with pytest.raises(NumericError, match="epoch 1 step 0"):
            train(tiny_config(batch_size=8))
        assert len(calls) == 4

    def test_non_finite_parameter_names_epoch_and_step(self):
        # one step of 1e308, so no later minibatch loss sees what it left; run
        # as the CLI runs it, where the check, not a numpy warning, reports it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"), \
                pytest.raises(NumericError, match=r"epoch 0 step 0: decoder\.block0\."):
            train(tiny_config(lr=1e308, epochs=1, n_train=8))

    def test_a_step_holds_one_graph(self, monkeypatch):
        # 240 px: 85 tiles, 1,445 kv rows, so each step's graph is tens of MB
        # and outweighs everything else train() allocates
        cfg = tiny_config(classes=16, n_seen=12, image_side=240, embed_dim=16, depth=6,
                          heads=2, n_train=16, batch_size=8, epochs=1)
        world = build_world(cfg)
        at_entry = []

        def traced_backward(root):
            at_entry.append(tracemalloc.get_traced_memory()[0])
            tensor.backward(root)

        monkeypatch.setattr(training, "backward", traced_backward)
        tracemalloc.start()
        try:
            train(cfg, world=world)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the first step's graph is gone before the second is built, and the
        # second is freed while backward walks it
        assert len(at_entry) == 2
        assert peak <= 1.25 * at_entry[1]

    def test_a_step_keeps_only_what_backward_reads(self):
        # the eval-hires benchmark's training: 240 px, 8 images, 2 steps; a
        # graph that kept every op's value alive until backward peaked at 52.0 MB
        cfg = TrainConfig(classes=16, n_seen=12, image_side=240, base_size=32, embed_dim=16,
                          heads=2, ffn_hidden=16, noise_std=0.3, lr=5e-3, batch_size=8,
                          dtype="float32", depth=6, kind="dual_modal", n_train=8, epochs=2,
                          seed=1)
        world = build_world(cfg)
        tracemalloc.start()
        try:
            train(cfg, world=world)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 47e6

    def test_a_step_walks_no_frozen_leaf(self, monkeypatch):
        # the text queries and the tile encodings are frozen inputs: plain
        # values that no op keeps as a parent, so backward neither reaches
        # them nor forms a gradient for them
        inputs, walked = [], []

        def forward_spy(q0, kv0, stack, **kwargs):
            inputs.extend((q0, kv0))
            return stack_forward(q0, kv0, stack, **kwargs)

        def backward_spy(root):
            node = root.node()  # where backward starts
            seen, todo = {id(node): node}, [node]
            while todo:
                for p in todo.pop()._parents:
                    if id(p) not in seen:
                        seen[id(p)] = p
                        todo.append(p)
            # backward consumes the graph, so each node is classed before it runs
            walked.extend((t, bool(t.trainable or t._parents)) for t in seen.values())
            tensor.backward(root)

        monkeypatch.setattr(training, "stack_forward", forward_spy)
        monkeypatch.setattr(training, "backward", backward_spy)
        train(tiny_config(epochs=1, n_train=8, batch_size=8))
        assert len(inputs) == 2 and len(walked) > 40
        assert all(routes for _, routes in walked)
        assert not {id(t) for t in inputs} & {id(t) for t, _ in walked}
        assert all(t.grad is None for t in inputs)

    def test_training_images_die_once_encoded(self, monkeypatch):
        # training reads only the images' key/value rows, so no image it
        # encoded is alive when the first step runs
        refs, alive = [], []

        def encode_spy(world, plan, images, dtype):
            refs.extend(weakref.ref(img) for img in images)
            return encode_images(world, plan, images, dtype)

        def forward_spy(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in refs))
            return stack_forward(*args, **kwargs)

        encode_images = training.encode_images
        monkeypatch.setattr(training, "encode_images", encode_spy)
        monkeypatch.setattr(training, "stack_forward", forward_spy)
        train(tiny_config(epochs=1, n_train=8, batch_size=4))
        assert len(refs) == 8 and alive == [0, 0]

    def test_resume_config_mismatch(self):
        half = train(tiny_config())
        with pytest.raises(ConfigurationError):
            train(tiny_config(lr=1e-3), resume=half)

    def test_resume_cannot_go_backward(self):
        done = train(tiny_config(epochs=3))
        with pytest.raises(ConfigurationError):
            train(tiny_config(epochs=2), resume=done)

    def test_float32_end_to_end(self):
        ck = train(tiny_config())
        assert all(v.dtype == np.float32 for v in ck.weights.values())


@pytest.fixture(scope="module")
def ckpt():
    return train(tiny_config())


class TestEvaluation:

    def test_scores_shape_and_vocab(self, ckpt):
        scores, labels, vocab = evaluation_scores(ckpt, n_eval=10)
        assert scores.shape == labels.shape == (10, 6)
        assert len(vocab) == 6  # defaults to the seen split
        assert np.all((scores > 0) & (scores < 1))

    def test_full_vocab_includes_unseen(self, ckpt):
        world = build_world(tiny_config())
        scores, labels, vocab = evaluation_scores(
            ckpt, vocab=world.class_names, n_eval=5
        )
        assert scores.shape == (5, 8)
        assert vocab == world.class_names

    def test_unknown_label_rejected(self, ckpt):
        with pytest.raises(ValueError):
            evaluation_scores(ckpt, vocab=["nonexistent"], n_eval=2)

    def test_empty_eval_set_or_vocab_named(self, ckpt):
        with pytest.raises(ValueError, match="n_eval"):
            evaluation_scores(ckpt, n_eval=0)
        with pytest.raises(ValueError, match="vocab"):
            evaluation_scores(ckpt, vocab=[], n_eval=2)

    def test_eval_seed_controls_data(self, ckpt):
        a = evaluation_scores(ckpt, n_eval=4, eval_seed=1)[0]
        b = evaluation_scores(ckpt, n_eval=4, eval_seed=1)[0]
        c = evaluation_scores(ckpt, n_eval=4, eval_seed=2)[0]
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_report(self, ckpt):
        report = metrics_report(*evaluation_scores(ckpt, n_eval=8)[:2], (1, 3))
        assert isinstance(report, MetricsReport)
        assert set(report.f1_at) == {1, 3}
        assert 0.0 <= report.map <= 1.0

    def test_cosine_baseline_scores(self):
        world = build_world(tiny_config())
        images = [img for img, _ in eval_samples(world, 6, 7)]
        scores = cosine_baseline_scores(world, images, label_queries(world, world.class_names))
        assert scores.shape == (6, 8)
        assert np.all(np.abs(scores) <= 1.0 + 1e-12)

    def test_cosine_baseline_zero_norm_image_rejected(self, monkeypatch):
        world = build_world(tiny_config())
        images = [img for img, _ in eval_samples(world, 3, 7)]
        monkeypatch.setattr(training, "encode_images",
                            lambda world, plan, images: np.zeros((len(images), 1, 8)))
        with pytest.raises(ValueError, match="an image embedding has zero norm"):
            cosine_baseline_scores(world, images, label_queries(world, world.class_names))

    def test_scores_are_pinned(self):
        # SHA-256 of the score bytes of the engine that encoded one tile per
        # call. At 96 px with base 40 the bottom level's three tiles per axis
        # overlap by 12 px, and the two levels above it keep only CLS rows.
        cfg = tiny_config(image_side=96, base_size=40, n_train=8, cls_only_non_bottom=True)
        assert build_pyramid_plan(cfg).levels[-1].overlap_px == 12
        scores, _, _ = evaluation_scores(train(cfg), n_eval=8)
        assert hashlib.sha256(scores.tobytes()).hexdigest() == (
            "ff2822aaf8239cbbe234ff47cb0997f2014b0ee7353f0ef88264e7787ae48679")

    def test_open_vocab_report_slices_one_forward(self, ckpt):
        world = build_world(tiny_config())
        names = world.class_names
        scores, labels, _ = evaluation_scores(ckpt, vocab=names, n_eval=12, eval_seed=3)
        cosine = cosine_baseline_scores(
            world, [img for img, _ in eval_samples(world, 12, 3)], label_queries(world, names))
        seen, unseen = open_vocab_split(names, 6)
        groups = {"seen": [names.index(n) for n in seen],
                  "unseen": [names.index(n) for n in unseen], "all": list(range(8))}
        report = open_vocab_report(ckpt, n_eval=12, eval_seed=3)
        assert report == {
            kind: {g: mean_average_precision(s[:, c], labels[:, c])[0]
                   for g, c in groups.items()}
            for kind, s in (("decoder", scores), ("cosine", cosine))}

    def test_open_vocab_report_embeds_the_vocabulary_once(self, ckpt, monkeypatch):
        # the decoder and the cosine baseline score the same float64 rows
        calls = []

        def spy(world, names, *args):
            calls.append(list(names))
            return label_queries(world, names, *args)

        monkeypatch.setattr(training, "label_queries", spy)
        open_vocab_report(ckpt, n_eval=4)
        assert calls == [build_world(tiny_config()).class_names]

    def test_open_vocab_report_non_finite_score_named(self, ckpt):
        # a finite weight whose products overflow makes every decoder score NaN;
        # a library caller sees the error alone, no numpy warning ahead of it
        wq = np.full_like(ckpt.weights["decoder.block0.attn_text.wq"], np.finfo(np.float32).max)
        huge = dataclasses.replace(
            ckpt, weights={**ckpt.weights, "decoder.block0.attn_text.wq": wq})
        with pytest.raises(NumericError, match=r"^score of eval image 0 for label 'baba' is nan$"):
            open_vocab_report(huge, n_eval=4)

    @pytest.mark.parametrize("weight, error", [
        (np.zeros((8, 16), np.float32), r"has shape \(8, 16\), model \(8, 8\)"),
        (np.full((8, 8), np.nan, np.float32), "is not finite")], ids=["shape", "nan"])
    def test_bad_weight_named_by_both_loaders(self, ckpt, weight, error):
        name = "decoder.block0.attn_text.wq"
        bad = dataclasses.replace(ckpt, weights={**ckpt.weights, name: weight})
        with pytest.raises((ConfigurationError, NumericError), match=f"{name} {error}"):
            evaluation_scores(bad, n_eval=2)
        with pytest.raises((ConfigurationError, NumericError), match=f"{name} {error}"):
            train(tiny_config(epochs=3), resume=bad)

    def test_open_vocabulary_demo_prints_the_report(self, ckpt, tmp_path, monkeypatch,
                                                    capsys):
        spec = importlib.util.spec_from_file_location(
            "demo04", Path(__file__).parents[1] / "demos" / "04_open_vocabulary_eval.py")
        demo = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(demo)
        save_checkpoint(ckpt, tmp_path / "demo.adds")
        monkeypatch.setattr(demo, "CKPT", tmp_path / "demo.adds")
        demo.main()
        rows = {m[1]: (m[2], m[3]) for m in re.finditer(
            r"^(seen|unseen|all) +([\d.]+) +([\d.]+)$", capsys.readouterr().out, re.M)}
        report = open_vocab_report(ckpt, n_eval=demo.N_EVAL, eval_seed=demo.EVAL_SEED)
        assert rows == {g: (f"{report['decoder'][g]:.3f}", f"{report['cosine'][g]:.3f}")
                        for g in ("seen", "unseen", "all")}

    def test_label_queries_unit_norm(self):
        world = build_world(tiny_config())
        q = label_queries(world, world.class_names)
        np.testing.assert_allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-6)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_run(a, b):
    """Equal loss histories, and every weight and Adam moment bit for bit."""
    assert a.loss_history == b.loss_history
    for blobs in ("weights", "opt_m", "opt_v"):
        assert set(getattr(a, blobs)) == set(getattr(b, blobs))
        assert all(_same_bits(v, getattr(b, blobs)[n]) for n, v in getattr(a, blobs).items())


class TestChunkedInference:
    """A chunk of images per tower call and per decoder forward gives each
    image's scores the bits of one call per image."""

    @pytest.mark.parametrize("side, base", [(64, 32), (96, 40), (240, 32)])
    @pytest.mark.parametrize("per_call", [1, 3, 7])
    def test_stacked_tower_equals_per_image_loop(self, monkeypatch, side, base, per_call):
        cfg = tiny_config(image_side=side, base_size=base, cls_only_non_bottom=side == 96)
        world, plan = build_world(cfg), build_pyramid_plan(cfg)
        images = [img for img, _ in world.sample_many(SeedStreams(3).stream("images"), 7)]
        expect = np.stack([encode_and_stack(extract_tiles(img, plan), plan, world.image_encoder)
                           for img in images])
        stacks = []
        encode_tiles = world.image_encoder.encode_tiles

        def spy(tiles):
            stacks.append(len(tiles) // plan.tile_count())
            return encode_tiles(tiles)

        monkeypatch.setattr(world.image_encoder, "encode_tiles", spy)
        monkeypatch.setattr(tensor, "CHUNK_BYTES", per_call * plan.tile_count() * base**2 * 8)
        assert _same_bits(training.encode_images(world, plan, images), expect)
        assert stacks == [per_call] * (7 // per_call) + [7 % per_call] * (7 % per_call > 0)

    @pytest.mark.parametrize("overrides", [
        {}, {"dtype": "float64"}, {"kind": "baseline"},
        {"image_side": 96, "base_size": 40, "cls_only_non_bottom": True},
    ])
    @pytest.mark.parametrize("per_forward", [1, 3, 7])
    def test_scores_equal_one_forward_per_image(self, monkeypatch, overrides, per_forward):
        ckpt = train(tiny_config(n_train=8, epochs=1, **overrides))
        config, world, stack, head = training.restore_model(ckpt)
        plan, dtype = build_pyramid_plan(config), config.np_dtype
        q0 = label_queries(world, world.class_names, dtype)
        samples = world.sample_many(SeedStreams(5).stream("eval_data"), 7)
        expect = []
        for img, _ in samples:
            kv = encode_and_stack(extract_tiles(img, plan), plan, world.image_encoder)
            q = stack_forward(Tensor(q0), Tensor(kv.astype(dtype)), stack)
            expect.append(classify(q, head).value[:, 0])

        forwards = []

        def spy(q, kv, *args, **kwargs):
            forwards.append(len(kv.value))
            return stack_forward(q, kv, *args, **kwargs)

        monkeypatch.setattr(training, "stack_forward", spy)
        rows = plan.row_count(1 + world.image_encoder.n_patches) + len(world.class_names)
        monkeypatch.setattr(tensor, "CHUNK_BYTES",
                            per_forward * rows * config.embed_dim * dtype.itemsize)
        scores = evaluation_scores(ckpt, vocab=world.class_names, n_eval=7, eval_seed=5)[0]
        assert _same_bits(scores, np.stack(expect))
        assert forwards == [per_forward] * (7 // per_forward) + [7 % per_forward] * (
            7 % per_forward > 0)

    @pytest.mark.parametrize("side, base", [(64, 32), (96, 40), (240, 32)])
    def test_cosine_baseline_equals_per_image_loop(self, monkeypatch, side, base):
        # level 0 through the chunked tower, 3 images a call, is the whole
        # image resized to the base size and encoded alone
        world = build_world(tiny_config(image_side=side, base_size=base))
        images = [img for img, _ in world.sample_many(SeedStreams(4).stream("images"), 7)]
        q = label_queries(world, world.class_names)
        expect = []
        for img in images:
            c = world.image_encoder.encode_tiles(resize_bilinear(img, base)[None])[0, 0]
            expect.append((q @ c) / (np.linalg.norm(q, axis=1) * np.linalg.norm(c)))
        monkeypatch.setattr(tensor, "CHUNK_BYTES", 3 * base**2 * 8)
        assert _same_bits(cosine_baseline_scores(world, images, q), np.stack(expect))

    def test_training_batch_size_does_not_change_scores(self, ckpt):
        other = dataclasses.replace(ckpt, config={**ckpt.config, "batch_size": 3})
        assert _same_bits(evaluation_scores(ckpt, n_eval=10)[0],
                          evaluation_scores(other, n_eval=10)[0])


def serial_scores(ckpt, vocab, n_eval, eval_seed):
    """(scores, labels, images) of the serial loop the evaluation pipeline
    replaced: draw the whole set, then encode and score one chunk after
    another, all on this thread."""
    config, world, stack, head = training.restore_model(ckpt)
    plan, dtype = build_pyramid_plan(config), config.np_dtype
    q0 = label_queries(world, vocab, dtype)
    samples = world.sample_many(SeedStreams(eval_seed).stream("eval_data"), n_eval)
    images = [img for img, _ in samples]
    rows = plan.row_count(1 + world.image_encoder.n_patches) + len(vocab)
    scores = []
    for c in tensor.batch_chunks(n_eval, rows * config.embed_dim * dtype.itemsize):
        kv = training.encode_images(world, plan, images[c], dtype)
        q = np.broadcast_to(q0, (len(kv), *q0.shape))
        scores.append(classify(stack_forward(Tensor(q), Tensor(kv), stack), head).value[..., 0])
    labels = np.stack([lab for _, lab in samples])[:, class_indices(world, vocab)]
    return np.concatenate(scores), labels, images


each_entry_point = pytest.mark.parametrize(
    "entry", [evaluation_scores, open_vocab_report], ids=lambda entry: entry.__name__)


class TestEvaluationPipeline:
    """Evaluation encodes images on one worker thread while the calling
    thread runs the decoder: the same bits as the serial loop, errors as
    raised, and no thread left behind."""

    @pytest.fixture(scope="class", params=[64, 240], ids=["64px", "240px"])
    def side_ckpt(self, request):
        return train(tiny_config(image_side=request.param, n_train=8, epochs=1))

    def test_scores_and_labels_equal_the_serial_loop(self, side_ckpt, monkeypatch):
        config, world = training.restore_model(side_ckpt)[:2]
        names, n_eval = world.class_names, 7
        plan = build_pyramid_plan(config)
        rows = plan.row_count(1 + world.image_encoder.n_patches) + len(names)
        # two images a forward for every vocabulary here: four chunks of 7
        monkeypatch.setattr(tensor, "CHUNK_BYTES",
                            2 * rows * config.embed_dim * config.np_dtype.itemsize)
        forwards, maps = [], []

        def forward_spy(q, kv, *args, **kwargs):
            forwards.append(len(kv.value))
            return stack_forward(q, kv, *args, **kwargs)

        def map_spy(scores, labels):
            maps.append((scores, labels))
            return mean_average_precision(scores, labels)

        monkeypatch.setattr(training, "stack_forward", forward_spy)
        monkeypatch.setattr(training, "mean_average_precision", map_spy)
        seen, _ = open_vocab_split(names, config.n_seen)
        for vocab in (None, seen, names):
            scores, labels, _ = evaluation_scores(side_ckpt, vocab=vocab, n_eval=n_eval)
            expect = serial_scores(side_ckpt, vocab or seen, n_eval, training.EVAL_SEED)
            assert _same_bits(scores, expect[0]) and _same_bits(labels, expect[1])
        assert forwards == [2, 2, 2, 1] * 3

        report = open_vocab_report(side_ckpt, n_eval=n_eval)
        scores, labels, images = serial_scores(side_ckpt, names, n_eval, training.EVAL_SEED)
        decoder_all = maps[2]  # seen, unseen, all: the third is every column
        assert _same_bits(decoder_all[0], scores) and _same_bits(decoder_all[1], labels)
        cosine = cosine_baseline_scores(world, images, label_queries(world, names))
        assert report["cosine"]["all"] == mean_average_precision(cosine, labels)[0]
        assert report["decoder"]["all"] == mean_average_precision(scores, labels)[0]

    def test_only_the_image_tower_runs_on_the_worker(self, ckpt, monkeypatch):
        threads = {}

        def record(owner, name):
            fn = getattr(owner, name)

            def spy(*args, **kwargs):
                threads.setdefault(name, set()).add(threading.current_thread())
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, spy)

        for name in ("label_queries", "encode_images", "stack_forward", "classify"):
            record(training, name)
        record(SyntheticWorld, "sample")  # the eval stream's draws
        monkeypatch.setattr(tensor, "CHUNK_BYTES", 1)  # one image a chunk
        evaluation_scores(ckpt, n_eval=5)
        main = {threading.current_thread()}
        worker = threads.pop("encode_images")
        assert len(worker) == 1 and not worker & main
        assert all(t == main for t in threads.values())

    @each_entry_point
    def test_images_and_rows_die_with_their_chunk(self, ckpt, monkeypatch, entry):
        # while chunk c is decoded, no image or key/value row of an earlier
        # chunk is alive; chunk c's images may be, until the worker drops its job
        encode, images, rows, alive = training.encode_images, [], [], []

        def encode_spy(world, plan, chunk, *dtype):
            images.append([weakref.ref(img) for img in chunk])
            return encode(world, plan, chunk, *dtype)

        def forward_spy(q, kv, *args, **kwargs):
            earlier = images[:len(rows)] + [[ref] for ref in rows]
            alive.append(sum(ref() is not None for chunk in earlier for ref in chunk))
            rows.append(weakref.ref(kv.value))
            return stack_forward(q, kv, *args, **kwargs)

        monkeypatch.setattr(training, "encode_images", encode_spy)
        monkeypatch.setattr(training, "stack_forward", forward_spy)
        monkeypatch.setattr(tensor, "CHUNK_BYTES", 1)  # one image a chunk
        entry(ckpt, n_eval=5)
        assert len(images) >= 5 and alive == [0] * 5

    @each_entry_point
    def test_encode_error_reaches_caller_and_cancels_later_encodes(self, ckpt, monkeypatch,
                                                                   entry):
        encode, boom = training.encode_images, RuntimeError("chunk 2")
        calls, decoding = [], threading.Event()

        def encode_spy(*args):
            calls.append(args)
            if len(calls) == 2:
                # the decoder starts once every chunk is submitted
                assert decoding.wait(timeout=30)
                raise boom
            return encode(*args)

        def forward_spy(*args, **kwargs):
            decoding.set()
            return stack_forward(*args, **kwargs)

        monkeypatch.setattr(training, "encode_images", encode_spy)
        monkeypatch.setattr(training, "stack_forward", forward_spy)
        monkeypatch.setattr(tensor, "CHUNK_BYTES", 1)  # one image a chunk: six chunks
        with pytest.raises(RuntimeError) as raised:
            entry(ckpt, n_eval=6)
        assert raised.value is boom
        assert len(calls) == 2  # chunks 3 to 6 were cancelled, never encoded

    @each_entry_point
    def test_empty_eval_set_raises_before_a_thread_starts(self, ckpt, monkeypatch, entry):
        monkeypatch.setattr(training, "ThreadPoolExecutor",
                            lambda *a: pytest.fail("a worker thread was started"))
        with pytest.raises(ValueError, match="n_eval must be >= 1, got 0"):
            entry(ckpt, n_eval=0)
