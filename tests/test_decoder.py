import copy
import weakref

import numpy as np
import pytest
from reference import ref_dm_block

from adds import decoder, training
from adds.decoder import (
    NORM_SITES,
    classify,
    dm_block_forward,
    init_head,
    init_stack,
    stack_forward,
)
from adds.errors import ConfigurationError, ShapeError
from adds.rng import SeedStreams
from adds.supervision import AslConfig, asl_loss_node, select_labels
from adds.tensor import Tensor, add, backward, param, scale
from adds.training import TrainConfig, build_model, train


def make_stack(seed=0, **kw):
    kw.setdefault("depth", 1)
    kw.setdefault("embed_dim", 4)
    kw.setdefault("heads", 1)
    kw.setdefault("dropout_rate", 0.0)
    return init_stack(SeedStreams(seed).stream("init"), **kw)


def random_qkv(seed, k=1, n=2, e=4):
    g = SeedStreams(seed).stream("qkv")
    return g.standard_normal((k, e)), g.standard_normal((n, e))


class TestDualModalBlock:
    def test_matches_transcription(self):
        stack = make_stack(seed=11)
        q, kv = random_qkv(12)
        q_out, k_out, v_out = dm_block_forward(
            Tensor(q), Tensor(kv), Tensor(kv), stack.blocks[0], heads=1
        )
        rq, rk, rv = ref_dm_block(q, kv, kv, stack.blocks[0], heads=1)
        np.testing.assert_allclose(q_out.value, rq, atol=1e-10)
        np.testing.assert_allclose(v_out.value, rv, atol=1e-10)

    def test_transcription_multi_head(self):
        stack = make_stack(seed=3, embed_dim=8, heads=2)
        g = SeedStreams(4).stream("x")
        q = g.standard_normal((3, 8))
        kv = g.standard_normal((5, 8))
        q_out, _, v_out = dm_block_forward(
            Tensor(q), Tensor(kv), Tensor(kv), stack.blocks[0], heads=2
        )
        rq, _, rv = ref_dm_block(q, kv, kv, stack.blocks[0], heads=2)
        np.testing.assert_allclose(q_out.value, rq, atol=1e-10)
        np.testing.assert_allclose(v_out.value, rv, atol=1e-10)

    def test_keys_are_values_identically(self):
        stack = make_stack(seed=5)
        q, kv = random_qkv(6)
        _, k_out, v_out = dm_block_forward(
            Tensor(q), Tensor(kv), Tensor(kv), stack.blocks[0], heads=1
        )
        assert k_out is v_out

    def test_rejects_mismatched_kv_rows(self):
        stack = make_stack()
        g = SeedStreams(0).stream("x")
        with pytest.raises(ShapeError):
            dm_block_forward(
                Tensor(g.standard_normal((1, 4))),
                Tensor(g.standard_normal((2, 4))),
                Tensor(g.standard_normal((3, 4))),
                stack.blocks[0],
                heads=1,
            )


class TestBaselineBlock:
    def test_kv_pass_through_untouched(self):
        stack = make_stack(seed=7, kind="baseline")
        q, kv = random_qkv(8)
        k_in, v_in = Tensor(kv), Tensor(kv.copy())
        q_out, k_out, v_out = dm_block_forward(
            Tensor(q), k_in, v_in, stack.blocks[0], heads=1, visual=False, q_out=False
        )
        assert k_out is k_in and v_out is v_in

    def test_query_path_agrees_with_dm_block(self):
        # the first five lines are shared, so the baseline output must equal
        # the dual-modal intermediate before the final residual norm; check by
        # replaying the transcription up to that point
        stack = make_stack(seed=9)
        blk = stack.blocks[0]
        q, kv = random_qkv(10)
        q_out, _, _ = dm_block_forward(
            Tensor(q), Tensor(kv), Tensor(kv), blk, heads=1, visual=False, q_out=False
        )
        from reference import ref_ffn, ref_layer_norm, ref_mha

        def ln(site, x):
            p = blk.norms[site]
            return ref_layer_norm(x, p.gain.value, p.bias.value)

        at, ff = blk.attn_text, blk.ffn
        q1 = ln("q_pre", q + q)
        q2 = ref_mha(q1, kv, kv, at.wq.value, at.wk.value, at.wv.value,
                     at.wo.value, 1)
        q3 = ln("q_attn", q2 + q1)
        q4 = ref_ffn(q3, ff.w_inner.value, ff.b_inner.value,
                     ff.w_outer.value, ff.b_outer.value)
        q5 = ln("q_ffn", q4 + q3)
        np.testing.assert_allclose(q_out.value, q5, atol=1e-10)


class TestStack:
    def test_depth_two_composition(self):
        stack = make_stack(seed=13, depth=2)
        q, kv = random_qkv(14, k=3, n=4)
        out = stack_forward(Tensor(q), Tensor(kv), stack)
        b0, b1 = stack.blocks
        q1, k1, v1 = ref_dm_block(q, kv, kv, b0, heads=1)
        q2, _, _ = ref_dm_block(q1, k1, v1, b1, heads=1)
        np.testing.assert_allclose(out.value, q2, atol=1e-9)

    def test_init_validation(self):
        stream = SeedStreams(0).stream("init")
        with pytest.raises(ConfigurationError):
            init_stack(stream, depth=0)
        with pytest.raises(ConfigurationError):
            init_stack(stream, kind="mystery")
        with pytest.raises(ConfigurationError):
            init_stack(stream, embed_dim=6, heads=4)

    @pytest.mark.parametrize("kind", ["dual_modal", "baseline"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_listed_tensors_are_exactly_the_live_ones(self, kind, depth):
        stack = make_stack(seed=5, depth=depth, kind=kind, heads=2)
        head = init_head(SeedStreams(6).stream("head"), 4)
        q0, kv = random_qkv(7, k=3, n=5)
        probs = classify(stack_forward(Tensor(q0), Tensor(kv), stack), head)
        backward(asl_loss_node(probs, np.array([1, 0, 1]), AslConfig()))
        listed = {id(t) for _, t in stack.tensors()}
        for i, blk in enumerate(stack.blocks):
            for name, t in blk.tensors():
                assert (t.grad is not None) == (id(t) in listed), f"block{i}.{name}"

    def test_parameter_names_unique_and_complete(self):
        stack = make_stack(depth=3, embed_dim=8, heads=2)
        names = [n for n, _ in stack.tensors()]
        assert len(names) == len(set(names))
        for site in NORM_SITES:
            assert f"block0.norm.{site}.gain" in names
        # per block: 2 attention groups x 4, ffn x 4, 5 norms x 2; the last
        # block has no visual branch (attn_visual x 4, norm v_out x 2)
        assert len(names) == 3 * (8 + 4 + 10) - 6
        assert not [n for n in names
                    if n.startswith(("block2.attn_visual.", "block2.norm.v_out."))]


    @staticmethod
    def _reachable(root):
        seen, todo = {id(root): root}, [root]
        while todo:
            for p in todo.pop()._parents:
                if id(p) not in seen:
                    seen[id(p)] = p
                    todo.append(p)
        return list(seen.values())

    def _training_graph(self, batch):
        stack = make_stack(seed=5, depth=2, heads=2, dropout_rate=0.1)
        head = init_head(SeedStreams(6).stream("head"), 4)
        q0, kv = random_qkv(7, k=3, n=5)
        y = np.array([1, 0, 1])
        if batch:
            q0 = np.broadcast_to(q0, (batch, 3, 4))
            kv = np.stack([kv * (b + 1) for b in range(batch)])
            y = np.tile(y, (batch, 1))
        probs = classify(stack_forward(Tensor(q0), Tensor(kv), stack, training=True,
                                       stream=SeedStreams(8).stream("dropout")), head)
        return stack, self._reachable(asl_loss_node(probs, y, AslConfig()))

    def test_graph_nodes_per_image(self):
        # ops per training image at depth 2 with dropout: the first block's
        # query path 12 (3 layer norms, attention, 2 adds, ffn 5, dropout; the
        # dropout of q0 and its residual add see no trainable input, so they
        # are plain leaves), query output 2 and visual branch 3; the last
        # block 14 + 2; then the head 3 and the loss 1. Leaves: q0, kv, that
        # residual sum and the 40 live parameters.
        stack, seen = self._training_graph(batch=None)
        ops = [t for t in seen if t._parents]
        assert len(ops) == 17 + 16 + 3 + 1
        assert len(seen) - len(ops) == 3 + len(stack.tensors()) + 2 == 43

    @pytest.mark.parametrize("batch", [1, 3, 8])
    def test_graph_nodes_per_step_do_not_depend_on_batch(self, batch):
        _, one = self._training_graph(batch=None)
        stack, seen = self._training_graph(batch)
        assert len(seen) == len(one)
        assert all(t.value.shape[0] == batch for t in seen
                   if t._parents and t.value.ndim == 3)

    def test_inference_builds_no_graph(self):
        stack = make_stack(seed=5, depth=2, heads=2)
        head = init_head(SeedStreams(6).stream("head"), 4)
        for _, t in stack.tensors() + head.tensors():
            t.trainable = False
        q0, kv = random_qkv(7, k=3, n=5)
        probs = classify(stack_forward(Tensor(q0), Tensor(kv), stack), head)
        assert probs._parents == () and probs._backward is None


class WatchedLeaf(Tensor):
    """A frozen leaf that records every array assigned to its ``.grad``."""

    @property
    def grad(self):
        return self.__dict__.get("_grad")

    @grad.setter
    def grad(self, value):
        self.__dict__["_grad"] = value
        self.__dict__.setdefault("assigned", []).append(value)


class TestWhatTheGraphKeeps:
    """The graph keeps the arrays backward reads; a value no backward reads
    dies with the caller's last reference, and a frozen leaf's gradient is
    never formed."""

    @staticmethod
    def _loss(stack, kv):
        head = init_head(SeedStreams(6).stream("head"), 4)
        q0 = np.broadcast_to(random_qkv(7, k=3, n=5)[0], (2, 3, 4))
        q = stack_forward(Tensor(q0), kv, stack, training=True,
                          stream=SeedStreams(8).stream("dropout"))
        return asl_loss_node(classify(q, head), np.array([[1, 0, 1], [0, 1, 1]]), AslConfig())

    def test_visual_branch_values_die_as_each_block_returns(self, monkeypatch):
        stack = make_stack(seed=5, depth=3, heads=2, dropout_rate=0.1)
        kv = np.stack([random_qkv(7, k=3, n=5)[1] * (b + 1) for b in range(2)])
        visual = {id(b.attn_visual) for b in stack.blocks}
        v_out_gains = {id(b.norms["v_out"].gain) for b in stack.blocks}
        unread, read = [], []  # weak references to values
        attention, layer_norm = decoder.multi_head_attention, decoder.layer_norm

        def attention_spy(q, k, v, params, heads):
            out = attention(q, k, v, params, heads)
            if id(params) in visual:
                unread.append(weakref.ref(out.value))
            return out

        def layer_norm_spy(x, gain, bias, eps):
            out = layer_norm(x, gain, bias, eps)
            if id(gain) in v_out_gains:  # x is the residual sum, out the next block's kv
                unread.append(weakref.ref(x.value))
                read.append(weakref.ref(out.value))
            return out

        monkeypatch.setattr(decoder, "multi_head_attention", attention_spy)
        monkeypatch.setattr(decoder, "layer_norm", layer_norm_spy)
        loss = self._loss(stack, Tensor(kv))
        # blocks 0 and 1 run the visual branch: an attention output and a
        # residual sum each, which only the block's own locals held
        assert len(unread) == 4 and all(ref() is None for ref in unread)
        # the refreshed kv rows are read by the next block's backward
        assert len(read) == 2 and all(ref() is not None for ref in read)
        assert loss._parents
        backward(loss)
        assert all(ref() is None for ref in read)
        assert all(t.grad is not None for _, t in stack.tensors())

    def test_frozen_kv_rows_get_no_gradient_work(self):
        kv = np.stack([random_qkv(7, k=3, n=5)[1] * (b + 1) for b in range(2)])
        trainable, leaf = param(kv), WatchedLeaf(kv)
        grads = []
        for kv_rows in (trainable, leaf):
            stack = make_stack(seed=5, depth=2, heads=2, dropout_rate=0.1)
            backward(self._loss(stack, kv_rows))
            grads.append([t.grad for _, t in stack.tensors()])
        # kv rows that need a gradient get one, and no parameter gradient
        # depends on whether they do
        assert np.any(trainable.grad != 0) and len(grads[0]) == len(grads[1]) == 38
        for with_kv_grad, without in zip(*grads):
            assert with_kv_grad.tobytes() == without.tobytes()
        # frozen: no buffer, no product and no add; backward's closing zeros only
        formed = [g for g in leaf.assigned if g is not None]
        assert len(formed) == 1 and formed[0] is leaf.grad
        np.testing.assert_array_equal(leaf.grad, np.zeros_like(kv))


class TestBatchAxis:
    """One graph over a (B, rows, e) stack against one subgraph per image,
    summed and scaled as a per-image training step did it."""

    def _model(self, kind, dtype):
        stack = init_stack(SeedStreams(21).stream("init"), depth=3, embed_dim=8, heads=2,
                           kind=kind, dropout_rate=0.1, dtype=dtype)
        head = init_head(SeedStreams(22).stream("head"), 8, dtype=dtype)
        return stack, head, [t for _, t in stack.tensors() + head.tensors()]

    def _step(self, params, make_loss):
        for t in params:
            t.grad = None
        stream = SeedStreams(23).stream("dropout")
        loss = make_loss(stream)
        backward(loss)
        return (loss.value.copy(), [t.grad.copy() for t in params],
                stream.bit_generator.state)

    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["dual_modal", "baseline"])
    @pytest.mark.parametrize("select", [False, True])
    def test_stack_matches_one_graph_per_image(self, batch, dtype, kind, select):
        stack, head, params = self._model(kind, dtype)
        g = SeedStreams(24).stream("data")
        q0 = g.standard_normal((12, 8)).astype(dtype)
        kv = g.standard_normal((batch, 7, 8)).astype(dtype)
        y = np.zeros((batch, 12), dtype=int)
        y[np.arange(batch), 3 * np.arange(batch) % 7] = 1
        idx = np.arange(12)
        if select:
            idx = select_labels(y, 0.5, SeedStreams(25).stream("selection")).selected
            assert 0 < len(idx) < 12
        q0, y = q0[idx], y[:, idx]
        cfg = AslConfig()

        def per_image(stream):
            total = None
            for b in range(batch):
                q = stack_forward(Tensor(q0), Tensor(kv[b]), stack, training=True,
                                  stream=stream)
                node = asl_loss_node(classify(q, head), y[b], cfg)
                total = node if total is None else add(total, node)
            return scale(total, 1.0 / batch)

        def stacked(stream):
            q = stack_forward(Tensor(np.broadcast_to(q0, (batch, *q0.shape))), Tensor(kv),
                              stack, training=True, stream=stream)
            return asl_loss_node(classify(q, head), y, cfg)

        loss_a, grads_a, state_a = self._step(params, per_image)
        loss_b, grads_b, state_b = self._step(params, stacked)
        assert loss_a.dtype == loss_b.dtype == dtype
        np.testing.assert_array_equal(loss_a, loss_b)
        for ga, gb in zip(grads_a, grads_b):
            assert ga.dtype == gb.dtype == dtype
            np.testing.assert_array_equal(ga, gb)
        np.testing.assert_equal(state_a, state_b)


    def test_rate_zero_draws_nothing(self):
        stack = make_stack(seed=5, depth=2, dropout_rate=0.0)
        q0, kv = random_qkv(7, k=3, n=5)
        stream = SeedStreams(8).stream("dropout")
        before = stream.bit_generator.state
        stack_forward(Tensor(np.broadcast_to(q0, (2, 3, 4))), Tensor(np.stack([kv, kv])),
                      stack, training=True, stream=stream)
        np.testing.assert_equal(stream.bit_generator.state, before)


class TestStepsAreIndependent:
    """A training step depends on nothing an earlier step left behind: each
    agrees bit for bit with the same step on a fresh model."""

    def _model(self):
        stack = init_stack(SeedStreams(31).stream("init"), depth=2, embed_dim=8, heads=2,
                           dropout_rate=0.0)
        return stack, init_head(SeedStreams(32).stream("head"), 8)

    def _inputs(self, seed, queries):
        g = SeedStreams(seed).stream("data")
        y = (g.random((3, queries)) < 0.4).astype(int)
        return g.standard_normal((3, queries, 8)), g.standard_normal((3, 7, 8)), y

    def _loss(self, model, inputs):
        q0, kv, y = inputs
        q = stack_forward(Tensor(q0), Tensor(kv), model[0])
        return asl_loss_node(classify(q, model[1]), y, AslConfig())

    def _step(self, model, inputs):
        loss = self._loss(model, inputs)
        backward(loss)
        return loss.value, self._grads(model)

    @staticmethod
    def _grads(model):
        return [t.grad.copy() for _, t in model[0].tensors() + model[1].tensors()]

    def _assert_fresh_model_agrees(self, inputs, loss, grads):
        fresh_loss, fresh_grads = self._step(self._model(), inputs)
        np.testing.assert_array_equal(loss, fresh_loss)
        for g, f in zip(grads, fresh_grads):
            np.testing.assert_array_equal(g, f)

    def test_interleaved_graphs_match_a_fresh_model(self):
        # forwards and backwards of four graphs of one model, interleaved
        model = self._model()
        inputs = {n: self._inputs(50 + i, 5) for i, n in enumerate("ABCD")}
        losses, grads = {}, {}

        def forward(n):
            losses[n] = self._loss(model, inputs[n])

        def back(n):
            backward(losses[n])
            grads[n] = self._grads(model)

        for act, n in [(forward, "A"), (forward, "B"), (back, "A"), (forward, "C"),
                       (forward, "D"), (back, "B"), (back, "D"), (back, "C")]:
            act(n)
        for n in "ABCD":
            self._assert_fresh_model_agrees(inputs[n], losses[n].value, grads[n])

    def test_changing_query_counts_are_bit_identical(self):
        # as label selection gives a new |S'| at each step
        model = self._model()
        for step, queries in enumerate([5, 3, 5, 6, 6, 2]):
            inputs = self._inputs(60 + step, queries)
            loss, grads = self._step(model, inputs)
            self._assert_fresh_model_agrees(inputs, loss, grads)

    def test_steps_after_a_short_last_batch_match_a_fresh_model(self, monkeypatch):
        # 20 images in batches of 8: each epoch ends on a batch of 4
        config = TrainConfig(classes=8, n_seen=6, image_side=32, base_size=32, embed_dim=8,
                             depth=2, ffn_hidden=8, n_train=20, batch_size=8, epochs=2)
        steps = []

        def forward(q0, kv0, stack, training, stream):
            fresh, _ = build_model(config, SeedStreams(0))
            for (_, f), (_, t) in zip(fresh.tensors(), stack.tensors()):
                f.value = t.value.copy()
            expected = stack_forward(q0, kv0, fresh, training=training,
                                     stream=copy.deepcopy(stream))
            q = stack_forward(q0, kv0, stack, training=training, stream=stream)
            np.testing.assert_array_equal(q.value, expected.value)
            steps.append(q0.shape[0])
            return q

        monkeypatch.setattr(training, "stack_forward", forward)
        train(config)
        assert steps == [8, 8, 4, 8, 8, 4]


class TestClassifierHead:
    def test_probabilities_in_unit_interval(self):
        head = init_head(SeedStreams(1).stream("head"), 4)
        q = SeedStreams(2).stream("q").standard_normal((5, 4))
        out = classify(Tensor(q), head)
        assert out.value.shape == (5, 1)
        assert np.all((out.value > 0) & (out.value < 1))

    def test_sigmoid_of_affine_oracle(self):
        head = init_head(SeedStreams(3).stream("head"), 4)
        q = SeedStreams(4).stream("q").standard_normal((3, 4))
        z = q @ head.w.value + head.b.value[0, 0]
        np.testing.assert_allclose(
            classify(Tensor(q), head).value, 1.0 / (1.0 + np.exp(-z)), atol=1e-12
        )

    def test_dim_mismatch(self):
        head = init_head(SeedStreams(0).stream("head"), 4)
        with pytest.raises(ShapeError):
            classify(Tensor(np.zeros((2, 6))), head)
