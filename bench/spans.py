"""In-memory span tracer that wraps the program's public functions from outside.

The tracer never edits the program's files. ``installed()`` swaps module and
class attributes for timing wrappers and puts the originals back on exit, so
untraced work runs the program exactly as shipped. A wrapped name that the
program no longer has is recorded in ``absent`` instead of raising.

Each span keeps its inclusive duration and its self time: the duration minus
the time covered by spans opened inside it.
"""

import contextlib
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name). Names are looked up where the caller looks
# them up: adds.training imports stack_forward, backward, ... into its own
# namespace, so that is where they are wrapped.
WRAPPED = (
    ("adds.training", "make_synthetic_world", "encoders.world_build"),
    ("adds.training", "restore_model", "training.restore_model"),
    ("adds.training", "label_queries", "training.label_queries"),
    ("adds.training", "init_stack", "decoder.init"),
    ("adds.training", "init_head", "decoder.init"),
    ("adds.training", "extract_tiles", "pyramid.extract_tiles"),
    ("adds.training", "encode_and_stack", "pyramid.encode_and_stack"),
    ("adds.training", "select_labels", "supervision.select_labels"),
    ("adds.training", "stack_forward", None),  # forward_train / forward_eval
    ("adds.training", "classify", "decoder.classify"),
    ("adds.training", "asl_loss_node", "supervision.asl"),
    ("adds.training", "backward", "tensor.backward"),
    ("adds.training", "adam_step", "optim.adam_step"),
    ("adds.decoder", "multi_head_attention", None),  # attn_t2v / attn_v2t
    ("adds.decoder", "layer_norm", "decoder.layer_norm"),
    ("adds.decoder", "feed_forward", "decoder.ffn"),
    ("adds.encoders", "SyntheticWorld.sample", "encoders.sample"),
    ("adds.encoders", "FrozenImageEncoder.encode_tile", "encoders.encode_tile"),
    ("adds.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("adds.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("adds.metrics", "metrics_report", "metrics.report"),
)

# backward calls per train() call whose graph is walked for tensor.reachable_frac
REACHABLE_SAMPLES = 2


def _reachable(root) -> int:
    """Graph nodes reachable from ``root``, not counting trainable leaves."""
    seen = {id(root)}
    todo = [root]
    n = 0
    while todo:
        node = todo.pop()
        if node.trainable and not node._parents:
            continue
        n += 1
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return n


class Tracer:
    def __init__(self, modules):
        self.modules = modules  # "adds.training" -> module object
        self.durations = defaultdict(list)  # span name -> inclusive seconds
        self.self_times = defaultdict(list)  # span name -> self seconds
        self.counts = defaultdict(list)  # count name -> samples
        self.absent = set()
        self.nodes_created = 0
        self._open = []  # child-time accumulator per open span
        self._visual_attn = set()  # ids of attn_visual params of the live stack
        self._window_start = 0  # nodes_created when the last backward ended
        self._batches = 0  # backward calls since train_call_started

    # -- spans --------------------------------------------------------------

    def _close(self, name, t0):
        dt = perf_counter() - t0
        child = self._open.pop()
        if self._open:
            self._open[-1] += dt
        self.durations[name].append(dt)
        self.self_times[name].append(dt - child)

    @contextlib.contextmanager
    def span(self, name):
        self._open.append(0.0)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(name, t0)

    def _wrap(self, name, fn):
        def wrapped(*args, **kwargs):
            self._open.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, t0)

        return wrapped

    # -- wrappers with counts -------------------------------------------------

    def _wrap_stack_forward(self, _, fn):
        train = self._wrap("decoder.forward_train", fn)
        infer = self._wrap("decoder.forward_eval", fn)

        def wrapped(q0, kv0, stack, *args, **kwargs):
            self._visual_attn = {id(b.attn_visual) for b in stack.blocks
                                 if hasattr(b, "attn_visual")}
            self.counts["query_rows"].append(q0.shape[0])
            self.counts["kv_rows"].append(kv0.shape[0])
            training = kwargs.get("training", args[0] if args else False)
            return (train if training else infer)(q0, kv0, stack, *args, **kwargs)

        return wrapped

    def _wrap_attention(self, _, fn):
        t2v = self._wrap("decoder.attn_t2v", fn)
        v2t = self._wrap("decoder.attn_v2t", fn)

        def wrapped(*args, **kwargs):
            params = args[3] if len(args) > 3 else kwargs.get("params")
            return (v2t if id(params) in self._visual_attn else t2v)(*args, **kwargs)

        return wrapped

    def _wrap_backward(self, name, fn):
        timed = self._wrap(name, fn)

        def wrapped(root):
            self._batches += 1
            created = self.nodes_created - self._window_start
            if 1 < self._batches <= 1 + REACHABLE_SAMPLES and created > 0:
                with self.span("trace.walk"):
                    self.counts["reachable_frac"].append(_reachable(root) / created)
            try:
                return timed(root)
            finally:
                self._window_start = self.nodes_created

        return wrapped

    def _wrap_adam(self, name, fn):
        timed = self._wrap(name, fn)

        def wrapped(params, *args, **kwargs):
            if not self.counts["params"]:
                self.counts["params"].append(sum(p.value.size for p in params))
            return timed(params, *args, **kwargs)

        return wrapped

    def _wrap_counted(self, key, measure):
        """Factory for a timed wrapper that also counts ``measure(result)``."""
        def make(name, fn):
            timed = self._wrap(name, fn)

            def wrapped(*args, **kwargs):
                out = timed(*args, **kwargs)
                self.counts[key].append(measure(out))
                return out

            return wrapped

        return make

    def _wrapper_for(self, attr, name, fn):
        special = {
            "stack_forward": self._wrap_stack_forward,
            "multi_head_attention": self._wrap_attention,
            "backward": self._wrap_backward,
            "adam_step": self._wrap_adam,
            "select_labels": self._wrap_counted("selected_labels", lambda sel: len(sel.selected)),
            "extract_tiles": self._wrap_counted("tiles", len),
        }
        return special.get(attr, self._wrap)(name, fn)

    def train_call_started(self):
        """Mark the start of a train() call. The first batch's node window
        also holds parameter creation, so the walks sample later batches."""
        self._batches = 0
        self._window_start = self.nodes_created

    def _count_nodes(self, init):
        def wrapped(tensor, *args, **kwargs):
            self.nodes_created += 1
            init(tensor, *args, **kwargs)

        return wrapped

    # -- install / uninstall ------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every name in WRAPPED (and count Tensor nodes) for the block."""
        undo = []
        try:
            for module_name, path, name in WRAPPED:
                owner = self.modules[module_name]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    self.absent.add(f"{module_name}.{path}")
                    continue
                setattr(owner, attr, self._wrapper_for(attr, name, fn))
                undo.append((owner, attr, fn))
            tensor_cls = getattr(self.modules["adds.tensor"], "Tensor", None)
            if tensor_cls is None:
                self.absent.add("adds.tensor.Tensor")
            else:
                init = tensor_cls.__init__
                tensor_cls.__init__ = self._count_nodes(init)
                undo.append((tensor_cls, "__init__", init))
            yield self
        finally:
            for owner, attr, fn in reversed(undo):
                setattr(owner, attr, fn)
