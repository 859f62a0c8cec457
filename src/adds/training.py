"""End-to-end training and evaluation on the synthetic aligned world.

Both encoder towers are frozen; only the decoder stack and the shared head
learn. Per batch: prompted text embeddings form the initial queries, pyramid
tile encodings (precomputed once, since the towers never change) form the
initial keys/values, the asymmetric loss is applied over the selected label
set, and Adam updates the decoder and head.
"""

import contextlib
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .decoder import classify, init_head, init_stack, stack_forward
from .encoders import DEFAULT_PROMPTS, MAX_CLASSES, _row_norms, make_synthetic_world, unit_rows
from .errors import ConfigurationError, NumericError
from .metrics import mean_average_precision
from .optim import AdamState, adam_step
from .pyramid import build_plan, encode_and_stack, extract_tiles
from .rng import SeedStreams
from .supervision import AslConfig, asl_loss_node, select_labels
from .tensor import Tensor, backward, batch_chunks


def default_lr(target_side: int) -> float:
    return 1e-4 if target_side > 336 else 3e-4


def _setting(default, lo=None, hi=None, below=None, choices=None, flag=False):
    """A TrainConfig field taking, beyond its type, a number in [lo, hi] or
    [lo, below) or one of ``choices``; a ``flag`` is an ``adds train`` option."""
    return field(default=default, metadata=dict(lo=lo, hi=hi, below=below,
                                                 choices=choices, flag=flag))


@dataclass
class TrainConfig:
    # synthetic world
    classes: int = _setting(16, lo=2, hi=MAX_CLASSES)  # as many as the world can name
    image_side: int = _setting(64, lo=1)
    base_size: int = _setting(32, lo=1)
    patch_size: int = _setting(8, lo=1)
    embed_dim: int = _setting(16, lo=1)
    noise_std: float = _setting(0.05, lo=0)
    world_seed: int = 0
    n_seen: int = _setting(12, lo=1)
    # decoder
    depth: int = _setting(6, lo=1, flag=True)
    kind: str = _setting("dual_modal", choices=("dual_modal", "baseline"), flag=True)
    heads: int = _setting(2, lo=1)
    ffn_hidden: int = _setting(0, lo=0)  # 0 = 4 * embed_dim
    dropout: float = _setting(0.1, lo=0, below=1, flag=True)
    # optimization
    lr: float = _setting(-1.0, flag=True)  # negative = resolve from resolution
    weight_decay: float = _setting(1e-4, lo=0, flag=True)
    epochs: int = _setting(5, lo=1, flag=True)
    batch_size: int = _setting(8, lo=1, flag=True)
    # supervision
    alpha: float = _setting(3.0, lo=0, flag=True)
    selection_threshold: int = 512
    gamma_pos: float = 0.0  # the focusing exponents and margin: AslConfig's ranges
    gamma_neg: float = 4.0
    margin: float = 0.05
    # pyramid
    cls_only_non_bottom: bool = False
    pyramid_levels: list[int] = field(default_factory=list)  # empty = all levels
    # run
    n_train: int = _setting(400, lo=1, flag=True)
    seed: int = _setting(0, flag=True)
    dtype: str = _setting("float32", choices=("float32", "float64"))

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and isinstance(value, numbers.Real) and type(value) is not bool:
                with contextlib.suppress(OverflowError):  # such an int is refused below
                    value = float(value)
                setattr(self, f.name, value)
            if not _accepts(f, value):
                raise ConfigurationError(f"{f.name} must be {field_rule(f)}, got {value!r}")
        if self.lr < 0:
            self.lr = default_lr(self.image_side)
        if self.n_seen >= self.classes:
            raise ConfigurationError(
                f"n_seen {self.n_seen} must be below classes {self.classes}: "
                "at least one class must be unseen"
            )
        if self.embed_dim % self.heads != 0:
            raise ConfigurationError(
                f"embed dim {self.embed_dim} not divisible by heads {self.heads}"
            )
        if self.image_side % self.patch_size or self.base_size % self.patch_size:
            raise ConfigurationError(
                f"image side {self.image_side} and base size {self.base_size} must be "
                f"multiples of patch size {self.patch_size}"
            )
        self.asl_config()  # focusing exponents and margin
        build_pyramid_plan(self)  # image side >= base size, pyramid_levels in range

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigurationError(f"unknown config keys {unknown}")
        return cls(**d)

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)

    def asl_config(self) -> AslConfig:
        return AslConfig(self.gamma_pos, self.gamma_neg, self.margin)


def field_rule(f) -> str:
    """What TrainConfig field ``f`` takes, in the words its errors use."""
    m = f.metadata
    if m.get("choices"):
        return "one of " + ", ".join(m["choices"])
    text = {int: "an integer", float: "a finite number", bool: "true or false",
            list[int]: "a list of integers"}[f.type]
    if m.get("hi") is not None:
        return f"{text} in [{m['lo']}, {m['hi']}]"
    if m.get("below") is not None:
        return f"{text} in [{m['lo']}, {m['below']})"
    return text if m.get("lo") is None else f"{text} >= {m['lo']}"


def _accepts(f, value) -> bool:
    m = f.metadata
    if f.type == list[int]:
        return type(value) is list and all(type(x) is int for x in value)
    if type(value) is not f.type or f.type is float and not math.isfinite(value):
        return False
    if m.get("choices"):
        return value in m["choices"]
    return ((m.get("lo") is None or value >= m["lo"])
            and (m.get("hi") is None or value <= m["hi"])
            and (m.get("below") is None or value < m["below"]))


@dataclass
class Checkpoint:
    config: dict
    epoch: int
    weights: dict  # name -> ndarray
    opt_m: dict
    opt_v: dict
    opt_step: int
    rng: dict
    loss_history: list  # per-epoch mean loss


def open_vocab_split(class_names, n_seen: int):
    """Case-insensitive alphabetical split: first n_seen seen, rest unseen."""
    if len(set(class_names)) != len(class_names):
        raise ValueError("class names contain duplicates")
    if not n_seen < len(class_names):
        raise ValueError(
            f"n_seen {n_seen} must be smaller than total {len(class_names)}"
        )
    ordered = sorted(class_names, key=str.casefold)
    return ordered[:n_seen], ordered[n_seen:]


def build_world(config: TrainConfig):
    return make_synthetic_world(
        k=config.classes,
        image_side=config.image_side,
        base_size=config.base_size,
        embed_dim=config.embed_dim,
        seed=config.world_seed,
        patch_size=config.patch_size,
        noise_std=config.noise_std,
    )


def build_pyramid_plan(config: TrainConfig):
    return build_plan(
        config.base_size,
        config.image_side,
        selected_levels=config.pyramid_levels,
        cls_only_non_bottom=config.cls_only_non_bottom,
    )


def class_indices(world, names) -> np.ndarray:
    """Position of each name in the world's class list."""
    index = {name: i for i, name in enumerate(world.class_names)}
    for name in names:
        if name not in index:
            raise ValueError(f"label {name!r} is not a class of this world")
    return np.array([index[name] for name in names])


def label_queries(world, names, dtype=np.float64) -> np.ndarray:
    """Per label name, the mean of the text embeddings of its forms in
    ``DEFAULT_PROMPTS``, renormalized to unit norm; k x e. Every prompted
    form goes through one ``encode_texts`` call."""
    texts = [prompt.format(name) for name in names for prompt in DEFAULT_PROMPTS]
    vecs = world.text_encoder.encode_texts(texts).reshape(
        len(names), len(DEFAULT_PROMPTS), world.embed_dim)
    return unit_rows(vecs.mean(axis=1)).astype(dtype)


def encode_images(world, plan, images, dtype=np.float64) -> np.ndarray:
    """Token rows of each of a sequence of images, (B, R, e). The tower takes
    a stack at a time: as many images as fit CHUNK_BYTES of float64 tiles."""
    tile_bytes = plan.tile_count() * plan.base_size**2 * 8
    return np.concatenate([
        encode_and_stack(extract_tiles(np.stack(images[c]), plan), plan,
                         world.image_encoder).astype(dtype)
        for c in batch_chunks(len(images), tile_bytes)])


def encode_image(world, plan, image, dtype=np.float64) -> np.ndarray:
    """Token rows of one image, (R, e)."""
    return encode_images(world, plan, [image], dtype)[0]


N_EVAL, EVAL_SEED = 200, 1234  # the evaluation set, unless a run names another


def eval_samples(world, n_eval: int, eval_seed: int):
    """The evaluation set: ``n_eval`` fresh (image, labels) pairs of the world,
    drawn as iterated from one ``eval_data`` stream, by the calling thread alone."""
    if n_eval < 1:
        raise ValueError(f"n_eval must be >= 1, got {n_eval}")
    stream = SeedStreams(eval_seed).stream("eval_data")
    return (world.sample(stream) for _ in range(n_eval))


def build_model(config: TrainConfig, streams: SeedStreams):
    dtype = config.np_dtype
    stack = init_stack(
        streams.stream("init.decoder"),
        depth=config.depth,
        embed_dim=config.embed_dim,
        heads=config.heads,
        kind=config.kind,
        ffn_hidden=config.ffn_hidden or None,
        dropout_rate=config.dropout,
        dtype=dtype,
    )
    head = init_head(streams.stream("init.head"), config.embed_dim, dtype=dtype)
    return stack, head


def named_parameters(stack, head):
    out = [(f"decoder.{n}", t) for n, t in stack.tensors()]
    out.extend((f"head.{n}", t) for n, t in head.tensors())
    return out


def train(config: TrainConfig, world=None, resume: Checkpoint | None = None) -> Checkpoint:
    """Train the decoder stack + head; returns an in-memory checkpoint.

    Resuming from a checkpoint of the same config reproduces the
    uninterrupted run bit-exactly. A non-finite minibatch loss raises
    ``NumericError`` naming its epoch and step (both from 0), before the
    parameters take an update from it; so does a non-finite parameter after
    an update.
    """
    dtype = config.np_dtype
    if world is None:
        world = build_world(config)
    if world.embed_dim != config.embed_dim:
        raise ConfigurationError(
            f"world embed dim {world.embed_dim} != config {config.embed_dim}"
        )
    plan = build_pyramid_plan(config)
    streams = SeedStreams(config.seed)

    seen, _unseen = open_vocab_split(world.class_names, config.n_seen)
    seen_idx = class_indices(world, seen)
    q0_all = label_queries(world, seen, dtype)

    # dataset is fixed per seed; draw it before any training randomness
    data_stream = streams.stream("data")
    samples = world.sample_many(data_stream, config.n_train, class_subset=seen_idx)
    label_mat = np.stack([lab[seen_idx] for _, lab in samples])
    kv_all = encode_images(world, plan, [img for img, _ in samples], dtype)
    del samples  # training reads only the images' rows, so the images die here

    stack, head = build_model(config, streams)
    params = named_parameters(stack, head)
    tensors = [t for _, t in params]
    state = AdamState.for_params(tensors)

    start_epoch = 0
    loss_history: list[float] = []
    if resume is not None:
        if {**config.to_dict(), "epochs": None} != {**resume.config, "epochs": None}:
            raise ConfigurationError("resume checkpoint config differs from config")
        if resume.epoch > config.epochs:
            raise ConfigurationError(
                f"checkpoint already at epoch {resume.epoch} > target {config.epochs}"
            )
        _load_weights(resume, params, ((state.m, resume.opt_m), (state.v, resume.opt_v)))
        state.step = resume.opt_step
        streams.restore(resume.rng)
        start_epoch = resume.epoch
        loss_history = list(resume.loss_history)

    shuffle_stream = streams.stream("shuffle")
    dropout_stream = streams.stream("dropout")
    selection_stream = streams.stream("selection")
    asl_cfg = config.asl_config()
    k_seen, n = len(seen), config.n_train

    for epoch in range(start_epoch, config.epochs):
        order = shuffle_stream.permutation(n)
        epoch_losses = []
        for step, lo in enumerate(range(0, n, config.batch_size)):
            batch = order[lo : lo + config.batch_size]
            if k_seen > config.selection_threshold:
                sel = select_labels(label_mat[batch], config.alpha, selection_stream)
                idx = sel.selected
            else:
                idx = np.arange(k_seen)
            q0 = np.broadcast_to(q0_all[idx], (len(batch), len(idx), config.embed_dim))
            q_final = stack_forward(Tensor(q0), Tensor(kv_all[batch]), stack,
                                    training=True, stream=dropout_stream)
            loss = asl_loss_node(classify(q_final, head), label_mat[batch][:, idx], asl_cfg)
            value = float(loss.value[0, 0])
            if not np.isfinite(value):
                raise NumericError(f"epoch {epoch} step {step}: minibatch loss is {value}")
            backward(loss)
            if config.lr > 0:
                adam_step(tensors, state, config.lr, config.weight_decay)
                if not np.isfinite(state.values).all():
                    bad = next(n for n, t in params if not np.isfinite(t.value).all())
                    raise NumericError(f"epoch {epoch} step {step}: {bad} is not finite")
            epoch_losses.append(value)
        loss_history.append(float(np.mean(epoch_losses)))

    return Checkpoint(
        config=config.to_dict(),
        epoch=config.epochs,
        weights={name: t.value.copy() for name, t in params},
        opt_m={name: m.copy() for (name, _), m in zip(params, state.m)},
        opt_v={name: v.copy() for (name, _), v in zip(params, state.v)},
        opt_step=state.step,
        rng=streams.capture(),
        loss_history=loss_history,
    )


def _load_weights(ckpt: Checkpoint, params, moments=()):
    """Copy each parameter's checkpoint weight, and its blob of each (arrays,
    blobs) pair of ``moments``, into the model's arrays in place (they may be
    views of Adam's buffers). A missing, misshapen or non-finite blob raises,
    naming its parameter; blobs that no parameter reads are ignored."""
    for i, (name, t) in enumerate(params):
        if name not in ckpt.weights:
            raise ConfigurationError(f"checkpoint is missing parameter {name}")
        for dst, src in [(t.value, ckpt.weights[name])] + [(m[i], b[name]) for m, b in moments]:
            if src.shape != dst.shape:
                raise ConfigurationError(
                    f"checkpoint parameter {name} has shape {src.shape}, model {dst.shape}"
                )
            if not np.isfinite(src).all():
                raise NumericError(f"checkpoint parameter {name} is not finite")
            dst[...] = src.astype(dst.dtype)


def restore_model(ckpt: Checkpoint):
    """Rebuild world + model from a checkpoint for inference. Returns
    (config, world, stack, head); the parameters are not trainable, so a
    forward pass builds no graph."""
    config = TrainConfig.from_dict(ckpt.config)
    world = build_world(config)
    stack, head = build_model(config, SeedStreams(config.seed))
    params = named_parameters(stack, head)
    _load_weights(ckpt, params)
    for _, t in params:
        t.trainable = False
    return config, world, stack, head


def evaluation_scores(ckpt: Checkpoint, vocab=None, n_eval=N_EVAL, eval_seed=EVAL_SEED):
    """Score the evaluation set (``eval_samples``) of the checkpoint's world.

    Returns (scores n x |vocab|, labels, vocab names). ``vocab`` defaults to
    the seen classes of the training split; passing the full class list
    exercises the open-vocabulary path (unseen names are simply embedded).
    Only the image tower leaves the calling thread (``_decoder_scores``).
    """
    config, world, _, _ = model = restore_model(ckpt)
    if vocab is None:
        vocab, _ = open_vocab_split(world.class_names, config.n_seen)
    if not vocab:
        raise ValueError("vocab names no labels")
    queries = label_queries(world, vocab)
    scores, _, labels = _decoder_scores(model, vocab, queries, n_eval, eval_seed)
    return scores, labels, list(vocab)


def _decoder_scores(model, vocab, queries, n_eval, eval_seed):
    """(scores, images, labels) of a restored model on the evaluation set, scores
    and labels n_eval x |vocab|, from the vocabulary's float64 ``queries``. A
    forward takes as many images as fit CHUNK_BYTES of key/value and query rows,
    which changes no bit of a score. The calling thread draws each chunk and
    runs the decoder; one worker thread, joined before return, runs only each
    chunk's pyramid and image tower (``encode_images``). An encode's error
    reaches the caller as raised; the encodes queued after it are cancelled.
    The first non-finite score raises a warning-free ``NumericError`` naming it."""
    config, world, stack, head = model
    plan, dtype = build_pyramid_plan(config), config.np_dtype
    cols, q0 = class_indices(world, vocab), queries.astype(dtype)
    samples = eval_samples(world, n_eval, eval_seed)
    kv_rows = plan.row_count(1 + world.image_encoder.n_patches)
    image_bytes = (kv_rows + len(vocab)) * config.embed_dim * dtype.itemsize
    drawn, jobs, rows = [], [], []

    def cancel_later(job):  # on the worker, as an encode ends
        if not job.cancelled() and job.exception():
            for later in jobs:
                later.cancel()

    pool = ThreadPoolExecutor(1)
    try:
        for c in batch_chunks(n_eval, image_bytes):
            drawn += [next(samples) for _ in range(n_eval)[c]]
            jobs.append(pool.submit(encode_images, world, plan, [i for i, _ in drawn[c]], dtype))
            jobs[-1].add_done_callback(cancel_later)
        for kv in (job.result() for job in jobs):
            q = np.broadcast_to(q0, (len(kv), *q0.shape))
            with np.errstate(over="ignore", invalid="ignore"):
                probs = classify(stack_forward(Tensor(q), Tensor(kv), stack), head)
            rows.append(probs.value[..., 0])
    finally:
        pool.shutdown(cancel_futures=True)
    scores = np.concatenate(rows)
    bad = np.argwhere(~np.isfinite(scores))
    if len(bad):
        image, label = bad[0]
        raise NumericError(f"score of eval image {image} for label {vocab[label]!r} "
                           f"is {scores[image, label]}")
    return scores, [img for img, _ in drawn], np.stack([lab for _, lab in drawn])[:, cols]


def cosine_baseline_scores(world, images, labels) -> np.ndarray:
    """Decoder-free reference scores, n images x k: cosine of each image's
    global CLS token (level-0 view: the whole image resized to the encoder's
    base size) against each of the k label query rows ``labels``, with the
    bits of one image's ``labels @ row / (norms * np.linalg.norm(row))`` alone."""
    plan = build_plan(world.base_size, world.image_side, selected_levels=[0])
    v = encode_images(world, plan, images)[:, 0]
    vn = _row_norms(v)
    if np.any(vn == 0):
        raise ValueError("an image embedding has zero norm")
    return (labels @ v[:, :, None])[..., 0] / (np.linalg.norm(labels, axis=1) * vn[:, None])


def open_vocab_report(ckpt: Checkpoint, n_eval=N_EVAL, eval_seed=EVAL_SEED) -> dict:
    """mAP of the decoder and of the cosine baseline over the seen, the unseen
    and all classes: {"decoder": {"seen", "unseen", "all"}, "cosine": {…}}.
    Each group is a slice of the columns of one forward over every class."""
    config, world, _, _ = model = restore_model(ckpt)
    names = world.class_names
    seen, unseen = open_vocab_split(names, config.n_seen)
    groups = {"seen": class_indices(world, seen), "unseen": class_indices(world, unseen),
              "all": slice(None)}
    queries = label_queries(world, names)
    decoder, images, labels = _decoder_scores(model, names, queries, n_eval, eval_seed)
    scores = {"decoder": decoder, "cosine": cosine_baseline_scores(world, images, queries)}
    return {kind: {group: mean_average_precision(s[:, cols], labels[:, cols])[0]
                   for group, cols in groups.items()}
            for kind, s in scores.items()}
