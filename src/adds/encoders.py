"""Frozen toy encoders, the default prompts, and the synthetic aligned world.

The image encoder is the smallest thing with a ViT-like interface: a patch
embedding, a frozen linear token-mixing step, and a CLS row formed by mean
pooling. The text encoder is defined *through* the image encoder: each class
name maps to the unit-normalized CLS response of the image encoder applied to
that class's signature patch, so the visual-textual alignment assumption is
exactly true by construction and can be tested rather than presumed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeError
from .rng import SeedStreams, derive_key

DEFAULT_PROMPTS = ("This photo contains {}", "This is a {} photo")  # {}: the class name
JITTER = 0.05  # weight of a known class name's template-dependent perturbation
MAX_PLANTED = 5  # most classes planted in one synthetic image


class FrozenImageEncoder:
    """Patch embedding + frozen token mixing + CLS mean pool. Weights never change."""

    def __init__(self, base_size, patch_size, embed_dim, stream, dtype=np.float64):
        if base_size % patch_size != 0:
            raise ConfigurationError(
                f"base size {base_size} not a multiple of patch size {patch_size}"
            )
        self.base_size = base_size
        self.patch_size = patch_size
        self.embed_dim = embed_dim
        self.dtype = np.dtype(dtype)
        self.grid = base_size // patch_size
        self.n_patches = self.grid**2
        dim_in = patch_size * patch_size
        self.proj = (stream.standard_normal((dim_in, embed_dim)) / np.sqrt(dim_in)).astype(dtype)
        self.mix = (np.eye(self.n_patches)
                    + 0.1 * stream.standard_normal((self.n_patches, self.n_patches))
                    ).astype(dtype)
        self.proj.setflags(write=False)
        self.mix.setflags(write=False)

    def encode_tiles(self, tiles: np.ndarray) -> np.ndarray:
        """Tokens for a (T, base, base) stack of tiles, (T, 1 + p, e): row 0 of
        each tile is CLS, rows 1..p are patches. A tile's tokens are the same
        bits in any stack, a stack of one included."""
        if tiles.ndim != 3 or tiles.shape[1:] != (self.base_size, self.base_size):
            raise ShapeError(
                f"tiles shape {tiles.shape} != (T, {self.base_size}, {self.base_size})"
            )
        p, t = self.patch_size, len(tiles)
        patches = (
            tiles.astype(self.dtype, copy=False)
            .reshape(t, self.grid, p, self.grid, p)
            .transpose(0, 1, 3, 2, 4)
            .reshape(t, self.n_patches, p * p)
        )
        tokens = self.mix @ (patches @ self.proj)
        cls = tokens.mean(axis=1, keepdims=True)
        return np.concatenate([cls, tokens], axis=1)


def _row_norms(m: np.ndarray) -> np.ndarray:
    """Each row's norm as ``np.linalg.norm`` takes a 1-D norm, the row dotted
    with itself, for all rows in one batched matmul. ``norm(m, axis=1)``,
    einsum and ``(m * m).sum(1)`` add in other orders: last bits may differ."""
    return np.sqrt((m[:, None, :] @ m[:, :, None])[:, 0, 0])


def unit_rows(m: np.ndarray) -> np.ndarray:
    """Each row of ``m`` over its norm: the bits of ``v / np.linalg.norm(v)``."""
    return m / _row_norms(m)[:, None]


class FrozenTextEncoder:
    """Deterministic text embedding over a fixed class-vector table.

    Strings containing a known class name map near that class's aligned
    vector, with a small template-dependent perturbation; unknown strings fall
    back to a pure hash embedding.
    """

    def __init__(self, embed_dim, class_vectors: dict[str, np.ndarray],
                 seed: int = 0):
        self.embed_dim = embed_dim
        self.class_vectors = {k: np.asarray(v, dtype=np.float64)
                              for k, v in class_vectors.items()}
        self.seed = seed
        self._rank = {name: i for i, name in enumerate(self.class_vectors)}
        self._names = list(self.class_vectors)
        self._lengths = sorted({len(name) for name in self.class_vectors}, reverse=True)
        self._philox = np.random.Philox(0)  # re-keyed for every string encoded
        self._gen = np.random.Generator(self._philox)
        # the state Philox(key=...) starts in; _hash_draw sets only the key
        self._fresh_state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, np.uint64), "key": None},
            "buffer": np.zeros(4, np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def _hash_draw(self, text: str, out: np.ndarray) -> None:
        """Fill ``out`` with normal draws from a Philox stream keyed by
        ``derive_key(seed, text)``, as a ``SeedStreams`` stream is keyed.

        One generator is re-keyed per string, to the state that
        ``Philox(key=words)`` starts in; it converts ``words`` the same way.
        So one encoder must not be shared between threads: evaluation keeps
        the text tower on its calling thread (``training._decoder_scores``).
        A word >= 2**63 beside a smaller one makes ``np.asarray`` pick
        float64, which rounds the key; every text embedding depends on it.
        """
        words = derive_key(self.seed, text)
        self._fresh_state["state"]["key"] = np.asarray(words).astype(np.uint64)
        self._philox.state = self._fresh_state
        self._gen.standard_normal(out=out)

    def class_name_in(self, text: str) -> str | None:
        """The longest class name that occurs in ``text``, the first in table
        order among names of that length; None if no name occurs.

        Looks up the text's substrings of each name length, longest first,
        so the cost grows with the text, not with the number of classes.
        """
        get = self._rank.get
        for n in self._lengths:
            ranks = [r for i in range(len(text) - n + 1)
                     if (r := get(text[i:i + n])) is not None]
            if ranks:
                return self._names[min(ranks)]
        return None

    def encode_texts(self, texts) -> np.ndarray:
        """Unit-norm embedding of each of a sequence of strings, (n, e). A
        string's row has the same bits in any sequence, one of one included."""
        draws = np.empty((len(texts), self.embed_dim))
        known, rows = [], []
        for i, text in enumerate(texts):
            self._hash_draw(text, draws[i])
            name = self.class_name_in(text)
            if name is not None:
                known.append(i)
                rows.append(self.class_vectors[name])
        v = unit_rows(draws)
        if known:
            v[known] = np.array(rows) + JITTER * v[known]
        return unit_rows(v)


# ---------------------------------------------------------------------------
# synthetic world

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]
MAX_CLASSES = len(_SYLLABLES) ** 2  # class names are two syllables

SIGNATURE_CHUNK = 64  # signature tiles per encode_tiles call


def _make_names(k: int) -> list[str]:
    names = []
    for i in range(k):
        a, b = divmod(i, len(_SYLLABLES))
        names.append(_SYLLABLES[a] + _SYLLABLES[b])
    return names


@dataclass
class SyntheticWorld:
    """Images with planted per-class signature patches, labeled exactly."""

    class_names: list[str]
    signatures: np.ndarray  # k x patch x patch
    image_side: int
    base_size: int
    patch_size: int
    embed_dim: int
    noise_std: float
    image_encoder: FrozenImageEncoder
    text_encoder: FrozenTextEncoder

    def sample(self, stream, class_subset=None):
        """One (image, binary label vector) pair with 1..MAX_PLANTED classes, no more
        than its patch-sized cells; cell i starts at patch_size * divmod(i, cells a side)."""
        k = len(self.class_names)
        pool = np.arange(k) if class_subset is None else np.asarray(class_subset)
        p, per_side = self.patch_size, self.image_side // self.patch_size
        n_pos = int(stream.integers(1, min(MAX_PLANTED, len(pool), per_side**2) + 1))
        chosen = stream.choice(pool, size=n_pos, replace=False)
        cell_ids = stream.choice(per_side**2, size=n_pos, replace=False)
        img = stream.standard_normal((self.image_side, self.image_side))
        img *= self.noise_std  # in place: one image-sized array per draw, not two
        for c, cell in zip(chosen, cell_ids):
            y, x = (p * v for v in divmod(cell, per_side))
            img[y:y + p, x:x + p] = self.signatures[c]
        labels = np.zeros(k, dtype=np.int8)
        labels[chosen] = 1
        return img, labels

    def sample_many(self, stream, n, class_subset=None):
        return [self.sample(stream, class_subset) for _ in range(n)]


def make_synthetic_world(
    k: int,
    image_side: int,
    base_size: int,
    embed_dim: int,
    seed: int,
    patch_size: int = 8,
    noise_std: float = 0.05,
) -> SyntheticWorld:
    if k < 2:
        raise ConfigurationError(f"need at least 2 classes, got {k}")
    if image_side % patch_size != 0 or image_side < base_size:
        raise ConfigurationError(
            f"image side {image_side} must be >= base {base_size} and a "
            f"multiple of patch {patch_size}"
        )
    streams = SeedStreams(seed)
    encoder = FrozenImageEncoder(
        base_size, patch_size, embed_dim, streams.stream("image_encoder")
    )
    sig_stream = streams.stream("signatures")
    signatures = sig_stream.standard_normal((k, patch_size, patch_size))
    names = _make_names(k)
    # a chunk at a time bounds the intermediates of a large vocabulary, here
    # and in the separability check below (k x k cosines would be 192 MB at 4,900)
    cls = np.empty((k, embed_dim))
    for lo in range(0, k, SIGNATURE_CHUNK):
        sigs = signatures[lo:lo + SIGNATURE_CHUNK]
        tiles = np.zeros((len(sigs), base_size, base_size))
        tiles[:, :patch_size, :patch_size] = sigs
        cls[lo:lo + len(sigs)] = encoder.encode_tiles(tiles)[:, 0]
    norms = _row_norms(cls)
    if not norms.all():
        raise ConfigurationError(
            f"class {names[int(np.argmin(norms))]} has a zero signature response")
    responses = cls / norms[:, None]
    worst = -1.0
    for lo in range(0, k, SIGNATURE_CHUNK):
        cos = responses[lo:lo + SIGNATURE_CHUNK] @ responses.T
        np.fill_diagonal(cos[:, lo:], 0.0)
        worst = max(worst, cos.max())
    if worst > 0.95:
        raise ConfigurationError(
            f"{k} classes are not separable at patch size {patch_size} "
            f"(max signature cosine {worst:.3f})"
        )
    return SyntheticWorld(
        class_names=names,
        signatures=signatures,
        image_side=image_side,
        base_size=base_size,
        patch_size=patch_size,
        embed_dim=embed_dim,
        noise_std=noise_std,
        image_encoder=encoder,
        text_encoder=FrozenTextEncoder(embed_dim, dict(zip(names, responses)), seed=seed),
    )
