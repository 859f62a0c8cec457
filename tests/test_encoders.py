import hashlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adds import training
from adds.encoders import (
    DEFAULT_PROMPTS,
    JITTER,
    MAX_PLANTED,
    SIGNATURE_CHUNK,
    FrozenImageEncoder,
    FrozenTextEncoder,
    _row_norms,
    make_synthetic_world,
)
from adds.errors import ConfigurationError, ShapeError
from adds.rng import SeedStreams
from adds.training import label_queries


def make_encoder(seed=0, base=16, patch=4, dim=6, dtype=np.float64):
    return FrozenImageEncoder(base, patch, dim, SeedStreams(seed).stream("enc"), dtype=dtype)


def encode_tile_loop(enc, tile):
    """One tile at a time through 2-D arrays: the reference for encode_tiles."""
    p = enc.patch_size
    patches = (tile.astype(enc.dtype).reshape(enc.grid, p, enc.grid, p)
               .transpose(0, 2, 1, 3).reshape(enc.n_patches, p * p))
    tokens = enc.mix @ (patches @ enc.proj)
    return np.concatenate([tokens.mean(axis=0, keepdims=True), tokens], axis=0)


def signature_tile(world, class_index):
    """A base-size tile holding one class's signature in its top-left patch."""
    tile = np.zeros((world.base_size, world.base_size))
    p = world.patch_size
    tile[:p, :p] = world.signatures[class_index]
    return tile


def fresh_generator_vector(enc, text):
    """Unit normal draw of a generator built for this string alone, and its key."""
    digest = hashlib.sha256(f"{enc.seed}:{text}".encode("utf-8")).digest()
    key = [int.from_bytes(digest[i:i + 8], "little") for i in range(0, 16, 8)]
    v = np.random.Generator(np.random.Philox(key=key)).standard_normal(enc.embed_dim)
    return v / np.linalg.norm(v), key


class RefTextEncoder:
    """One string at a time, with a set of substrings per name length for the
    lookup: the reference for encode_texts and label_queries."""

    def __init__(self, enc):
        self.enc = enc
        self.rank = {name: i for i, name in enumerate(enc.class_vectors)}
        self.lengths = sorted({len(name) for name in self.rank}, reverse=True)

    def encode_text(self, text):
        name = None
        for n in self.lengths:
            found = self.rank.keys() & {text[i:i + n] for i in range(len(text) - n + 1)}
            if found:
                name = min(found, key=self.rank.__getitem__)
                break
        h = fresh_generator_vector(self.enc, text)[0]
        v = h if name is None else self.enc.class_vectors[name] + JITTER * h
        return v / np.linalg.norm(v)

    def embed_label(self, name, prompts):
        mean = np.mean([self.encode_text(p.format(name)) for p in prompts], axis=0)
        return mean / np.linalg.norm(mean)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_row_norms_are_each_rows_linalg_norm():
    for e in range(1, 65):
        m = SeedStreams(e).stream("rows").standard_normal((1 + 3 * e, e))
        assert same_bits(_row_norms(m), [np.linalg.norm(row) for row in m]), e


class TestPromptTemplate:
    """The prompt templates, DEFAULT_PROMPTS, as label_queries fills them."""

    def test_fill(self, world16, monkeypatch):
        calls = []
        encode_texts = world16.text_encoder.encode_texts

        def spy(texts):
            calls.append(list(texts))
            return encode_texts(texts)

        monkeypatch.setattr(world16.text_encoder, "encode_texts", spy)
        label_queries(world16, ["kipa", "baba"])
        assert calls == [["This photo contains kipa", "This is a kipa photo",
                          "This photo contains baba", "This is a baba photo"]]

    def test_defaults_are_valid(self):
        assert DEFAULT_PROMPTS
        for p in DEFAULT_PROMPTS:
            assert p.count("{}") == 1, p


class TestFrozenImageEncoder:
    def test_token_shape(self):
        enc = make_encoder()
        tokens = enc.encode_tiles(np.zeros((1, 16, 16)))
        assert tokens.shape == (1, 16 + 1, 6)  # (16/4)^2 patches + CLS

    def test_cls_is_mean_of_tokens(self):
        enc = make_encoder(1)
        tile = SeedStreams(2).stream("tile").standard_normal((16, 16))
        tokens = enc.encode_tiles(tile[None])[0]
        np.testing.assert_allclose(tokens[0], tokens[1:].mean(axis=0), atol=1e-12)

    def test_linearity(self):
        enc = make_encoder(3)
        g = SeedStreams(4).stream("tiles")
        a = g.standard_normal((16, 16))
        b = g.standard_normal((16, 16))
        tokens = enc.encode_tiles(np.stack([a + b, a, b]))
        np.testing.assert_allclose(tokens[0], tokens[1] + tokens[2], atol=1e-10)

    def test_weights_frozen_and_hash_stable(self):
        enc = make_encoder(5)
        proj, mix = enc.proj.copy(), enc.mix.copy()
        enc.encode_tiles(np.ones((1, 16, 16)))
        np.testing.assert_array_equal(enc.proj, proj)
        np.testing.assert_array_equal(enc.mix, mix)
        with pytest.raises(ValueError):
            enc.proj[0, 0] = 1.0

    def test_same_seed_same_weights(self):
        a, b, c = make_encoder(6), make_encoder(6), make_encoder(7)
        np.testing.assert_array_equal(a.proj, b.proj)
        np.testing.assert_array_equal(a.mix, b.mix)
        assert not np.array_equal(a.proj, c.proj)
        assert not np.array_equal(a.mix, c.mix)

    def test_wrong_tile_shape(self):
        with pytest.raises(ShapeError):
            make_encoder().encode_tiles(np.zeros((1, 8, 8)))
        with pytest.raises(ShapeError):
            make_encoder().encode_tiles(np.zeros((16, 16)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_encode_tiles_equals_per_tile_loop(self, dtype):
        # the eval-hires stack: 85 tiles of 32 px, 16 patches of 8 px
        enc = make_encoder(9, base=32, patch=8, dim=16, dtype=dtype)
        tiles = SeedStreams(10).stream("tiles").standard_normal((85, 32, 32))
        tokens = enc.encode_tiles(tiles)
        assert tokens.shape == (85, 17, 16) and tokens.dtype == dtype
        np.testing.assert_array_equal(tokens, [encode_tile_loop(enc, t) for t in tiles])
        np.testing.assert_array_equal(enc.encode_tiles(tiles[3:4])[0], tokens[3])

    def test_patch_divisibility(self):
        with pytest.raises(ConfigurationError):
            FrozenImageEncoder(15, 4, 6, SeedStreams(0).stream("enc"))


class TestFrozenTextEncoder:
    def _encoder(self):
        g = SeedStreams(8).stream("vecs")
        table = {}
        for name in ("bozu", "boka", "dena"):
            v = g.standard_normal(6)
            table[name] = v / np.linalg.norm(v)
        return FrozenTextEncoder(6, table)

    def test_unit_norm(self):
        enc = self._encoder()
        for text in ("a photo of bozu", "nothing known here"):
            assert abs(np.linalg.norm(enc.encode_texts([text])[0]) - 1.0) < 1e-12

    def test_known_name_stays_near_class_vector(self):
        enc = self._encoder()
        v = enc.encode_texts(["This photo contains dena"])[0]
        assert v @ enc.class_vectors["dena"] > 0.99

    def test_unknown_text_deterministic_and_far(self):
        enc = self._encoder()
        a = enc.encode_texts(["zzz unknown zzz"])[0]
        b = enc.encode_texts(["zzz unknown zzz"])[0]
        np.testing.assert_array_equal(a, b)
        sims = [abs(a @ v) for v in enc.class_vectors.values()]
        assert max(sims) < 0.9

    def test_different_prompts_differ_slightly(self):
        enc = self._encoder()
        a = enc.encode_texts(["photo of boka"])[0]
        b = enc.encode_texts(["image of boka"])[0]
        assert not np.array_equal(a, b)
        assert a @ b > 0.99

    # names that nest in one another, and equal-length names in both orders
    NESTED = ("bc", "abcd", "ab", "cd", "abc", "bcd", "da", "a")

    @staticmethod
    def _scan(names, text):
        """Every name checked against the text; the longest wins, the first
        in table order among equal lengths."""
        matches = [n for n in names if n in text]
        return max(matches, key=len) if matches else None

    @given(st.text(alphabet="abcdx ", max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_lookup_agrees_with_scan(self, text):
        table = {n: np.ones(2) for n in self.NESTED}
        enc = FrozenTextEncoder(2, table)
        assert enc.class_name_in(text) == self._scan(self.NESTED, text)

    @pytest.mark.parametrize("text, name", [("xx abcd", "abcd"), ("bcd ab", "bcd"),
                                            ("cd ab", "ab"), ("da bc", "bc"),
                                            ("da cd", "cd"), ("xa", "a"), ("", None),
                                            ("xyz", None)])
    def test_lookup_cases(self, text, name):
        enc = FrozenTextEncoder(2, {n: np.ones(2) for n in self.NESTED})
        assert enc.class_name_in(text) == name == self._scan(self.NESTED, text)

    @pytest.mark.parametrize("dim", [6, 257])
    def test_hash_vector_equals_fresh_generator(self, dim):
        # the reused generator is re-keyed per string, so any order in a
        # sequence gives the draws of a generator built for that string alone
        enc = FrozenTextEncoder(dim, {}, seed=4)
        texts = [f"{i} This is a photo {'é' * (i % 3)}" for i in range(300)]
        texts += texts[::-1]
        high = set()
        for text, row in zip(texts, enc.encode_texts(texts)):
            expected, key = fresh_generator_vector(enc, text)
            # an unknown string's embedding is its unit draw, normalised again
            assert same_bits(row, expected / np.linalg.norm(expected))
            high.add(sum(w >= 2**63 for w in key))
        assert high == {0, 1, 2}  # the float64 key of np.asarray is covered

    @pytest.mark.parametrize("dim", [6, 16])
    def test_encode_texts_equals_per_string_reference(self, dim):
        # nested names, a text with two names, unknown and empty strings
        g = SeedStreams(11).stream("vecs")
        enc = FrozenTextEncoder(dim, {n: g.standard_normal(dim) for n in self.NESTED}, seed=3)
        texts = ["xx abcd", "bcd ab", "cd ab", "da bc", "a photo of x", "", "zzz",
                 "This is a abc photo", "ab" * 9]
        rows, ref = enc.encode_texts(texts), RefTextEncoder(enc)
        assert rows.shape == (len(texts), dim)
        for text, row in zip(texts, rows):
            assert same_bits(row, ref.encode_text(text))
            assert same_bits(enc.encode_texts([text])[0], row)
        assert enc.encode_texts([]).shape == (0, dim)


class TestEmbedLabel:
    """label_queries: one unit row per label name, the mean of its prompted forms."""

    def test_unit_norm_and_near_class(self):
        g = SeedStreams(9).stream("vecs")
        v = g.standard_normal(8)
        enc = FrozenTextEncoder(8, {"kipa": v / np.linalg.norm(v)})
        out = label_queries(SimpleNamespace(text_encoder=enc, embed_dim=8), ["kipa"])[0]
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
        assert out @ enc.class_vectors["kipa"] > 0.99

    @pytest.mark.parametrize("n_templates", [1, 2, 3])
    def test_embed_labels_equals_per_label_reference(self, world16, monkeypatch,
                                                     n_templates):
        prompts = (*DEFAULT_PROMPTS, "a {} in a noisy image")[:n_templates]
        monkeypatch.setattr(training, "DEFAULT_PROMPTS", prompts)
        ref = RefTextEncoder(world16.text_encoder)
        known = world16.class_names
        # an unknown label, two names in one label, a name inside a longer word
        names = [*known, "zz", f"{known[5]} {known[2]}", f"x{known[7]}x"]
        out = label_queries(world16, names)
        assert same_bits(out, np.stack([ref.embed_label(n, prompts) for n in names]))
        assert same_bits(label_queries(world16, [names[3]])[0], out[3])
        assert label_queries(world16, []).shape == (0, world16.embed_dim)


@pytest.fixture(scope="module")
def worlds():
    """The bench's worlds (64 px, base 32, 16 dims) by class count, built once."""
    cache = {}

    def get(k):
        if k not in cache:
            cache[k] = make_synthetic_world(k=k, image_side=64, base_size=32, embed_dim=16,
                                            seed=0)
        return cache[k]

    return get


@pytest.fixture
def world16(worlds):
    return worlds(16)


class TestVocabularyPath:
    """A vocabulary embedded in one pass has the bits of one string at a time."""

    @pytest.mark.parametrize("k", [16, 600, 4900])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_label_queries_equal_per_label_reference(self, worlds, k, dtype):
        world = worlds(k)
        ref = RefTextEncoder(world.text_encoder)
        expect = np.stack([ref.embed_label(n, DEFAULT_PROMPTS)
                           for n in world.class_names]).astype(dtype)
        assert same_bits(label_queries(world, world.class_names, dtype), expect)

    def test_label_queries_are_pinned(self, worlds):
        # SHA-256 of the 600-class float32 queries of the engine that embedded
        # one string per call
        world = worlds(600)
        q = label_queries(world, world.class_names, np.float32)
        assert hashlib.sha256(q.tobytes()).hexdigest() == (
            "4ffea74c672a6294a30f0051459a2cd1c79377892f3885ea23a04a9861febc2d")


class TestSyntheticWorld:
    def _world(self, **kw):
        kw.setdefault("k", 6)
        kw.setdefault("image_side", 32)
        kw.setdefault("base_size", 16)
        kw.setdefault("embed_dim", 8)
        kw.setdefault("seed", 0)
        kw.setdefault("patch_size", 4)
        return make_synthetic_world(**kw)

    def test_names_unique_and_sorted_generation(self):
        world = self._world()
        assert len(set(world.class_names)) == 6
        assert all(len(n) == 4 for n in world.class_names)

    def test_sample_label_count_in_range(self):
        world = self._world()
        stream = SeedStreams(1).stream("data")
        for _ in range(50):
            img, labels = world.sample(stream)
            assert img.shape == (32, 32)
            assert 1 <= labels.sum() <= MAX_PLANTED
            assert labels.shape == (6,)

    def test_one_cell_plants_one_class(self):
        # more planted classes than cells once failed to draw their cells
        world = self._world(image_side=8, base_size=8, patch_size=8)
        assert len(world._cells) == 1
        stream = SeedStreams(1).stream("data")
        for _ in range(20):
            _, labels = world.sample(stream)
            assert labels.sum() == 1

    def test_planted_signature_present_verbatim(self):
        world = self._world(noise_std=0.0)
        stream = SeedStreams(2).stream("data")
        img, labels = world.sample(stream)
        for c in np.flatnonzero(labels):
            sig = world.signatures[c]
            found = any(
                np.array_equal(img[y:y + 4, x:x + 4], sig)
                for (y, x) in world._cells
            )
            assert found

    def test_class_subset_respected(self):
        world = self._world()
        stream = SeedStreams(3).stream("data")
        subset = np.array([0, 2])
        for _ in range(20):
            _, labels = world.sample(stream, class_subset=subset)
            assert set(np.flatnonzero(labels)) <= {0, 2}

    @pytest.mark.parametrize("k", [16, 600, 4900])
    def test_class_vectors_equal_per_tile_encoding(self, monkeypatch, k):
        # signature tiles are encoded SIGNATURE_CHUNK at a time
        calls = []
        encode_tiles = FrozenImageEncoder.encode_tiles

        def spy(self, tiles):
            calls.append(len(tiles))
            return encode_tiles(self, tiles)

        monkeypatch.setattr(FrozenImageEncoder, "encode_tiles", spy)
        world = make_synthetic_world(k=k, image_side=64, base_size=32, embed_dim=16, seed=0)
        assert max(calls) <= SIGNATURE_CHUNK and sum(calls) == k
        for i, name in enumerate(world.class_names):
            cls = encode_tile_loop(world.image_encoder, signature_tile(world, i))[0]
            assert same_bits(world.text_encoder.class_vectors[name], cls / np.linalg.norm(cls))

    def test_world_build_memory_is_not_quadratic(self):
        # a k x k cosine matrix alone would take 192 MB at k = 4,900
        tracemalloc.start()
        try:
            make_synthetic_world(k=4900, image_side=64, base_size=32, embed_dim=16, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_alignment_by_construction(self):
        # the text vector of a class is exactly the unit CLS response of the
        # image encoder on that class's signature tile
        world = self._world()
        for i, name in enumerate(world.class_names):
            cls = world.image_encoder.encode_tiles(signature_tile(world, i)[None])[0, 0]
            np.testing.assert_allclose(
                world.text_encoder.class_vectors[name],
                cls / np.linalg.norm(cls),
                atol=1e-12,
            )

    def test_determinism_per_seed(self):
        a = self._world()
        b = self._world()
        np.testing.assert_array_equal(a.signatures, b.signatures)
        np.testing.assert_array_equal(a.image_encoder.proj, b.image_encoder.proj)
        np.testing.assert_array_equal(a.image_encoder.mix, b.image_encoder.mix)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            self._world(k=1)
        with pytest.raises(ConfigurationError):
            self._world(image_side=30)

