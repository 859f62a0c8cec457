import dataclasses
import hashlib
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adds import atomic
from adds.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from adds.errors import FormatError
from adds.training import TrainConfig, train

TINY = dict(classes=8, n_seen=6, image_side=32, base_size=32, embed_dim=8,
            depth=1, ffn_hidden=16, epochs=2, n_train=16, lr=5e-3, seed=3)


def load_error(path, what):
    """A ``match`` pattern for ``load_checkpoint``'s error on ``path``: ``what``
    must come after the path prefix, which can hold it too, since pytest names
    each ``tmp_path`` after its test."""
    return f"^{re.escape(str(path))}: .*{what}"


@pytest.fixture(scope="module")
def ckpt():
    return train(TrainConfig(**TINY))


class TestRoundtrip:
    def test_all_fields_survive(self, ckpt, tmp_path):
        path = tmp_path / "c.adds"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.config == ckpt.config
        assert loaded.epoch == ckpt.epoch
        assert loaded.opt_step == ckpt.opt_step
        assert loaded.loss_history == ckpt.loss_history
        assert loaded.rng == ckpt.rng
        assert set(loaded.weights) == set(ckpt.weights)
        for name in ckpt.weights:
            np.testing.assert_array_equal(loaded.weights[name],
                                          ckpt.weights[name])
            np.testing.assert_array_equal(loaded.opt_m[name], ckpt.opt_m[name])
            np.testing.assert_array_equal(loaded.opt_v[name], ckpt.opt_v[name])

    def test_save_load_save_byte_identical(self, ckpt, tmp_path):
        p1 = tmp_path / "a.adds"
        p2 = tmp_path / "b.adds"
        save_checkpoint(ckpt, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_keeps_old_file(self, ckpt, tmp_path, monkeypatch):
        path = tmp_path / "c.adds"
        save_checkpoint(ckpt, path)
        before = path.read_bytes()

        def no_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(atomic.os, "replace", no_replace)
        with pytest.raises(OSError, match="replace failed"):
            save_checkpoint(dataclasses.replace(ckpt, epoch=ckpt.epoch + 1), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.adds"]

    def test_header_layout(self, ckpt, tmp_path):
        path = tmp_path / "c.adds"
        save_checkpoint(ckpt, path)
        data = path.read_bytes()
        assert data[:8] == CHECKPOINT_MAGIC
        assert struct.unpack_from("<I", data, 8)[0] == CHECKPOINT_VERSION


class TestCorruption:
    def _bytes(self, ckpt, tmp_path):
        path = tmp_path / "c.adds"
        save_checkpoint(ckpt, path)
        return path, bytearray(path.read_bytes())

    def test_bad_magic(self, ckpt, tmp_path):
        path, data = self._bytes(ckpt, tmp_path)
        data[:8] = b"WRONGMAG"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=load_error(path, "magic")):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [0, 1, 3, 99])
    def test_bad_version(self, ckpt, tmp_path, version):
        path, data = self._bytes(ckpt, tmp_path)
        data[8:12] = struct.pack("<I", version)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=load_error(path, "version")):
            load_checkpoint(path)

    def test_config_tamper_detected(self, ckpt, tmp_path):
        path, data = self._bytes(ckpt, tmp_path)
        # flip one byte inside the config JSON
        data[20] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=load_error(path, "hash")):
            load_checkpoint(path)

    def test_truncation(self, ckpt, tmp_path):
        path, data = self._bytes(ckpt, tmp_path)
        path.write_bytes(bytes(data[:-10]))
        with pytest.raises(FormatError, match=load_error(path, "truncated")):
            load_checkpoint(path)

    def test_trailing_bytes(self, ckpt, tmp_path):
        path, data = self._bytes(ckpt, tmp_path)
        path.write_bytes(bytes(data) + b"\x00\x00")
        with pytest.raises(FormatError, match=load_error(path, "trailing")):
            load_checkpoint(path)

    def test_meta_json_error_is_format_error(self, ckpt, tmp_path):
        path, data = self._bytes(ckpt, tmp_path)
        meta_at = 12 + 4 + struct.unpack_from("<I", data, 12)[0] + 32 + 4
        data[meta_at] = ord("#")
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=load_error(path, "meta")):
            load_checkpoint(path)

    def test_non_utf8_blob_name_is_format_error(self, ckpt, tmp_path):
        path, data = self._bytes(ckpt, tmp_path)
        name = next(iter(ckpt.weights)).encode()
        data[data.index(name)] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=load_error(path, "UTF-8")):
            load_checkpoint(path)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_file_fails_cleanly_or_round_trips(self, ckpt, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "c.adds"
        save_checkpoint(ckpt, path)
        raw = bytearray(path.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
        else:
            for _ in range(data.draw(st.integers(1, 3), label="edits")):
                at = data.draw(st.integers(0, len(raw) - 1), label="at")
                raw[at] = data.draw(st.integers(0, 255), label="byte")
        path.write_bytes(bytes(raw))
        try:
            loaded = load_checkpoint(path)
        except FormatError:
            return
        save_checkpoint(loaded, path)
        assert path.read_bytes() == raw


class TestVersions:
    def test_float64_blobs_keep_every_bit(self, tmp_path):
        ck = train(TrainConfig(**{**TINY, "dtype": "float64", "epochs": 1}))
        save_checkpoint(ck, tmp_path / "c.adds")
        loaded = load_checkpoint(tmp_path / "c.adds")
        for name, arr in ck.weights.items():
            assert loaded.weights[name].dtype == np.float64
            np.testing.assert_array_equal(loaded.weights[name], arr)

    def test_float32_blob_bytes_unchanged(self, ckpt, tmp_path):
        save_checkpoint(ckpt, tmp_path / "c.adds")
        data = (tmp_path / "c.adds").read_bytes()
        for arr in ckpt.weights.values():
            assert np.ascontiguousarray(arr, dtype="<f4").tobytes() in data

    @pytest.mark.parametrize("dtype", [None, "float16"])
    def test_missing_or_unknown_dtype(self, ckpt, tmp_path, dtype):
        config = {k: v for k, v in ckpt.config.items() if k != "dtype"}
        if dtype is not None:
            config["dtype"] = dtype
        path = tmp_path / "c.adds"
        with pytest.raises(FormatError, match="dtype"):
            save_checkpoint(dataclasses.replace(ckpt, config=config), path)
        save_checkpoint(ckpt, path)
        data = path.read_bytes()
        old_len = struct.unpack_from("<I", data, 12)[0]
        new_json = json.dumps(config, sort_keys=True).encode()
        path.write_bytes(data[:12] + struct.pack("<I", len(new_json)) + new_json
                         + hashlib.sha256(new_json).digest() + data[16 + old_len + 32:])
        with pytest.raises(FormatError, match=load_error(path, "dtype")):
            load_checkpoint(path)
